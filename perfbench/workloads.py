"""The three benchmark workloads: set-up, timed region and output checks.

Each workload is built in a fresh interpreter with xhbac importable.  The
constructor is set-up (imports and input generation from the seed), `run()`
is the timed region and makes every call through xhbac's public entry points,
and `check()` judges the outputs afterwards, one operation record per figure,
criterion or polytope input.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

import numpy as np

import checks

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

FIGURE_IDS = ("fig3", "fig5", "fig7", "fig8", "fig9")

# Criterion id -> (key, verdict at the seed commit).  Criterion 8 fails by
# design: its stated bound is kept although the model cannot meet it.
SEED_VERDICTS = {
    1: ("qubit-closed-form", "PASS"),
    2: ("ladder-closed-form", "PASS"),
    3: ("beta-permutation", "PASS"),
    4: ("oracle-equivalence", "PASS"),
    5: ("mode-reuse", "PASS"),
    6: ("jc-window", "PASS"),
    7: ("bound-consistency", "PASS"),
    8: ("anharmonic", "FAIL"),
    9: ("master-equation", "PASS"),
    10: ("markovian-ceiling", "PASS"),
    11: ("noise-robustness", "PASS"),
    12: ("baseline-separation", "PASS"),
    13: ("atom-stream", "PASS"),
}

# Polytope inputs: (dimension, degenerate level pair) for extremal enumeration,
# sized so that no single call dominates (a d=7 enumeration is ~0.5 s, d=8 ~8 s).
# Each is followed by d!/2 reachability queries cycling through its distinct
# images: the number of distinct images varies more than 2x between seeds, and
# a fixed query count keeps the work of a pass alike for every seed.
EXTREMAL_SHAPES = ((7, False), (7, True)) + ((6, False), (6, True)) * 2 + ((5, False), (5, True)) * 4
# Composite (system d, ancilla r) shapes up to joint dimension 8, for the
# oracle and the optimal protocol.
PROTOCOL_SHAPES = ((2, 4), (4, 2), (8, 1), (2, 3), (3, 2), (7, 1), (6, 1), (5, 1)) * 4
PROTOCOL_ROUNDS = 100


def _failed(name: str, exc: Exception) -> dict:
    return {"name": name, "ok": False, "detail": f"raised {exc!r}"}


class Figures:
    """`xhbac figure <id> --out <tmp>` for every figure at the default config."""

    def __init__(self, seed: int, tmp: Path) -> None:
        from xhbac import cli
        self.cli = cli
        self.tmp = tmp
        self.order = list(FIGURE_IDS)
        random.Random(seed).shuffle(self.order)
        self.errors: dict[str, dict] = {}

    def run(self) -> None:
        for fig in self.order:
            try:
                code = self.cli.main(["figure", fig, "--out", str(self.tmp / f"{fig}.csv")])
            except Exception as exc:  # one failed figure must not stop the pass
                self.errors[fig] = _failed(fig, exc)
                continue
            if code != 0:
                self.errors[fig] = {"name": fig, "ok": False, "detail": f"exit code {code}"}

    def check(self) -> list[dict]:
        ops = []
        for fig in FIGURE_IDS:
            if fig in self.errors:
                ops.append(self.errors[fig])
                continue
            path = self.tmp / f"{fig}.csv"
            try:
                text = path.read_text()
            except OSError as exc:
                ops.append(_failed(fig, exc))
                continue
            body = text.split("\n", 1)[1] if text.startswith("# ") else text
            want = (REFERENCE_DIR / f"{fig}.csv").read_text()
            ops.append(checks.compare_body(fig, body, want))
        return ops


class Accept:
    """`xhbac --seed <seed> accept all`, the acceptance gate."""

    def __init__(self, seed: int, tmp: Path) -> None:
        from xhbac import cli
        self.cli = cli
        self.argv = ["--seed", str(seed), "accept", "all"]
        self.output = ""
        self.error: Exception | None = None

    def run(self) -> None:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                self.cli.main(self.argv)
        except Exception as exc:  # recorded; criteria without a verdict line fail
            self.error = exc
        self.output = buf.getvalue()

    def check(self) -> list[dict]:
        ops = checks.judge_verdicts(checks.parse_verdicts(self.output), SEED_VERDICTS)
        if self.error is not None:
            for op in ops:
                if op["kind"] == "missing":
                    op["detail"] = f"raised {self.error!r}"
        return ops


def _random_spectrum(rng, d: int, degenerate: bool = False, beta: float | None = None):
    from xhbac.thermal_core import EnergySpectrum
    levels = np.sort(rng.uniform(0.0, 2.5, d))
    levels[0] = 0.0
    if degenerate:
        j = int(rng.integers(1, d))
        levels[j] = levels[j - 1]
    if beta is None:
        beta = float(rng.uniform(0.2, 2.0))
    return EnergySpectrum(tuple(float(x) for x in levels), beta)


class Polytope:
    """Extremal points with reachability queries, and the oracle against the optimal protocol."""

    def __init__(self, seed: int, tmp: Path) -> None:
        from xhbac import protocols, thermal_core
        self.tc, self.pr = thermal_core, protocols
        rng = np.random.default_rng(seed)
        self.extremal_inputs = []
        for d, degenerate in EXTREMAL_SHAPES:
            spectrum = _random_spectrum(rng, d, degenerate)
            self.extremal_inputs.append((rng.dirichlet(np.ones(d)), spectrum))
        self.protocol_inputs = []
        for d, r in PROTOCOL_SHAPES:
            system = _random_spectrum(rng, d)
            ancilla = None if r == 1 else _random_spectrum(rng, r, beta=system.beta)
            spec = thermal_core.CompositeSpec(system=system, ancilla=ancilla)
            self.protocol_inputs.append((rng.dirichlet(np.ones(d)), spec))
        self.extremal_out: list = []
        self.protocol_out: list = []

    def run(self) -> None:
        tc, pr = self.tc, self.pr
        for p, spectrum in self.extremal_inputs:
            try:
                found = tc.extremal_points(p, spectrum)
                images = found.points
                answers = [tc.thermo_majorizes(p, images[i % len(images)], spectrum)
                           for i in range(found.n_orders // 2)]
                self.extremal_out.append((found, answers))
            except Exception as exc:  # one failed input must not stop the pass
                self.extremal_out.append(exc)
        for p, spec in self.protocol_inputs:
            try:
                oracle = pr.oracle_optimal_round(p, spec)
                trace = pr.run_optimal_protocol(p, spec, PROTOCOL_ROUNDS)
                self.protocol_out.append((oracle.ground, trace.populations))
            except Exception as exc:
                self.protocol_out.append(exc)

    def check(self) -> list[dict]:
        ops = []
        for i, ((p, spectrum), out) in enumerate(zip(self.extremal_inputs, self.extremal_out)):
            name = f"extremal{i}-d{p.size}"
            if isinstance(out, Exception):
                ops.append(_failed(name, out))
                continue
            found, answers = out
            ops.append(checks.check_extremal(name, p, spectrum.levels, spectrum.beta,
                                             found.n_orders, found.n_distinct,
                                             found.points, answers))
        for i, ((p, spec), out) in enumerate(zip(self.protocol_inputs, self.protocol_out)):
            name = f"protocol{i}-d{spec.d}r{spec.r}"
            if isinstance(out, Exception):
                ops.append(_failed(name, out))
                continue
            ground, populations = out
            ops.append(checks.check_protocol(name, spec.d, PROTOCOL_ROUNDS, ground, populations))
        return ops


WORKLOADS = {"figures": Figures, "accept": Accept, "polytope": Polytope}
