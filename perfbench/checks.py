"""Correctness checks applied to a pass's outputs after its timed region.

Pure functions on plain data with no import of xhbac, so that the checks stay
independent of the code they judge and `selfcheck.py` can feed them corrupted
outputs.  Each check returns one operation record: a dict with at least
`name`, `ok` and `detail`.
"""

from __future__ import annotations

import math
import re

import numpy as np

# The acceptance suite's tightest tolerance on table values.
BODY_TOL = 1e-10
# Curve comparison slack, the defaults of xhbac's own thermo_majorizes.
CURVE_RTOL = 1e-9
CURVE_ATOL = 1e-12
# Crit 4's tolerance on the oracle ground population.
ORACLE_TOL = 1e-10
SUM_TOL = 1e-9

VERDICT_LINE = re.compile(r"^(PASS|FAIL)\s+(\d+)\s+(\S+)\s+\[\s*([0-9.]+)s / ([0-9.]+)s\]")


def compare_body(name: str, got: str, want: str, tol: float = BODY_TOL) -> dict:
    """Compare a figure table body with its reference body.

    Fails on a changed header, row count or row width, on a cell that is not a
    number where the reference differs, and on a numeric deviation above tol.
    """
    def result(ok, identical, worst, detail):
        return {"name": name, "ok": ok, "body_identical": identical,
                "max_abs_dev": worst, "detail": detail}

    if got == want:
        return result(True, True, 0.0, "body identical")
    rows_got = [line.split(",") for line in got.splitlines()]
    rows_want = [line.split(",") for line in want.splitlines()]
    if (len(rows_got) != len(rows_want) or rows_got[:1] != rows_want[:1]
            or any(len(a) != len(b) for a, b in zip(rows_got, rows_want))):
        return result(False, False, math.inf, "shape change")
    worst = 0.0
    for row_got, row_want in zip(rows_got[1:], rows_want[1:]):
        for a, b in zip(row_got, row_want):
            if a == b:
                continue
            try:
                dev = abs(float(a) - float(b))
            except ValueError:
                return result(False, False, math.inf, f"cell {a!r} != {b!r}")
            if not math.isfinite(dev):
                return result(False, False, math.inf, f"cell {a!r} != {b!r}")
            worst = max(worst, dev)
    return result(worst <= tol, False, worst, f"max abs deviation {worst:.3e} (tol {tol:g})")


def parse_verdicts(text: str) -> dict[int, dict]:
    """Criterion id -> verdict, key, elapsed and limit, from `xhbac accept` output."""
    out = {}
    for line in text.splitlines():
        m = VERDICT_LINE.match(line)
        if m:
            out[int(m[2])] = {"verdict": m[1], "key": m[3],
                              "elapsed": float(m[4]), "limit": float(m[5])}
    return out


def judge_verdicts(parsed: dict[int, dict], seed_verdicts: dict[int, tuple[str, str]]) -> list[dict]:
    """One operation per criterion; it fails when its verdict is worse than at seed.

    `seed_verdicts` maps criterion id -> (key, verdict recorded at the seed
    commit).  Every FAIL is classified as a budget overrun (printed elapsed at
    or above the limit) or a numeric failure, whether or not the seed already
    failed it, so neither kind is hidden.
    """
    ops = []
    for ident, (key, seed_verdict) in seed_verdicts.items():
        got = parsed.get(ident)
        if got is None:
            ops.append({"name": key, "ok": False, "kind": "missing",
                        "detail": "no verdict line"})
            continue
        if got["verdict"] == "PASS":
            kind = "pass"
        elif got["elapsed"] >= got["limit"]:
            kind = "budget"
        else:
            kind = "numeric"
        ok = got["verdict"] == "PASS" or seed_verdict == "FAIL"
        ops.append({"name": key, "ok": ok, "kind": kind, "elapsed": got["elapsed"],
                    "limit": got["limit"],
                    "detail": f"{got['verdict']} [{got['elapsed']:.2f}s / {got['limit']:g}s]"
                              f" (seed: {seed_verdict})"})
    return ops


def _curve(p: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elbows of the thermo-majorization curve: cumulative weight and population in beta-order."""
    order = np.argsort(-p / w, kind="stable")
    return (np.concatenate(([0.0], np.cumsum(w[order]))),
            np.concatenate(([0.0], np.cumsum(p[order]))))


def majorizes(p: np.ndarray, q: np.ndarray, w: np.ndarray) -> bool:
    """True when the curve of p is nowhere below the curve of q (reference check)."""
    xp, yp = _curve(p, w)
    xq, yq = _curve(q, w)
    xs = np.union1d(xp, xq)
    hp = np.interp(xs, xp, yp)
    hq = np.interp(xs, xq, yq)
    return bool(np.all(hq <= hp + np.maximum(CURVE_ATOL, CURVE_RTOL * hp)))


def _is_population(q: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(q)) and q.min() >= -CURVE_ATOL and abs(q.sum() - 1.0) <= SUM_TOL)


def check_extremal(name: str, p, levels, beta: float, n_orders: int, n_distinct: int,
                   points, answers) -> dict:
    """Invariants of one extremal-point enumeration and its reachability queries.

    n_orders is d!, the distinct images are populations that p thermo-majorizes
    (checked here independently of xhbac), and every reachability query made
    on them said so.
    """
    p = np.asarray(p, dtype=float)
    points = np.asarray(points, dtype=float)
    d = p.size
    w = np.exp(-beta * (np.asarray(levels, dtype=float) - min(levels)))
    problems = []
    if n_orders != math.factorial(d):
        problems.append(f"n_orders {n_orders} != {d}!")
    if not 1 <= n_distinct <= n_orders or points.shape != (n_distinct, d):
        problems.append(f"n_distinct {n_distinct} with points of shape {points.shape}")
    elif not all(_is_population(q) and majorizes(p, q, w) for q in points):
        problems.append("an image is not a population below the curve of p")
    if not answers or not all(answers):
        problems.append("thermo_majorizes denied a reachable image")
    ratio = n_distinct / n_orders if n_orders else 0.0
    return {"name": name, "ok": not problems,
            "detail": "; ".join(problems) or f"{n_distinct}/{n_orders} distinct ({ratio:.3f})"}


def check_protocol(name: str, d: int, rounds: int, oracle_ground: float, populations) -> dict:
    """The protocol's first round reaches the oracle's ground population, as in crit 4."""
    populations = np.asarray(populations, dtype=float)
    problems = []
    if populations.shape != (rounds + 1, d):
        problems.append(f"trace shape {populations.shape} != {(rounds + 1, d)}")
    else:
        gap = abs(populations[1, 0] - oracle_ground)
        if not gap <= ORACLE_TOL:
            problems.append(f"oracle ground gap {gap:.2e} (tol {ORACLE_TOL:g})")
        if not all(_is_population(row) for row in populations):
            problems.append("a trace row is not a population")
    return {"name": name, "ok": not problems, "detail": "; ".join(problems) or "oracle matched"}
