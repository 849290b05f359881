"""Show that the benchmark's output checks catch wrong outputs.

    python3 perfbench/selfcheck.py

Feeds the checks in checks.py a corrupted reference body, a changed table
shape, an injected wrong acceptance verdict, an unreachable polytope image and
an oracle mismatch, and confirms each one raises the error rate while the
untouched outputs keep it at zero.  Exits 1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import sys

import numpy as np

import checks
from workloads import FIGURE_IDS, REFERENCE_DIR, SEED_VERDICTS


def _error_rate(ops: list[dict]) -> float:
    return sum(not op["ok"] for op in ops) / len(ops)


def _accept_output(overrides: dict[int, str]) -> str:
    lines = []
    for ident, (key, verdict) in SEED_VERDICTS.items():
        lines.append(overrides.get(ident, f"{verdict} {ident:2d} {key:<24s} [  0.10s / 10s] detail"))
    return "\n".join(lines) + "\n"


def main() -> int:
    cases = []

    bodies = {fig: (REFERENCE_DIR / f"{fig}.csv").read_text() for fig in FIGURE_IDS}
    clean = [checks.compare_body(fig, body, body) for fig, body in bodies.items()]
    cases.append(("figures: reference bodies against themselves", clean, False))
    header, first, rest = bodies["fig3"].split("\n", 2)
    cells = first.split(",")
    digit = cells[-1][-1]
    last_digit = ",".join(cells[:-1] + [cells[-1][:-1] + ("1" if digit != "1" else "2")])
    near = checks.compare_body("fig3", "\n".join((header, last_digit, rest)), bodies["fig3"])
    cases.append(("figures: a changed last printed digit stays within tolerance", [near], False))
    if near["body_identical"]:
        print("MISS a changed body reads as identical")
        return 1
    corrupt = ",".join(cells[:-1] + [repr(float(cells[-1]) + 1e-6)])
    cases.append(("figures: a value off by 1e-6",
                  [checks.compare_body("fig3", "\n".join((header, corrupt, rest)), bodies["fig3"])], True))
    cases.append(("figures: a dropped row",
                  [checks.compare_body("fig3", "\n".join((header, rest)), bodies["fig3"])], True))

    judge = checks.judge_verdicts
    cases.append(("accept: seed verdicts (criterion 8 fails by design)",
                  judge(checks.parse_verdicts(_accept_output({})), SEED_VERDICTS), False))
    cases.append(("accept: criterion 1 injected as a numeric FAIL",
                  judge(checks.parse_verdicts(_accept_output(
                      {1: "FAIL  1 qubit-closed-form        [  0.10s / 1s] detail"})), SEED_VERDICTS), True))
    overrun = judge(checks.parse_verdicts(_accept_output(
        {6: "FAIL  6 jc-window                [ 31.00s / 30s] detail"})), SEED_VERDICTS)
    cases.append(("accept: criterion 6 over its runtime budget", overrun, True))
    cases.append(("accept: a missing verdict line",
                  judge(checks.parse_verdicts(_accept_output({13: ""})), SEED_VERDICTS), True))

    p = np.array([0.2, 0.5, 0.3])
    levels, beta = (0.0, 1.0, 2.0), 1.0
    cases.append(("polytope: p is reachable from itself",
                  [checks.check_extremal("x", p, levels, beta, 6, 1, [p], [True])], False))
    cases.append(("polytope: an unreachable image",
                  [checks.check_extremal("x", p, levels, beta, 6, 2, [p, [1.0, 0.0, 0.0]],
                                         [True, True])], True))
    cases.append(("polytope: a wrong order count",
                  [checks.check_extremal("x", p, levels, beta, 5, 1, [p], [True])], True))
    trace = np.tile(p, (3, 1))
    cases.append(("polytope: oracle matches the protocol",
                  [checks.check_protocol("y", 3, 2, p[0], trace)], False))
    cases.append(("polytope: oracle off by 1e-8",
                  [checks.check_protocol("y", 3, 2, p[0] + 1e-8, trace)], True))

    missed = 0
    for label, ops, should_fail in cases:
        rate = _error_rate(ops)
        good = (rate > 0) == should_fail
        missed += not good
        print(f"{'ok  ' if good else 'MISS'} error_rate {rate:.3f}  {label}")
    kinds = [op["kind"] for op in overrun if op["kind"] != "pass"]
    if kinds != ["budget", "numeric"]:
        print(f"MISS fail kinds {kinds}, expected criterion 6 budget and 8 numeric")
        missed += 1
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
