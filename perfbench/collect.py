"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --workloads figures accept polytope --seeds 1-10 [--out FILE]

For every workload and end-to-end metric, prints the median of the per-run
values, their quartiles (statistics.quantiles, n=4) and the interquartile
spread as a share of the median, next to the metric's bound from
BENCHMARK.json.  With --out, also writes every run's result and the summary as
JSON, each run with its environment.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, summary = {}, {}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", f"{args.seconds:g}", "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            report = json.loads(next(line for line in lines if line.startswith("report: "))[8:])
            results.append({**result, "environment": report["environment"]})
            values = "  ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items())
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}  {values}", flush=True)
        runs[workload] = results
        summary[workload] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                       "spread": (q3 - q1) / median, "bound": bound,
                                       "n": len(values)}
            print(f"  {workload:<9s} {name:<12s} median {median:9.4f}  q1 {q1:9.4f}  q3 {q3:9.4f}"
                  f"  spread {(q3 - q1) / median:6.3f}  bound {bound}", flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps({"seeds": args.seeds, "seconds": args.seconds,
                                        "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
