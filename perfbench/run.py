"""xhbac benchmark: user-facing figure and acceptance runs, and the polytope library.

    python3 perfbench/run.py --workload {figures,accept,polytope} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; xhbac is imported from its `src/`.

Load model: closed loop, one client, sequential calls from a single process,
BLAS pinned to one thread.  Every pass runs in a fresh interpreter, because
xhbac keeps lru_caches (`acceptance._wide_window_optimum`,
`thermal_core._permutation_table`) that would otherwise carry over and time a
warm program no CLI user runs.  Passes repeat until the next one would end
after --seconds (at least three run); each metric is the median over passes.

--trace 0 reports the end-to-end metrics:
  wall_s       one pass, set-up excluded
  setup_s      spawn to inputs ready: interpreter, xhbac import and input
               generation; two set-up-only probes before every pass, and every
               pass's own set-up
  peak_rss_mb  peak resident memory of a pass process
--trace 1 alternates untraced and traced passes and reports per-layer metrics
from the traced ones: share of the pass spent in a span (`.share`, `.self_share`
without child spans, in %), call counts and other counts, and the tracing
overhead as traced minus untraced wall time.

Every output is checked after the timed region (checks.py).  An operation is
one figure, one criterion or one polytope input; it fails when it raises or
fails its check.  A criterion fails when its verdict is worse than at the
seed commit, where criterion 8 already fails by design; the report line gives
the plain FAIL count too.  Lines before the last are a human report and a
`report:` JSON line with the environment and per-operation details; the last
line is the result JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import FIGURE_IDS, SEED_VERDICTS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
TMP = ROOT / ".perfbench_tmp"

BLAS_THREADS = {name: "1" for name in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
PROBES_PER_PASS = 2
MIN_PASSES = 3
HARD_LIMIT_S = 170.0

# Per-layer metrics, from the traced passes.
SHARE_SPANS = (
    "thermal_core.extremal_points", "thermal_core.thermo_majorizes",
    "protocols.oracle_optimal_round", "protocols.optimal_round",
    "protocols.run_optimal_protocol", "protocols.ppa_trace",
    "bosonic_sim.optimize_interaction_time", "bosonic_sim.jc_deexcitation",
    "bosonic_sim.atom_stream_sim", "bosonic_sim.jc_reuse_trace",
    "bosonic_sim.rethermalize_mode", "results.to_csv",
) + tuple(f"figures.{fig}" for fig in FIGURE_IDS) + tuple(
    f"acceptance.{key}" for key, _ in SEED_VERDICTS.values())
SELF_SHARE_SPANS = ("bosonic_sim.atom_stream_sim", "cli")
CALL_SPANS = (
    "thermal_core.extremal_points", "thermal_core.beta_permutation",
    "thermal_core.beta_order", "thermal_core.thermo_curve",
    "protocols.optimal_round", "bosonic_sim.optimize_interaction_time",
    "bosonic_sim.rethermalize_mode", "bosonic_sim.jc_round",
)


class BenchError(Exception):
    pass


def _spawn(workload: str, seed: int, tmp: Path, deadline: float, *flags: str) -> dict:
    """Run one worker process to completion and return its record."""
    tmp.mkdir(parents=True)
    env = {**os.environ, **BLAS_THREADS}
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--tmp", str(tmp), *flags]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass timed out after {exc.timeout:.0f} s") from exc
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - spawned
    return record


def _stats(values: list[float]) -> dict:
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _layer_metrics(record: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass record."""
    spans, wall_s = record["spans"], record["wall_s"]

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    out = {}
    for name in SHARE_SPANS:
        out[f"{name}.share"] = (100.0 * get(name, "s") / wall_s, "%")
    for name in SELF_SHARE_SPANS:
        out[f"{name}.self_share"] = (100.0 * get(name, "self_s") / wall_s, "%")
    for name in CALL_SPANS:
        out[f"{name}.calls"] = (get(name, "calls"), "count")
    orders = get("thermal_core.extremal_points", "n_orders")
    distinct = get("thermal_core.extremal_points", "n_distinct")
    out["thermal_core.extremal_points.distinct_ratio"] = (distinct / orders if orders else 0.0, "ratio")
    out["bosonic_sim.jc_deexcitation.angles"] = (get("bosonic_sim.jc_deexcitation", "angles"), "count")
    out["results.bytes"] = (get("results.to_csv", "bytes"), "bytes")
    for kind, name in (("budget", "budget_overruns"), ("numeric", "numeric_failures")):
        out[f"acceptance.{name}"] = (sum(op.get("kind") == kind for op in record["ops"]), "count")
    return out


def _span_medians(records: list[dict]) -> dict[str, dict]:
    """Median over traced passes of every span total, for the report."""
    names = sorted(set().union(*(r["spans"] for r in records)))
    out = {}
    for name in names:
        keys = set().union(*(r["spans"].get(name, {}) for r in records))
        out[name] = {key: statistics.median(r["spans"].get(name, {}).get(key, 0) for r in records)
                     for key in sorted(keys)}
    return out


def _environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run set-up probes and passes; return (result JSON, report)."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    load_before = os.getloadavg()
    setups, plain, traced = [], [], []
    counter = 0

    def spawn(*flags):
        nonlocal counter
        counter += 1
        return _spawn(workload, seed, TMP / f"p{counter}", deadline, *flags)

    modes = [(), ("--trace",)] if trace else [()]
    durations = []  # one per pass, with the set-up probes before it
    while True:
        began = time.monotonic()
        flags = modes[len(durations) % len(modes)]
        if not trace:
            setups += [spawn("--setup-only")["setup_s"] for _ in range(PROBES_PER_PASS)]
        record = spawn(*flags)
        (traced if flags else plain).append(record)
        durations.append(time.monotonic() - began)
        elapsed = time.monotonic() - start
        if len(durations) >= MIN_PASSES and elapsed + statistics.median(durations) > seconds:
            break
    passes = plain + traced

    ops = [op for record in passes for op in record["ops"]]
    failed = sum(not op["ok"] for op in ops)
    wall = _stats([r["wall_s"] for r in plain])
    metrics, report_metrics = {}, {}
    if trace:
        per_pass = [_layer_metrics(r) for r in traced]
        for name, (_, unit) in per_pass[0].items():
            metrics[name] = {"value": statistics.median(m[name][0] for m in per_pass), "unit": unit}
        traced_wall = _stats([r["wall_s"] for r in traced])
        metrics["trace.overhead_s"] = {"value": traced_wall["median"] - wall["median"], "unit": "s"}
        report_metrics = {"wall_s": wall, "traced_wall_s": traced_wall}
        spans = _span_medians(traced)
    else:
        rss = _stats([r["peak_rss_mb"] for r in plain])
        setup = _stats(setups + [r["setup_s"] for r in passes])
        report_metrics = {"wall_s": wall, "setup_s": setup, "peak_rss_mb": rss}
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        metrics = {name: {"value": s["median"], "unit": units[name]}
                   for name, s in report_metrics.items()}
        spans = {}

    report = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "passes": len(plain), "traced_passes": len(traced), "setup_probes": len(setups),
        "elapsed_s": time.monotonic() - start,
        "metrics": report_metrics,
        "error_rate": failed / len(ops),
        "attempted": len(ops), "failed": failed,
        "operations": passes[-1]["ops"],
        "failures": [op for op in ops if not op["ok"]],
        "spans": spans,
        "absent": traced[-1]["absent"] if traced else [],
        "environment": {**_environment(), "load_before": load_before, "load_after": os.getloadavg()},
    }
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}
    return result, report


def _print_report(report: dict) -> None:
    print(f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']}: "
          f"{report['passes']} passes, {report['traced_passes']} traced, "
          f"{report['setup_probes']} set-up probes, {report['elapsed_s']:.1f} s")
    for name, s in report["metrics"].items():
        print(f"  {name:<14s} median {s['median']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n={s['n']}")
    print(f"  error_rate     {report['failed']}/{report['attempted']} = {report['error_rate']:.4f}")
    verdicts = [op["kind"] for op in report["operations"] if "kind" in op]
    if verdicts:
        counts = ", ".join(f"{kind} {verdicts.count(kind)}" for kind in ("numeric", "budget", "missing"))
        fails = len(verdicts) - verdicts.count("pass")
        print(f"  FAIL verdicts  {fails}/{len(verdicts)} = {fails / len(verdicts):.4f} "
              f"in the last pass ({counts})")
    if len(report["operations"]) <= len(SEED_VERDICTS):
        for op in report["operations"]:
            print(f"    {op['name']:<22s} {op['detail']}")
    for op in report["failures"]:
        print(f"  FAILED {op['name']}: {op['detail']}")
    for name, agg in report["spans"].items():
        extras = "".join(f"  {k}={v:g}" for k, v in agg.items() if k not in ("calls", "s", "self_s"))
        print(f"  {name + '.s':<46s} {agg['s']:10.4f}  .self_s {agg['self_s']:10.4f}"
              f"  .calls {agg['calls']:g}{extras}")
    if report["absent"]:
        print(f"  absent: {', '.join(report['absent'])}")
    print("report: " + json.dumps(report))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "xhbac" / "__init__.py").is_file():
        print(f"error: no xhbac package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    _print_report(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
