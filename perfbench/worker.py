"""One benchmark pass in a fresh interpreter; prints its record as one JSON line.

    python3 perfbench/worker.py --workload W --seed N --tmp DIR [--trace] [--setup-only]

Set-up imports xhbac from the checkout's `src/` and builds the workload's
inputs; `ready` (time.monotonic, a system-wide clock on Linux) marks its end
so the parent can time set-up from the spawn.  The timed region follows, then
the peak resident memory, then the output checks.  With --trace the public
functions are wrapped in spans first (see spans.py).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import xhbac
    if not Path(xhbac.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"xhbac was imported from {xhbac.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 1
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tmp)
    record = {"ready": time.monotonic()}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import spans
            tracer = spans.install()
        start = time.perf_counter()
        workload.run()
        record["wall_s"] = time.perf_counter() - start
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["ops"] = workload.check()
        if tracer is not None:
            record["spans"] = tracer.summary()
            record["absent"] = tracer.absent
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
