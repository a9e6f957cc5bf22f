"""One workload in one process: set up, report ready, run passes, report.

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode M

Modes: `setup` exits once ready; `time` repeats whole passes of the
workload while the next pass should still end within S seconds (at least
one pass); `trace` installs the wrapper spans
and runs exactly one pass, so that its counts can be compared between
two runs.  The worker writes `ready` on stdout when set-up is done and a
JSON report as its last line.  Each item runs under a wall-clock alarm,
so a hang becomes a failed item instead of a stalled run.
"""

import argparse
import hashlib
import json
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
ITEM_TIMEOUT_S = 30


class ItemTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ItemTimeout(f"no answer within {ITEM_TIMEOUT_S} s")


def run_pass(items, ctx):
    """Run every item once; returns (failures, stdout hash)."""
    ctx.hasher = hashlib.sha256()
    failures = []
    for item in items:
        signal.setitimer(signal.ITIMER_REAL, ITEM_TIMEOUT_S)
        try:
            item.run()
        except Exception as exc:  # every kind of item failure is counted
            failures.append(f"{item.name}: {type(exc).__name__}: {exc}")
            if not isinstance(exc, ItemTimeout):
                traceback.print_exc(file=sys.stderr)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    return failures, ctx.hasher.hexdigest()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    ap.add_argument("--spans", default=None, help="trace mode: span file to write")
    args = ap.parse_args()
    out = sys.stdout

    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.mode == "trace" else None
    ctx = workloads.Context(tracer.count if tracer else lambda key, n=1: None)
    items = workloads.setup(args.workload, args.seed, ctx)
    out.write("ready\n")
    out.flush()
    if args.mode == "setup":
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    if tracer is not None:
        tracing.install(tracer)
    walls, hashes, failures = [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        failed, digest = run_pass(items, ctx)
        walls.append(perf_counter() - t0)
        hashes.append(digest)
        failures.extend(failed)
        # Start another pass only if it should end within the time given.
        if (tracer is not None or perf_counter() - start
                + statistics.median(walls) > args.seconds):
            break

    report = {
        "seed": args.seed,
        "passes": walls,
        "wall_s": statistics.median(walls),
        "attempted": len(items) * len(walls),
        "failures": failures,
        "stdout_hashes": sorted(set(hashes)),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.dump(args.spans, {"workload": args.workload, "seed": args.seed})
    out.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
