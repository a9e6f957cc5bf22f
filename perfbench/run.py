"""The rkpos benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads are `certify-wide`,
`certify-many` and `simulate` (see workloads.py for what each measures and
why).  Every workload runs in its own single-threaded worker process with
RKPOS_THREADS unset, under a hard wall-clock limit.

--trace 0 prints the end-to-end metrics:
  wall_s        median wall time of one pass over the workload's items,
                from the first call to the last checked result; the worker
                repeats passes for up to S seconds.
  peak_rss_mib  ru_maxrss of the worker process.
  setup_s       process start to ready (interpreter, `import rkpos`, inputs
                built from the seed), median of SETUP_REPEATS processes.
The result's `attempted` and `failed` give the failure ratio: an item fails
on a wrong or unverifiable answer, an exception, a nonzero CLI exit or a
time-out.  A certify-many run whose passes print different stdout counts one
more failed item.

--trace 1 prints the per-layer metrics of tracing.py: a run without tracing
as above for the baseline wall time, then two traced one-pass runs whose
counts must agree exactly (a mismatch is a failed item).  Times are the
median of the two traced runs.  `tracing.overhead_s` is the traced pass time
minus the untraced wall_s; an overhead smaller than the machine's
run-to-run noise can read negative.  Spans are written to perfbench/_out/.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The lines before it are the same figures for a reader.
"""

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("certify-wide", "certify-many", "simulate")
SETUP_REPEATS = 9
RUN_LIMIT_S = 170

END_TO_END = {"wall_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
PER_LAYER = {
    "polygen.generate.calls": "count", "polygen.generate.busy_s": "s",
    "polygen.terms": "count",
    "multilinear.vertex_table.calls": "count",
    "multilinear.vertex_table.busy_s": "s", "multilinear.vertices": "count",
    "multilinear.table_mib": "MiB", "multilinear.object_share": "ratio",
    "multilinear.rebuild_ratio": "ratio",
    "gamma.compute_gamma.calls": "count", "gamma.compute_gamma.busy_s": "s",
    "gamma.compute_gamma.self_s": "s", "gamma.distinct_restrictions": "count",
    "gamma.exact_share": "ratio",
    "gamma.gamma_zero_test.calls": "count", "gamma.gamma_zero_test.self_s": "s",
    "gamma.condition_at.calls": "count", "gamma.condition_at.busy_s": "s",
    "gamma.condition_at.max_den_bits": "bits",
    "univariate.first_negative_cut.calls": "count",
    "univariate.first_negative_cut.busy_s": "s",
    "univariate.useful_ratio": "ratio",
    "bounds.ssp_coefficient.calls": "count", "bounds.ssp_coefficient.busy_s": "s",
    "bounds.ssp_coefficient.self_s": "s", "bounds.ssp_feasible.calls": "count",
    "bounds.ssp_feasible.busy_s": "s",
    "bounds.radius_abs_monotonicity.busy_s": "s",
    "adversary.calls": "count", "adversary.busy_s": "s",
    "molsim.run.self_s": "s", "molsim.erk_step.calls": "count",
    "molsim.erk_step.self_s": "s", "molsim.q.calls": "count",
    "molsim.q.busy_s": "s", "molsim.cell_steps": "count",
    "cli.main.calls": "count", "cli.main.busy_s": "s", "cli.main.self_s": "s",
    "cli.rows": "count", "cli.stdout_bytes": "count",
    "tracing.overhead_s": "s",
}


class BenchError(Exception):
    pass


class Runner:
    """Starts worker processes one at a time, all bounded by one deadline."""

    def __init__(self, args):
        self.args = args
        self.deadline = perf_counter() + RUN_LIMIT_S
        self.env = dict(os.environ)
        self.env.pop("RKPOS_THREADS", None)
        self.env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")

    def worker(self, mode, spans=None):
        """Run one worker; returns (seconds from start to ready, report)."""
        cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds), "--mode", mode]
        if spans:
            cmd += ["--spans", spans]
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env,
                                cwd=ROOT)
        try:
            first, rest = self._read_ready(proc)
            ready = perf_counter() - t0
            remaining = self.deadline - perf_counter()
            tail, _ = proc.communicate(timeout=max(remaining, 0.001))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker exceeded the {RUN_LIMIT_S} s limit")
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if first != b"ready\n":
            raise BenchError(f"{mode} worker did not get ready "
                             f"(exit {proc.returncode})")
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}")
        if mode == "setup":
            return ready, None
        lines = (rest + tail).decode().strip().splitlines()
        if not lines:
            raise BenchError(f"{mode} worker printed no report")
        return ready, json.loads(lines[-1])

    def _read_ready(self, proc):
        # Read the first line without blocking past the deadline.
        fd = proc.stdout.fileno()
        data = b""
        while b"\n" not in data:
            remaining = self.deadline - perf_counter()
            if remaining <= 0:
                raise subprocess.TimeoutExpired(proc.args, RUN_LIMIT_S)
            ready, _, _ = select.select([fd], [], [], remaining)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    break
                data += chunk
        first, _, rest = data.partition(b"\n")
        return first + b"\n" if data else b"", rest


def run_untraced(runner):
    setups = [runner.worker("setup")[0] for _ in range(SETUP_REPEATS - 1)]
    ready, rep = runner.worker("time")
    setups.append(ready)
    attempted, failures = rep["attempted"], list(rep["failures"])
    if len(rep["passes"]) > 1:
        attempted += 1
        if len(rep["stdout_hashes"]) > 1:
            failures.append("stdout differs between passes of one seed: "
                            + ", ".join(rep["stdout_hashes"]))
    metrics = {"wall_s": rep["wall_s"], "peak_rss_mib": rep["peak_rss_mib"],
               "setup_s": statistics.median(setups)}
    info = {"pass_s": " ".join(f"{w:.3f}" for w in rep["passes"]),
            "stdout_sha256": rep["stdout_hashes"][0]}
    return attempted, failures, metrics, info


def run_traced(runner):
    _, plain = runner.worker("time")
    out_dir = ROOT / "perfbench" / "_out"
    out_dir.mkdir(exist_ok=True)
    traced = []
    for k in (1, 2):
        spans = out_dir / f"spans-{runner.args.workload}-seed{runner.args.seed}-{k}.json"
        traced.append(runner.worker("trace", spans=str(spans))[1])
    reports = [plain] + traced
    attempted = sum(r["attempted"] for r in reports) + 2
    failures = [f for r in reports for f in r["failures"]]
    a, b = (r["layers"] for r in traced)
    diff = [k for k in tracing.COUNT_METRICS if a[k] != b[k]]
    if diff:
        failures.append("traced counts differ between two runs: "
                        + ", ".join(f"{k} {a[k]} != {b[k]}" for k in diff))
    hashes = {h for r in reports for h in r["stdout_hashes"]}
    if len(hashes) > 1:
        failures.append("stdout differs between runs of one seed")
    layers = {k: statistics.median([a[k], b[k]]) if k not in tracing.COUNT_METRICS
              else a[k] for k in a}
    layers["tracing.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                    - plain["wall_s"])
    metrics = {k: layers[k] for k in PER_LAYER}
    return attempted, failures, metrics, {"spans": str(out_dir.relative_to(ROOT))}


def main():
    ap = argparse.ArgumentParser(description="rkpos benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "rkpos" / "__init__.py").is_file():
        print("error: src/rkpos not found; run from the root of an rkpos "
              "checkout", file=sys.stderr)
        return 2
    runner = Runner(args)
    try:
        if args.trace:
            attempted, failures, metrics, info = run_traced(runner)
        else:
            attempted, failures, metrics, info = run_untraced(runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    print(f"workload {args.workload}  seed {args.seed}  "
          + "  ".join(f"{k} {v}" for k, v in info.items()))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    ratio = len(failures) / attempted
    print(f"  {'fail_ratio':40s} {ratio:.6g} failed/attempted "
          f"({len(failures)}/{attempted})")
    for f in failures:
        print(f"  FAILED {f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
