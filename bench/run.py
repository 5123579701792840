"""Host-time benchmark of the anyprec simulator.

    python3 bench/run.py --workload {verify,dse,functional_gemm,pack_stream}
                         [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from anywhere; the package is imported from `src/` next to this
directory. Every number is host time, what the simulator takes to run. The
modelled accelerator's simulated cycles, traffic and energy are outputs:
they are checked and digested, and the traced run reports them as exact
counts. The cycle model is unvalidated against hardware (the repository
holds no measured reference), so no simulated-error figure is given.

One op is timed at a time on one thread (a closed loop with one client).
Ops come in rounds of seeded inputs (see suites.py); rounds run until
`--seconds` have passed and at least MIN_OPS ops are done, so at least ten
op times lie beyond the 90th percentile. Every output is checked; a failed
check or an exception counts the op as failed.

`--trace 0` prints the end-to-end metrics: work_per_s, op_p50_ms,
op_p90_ms, setup_s (median over SETUP_PROBES fresh processes plus this
one, each timing `import anyprec` and the workload's one-off set-up) and
peak_rss_mb. The share of failed ops is the result's failed / attempted.
`--trace 1` wraps the public functions of each module (spans.py) and
records them only in the odd rounds 1, 3, .., 2N-1, where N is the
workload's fixed `trace_rounds`; a traced run goes on until round 2N is
done even when `--seconds` have passed. Every per-layer figure is thus
taken over the same work, set by the seed alone: counts and simulated
statistics repeat exactly, and seconds move only with the cost of that
work. The run also prints work_per_s of the traced rounds and of the
untraced rounds 2, 4, .., 2N, whose ratio is the tracing overhead. The
output digest covers rounds 0 and 1, which every run of a seed completes.

Seed 1 is the default, used while writing the benchmark; seed 7 is held
out for re-checking claims. `--smoke` runs a few ops of two rounds and
makes no timing claims; bench/test_bench.py runs it.

The last stdout line is one JSON object: correct, attempted, failed and
metrics. The line before it (`record: {...}`) holds the environment, the
sample counts and the digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

DEFAULT_SEED = 1
HELD_OUT_SEED = 7
MIN_OPS = 100
SETUP_PROBES = 9
DIGEST_ROUNDS = 2
SMOKE_OPS = 3
SMOKE_ROUNDS = 2
WORKLOADS = ("verify", "dse", "functional_gemm", "pack_stream")
MODEL_NOTE = (
    "host time only; the cycle/traffic/energy model is unvalidated against hardware, "
    "so no simulated-error figure is given"
)


def _fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def _timed_setup(workload: str, tracer=None):
    """Import the package and run the workload's one-off set-up; returns
    (seconds, suite, context). Nothing from the package is imported before."""
    t0 = time.perf_counter()
    import anyprec  # noqa: F401  (part of what set-up time measures)

    if tracer is not None:
        spans.install(tracer)
        tracer.active = True
    import suites

    suite = suites.SUITES[workload]
    ctx = suite.setup()
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    if os.path.dirname(os.path.abspath(anyprec.__file__)) != os.path.join(SRC, "anyprec"):
        _fail(f"imported anyprec from {anyprec.__file__}, not from {SRC}")
    return elapsed, suite, ctx


def _probe_setup(workload: str) -> float:
    """Set-up time of a fresh interpreter running this file's probe mode."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload, "--probe-setup"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        _fail(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Tally:
    """Op times and work units of one class of rounds (traced or not)."""

    def __init__(self):
        self.times = []
        self.work = 0

    @property
    def work_per_s(self) -> float:
        busy = sum(self.times)
        return self.work / busy if busy else 0.0


def _run_op(op, tracer, traced):
    """Time one op; spans are recorded only inside it, never in its check."""
    if tracer is not None:
        tracer.active = traced
    t0 = time.perf_counter()
    try:
        out = op.run()
        return time.perf_counter() - t0, out
    finally:
        if tracer is not None:
            tracer.active = False
            if traced:
                tracer.end_op()


def measure(suite, ctx, seed, seconds, tracer, smoke):
    """Run rounds of checked ops; returns the tallies, counts and digest."""
    untraced, traced = Tally(), Tally()
    attempted = failed = rounds = 0
    problems = []
    digest = hashlib.sha256()
    start = time.perf_counter()
    last_traced = 2 * suite.trace_rounds if tracer is not None else 0
    while True:
        ops = suite.make_round(ctx, seed, rounds)
        if smoke:
            ops = ops[:SMOKE_OPS]
        # a traced run compares odd rounds (traced) with the even rounds
        # between them; round 0 (in verify unlike the rest) and rounds after
        # 2N are in neither tally
        on = tracer is not None and rounds % 2 == 1 and rounds < last_traced
        if tracer is None:
            tally = untraced
        elif 0 < rounds <= last_traced:
            tally = traced if on else untraced
        else:
            tally = None
        for op in ops:
            attempted += 1
            try:
                dt, out = _run_op(op, tracer, on)
                units, problem, blob = op.check(out)
            except Exception:  # an op that raises counts as failed; keep measuring
                problem = traceback.format_exc(limit=3)
            if problem is not None:
                failed += 1
                problems.append(problem)
                continue
            if tally is not None:
                tally.times.append(dt)
                tally.work += units
            if rounds < DIGEST_ROUNDS:
                digest.update(blob)
        rounds += 1
        if smoke:
            if rounds == SMOKE_ROUNDS:
                break
        elif time.perf_counter() - start >= seconds and attempted >= MIN_OPS and rounds > last_traced:
            break
    return untraced, traced, attempted, failed, rounds, problems, digest.hexdigest()


def _percentiles(times):
    if len(times) < 2:
        t = times[0] if times else 0.0
        return t, t, 0
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
    return statistics.median(times), p90, sum(1 for t in times if t > p90)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="a few ops of two rounds, no timing claims")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "anyprec", "__init__.py")):
        _fail(f"no anyprec sources under {SRC}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    sys.path.insert(0, SRC)
    os.environ.pop("ANYPREC_OUTPUT_DIR", None)  # run.csv must land in the scratch directory

    if args.probe_setup:
        print(repr(_timed_setup(args.workload)[0]))
        return 0

    probes = [] if args.trace else [_probe_setup(args.workload) for _ in range(1 if args.smoke else SETUP_PROBES)]
    tracer = spans.Tracer() if args.trace else None
    setup_s, suite, ctx = _timed_setup(args.workload, tracer)
    setup_samples = probes + [setup_s]

    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        untraced, traced, attempted, failed, rounds, problems, digest = measure(
            suite, ctx, args.seed, args.seconds, tracer, args.smoke
        )
    finally:
        os.chdir(cwd)
        shutil.rmtree(work_dir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy

    timed = traced if args.trace else untraced
    p50, p90, beyond = _percentiles(timed.times)
    record = {
        "workload": args.workload,
        "work_unit": suite.work_unit,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "rounds": rounds,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "failed_share": failed / attempted,
        "op_samples": len(timed.times),
        "op_samples_beyond_p90": beyond,
        "setup_samples": len(setup_samples),
        "output_sha256_rounds_0_1": digest,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "load": "closed loop, one client, one thread",
        "model_validity": MODEL_NOTE,
    }
    if args.trace:
        metrics = {name: {"value": v, "unit": spans.PER_LAYER[name]}
                   for name, v in spans.per_layer_values(tracer).items()}
        metrics["trace.work_per_s.traced"] = {"value": traced.work_per_s, "unit": "1/s"}
        metrics["trace.work_per_s.untraced"] = {"value": untraced.work_per_s, "unit": "1/s"}
        metrics["trace.op_s"] = {"value": sum(traced.times), "unit": "s"}
        record["trace_note"] = spans.WAIT_NOTE
        if traced.work_per_s and untraced.work_per_s:
            record["trace_overhead"] = untraced.work_per_s / traced.work_per_s - 1
    else:
        metrics = {
            "work_per_s": {"value": untraced.work_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": p50 * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": p90 * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    for problem in problems[:5]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"# {args.workload}: {len(timed.times)} timed ops in {rounds} rounds, seed {args.seed}; "
          f"work unit: {suite.work_unit}")
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_share':36s} {failed / attempted:.6g} share ({failed} of {attempted} ops)")
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
