"""Benchmark for rebel: one workload per run, results as one JSON line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload infer_large --seed 1 --seconds 15 --trace 0

The package is imported from `src/` of that checkout and nowhere else; the
run fails, printing no result, when `src/rebel` is missing.

`--trace 0` measures the end-to-end metrics with nothing wrapped; their
times are reference seconds (see clock.py). `--trace 1` runs the same
operations untraced and then traced, and reports per-layer metrics from the
traced pass plus the tracing overhead. Scratch files go under `.perfbench/`
in the checkout and are removed at the end; the span log of a traced run is
left at `.perfbench/trace-<workload>.jsonl`.

Every line but the last is a human-readable report; the `record` line holds
the environment, the output digest and every figure by name with its unit.
The last line is `{"correct", "attempted", "failed", "metrics"}`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from clock import Clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

# Set-up is sampled at least this many times and for at least this long.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 0.2
SETUP_BATCH_S = 0.005
# A percentile needs at least this many samples above it.
MIN_TAIL_SAMPLES = 10


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile (nearest rank); refused when fewer than
    MIN_TAIL_SAMPLES samples lie above it."""
    if not 0 < q < 100:
        raise ValueError("q must lie in (0, 100)")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100))  # 1-based
    above = len(ordered) - rank
    if above < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {above} above it; "
            f"need at least {MIN_TAIL_SAMPLES}"
        )
    return ordered[rank - 1]


def _import_package() -> None:
    """Import rebel from this checkout's src/, never from an installation."""
    if not (SRC / "rebel" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'rebel'} not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import rebel

    if Path(rebel.__file__).resolve().parent != (SRC / "rebel").resolve():
        raise SystemExit(f"error: imported rebel from {rebel.__file__}, not {SRC}")


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "machine": platform.machine(),
        "seed": seed,
    }


class Pass:
    """One pass of operations: timings, failures and the output digest."""

    def __init__(self) -> None:
        self.setups: list[float] = []  # reference seconds per set-up
        self.setup_walls: list[float] = []
        self.rates: list[float] = []  # work per reference second, per operation
        self.wall_rates: list[float] = []  # work per wall second, per operation
        self.ref_s = 0.0
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.fallbacks = 0
        self.plans = 0
        self.ops = 0
        self.digest = hashlib.sha256()


def _repeat(fn, times: int):
    for _ in range(times):
        result = fn()
    return result


def setup(workload, pass_: Pass, tracer=None):
    """One timed set-up sample; returns the state. A set-up shorter than
    SETUP_BATCH_S is timed as a batch of repeats, as timeit does, and the
    sample is the batch's time per set-up."""
    clock = Clock()
    with tracer.span("perfbench.setup") if tracer else contextlib.nullcontext():
        state, seconds = clock.time(workload.setup)
        repeats = 1
        if clock.wall_s < SETUP_BATCH_S:
            repeats = math.ceil(SETUP_BATCH_S / max(clock.wall_s, 1e-6))
            state = None
            clock = Clock()
            state, seconds = clock.time(_repeat, workload.setup, repeats)
    pass_.setups.append(seconds / repeats)
    pass_.setup_walls.append(clock.wall_s / repeats)
    return state


def run_ops(workload, state, seconds: float, pass_: Pass, count: int | None = None,
            tracer=None) -> None:
    """Run operations until `seconds` have passed and at least `min_ops`
    are done, or exactly `count` operations when given. Every
    `workload.setup_every` operations the state is set up afresh."""
    start = time.perf_counter()
    index = 0
    while count is None or index < count:
        if count is None and index >= workload.min_ops and time.perf_counter() - start >= seconds:
            break
        if workload.setup_every and index and index % workload.setup_every == 0:
            state = None  # one state alive at a time, as for a user
            state = setup(workload, pass_, tracer)
        _one_op(workload, state, index, pass_, tracer)
        index += 1
    pass_.ops = index


def _one_op(workload, state, index: int, pass_: Pass, tracer) -> None:
    clock = Clock()
    try:
        with tracer.span("perfbench.op") if tracer else contextlib.nullcontext():
            result = workload.op(state, index, clock)
    except Exception:
        traceback.print_exc()
        pass_.attempted += 1
        pass_.failed += 1
        return
    pass_.attempted += result.work
    pass_.rates.append(result.work / clock.ref_s)
    pass_.wall_rates.append(result.work / clock.wall_s)
    pass_.ref_s += clock.ref_s
    pass_.latencies.extend(result.latencies_s)
    try:
        with tracer.paused() if tracer else contextlib.nullcontext():
            checked = workload.check(state, result)
    except Exception:
        traceback.print_exc()
        pass_.failed += result.work
        return
    pass_.failed += checked.failed
    pass_.fallbacks += checked.fallbacks
    pass_.plans += checked.plans
    if index < workload.min_ops:
        pass_.digest.update(checked.digest)


def timed_setups(workload, pass_: Pass):
    """Set up repeatedly; returns the last state."""
    start = time.perf_counter()
    while len(pass_.setups) < SETUP_MIN_REPEATS or time.perf_counter() - start < SETUP_MIN_SECONDS:
        state = None  # one state alive at a time, as for a user
        state = setup(workload, pass_)
    return state


def _plural(unit: str) -> str:
    return {"query": "queries"}.get(unit, unit + "s")


def end_to_end(workload, seconds: float) -> tuple[dict, dict, Pass]:
    pass_ = Pass()
    run_ops(workload, timed_setups(workload, pass_), seconds, pass_)
    metrics = {
        "setup_s": (statistics.median(pass_.setups), "s"),
        "ops_per_s": (statistics.median(pass_.rates), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    record: dict = {
        "samples": {"setup_s": len(pass_.setups), "ops_per_s": len(pass_.rates)},
        f"{_plural(workload.unit)}_per_s": (metrics["ops_per_s"][0], "1/s"),
        "wall.setup_s": (statistics.median(pass_.setup_walls), "s"),
        f"wall.{_plural(workload.unit)}_per_s": (statistics.median(pass_.wall_rates), "1/s"),
        "error_rate": (pass_.failed / max(1, pass_.attempted), "ratio"),
    }
    if pass_.plans:
        record["fallback_rate"] = (pass_.fallbacks / pass_.plans, "ratio")
    if pass_.latencies:
        ms = [s * 1000.0 for s in pass_.latencies]
        record["infer_p50_ms"] = (percentile(ms, 50), "ms")
        record["infer_p90_ms"] = (percentile(ms, 90), "ms")
        record["samples"]["infer_latency"] = len(ms)
    record.update(workload.extra())
    return metrics, record, pass_


def traced(workload, seconds: float) -> tuple[dict, dict, Pass]:
    """Untraced pass, then a traced pass over exactly the same operations."""
    from layers import LAYERS, PACKAGE, layer_metrics, top_layer
    from spans import Tracer, instrument
    from workloads import tied_share

    plain = Pass()
    state = setup(workload, plain)
    run_ops(workload, state, seconds, plain)

    tracer = Tracer()
    spans = Pass()
    start = time.perf_counter()
    with instrument(tracer, LAYERS, PACKAGE):
        traced_state = setup(workload, spans, tracer)
        run_ops(workload, traced_state, seconds, spans, count=plain.ops, tracer=tracer)
    traced_wall = time.perf_counter() - start
    del traced_state

    self_sum = tracer.self_time_sum()
    if self_sum > traced_wall:
        raise RuntimeError(f"self times sum to {self_sum} s, more than the {traced_wall} s wall")
    if spans.digest.digest() != plain.digest.digest():
        spans.failed += 1
        print("error: traced outputs differ from untraced outputs", file=sys.stderr)

    metrics = layer_metrics(tracer)
    metrics["prefs.tied_share"] = (tied_share(workload.prefs), "ratio")
    metrics["trace.overhead_s"] = (
        (sum(spans.setups) + spans.ref_s) - (sum(plain.setups) + plain.ref_s), "s")
    metrics["bench.parallel_speedup"] = (0.0, "ratio")
    name, top_self_s = top_layer(tracer)
    record: dict = {
        "trace.spans": len(tracer.spans),
        "trace.self_s_sum": (self_sum, "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.top_layer": {"name": name, "self_s": top_self_s},
    }
    if workload.name == "experiment":
        workers = min(2, os.cpu_count() or 1)
        parallel = Pass()
        run_ops(workload, workload.with_workers(state, workers), seconds, parallel,
                count=plain.ops)
        # wall rates: with worker threads the probe would also time waits for the GIL
        metrics["bench.parallel_speedup"] = (
            statistics.median(parallel.wall_rates) / statistics.median(plain.wall_rates), "ratio")
        record["bench.parallel_workers"] = workers
        spans.attempted += parallel.attempted
        spans.failed += parallel.failed
    SCRATCH.mkdir(exist_ok=True)
    tracer.write(SCRATCH / f"trace-{workload.name}.jsonl")
    spans.attempted += plain.attempted
    spans.failed += plain.failed
    return metrics, record, spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS, tied_share

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick from {sorted(WORKLOADS)}")

    scratch = SCRATCH / f"tmp-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)  # left by a killed run with this pid
    scratch.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        workload.prepare()
        if args.trace:
            metrics, record, pass_ = traced(workload, args.seconds)
        else:
            metrics, record, pass_ = end_to_end(workload, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "output_sha256": pass_.digest.hexdigest(),
        "digest_ops": workload.min_ops,
        "ops": pass_.ops,
        "attempted": pass_.attempted,
        "failed": pass_.failed,
        "prefs.tied_share": tied_share(workload.prefs),
        **{k: {"value": v[0], "unit": v[1]} if isinstance(v, tuple) else v
           for k, v in record.items()},
    }
    print("record " + json.dumps(record, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:58s} {value:16.6f} {unit}")
    result = {
        "correct": pass_.failed == 0,
        "attempted": pass_.attempted,
        "failed": pass_.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
