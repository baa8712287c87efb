"""The repository benchmark: one workload, timed end to end or layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload stills_fresh --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off:
``setup_s`` (median of fresh-interpreter set-ups), ``out_mpix_s``,
``requests_per_s``, ``latency_p50_ms``, ``latency_tail_ms`` and
``peak_rss_mb``.  ``--trace 1`` installs timing wrappers around the
program's public callables, measures half the time untraced and half traced,
prints the per-layer table and metrics, and writes the spans as Chrome
trace-event JSON under ``perfbench/out/``.  Every operation is checked by an
oracle outside the timed window; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("stills_fresh", "camera_streams", "popular_cluster", "gateway_replay")
#: Worker processes that compute at once, per workload (BLAS threads are
#: split among them so busy threads never exceed ``nproc``).
WORKER_PROCESSES = {"popular_cluster": 2, "gateway_replay": 2}
SETUP_SAMPLES = 5
#: Rates are the median over this many consecutive slices of a run's
#: operations, so a transient stall of the host moves one slice, not the rate.
RATE_SLICES = 5
#: The latency tail is the median of its percentile over at most this many
#: consecutive slices of a run's requests.
TAIL_SLICES = 15
#: Highest percentile the tail reports.  Beyond p95 the host decides the
#: gateway's admission tail: over five runs of the same code on a shared
#: 2-vCPU host its p99 moved 35% while its p95 moved 13%.
TAIL_CAP = 95

END_TO_END = (
    ("setup_s", "s"),
    ("out_mpix_s", "Mpix/s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("nn.conv.ms", "ms/req"),
    ("nn.conv.gmac", "GMAC/req"),
    ("nn.conv.gmac_s", "GMAC/s"),
    ("nn.conv.im2col_mb", "MB/req"),
    ("nn.conv.share", "ratio"),
    ("nn.relu.ms", "ms/req"),
    ("nn.shuffle.ms", "ms/req"),
    ("nn.bias.ms", "ms/req"),
    ("nn.residual.self_ms", "ms/req"),
    ("blockflow.blocks", "blocks/req"),
    ("blockflow.self_ms", "ms/req"),
    ("blockflow.partition_ms", "ms/req"),
    ("blockflow.recompute_ratio", "ratio"),
    ("blockflow.ncr_analytic", "ratio"),
    ("api.execute.self_ms", "ms/req"),
    ("cache.lookups", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("video.reuse_ratio", "ratio"),
    ("video.residual_ms", "ms/req"),
    ("video.recompute_ms", "ms/req"),
    ("video.stitch_ms", "ms/req"),
    ("video.evictions", "count"),
    ("cluster.call_ms", "ms/req"),
    ("cluster.payload_mb", "MB/req"),
    ("cluster.shard_hit_ratio", "ratio"),
    ("cluster.shard_skew", "ratio"),
    ("cluster.requeued", "count"),
    ("gateway.admit_us", "us"),
    ("gateway.admitted", "count"),
    ("gateway.degraded", "count"),
    ("gateway.shed", "count"),
    ("scheduler.drain_ms", "ms"),
    ("scheduler.requests_per_drain", "count"),
    ("sim.deadline_miss_ratio", "ratio"),
    ("api.compile_ms", "ms"),
    ("fbisa.compile_ms", "ms"),
    ("check.verify_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_blas_threads(workload: str) -> int:
    """Pin BLAS threads before numpy loads; returns the thread count."""
    threads = max(1, (os.cpu_count() or 1) // WORKER_PROCESSES.get(workload, 1))
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = str(threads)
    return threads


def environment(threads: int, mode: str) -> Dict[str, Any]:
    import numpy

    blas: Dict[str, Any] = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": threads,
        "mode": mode,
    }


# ---------------------------------------------------------------- measuring
def nearest_rank(ordered: List[float], q: float) -> float:
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def tail_percentile(count: int) -> int:
    """The highest whole percentile (at most :data:`TAIL_CAP`) with >= 10 of
    ``count`` samples beyond it."""
    for q in range(TAIL_CAP, 0, -1):
        if count - math.ceil(q / 100.0 * count) >= 10:
            return q
    return 100


def tail(samples: List[float]) -> tuple:
    """(percentile, slices, value) of the latency tail.

    The percentile is chosen on all samples; when there are enough, the value
    is the median of that percentile over up to :data:`TAIL_SLICES`
    consecutive slices that each keep ten samples beyond it, so one stalled
    stretch of the run does not decide the tail.
    """
    q = tail_percentile(len(samples))
    slices = max(1, min(TAIL_SLICES, int(len(samples) * (100 - q) / 100.0) // 10))
    while slices > 1 and tail_percentile(len(samples) // slices) != q:
        slices -= 1
    count = len(samples)
    values = [
        nearest_rank(sorted(samples[count * index // slices : count * (index + 1) // slices]), q)
        for index in range(slices)
    ]
    return q, slices, statistics.median(values)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live child processes."""

    def high_water_kb(pid: int) -> int:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    me = os.getpid()
    pids = [me]
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == me:
                pids.append(int(entry))
    return sum(high_water_kb(pid) for pid in pids) / 1024.0


class Phase:
    """Totals of one measured stretch of operations."""

    def __init__(self) -> None:
        self.elapsed = 0.0
        self.requests = self.pixels = self.blocks = self.attempted = self.failed = self.ops = 0
        self.latencies: List[float] = []
        self.frames: List[tuple] = []
        #: (seconds, requests, pixels) of every completed operation.
        self.record: List[tuple] = []

    def median_rate(self, field: int, per_op: bool = False) -> float:
        """Median over :data:`RATE_SLICES` slices of ``sum(field) / sum(seconds)``.

        With ``per_op`` the rate is requests over the median per-request time
        of the operations instead, scaled for ``field`` by its mean per
        request: for ops that are alike (the gateway's drain windows) a host
        stall then moves the few ops it hits, not a whole slice.
        """
        if per_op:
            per_request = statistics.median(op[0] / op[1] for op in self.record if op[1])
            return sum(op[field] for op in self.record) / self.requests / per_request
        count = len(self.record)
        slices = [
            self.record[count * index // RATE_SLICES : count * (index + 1) // RATE_SLICES]
            for index in range(RATE_SLICES)
        ]
        return statistics.median(
            sum(op[field] for op in part) / sum(op[0] for op in part) for part in slices if part
        )


def measure(workload: Any, seconds: float, start: int, tracer: Any = None, min_ops: int = 0) -> Phase:
    """Closed loop: one request at a time until ``seconds`` of request time."""
    phase = Phase()
    index = start
    while phase.elapsed < seconds or phase.ops < min_ops:
        item = workload.prepare(index)
        if tracer is not None:
            tracer.bucket = "request"
        began = time.perf_counter()
        try:
            op = tracer.request(index, workload.request, item) if tracer else workload.request(item)
        except Exception:  # a failed request is counted, not fatal
            phase.elapsed += time.perf_counter() - began
            traceback.print_exc(file=sys.stderr)
            phase.ops += 1
            phase.attempted += 1
            phase.failed += 1
            index += 1
            continue
        took = time.perf_counter() - began
        if tracer is not None:
            tracer.bucket = "oracle"
        try:
            failed = workload.check(item, op)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            failed = op.requests
        if tracer is not None:
            tracer.bucket = None
        phase.elapsed += took
        phase.ops += 1
        phase.requests += op.requests
        phase.pixels += op.pixels
        phase.blocks += op.blocks
        phase.attempted += op.requests
        phase.failed += failed
        phase.latencies.extend(op.latencies if op.latencies is not None else [took])
        phase.record.append((took, op.requests, op.pixels))
        phase.frames.extend(op.frames)
        index += 1
    return phase


def probe_setup(args: argparse.Namespace) -> float:
    """Seconds from launching a fresh interpreter to a ready workload."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ]
    began = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as process:
        ready = None
        try:
            for line in process.stdout:
                if line.strip() == "READY":
                    ready = time.perf_counter() - began
                    break
            process.stdout.read()
            process.wait(timeout=120)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
    if ready is None or process.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit code {process.returncode})")
    return ready


# ------------------------------------------------------------------ layers
def layer_metrics(tracer: Any, workload: Any, untraced: Phase, traced: Phase,
                  before: Dict[str, float], after: Dict[str, float],
                  frame_macs: Dict[tuple, float], ncr: Dict[str, float]) -> Dict[str, float]:
    requests = max(traced.requests, 1)
    bucket = "request"

    def per_request_ms(predicate, use_self=False):
        _, total, own = tracer.totals(bucket, predicate)
        return (own if use_self else total) * 1e3 / requests

    def mean_span(name, scale):
        calls, total, _ = tracer.totals(bucket, lambda n: n == name)
        return total * scale / calls if calls else 0.0

    def kinds(*names):
        wanted = {f"nn.{name}" for name in names}
        return lambda n: n in wanted

    def delta(name):
        return after.get(name, 0.0) - before.get(name, 0.0)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    _, conv_s, _ = tracer.totals(bucket, kinds("conv"))
    _, request_s, _ = tracer.totals(bucket, lambda n: n == "request")
    macs = tracer.counter(bucket, "conv.macs")
    flow_macs = sum(frame_macs[frame] for frame in traced.frames)
    analytic = sum(frame_macs[frame] * ncr[frame[0]] for frame in traced.frames)
    served = [delta(name) for name in after if name.startswith("cluster.served.")]
    metrics = {
        "nn.conv.ms": conv_s * 1e3 / requests,
        "nn.conv.gmac": macs / 1e9 / requests,
        "nn.conv.gmac_s": ratio(macs / 1e9, conv_s),
        "nn.conv.im2col_mb": tracer.counter(bucket, "conv.im2col_bytes") / 1e6 / requests,
        "nn.conv.share": ratio(conv_s, request_s),
        "nn.relu.ms": per_request_ms(kinds("relu", "clipped_relu")),
        "nn.shuffle.ms": per_request_ms(kinds("pixel_shuffle", "pixel_unshuffle")),
        "nn.bias.ms": per_request_ms(kinds("add_bias")),
        "nn.residual.self_ms": per_request_ms(kinds("residual"), use_self=True),
        "blockflow.blocks": traced.blocks / requests,
        "blockflow.self_ms": per_request_ms(lambda n: n.startswith("blockflow."), use_self=True),
        "blockflow.partition_ms": per_request_ms(lambda n: n == "blockflow.partition_image"),
        "blockflow.recompute_ratio": ratio(macs, flow_macs),
        "blockflow.ncr_analytic": ratio(analytic, flow_macs),
        "api.execute.self_ms": per_request_ms(lambda n: n == "api.Session.execute", use_self=True),
        "cache.lookups": delta("cache.lookups"),
        "cache.hit_ratio": ratio(delta("cache.hits"), delta("cache.lookups")),
        "cache.evictions": delta("cache.evictions"),
        "video.reuse_ratio": ratio(delta("video.blocks_reused"), delta("video.blocks_total")),
        "video.residual_ms": per_request_ms(lambda n: n == "blockflow.block_window_residuals"),
        "video.recompute_ms": per_request_ms(lambda n: n == "blockflow.run_selected_blocks"),
        "video.stitch_ms": per_request_ms(lambda n: n == "video.VideoStream.submit", use_self=True),
        "video.evictions": delta("video.evictions"),
        "cluster.call_ms": per_request_ms(lambda n: n.startswith("cluster."), use_self=True),
        "cluster.payload_mb": tracer.counter(bucket, "cluster.payload_bytes") / 1e6 / requests,
        "cluster.shard_hit_ratio": ratio(delta("cache.hits"), delta("cache.lookups")) if served else 0.0,
        "cluster.shard_skew": ratio(max(served, default=0.0), statistics.mean(served)) if served and sum(served) else 0.0,
        "cluster.requeued": delta("cluster.requeued"),
        "gateway.admit_us": mean_span("gateway.SLOGateway.admit", 1e6),
        "scheduler.drain_ms": mean_span("gateway.SLOGateway.drain_now", 1e3),
        "api.compile_ms": tracer.totals("setup", lambda n: n == "api.Session.compile")[1] * 1e3,
        "fbisa.compile_ms": tracer.totals("setup", lambda n: n == "fbisa.compile_network")[1] * 1e3,
        "check.verify_ms": tracer.totals("setup", lambda n: n == "check.verify_plan")[1] * 1e3,
        "trace.overhead_ratio": ratio(
            traced.elapsed / max(traced.requests, 1), untraced.elapsed / max(untraced.requests, 1)
        ),
    }
    sim = workload.sim_metrics()
    for name in ("gateway.admitted", "gateway.degraded", "gateway.shed",
                 "scheduler.requests_per_drain", "sim.deadline_miss_ratio"):
        metrics[name] = float(sim.get(name, 0.0))
    return metrics


def flow_references(tracer: Any, workload: Any, frames: List[tuple]) -> tuple:
    """Frame-flow MACs per (workload, input shape), counted by running
    ``frame_based_inference`` once per shape, and the analytic NCR of each
    workload's compiled plan (from ``repro.core.overheads``)."""
    import numpy as np

    from repro.core.blockflow import frame_based_inference
    from repro.core.overheads import overhead_report
    from repro.nn.tensor import FeatureMap

    macs: Dict[tuple, float] = {}
    ncr: Dict[str, float] = {}
    for name, shape in sorted(set(frames)):
        plan = workload.session.compile(name)
        tracer.bucket = f"flow:{name}:{shape}"
        frame_based_inference(plan.network, FeatureMap(data=np.zeros(shape)))
        tracer.bucket = None
        macs[(name, shape)] = tracer.counter(f"flow:{name}:{shape}", "conv.macs")
        ncr[name] = overhead_report(plan.network, plan.input_block).ncr
    return macs, ncr


# -------------------------------------------------------------------- main
def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, float], units: Dict[str, str]) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    threads = pin_blas_threads(args.workload)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        import repro  # noqa: F401
        from perfbench import tracing, workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported repro from {repro.__file__}, not this checkout", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        workload.setup()
        print("READY", flush=True)
        workload.close()
        return 0

    tracer = None
    setup_samples: List[float] = []
    if args.trace:
        tracer = tracing.Tracer()
        wrapped = tracing.install(tracer)
        tracer.bucket = "setup"
    else:
        setup_samples = [probe_setup(args) for _ in range(SETUP_SAMPLES)]
    digest = workload.digest()
    try:
        workload.setup()
    except workloads.SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 3
    if tracer is not None:
        tracer.bucket = None
    workload.load_inputs()
    try:
        warmup = measure(workload, 0.0, 0, min_ops=workload.warmup_ops) if workload.warmup_ops else Phase()
        start = warmup.ops
        if tracer is None:
            phase = measure(workload, args.seconds, start, min_ops=workload.min_ops)
            untraced = None
        else:
            untraced = measure(workload, args.seconds / 2, start, min_ops=workload.min_ops)
            before = workload.snapshot()
            phase = measure(workload, args.seconds / 2, start + untraced.ops, tracer)
            after = workload.snapshot()
        rss = peak_rss_mb()
        if tracer is not None:
            frame_macs, ncr = flow_references(tracer, workload, phase.frames)
    finally:
        workload.close()

    attempted = warmup.attempted + phase.attempted + (untraced.attempted if untraced else 0)
    failed = warmup.failed + phase.failed + (untraced.failed if untraced else 0)
    env = environment(threads, workload.mode)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"inputs sha256: {digest}")
    print(f"fail_ratio: {failed}/{attempted} = {failed / attempted:.6f} "
          "(raised, refused or failed the oracle, over operations attempted)")

    if tracer is None:
        ordered = sorted(phase.latencies)
        q, slices, tail_s = tail(phase.latencies)
        per_op = workload.rate_per_op
        print(f"setup_s samples: {[round(s, 4) for s in setup_samples]}")
        print(f"latency_tail_ms is p{q:g} over {len(ordered)} samples (median over {slices} slices); "
              f"{phase.requests} requests in {phase.elapsed:.3f} s of request time; rates are "
              + ("requests over the median per-request time of an op" if per_op
                 else f"the median over {RATE_SLICES} slices"))
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "out_mpix_s": phase.median_rate(2, per_op) / 1e6,
            "requests_per_s": phase.median_rate(1, per_op),
            "latency_p50_ms": nearest_rank(ordered, 50.0) * 1e3,
            "latency_tail_ms": tail_s * 1e3,
            "peak_rss_mb": rss,
        }
        units = dict(END_TO_END)
    else:
        metrics = layer_metrics(tracer, workload, untraced, phase, before, after, frame_macs, ncr)
        trace_path = ROOT / "perfbench" / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.export_chrome(str(trace_path), {"workload": args.workload, "seed": args.seed, "env": env})
        print(f"wrapped {wrapped} callables; {len(tracer.events)} spans exported to "
              f"{trace_path.relative_to(ROOT)}; {tracer.dropped_events} dropped")
        print("byte counts (nn.conv.im2col_mb, cluster.payload_mb) are computed from tensor "
              "shapes and pickled sizes, not measured traffic; spans inside cluster workers "
              "are not traced")
        print("traced requests, per-span totals:")
        for line in tracer.table("request"):
            print("  " + line)
        for name, unit in PER_LAYER:
            print(f"  {name:<32} {metrics[name]:>14.6g} {unit}")
        units = dict(PER_LAYER)
    sys.stdout.flush()
    emit(failed == 0, attempted, failed, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
