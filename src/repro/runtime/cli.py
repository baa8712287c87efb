"""Command-line front end: ``python -m repro.runtime --trace demo``.

Replays a named traffic trace through a :class:`~repro.runtime.engine.ServingEngine`
and prints the per-stream throughput/latency report, instance utilization and
cache statistics.  ``--backend`` serves the same trace on any registered
accelerator backend (``--list-backends`` enumerates them); ``--analyze``
appends the per-workload analytic summary (capacity, DRAM, power) and
demonstrates the content-addressed cache by asking every analytic question
twice.  ``--workers N`` serves through a sharded
:class:`~repro.runtime.cluster.ServingCluster` instead — N worker
processes, ``--instances`` simulated accelerators each — and prints the
per-shard report plus the aggregated cluster statistics.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.analysis.report import format_table
from repro.api import available_backends, describe_backends
from repro.runtime.cluster import ServingCluster
from repro.runtime.engine import ServingEngine
from repro.runtime.scheduler import POLICIES
from repro.runtime.trace import TRACES, trace


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.runtime`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime",
        description="Serve a traffic trace on simulated eCNN instances.",
    )
    parser.add_argument(
        "--trace",
        default="demo",
        choices=sorted(TRACES),
        help="built-in traffic trace to replay (default: demo)",
    )
    parser.add_argument(
        "--instances",
        type=int,
        default=2,
        help="number of simulated eCNN processors (default: 2)",
    )
    parser.add_argument(
        "--batch-frames",
        type=int,
        default=8,
        help="scheduler batch budget in frames (default: 8)",
    )
    parser.add_argument(
        "--backend",
        default="ecnn",
        choices=available_backends(),
        help="accelerator backend to serve on (default: ecnn)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="serve through a sharded cluster of N worker processes, "
        "--instances simulated accelerators each (default: 0 = in-process "
        "engine, no cluster)",
    )
    parser.add_argument(
        "--cluster-mode",
        default="auto",
        choices=("auto", "process", "inline"),
        help="with --workers: worker processes, in-process shards, or "
        "processes with inline fallback (default: auto)",
    )
    parser.add_argument(
        "--policy",
        default="fifo",
        choices=POLICIES,
        help="queue/scheduler ordering: fifo (default) or edf "
        "(earliest-deadline-first, used by the SLO gateway)",
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help="also print per-workload analytics (asked twice to show cache hits)",
    )
    parser.add_argument(
        "--list-traces",
        action="store_true",
        help="list the built-in traces and exit",
    )
    parser.add_argument(
        "--list-backends",
        action="store_true",
        help="list the registered accelerator backends and exit",
    )
    return parser


def _analytics_section(engine: ServingEngine, workload_names: Sequence[str]) -> str:
    rows = []
    for name in workload_names:
        # Ask twice on purpose: the second query is a cache hit, which the
        # closing cache line makes visible.
        analytics = engine.analyze(name)
        analytics = engine.analyze(name)
        profile = analytics.profile
        rows.append(
            (
                name,
                analytics.model_name,
                profile.spec_name,
                round(profile.fps, 1),
                round(profile.frame_latency_s * 1e3, 2),
                round(profile.dram_gb_s, 2),
                round(profile.power_w, 2),
                len(analytics.layer_timing),
            )
        )
    return format_table(
        "Per-workload analytics (each computed once, served from cache after)",
        ["workload", "model", "spec", "fps capacity", "ms/frame", "DRAM GB/s", "power W", "FBISA lines"],
        rows,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.instances < 1:
        parser.error("--instances must be at least 1")
    if args.batch_frames < 1:
        parser.error("--batch-frames must be at least 1")
    if args.workers < 0:
        parser.error("--workers cannot be negative")
    if args.list_traces:
        for name in sorted(TRACES):
            built = trace(name)
            print(f"{name:8s} {built.description} "
                  f"({len(built.events)} requests, {built.total_frames} frames)")
        return 0
    if args.list_backends:
        for name, description in describe_backends().items():
            print(f"{name:12s} {description}")
        return 0

    selected = trace(args.trace)
    if args.workers:
        with ServingCluster(
            workers=args.workers,
            backend=args.backend,
            instances_per_worker=args.instances,
            max_batch_frames=args.batch_frames,
            mode=args.cluster_mode,
            policy=args.policy,
        ) as cluster:
            print(f"backend {cluster.backend_name!r}, "
                  f"{args.workers} worker shard(s) ({cluster.mode})")
            print(f"trace {selected.name!r}: {selected.description}")
            print(f"streams: {', '.join(selected.streams)}; "
                  f"{len(selected.events)} requests, {selected.total_frames} frames\n")
            cluster.play(selected)
            print(cluster.run().render())
            print(f"\ncluster: {cluster.stats().describe()}")
            if args.analyze:
                # Analytics are pure cache-resident questions, answered by
                # the coordinator session (same backend/config as every
                # worker), not by a shard.
                engine = ServingEngine(
                    num_instances=args.instances,
                    max_batch_frames=args.batch_frames,
                    backend=cluster.session,
                )
                names = sorted({event.workload for event in selected.events})
                print()
                print(_analytics_section(engine, names))
                print(f"\nanalytic cache after re-query: {engine.cache.stats.describe()}")
        return 0
    engine = ServingEngine(
        num_instances=args.instances,
        max_batch_frames=args.batch_frames,
        backend=args.backend,
        policy=args.policy,
    )
    print(f"backend {engine.backend_name!r}")
    print(f"trace {selected.name!r}: {selected.description}")
    print(f"streams: {', '.join(selected.streams)}; "
          f"{len(selected.events)} requests, {selected.total_frames} frames\n")
    engine.play(selected)
    report = engine.run()
    print(report.render())
    if args.analyze:
        names = sorted({event.workload for event in selected.events})
        print()
        print(_analytics_section(engine, names))
        print(f"\nanalytic cache after re-query: {engine.cache.stats.describe()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
