"""``repro-soak``: the soak harness from the command line.

Examples
--------
Small smoke run (the blocking CI job)::

    repro-soak --requests 10000 --workers 2 --chaos kill-worker@50% \\
        --seed 7 --output soak-ci.json

The acceptance-scale run::

    repro-soak --requests 100000 --workers 2 --chaos kill-worker@50%

Exit status is 0 on a clean run and 1 on any soak failure (lost or
duplicated requests, post-kill parity divergence, bad chaos spec).
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.soak.harness import (
    ChaosEvent,
    ChaosSpecError,
    SoakConfig,
    SoakError,
    run_soak,
)
from repro.soak.tracegen import ARRIVALS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-soak",
        description="Replay seeded traffic through the serving cluster, kill "
        "workers mid-run, verify exactly-once serving and pixel parity.",
    )
    parser.add_argument("--requests", type=int, default=10_000, help="requests to replay")
    parser.add_argument("--workers", type=int, default=2, help="cluster worker count")
    parser.add_argument(
        "--arrival",
        choices=sorted(ARRIVALS),
        default="poisson",
        help="arrival process (default poisson; bursty releases bursts of "
        f"{ARRIVALS['bursty']})",
    )
    parser.add_argument("--users", type=int, default=1_000, help="user-population size")
    parser.add_argument("--seed", type=int, default=0, help="trace + probe seed")
    parser.add_argument("--window", type=int, default=2_048, help="admissions per drain window")
    parser.add_argument(
        "--chaos",
        action="append",
        default=[],
        metavar="kill-worker@FRACTION",
        help="kill a worker at this fraction of the trace, repeatable "
        "(e.g. kill-worker@50%%)",
    )
    parser.add_argument(
        "--cluster-mode",
        choices=("auto", "process", "inline"),
        default="auto",
        help="worker mode (default auto: processes with inline fallback)",
    )
    parser.add_argument(
        "--gateway",
        action="store_true",
        help="serve through the SLO gateway: EDF scheduling, per-class "
        "deadlines, admission control with graceful degradation",
    )
    parser.add_argument("--output", default=None, help="write the SoakReport JSON here")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        schedule = tuple(ChaosEvent.parse(spec) for spec in args.chaos)
    except ChaosSpecError as exc:
        print(f"repro-soak: {exc}")
        return 1
    config = SoakConfig(
        requests=args.requests,
        workers=args.workers,
        arrival=args.arrival,
        users=args.users,
        seed=args.seed,
        window=args.window,
        cluster_mode=args.cluster_mode,
        chaos=schedule,
        gateway=args.gateway,
    )
    try:
        report = run_soak(config)
    except SoakError as exc:
        print(f"repro-soak: FAILED: {exc}")
        return 1
    print(report.render())
    if args.output:
        path = report.save(args.output)
        print(f"\nreport written to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
