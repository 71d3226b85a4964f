"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``         — one simulation (protocol x workload x load),
  slowdown table
* ``campaign``    — regenerate a paper figure's whole simulation grid,
  sharded over a process pool (or a worker farm via ``--farm``), with
  on-disk result caching and a journal that resumes a killed run
* ``farm-worker`` — join a campaign farm coordinator and compute cells
* ``workloads``   — list the built-in workloads
* ``alloc``       — show Homa's priority allocation for a workload
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path

from repro.experiments.paper_data import CAMPAIGNS
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.experiments.tables import kv_table, series_table
from repro.homa.priorities import allocate_priorities
from repro.transport.registry import PROTOCOLS
from repro.workloads.catalog import WORKLOADS, get_workload


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig(
        protocol=args.protocol,
        workload=args.workload.upper(),
        load=args.load,
        racks=args.racks,
        hosts_per_rack=args.hosts_per_rack,
        aggrs=args.aggrs,
        duration_ms=args.duration_ms,
        warmup_ms=args.warmup_ms,
        drain_ms=args.drain_ms,
        max_messages=args.max_messages,
        seed=args.seed,
        mode="rpc_echo" if args.rpc else "oneway",
    )
    result = run_experiment(cfg)
    edges = result.bucket_edges()
    print(series_table(
        f"{cfg.protocol} / {cfg.workload} @ {int(cfg.load * 100)}% load",
        edges,
        {"p50": result.tracker.series(edges, 50),
         "p99": result.tracker.series(edges, 99)}))
    measured = result.tracker.count
    p50, p99 = (f"{result.tracker.overall(pct):.2f}" if measured else "n/a"
                for pct in (50, 99))
    print(kv_table("run summary", [
        ("messages measured", str(measured)),
        ("submitted / completed", f"{result.submitted} / {result.completed}"),
        ("finish rate", f"{result.finish_rate:.3f}"),
        ("duplicate deliveries", str(result.duplicates)),
        ("overall p50 slowdown", p50),
        ("overall p99 slowdown", p99),
        ("events simulated", f"{result.events:,}"),
        ("wall time", f"{result.wall_seconds:.1f}s"),
    ]))
    if not measured:
        print("error: no message created after the warm-up completed, so "
              "nothing was measured; lower --warmup-ms or raise "
              "--duration-ms / --max-messages", file=sys.stderr)
        return 1
    if result.duplicates:
        print(f"error: {result.duplicates} more message(s) completed than "
              "were submitted; at-most-once delivery is broken for this "
              "configuration and seed", file=sys.stderr)
        return 1
    return 0


def _bench_dir() -> Path:
    """The benchmarks/ directory of the repository checkout."""
    return Path(__file__).resolve().parents[2] / "benchmarks"


def _cmd_campaign(args: argparse.Namespace) -> int:
    bench_dir = _bench_dir()
    if not bench_dir.is_dir():
        print(f"error: {bench_dir} not found — the campaign command "
              "needs a repository checkout", file=sys.stderr)
        return 1
    if str(bench_dir) not in sys.path:
        sys.path.insert(0, str(bench_dir))
    targets = sorted(CAMPAIGNS) if args.figure == "all" else [args.figure]
    # Figure pairs (8/9, 12/13) share one module; run each module once.
    modules = {name: importlib.import_module(name) for name in
               dict.fromkeys(CAMPAIGNS[target][0] for target in targets)}
    pooled_modules = set()
    if args.farm is not None or len(modules) > 1:
        # Pool every figure's pending cells into one global
        # largest-cell-first queue, so workers stay busy across the
        # skewed per-figure grids (W5 cells dominate) — served to the
        # worker farm with --farm.  This warms the shared cache; each
        # figure's run_figure() below then renders from cache hits,
        # byte-identical to running it alone.
        from repro.experiments import campaign as campaign_mod
        from repro.experiments import farm as farm_mod
        specs = []
        for name, module in modules.items():
            if hasattr(module, "campaign_specs"):
                specs.extend(module.campaign_specs())
            elif hasattr(module, "campaign_spec"):
                specs.append(module.campaign_spec())
            else:
                continue
            pooled_modules.add(name)
        if args.farm is None:
            campaign_mod.run_pooled(specs, jobs=args.jobs, fresh=args.fresh)
        else:
            host, port = farm_mod.parse_address(args.farm)
            farm_mod.run_farm(specs, host=host, port=port, jobs=args.jobs,
                              fresh=args.fresh, farm_wait_s=args.farm_wait,
                              retry_budget=args.farm_retries)
    paths = []
    for name, module in modules.items():
        # After a pooled warm-up the per-figure pass must read the
        # cache even under --fresh (the pool already recomputed);
        # modules that contributed no specs keep the flag.
        fresh = args.fresh and name not in pooled_modules
        paths.extend(module.run_figure(jobs=args.jobs, fresh=fresh))
    print("artifacts:")
    for path in paths:
        print(f"  {path}")
    return 0


def _cmd_farm_worker(args: argparse.Namespace) -> int:
    bench_dir = _bench_dir()
    if bench_dir.is_dir() and str(bench_dir) not in sys.path:
        # Custom cell tasks (e.g. bench_fig10_incast:incast_task) live
        # in benchmarks/; workers resolve them the same way the local
        # pool's initializer does.
        sys.path.insert(0, str(bench_dir))
    from repro.experiments import farm as farm_mod
    try:
        host, port = farm_mod.parse_address(args.address)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def _die() -> None:
        # Chaos hook for the CI death-retry battery: die abruptly (no
        # cleanup, no FIN handshake beyond the kernel's) mid-cell.
        import os
        import signal
        os.kill(os.getpid(), signal.SIGKILL)

    completed = farm_mod.worker_loop(
        host, port, name=args.name, heartbeat_s=args.heartbeat,
        die_after=args.die_after,
        on_die=_die if args.die_after is not None else None,
        quiet=False)
    print(f"farm-worker: {completed} cell(s) completed", file=sys.stderr)
    return 0


def _cmd_workloads(_args: argparse.Namespace) -> int:
    for key, workload in WORKLOADS.items():
        print(f"{key}: {workload.description}")
        print(f"    mean {workload.cdf.mean():,.0f} B, "
              f"range {workload.cdf.min_bytes()}-"
              f"{workload.cdf.max_bytes():,} B, "
              f"deciles {workload.deciles}")
    return 0


def _cmd_alloc(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload)
    alloc = allocate_priorities(workload.cdf, args.unsched_limit,
                                n_prios=args.prios)
    print(f"{workload.key}: {alloc.n_unsched} unscheduled + "
          f"{alloc.n_sched} scheduled priority levels")
    lo = 1
    for level, cutoff in zip(reversed(alloc.unsched_levels), alloc.cutoffs):
        print(f"  P{level}: unscheduled bytes of messages {lo:,}-{cutoff:,} B")
        lo = cutoff + 1
    print(f"  P{alloc.sched_levels[0]}-P{alloc.sched_levels[-1]}: "
          f"scheduled packets (assigned per-message by receivers)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Homa (SIGCOMM 2018) reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one simulation")
    run.add_argument("--protocol", choices=PROTOCOLS, default="homa")
    run.add_argument("--workload", default="W3")
    run.add_argument("--load", type=float, default=0.8)
    run.add_argument("--racks", type=int, default=3)
    run.add_argument("--hosts-per-rack", type=int, default=8)
    run.add_argument("--aggrs", type=int, default=2)
    run.add_argument("--duration-ms", type=float, default=5.0)
    run.add_argument("--warmup-ms", type=float, default=0.5)
    run.add_argument("--drain-ms", type=float, default=10.0)
    run.add_argument("--max-messages", type=int, default=None)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--rpc", action="store_true",
                     help="echo-RPC mode instead of one-way messages")
    run.set_defaults(fn=_cmd_run)

    campaign = sub.add_parser(
        "campaign",
        help="regenerate a paper figure's simulation grid "
             "(sharded + cached)",
        description="Figure ids: " + ", ".join(
            f"{name} ({desc})" for name, (_, desc) in sorted(
                CAMPAIGNS.items())),
        epilog="Grid sizes follow the REPRO_BENCH_SCALE environment "
               "variable: tiny (CI smoke), quick (the default), or "
               "paper (the full Figure 11 topology; hours).  See "
               "docs/CAMPAIGNS.md.")
    campaign.add_argument("figure",
                          choices=sorted(CAMPAIGNS) + ["all"],
                          help="figure/table id, or 'all'")
    campaign.add_argument("--jobs", type=int, default=None,
                          help="worker processes (default: REPRO_JOBS "
                               "env var, else 1 = serial)")
    campaign.add_argument("--fresh", action="store_true",
                          help="ignore cached results (recompute and "
                               "repopulate the cache)")
    campaign.add_argument("--farm", metavar="HOST:PORT", default=None,
                          help="serve the cell queue to farm workers on "
                               "this address (port 0 = ephemeral); falls "
                               "back to the local pool if none connect")
    campaign.add_argument("--farm-wait", type=float, default=10.0,
                          help="grace seconds before the no-worker local "
                               "fallback (default 10)")
    campaign.add_argument("--farm-retries", type=int, default=2,
                          help="worker deaths one cell survives before "
                               "the sweep fails (default 2)")
    campaign.set_defaults(fn=_cmd_campaign)

    worker = sub.add_parser(
        "farm-worker",
        help="join a campaign farm and compute cells",
        description="Connects to a `repro campaign --farm` coordinator, "
                    "pulls cells from its global queue, and streams "
                    "results back.  See docs/CAMPAIGNS.md (farm section).")
    worker.add_argument("address", metavar="HOST:PORT",
                        help="coordinator address")
    worker.add_argument("--name", default=None,
                        help="worker name shown in coordinator logs")
    worker.add_argument("--heartbeat", type=float, default=2.0,
                        help="seconds between liveness pings while a "
                             "cell computes (default 2)")
    worker.add_argument("--die-after", type=int, default=None,
                        metavar="N",
                        help="chaos hook: SIGKILL self upon receiving "
                             "the Nth cell (tests the coordinator's "
                             "death-requeue path)")
    worker.set_defaults(fn=_cmd_farm_worker)

    workloads = sub.add_parser("workloads", help="list built-in workloads")
    workloads.set_defaults(fn=_cmd_workloads)

    alloc = sub.add_parser("alloc", help="show priority allocation")
    alloc.add_argument("workload")
    alloc.add_argument("--prios", type=int, default=8)
    alloc.add_argument("--unsched-limit", type=int, default=10220)
    alloc.set_defaults(fn=_cmd_alloc)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
