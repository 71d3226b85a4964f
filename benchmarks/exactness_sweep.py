"""Exactness sweep: one source tree over two grids of cells.

* The 240-cell recovery grid: all eight protocols (Homa, Basic and the
  six baselines) x seeds 1-15 x per-tier loss 0.01 / 0.05, W3 at load
  0.5 on the 16-host lossy, faulted 3-level fabric of
  ``tests/test_recovery.py::lossy_3level_spec``.  The Homa and Basic
  cells run the sender's RESEND, BUSY, ghost and restart paths.
* The 54-cell Homa grant grid: W1 / W4 / W5 at load 0.9 on a clean
  4-host rack x overcommitment degree 1-3 x the three GRANT emitters
  (per-packet, timer, every 10 packets) x ``grant_oldest`` off / on.
  At degree 1-2 more messages are grantable than the degree, so the
  receiver's top-K ranking and the ``grant_oldest`` slot both run.

Each cell writes one JSON line: its slowdown digest, ``submitted``,
``completed``, and the ``control`` and ``fabric`` counters.

A refactor that claims to be exact runs this once per tree and diffs
the two files; every line must be identical::

    python benchmarks/exactness_sweep.py --src <parent>/src --out parent.jsonl
    python benchmarks/exactness_sweep.py --src src --out change.jsonl
    diff parent.jsonl change.jsonl

``--src`` goes first on ``sys.path``, so each run imports exactly the
tree it names.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

PROTOCOLS = ("homa", "basic", "pfabric", "phost", "pias", "ndp", "stream",
             "stream_mc")
LOSSES = (0.01, 0.05)
SEEDS = range(1, 16)

#: Homa grid: workload -> (duration_ms, seed), sized so each cell runs
#: in well under a second and W4 / W5 reach the above-degree ranking.
HOMA_WORKLOADS = {"W1": (0.1, 7), "W4": (1.5, 7), "W5": (4.0, 1)}
HOMA_DEGREES = (1, 2, 3)
#: the three GRANT emitters, as ``HomaConfig`` overrides
HOMA_EMITTERS = {"packet": {"grant_batch_ns": 0},
                 "timer": {},
                 "count": {"grant_batch_ns": 0, "grant_batch_pkts": 10}}


def lossy_3level_spec(loss: float, window_ms: float = 0.4):
    """``lossy_3level_spec`` of tests/test_recovery.py with ``loss`` at
    every tier: 16 hosts, a ToR uplink down, a core switch down, the
    uplink back up inside the traffic window."""
    from repro.core.faults import FaultEvent, LossRates
    from repro.core.topology import TopologySpec

    return TopologySpec(
        levels=3, pods=2, racks=2, hosts_per_rack=4, aggrs=2, cores=4,
        host_gbps=10, aggr_gbps=25, core_gbps=100,
        loss=LossRates(tor=loss, aggr=loss, core=loss),
        faults=(FaultEvent(0.35 * window_ms, "link", "down", "tor0:aggr0.1"),
                FaultEvent(0.55 * window_ms, "switch", "down", "core0"),
                FaultEvent(0.80 * window_ms, "link", "up", "tor0:aggr0.1")))


def grid():
    """Yield ``(label, ExperimentConfig)`` for every cell of both grids."""
    from repro.experiments.runner import ExperimentConfig
    from repro.homa.config import HomaConfig

    for protocol in PROTOCOLS:
        for loss in LOSSES:
            for seed in SEEDS:
                yield [protocol, loss, seed], ExperimentConfig(
                    protocol=protocol, workload="W3", load=0.5,
                    duration_ms=0.3, warmup_ms=0.1, drain_ms=20.0,
                    seed=seed, fabric=lossy_3level_spec(loss))
    for workload, (duration_ms, seed) in HOMA_WORKLOADS.items():
        for degree in HOMA_DEGREES:
            for emitter, overrides in HOMA_EMITTERS.items():
                for oldest in (False, True):
                    yield ["homa", workload, degree, emitter, oldest], \
                        ExperimentConfig(
                            protocol="homa", workload=workload, load=0.9,
                            racks=1, hosts_per_rack=4, aggrs=0,
                            duration_ms=duration_ms, warmup_ms=0.0,
                            drain_ms=10.0, seed=seed,
                            homa=HomaConfig(overcommit_override=degree,
                                            grant_oldest=oldest,
                                            **overrides))


def sweep(out) -> int:
    from repro.experiments.campaign import slowdown_digest
    from repro.experiments.runner import run_experiment

    count = 0
    for label, cfg in grid():
        result = run_experiment(cfg)
        row = {"cell": label,
               "digest": slowdown_digest({cfg.protocol: result}),
               "submitted": result.submitted,
               "completed": result.completed,
               "control": result.control.to_payload(),
               "fabric": result.fabric.to_payload()}
        out.write(json.dumps(row, sort_keys=True) + "\n")
        out.flush()
        count += 1
    return count


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the recovery and Homa grids on one source tree.")
    parser.add_argument("--src", required=True,
                        help="the tree's src directory (imported first)")
    parser.add_argument("--out", required=True,
                        help="JSONL output, one line per cell")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    if not (src / "repro" / "__init__.py").is_file():
        parser.error(f"--src {args.src}: no repro package there")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        parser.error(f"repro already imported from {repro.__file__}")
    with open(args.out, "w") as out:
        cells = sweep(out)
    print(f"{cells} cells from {src} -> {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
