"""Count the bytecodes ``Simulator.run`` executes on a ledger workload.

Wall time cannot resolve a change under ~5% on a shared VM.  The number
of bytecodes the event loop executes can: it is deterministic, so one
run per tree decides a knock-out.  Every frame entered while
``Simulator.run`` is on the stack has opcode tracing turned on and each
opcode event is counted; C code (heap operations, ``dict`` methods)
counts as the one bytecode that calls it.

The cells are the benchmark's own (``benchmarks/perf/perf_workloads.py``
of this checkout), at full size unless ``--smoke``.  One JSON line per
cell: its label, ``bytecodes``, ``events`` (``events_processed``) and
slowdown ``digest`` (as ``golden.json`` records it); then one ``total``
line per workload::

    python benchmarks/count_bytecodes.py --src <parent>/src --workload homa_w4_clean
    python benchmarks/count_bytecodes.py --src src --workload homa_w4_clean

``--src`` goes first on ``sys.path``, so each run imports exactly the
tree it names.  Tracing is slow: ``homa_w4_clean`` takes ~3 min, and
``--smoke`` runs all three workloads in seconds.

A mechanism whose cost lives in C (creating bound methods, garbage
collection, the interpreter's switch interval) is invisible to the
count.  ``--cpu`` runs untraced and reports each cell's process CPU
seconds instead (``cpu_s``, around ``run_experiment``); interleave runs
of the two trees in a shell loop and count the pairs each side wins.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent / "perf"
WORKLOADS = ("homa_w4_clean", "homa_w1_small", "protocols_w3_lossy3")


def _install_counter(engine) -> list[int]:
    """Wrap ``Simulator.run`` so it counts the opcodes it executes."""
    count = [0]

    def local(frame, event, arg):
        if event == "opcode":
            count[0] += 1
        return local

    def enter(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return local

    run = engine.Simulator.run

    def traced(self, *args, **kwargs):
        sys.settrace(enter)
        try:
            return run(self, *args, **kwargs)
        finally:
            sys.settrace(None)

    engine.Simulator.run = traced
    return count


def count(workloads: list[str], seed: int, smoke: bool, cpu: bool,
          out) -> None:
    from repro.core import engine
    from repro.experiments.campaign import slowdown_digest
    from repro.experiments.runner import run_experiment

    import perf_workloads

    metric = "cpu_s" if cpu else "bytecodes"
    counter = [0] if cpu else _install_counter(engine)
    for name in workloads:
        totals = {metric: 0, "events": 0}
        for label, cfg in perf_workloads.SIM_WORKLOADS[name](seed, smoke):
            counter[0] = 0
            began = time.process_time()
            result = run_experiment(cfg)
            cpu_s = time.process_time() - began
            row = {"workload": name, "cell": label,
                   metric: round(cpu_s, 3) if cpu else counter[0],
                   "events": result.events,
                   "digest": slowdown_digest({"cell": result})}
            totals[metric] += row[metric]
            totals["events"] += row["events"]
            out.write(json.dumps(row, sort_keys=True) + "\n")
            out.flush()
        if cpu:
            totals[metric] = round(totals[metric], 3)
        out.write(json.dumps({"workload": name, "cell": "total", **totals},
                             sort_keys=True) + "\n")
        out.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Count Simulator.run bytecodes per ledger cell.")
    parser.add_argument("--src", required=True,
                        help="the tree's src directory (imported first)")
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS),
                        help="ledger workload(s); default all three")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--smoke", action="store_true",
                        help="the benchmark's smoke-size cells (seconds)")
    parser.add_argument("--cpu", action="store_true",
                        help="untraced: process CPU seconds per cell")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    if not (src / "repro" / "__init__.py").is_file():
        parser.error(f"--src {args.src}: no repro package there")
    sys.path.insert(0, str(PERF_DIR))
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        parser.error(f"repro already imported from {repro.__file__}")
    count(args.workload, args.seed, args.smoke, args.cpu, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
