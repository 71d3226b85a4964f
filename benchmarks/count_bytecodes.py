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

``--memory`` runs untraced under ``tracemalloc`` and reports each
cell's traced peaks in bytes: ``pre_run_peak``, everything
``run_experiment`` allocated before ``Simulator.run`` (fabric,
transports, apps, load estimate), and ``run_peak``, the run itself.
The peak is reset before each cell and again as the run starts, so a
transient freed before the run ends still shows; the ``total`` line
holds the largest of each.
"""

from __future__ import annotations

import argparse
import gc
import json
import operator
import sys
import time
import tracemalloc
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


def _install_peaks(engine) -> list[int]:
    """Wrap ``Simulator.run`` so it records the traced peak before it
    (the set-up's) and at its end (the run's own, reset on entry)."""
    peaks = [0, 0]
    run = engine.Simulator.run

    def peaked(self, *args, **kwargs):
        peaks[0] = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        try:
            return run(self, *args, **kwargs)
        finally:
            peaks[1] = tracemalloc.get_traced_memory()[1]

    engine.Simulator.run = peaked
    return peaks


def count(workloads: list[str], seed: int, smoke: bool, mode: str,
          out) -> None:
    from repro.core import engine
    from repro.experiments.campaign import slowdown_digest
    from repro.experiments.runner import run_experiment

    import perf_workloads

    if mode == "memory":
        peaks = _install_peaks(engine)
        tracemalloc.start()
    elif mode == "bytecodes":
        counter = _install_counter(engine)
    # a workload's peak is its largest cell's; counts and seconds add up
    combine = max if mode == "memory" else operator.add
    for name in workloads:
        totals = {"events": 0}
        for label, cfg in perf_workloads.SIM_WORKLOADS[name](seed, smoke):
            if mode == "memory":
                gc.collect()
                tracemalloc.reset_peak()
            elif mode == "bytecodes":
                counter[0] = 0
            began = time.process_time()
            result = run_experiment(cfg)
            if mode == "memory":
                values = {"pre_run_peak": peaks[0], "run_peak": peaks[1]}
            elif mode == "cpu":
                values = {"cpu_s": round(time.process_time() - began, 3)}
            else:
                values = {"bytecodes": counter[0]}
            for metric, value in values.items():
                totals[metric] = combine(totals.get(metric, 0), value)
            totals["events"] += result.events
            row = {"workload": name, "cell": label, **values,
                   "events": result.events,
                   "digest": slowdown_digest({"cell": result})}
            out.write(json.dumps(row, sort_keys=True) + "\n")
            out.flush()
            # The tracker holds the network: drop the run before the
            # next cell, or its whole model counts in that cell's peaks.
            del result
        if mode == "cpu":
            totals["cpu_s"] = round(totals["cpu_s"], 3)
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
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--cpu", action="store_const", dest="mode",
                      const="cpu", default="bytecodes",
                      help="untraced: process CPU seconds per cell")
    mode.add_argument("--memory", action="store_const", dest="mode",
                      const="memory",
                      help="untraced: tracemalloc pre-run and run peaks "
                           "per cell, in bytes")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    if not (src / "repro" / "__init__.py").is_file():
        parser.error(f"--src {args.src}: no repro package there")
    sys.path.insert(0, str(PERF_DIR))
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        parser.error(f"repro already imported from {repro.__file__}")
    count(args.workload, args.seed, args.smoke, args.mode, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
