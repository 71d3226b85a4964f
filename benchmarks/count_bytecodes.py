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

``--layers`` counts the same bytecodes by the function executing them
and adds to each cell's line: ``per_message`` (bytecodes per submitted
message), ``modules`` (each ``src/repro`` module's share, ``other``
for code outside it: stdlib, numpy's Python parts), ``layers`` (the
modules summed by :data:`LAYER_OF`) and ``top``, the
:data:`TOP_N` costliest functions with their bytecodes per message::

    python benchmarks/count_bytecodes.py --src src --workload homa_w1_small --layers

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

#: ``--layers``: how many of the costliest functions a cell reports
TOP_N = 15

#: ``--layers``: the layer of each ``src/repro`` module, by its package
#: directory; ``core`` is split per file, the other directories are one
#: layer each.  A module this cannot place fails ``layer_of``.
LAYER_OF = {
    "core/engine": "engine", "core/port": "port", "core/packet": "packet",
    "core/pool": "packet", "core/host": "fabric", "core/switch": "fabric",
    "core/topology": "fabric", "core/faults": "fabric",
    "core/units": "fabric", "core/__init__": "fabric",
    "homa": "homa", "baselines": "baselines", "transport": "transport",
    "apps": "apps", "workloads": "apps", "metrics": "metrics",
    "experiments": "runner", "analysis": "analysis",
    "__init__": "runner", "__main__": "runner",
}


def module_of(filename: str) -> str:
    """``homa/transport`` for ``.../src/repro/homa/transport.py``;
    ``other`` for a file outside the ``repro`` package."""
    parts = Path(filename).with_suffix("").parts
    if "repro" not in parts:
        return "other"
    index = len(parts) - 1 - parts[::-1].index("repro")
    return "/".join(parts[index + 1:]) or "other"


def layer_of(module: str) -> str:
    """The layer ``module`` (as :func:`module_of` names it) belongs to."""
    if module == "other":
        return "other"
    if module in LAYER_OF:
        return LAYER_OF[module]
    directory = module.split("/")[0]
    if directory == "core" or directory not in LAYER_OF:
        raise KeyError(f"no layer for module {module!r}: add it to LAYER_OF")
    return LAYER_OF[directory]


def _install_counter(engine) -> dict:
    """Wrap ``Simulator.run`` so it counts the opcodes it executes, per
    code object: ``{code: [count]}``; the caller zeroes the counts per
    cell.  One local tracer per code object, made on its first call:
    a tracer refers to itself, so one per *call* would be cyclic
    garbage that the run, with the collector off, never frees."""
    counts: dict = {}
    tracers: dict = {}

    def tracer_for(box):
        def local(frame, event, arg):
            if event == "opcode":
                box[0] += 1
            return local
        return local

    def enter(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        code = frame.f_code
        tracer = tracers.get(code)
        if tracer is None:
            counts[code] = box = [0]
            tracer = tracers[code] = tracer_for(box)
        return tracer

    run = engine.Simulator.run

    def traced(self, *args, **kwargs):
        sys.settrace(enter)
        try:
            return run(self, *args, **kwargs)
        finally:
            sys.settrace(None)

    engine.Simulator.run = traced
    return counts


def layer_report(counts: dict, messages: int) -> dict:
    """``--layers`` fields of one cell from its per-code counts."""
    total = sum(box[0] for box in counts.values())
    modules: dict[str, int] = {}
    functions: dict[str, int] = {}
    for code, (n,) in counts.items():
        if not n:
            continue  # ran in an earlier cell only
        module = module_of(code.co_filename)
        modules[module] = modules.get(module, 0) + n
        name = f"{module}:{code.co_qualname}"
        functions[name] = functions.get(name, 0) + n
    layers: dict[str, int] = {}
    for module, n in modules.items():
        layer = layer_of(module)
        layers[layer] = layers.get(layer, 0) + n
    per = max(messages, 1)

    def shares(table):
        return {key: [n, round(n / total, 4)] for key, n in table.items()}

    top = sorted(functions.items(), key=lambda item: -item[1])[:TOP_N]
    return {"per_message": round(total / per, 1),
            "modules": shares(modules), "layers": shares(layers),
            "top": [[name, n, round(n / per, 1)] for name, n in top]}


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
          out, layers: bool = False) -> None:
    from repro.core import engine
    from repro.experiments.campaign import slowdown_digest
    from repro.experiments.runner import run_experiment

    import perf_workloads

    if mode == "memory":
        peaks = _install_peaks(engine)
        tracemalloc.start()
    elif mode == "bytecodes":
        counts = _install_counter(engine)
    # a workload's peak is its largest cell's; counts and seconds add up
    combine = max if mode == "memory" else operator.add
    for name in workloads:
        totals = {"events": 0}
        for label, cfg in perf_workloads.SIM_WORKLOADS[name](seed, smoke):
            if mode == "memory":
                gc.collect()
                tracemalloc.reset_peak()
            elif mode == "bytecodes":
                for box in counts.values():
                    box[0] = 0
            began = time.process_time()
            result = run_experiment(cfg)
            if mode == "memory":
                values = {"pre_run_peak": peaks[0], "run_peak": peaks[1]}
            elif mode == "cpu":
                values = {"cpu_s": round(time.process_time() - began, 3)}
            else:
                values = {"bytecodes": sum(b[0] for b in counts.values())}
            for metric, value in values.items():
                totals[metric] = combine(totals.get(metric, 0), value)
            totals["events"] += result.events
            row = {"workload": name, "cell": label, **values,
                   "events": result.events,
                   "digest": slowdown_digest({"cell": result})}
            if layers:
                row.update(layer_report(counts, result.submitted))
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
    parser.add_argument("--layers", action="store_true",
                        help="also split each cell's bytecodes by module, "
                             "layer and top function")
    args = parser.parse_args(argv)
    if args.layers and args.mode != "bytecodes":
        parser.error("--layers splits the bytecode count; drop --cpu/--memory")
    src = Path(args.src).resolve()
    if not (src / "repro" / "__init__.py").is_file():
        parser.error(f"--src {args.src}: no repro package there")
    sys.path.insert(0, str(PERF_DIR))
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        parser.error(f"repro already imported from {repro.__file__}")
    count(args.workload, args.seed, args.smoke, args.mode, sys.stdout,
          args.layers)
    return 0


if __name__ == "__main__":
    sys.exit(main())
