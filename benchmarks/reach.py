"""Reachability check: every function in ``src/repro`` earns a caller.

    PYTHONPATH=src python benchmarks/reach.py            # list what nothing reaches
    PYTHONPATH=src python benchmarks/reach.py --check    # exit 1 on an unkept one

The tree exists to regenerate the paper's figures, so a function counts
as reached when one of the things this repository runs enters it: the
16 figure campaigns (run fresh at tiny scale into a temporary cache),
the CI-run examples, the CLI's subcommands, CI's fabric-stress smoke
(``benchmarks/bench_fabric_stress.py --smoke --jobs 2``, the one pooled
run), the benchmark's smoke cells (``benchmarks/perf/run.py --smoke``,
one workload at a time, in this process) and the farm battery
(``benchmarks/farm_smoke.py``).  All of them run in this one
interpreter under ``sys.setprofile`` and ``threading.setprofile``; code
that only a subprocess or a pool worker runs is invisible here, which
is why ``_init_worker`` is kept below.
The tests are deliberately not a driver: a function only a test calls
is dead weight the test keeps alive.

Every ``def`` under ``src/repro`` outside ``analysis/`` (simlint checks
the tree's source, it runs on no figure's path) is a candidate, named
``<path>::<qualname>``.  A candidate nothing enters must be listed in
``KEEP`` with the reason it stays.  ``--check`` exits 1 on a candidate
that is neither reached nor kept, on a ``KEEP`` entry that is now
reached (the reason is stale), and on one that names no function.  A
package ``__init__.py`` holds only its docstring: no module imports a
re-exported name, so any import there is reported too.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
BENCH = ROOT / "benchmarks"
EXCLUDED = ("analysis/",)

#: ``<path under src/repro>::<qualname>`` -> why it stays unreached
_PERF = ("timed by the benchmark's traced run (benchmarks/perf/perf_trace.py), "
         "which installs cProfile in place of this profiler; goes with "
         "ROADMAP items 3a and 8")
_HOOK = "abstract hook or no-op default: every concrete subclass overrides it"
_FAIL = "failure path: runs only when a cell, a worker or an RPC fails"
KEEP = {
    "core/pool.py::PacketPool.__init__": _PERF,
    "core/pool.py::PacketPool.alloc_data": _PERF,
    "core/pool.py::PacketPool.free": _PERF,
    "core/pool.py::PacketPool._grow": _PERF,
    "core/engine.py::Simulator.schedule1": _PERF,
    "homa/priorities.py::PriorityAllocation.sched_prio":
        "reference for the scheduled-priority lookup HomaTransport inlines; "
        "tests/test_priorities.py compares against it",
    # priousage, wasted, throughput and queues all probe tor_down_ports,
    # so any two of them in ExperimentConfig.collect share a port.
    "metrics/probes.py::CompositeProbe.__init__":
        "two probes on one port; no figure collects two port metrics",
    "metrics/probes.py::CompositeProbe.on_queue_change": "as __init__",
    "metrics/probes.py::CompositeProbe.on_busy_change": "as __init__",
    "metrics/probes.py::CompositeProbe.on_tx_done": "as __init__",
    "metrics/probes.py::CompositeProbe.on_drop": "as __init__",
    "experiments/farm.py::_FarmState.fail_cell": _FAIL,
    "experiments/farm.py::_FarmState._fail": _FAIL,
    "experiments/campaign.py::CampaignCellError.__init__": _FAIL,
    "apps/echo.py::EchoClient._on_error": _FAIL,
    "__main__.py::_cmd_farm_worker":
        "the farm-worker command; farm_smoke.py runs it in subprocesses",
    "__main__.py::_cmd_farm_worker.<locals>._die":
        "the --die-after chaos hook, in a farm-worker subprocess",
    "experiments/farm.py::parse_address":
        "HOST:PORT of campaign --farm and farm-worker; farm_smoke.py's "
        "workers parse it in their subprocesses",
    "experiments/farm.py::_init_worker": "runs only in pool workers",
    "core/topology.py::Network.set_drop_filter":
        "targeted loss for the recovery tests; ROADMAP item 6's schedule "
        "enumerator drives it",
    "homa/transport.py::HomaTransport._reack":
        "a late DATA copy after a receiver-timeout RESEND; "
        "tests/test_faults.py::test_late_copy_after_resend_is_not_"
        "delivered_twice stages one",
    "homa/transport.py::_arrival_key":
        "HomaConfig.grant_oldest's pick, when more messages are grantable "
        "than the overcommitment degree; the tiny ablation never gets "
        "there (the exactness sweep's grant_oldest cells do)",
    "homa/priorities.py::OnlineEstimator._bin_upper":
        "OnlineEstimator.to_cdf past 100 samples; the tiny online-priority "
        "ablation's estimators never get there",
    "core/port.py::PortProbe.on_drop": _HOOK,
    "core/port.py::BasePort.enqueue": _HOOK,
    "core/port.py::BasePort.flush": _HOOK,
    "core/port.py::BasePort._next": _HOOK,
    "transport/base.py::Transport._next_data": _HOOK,
    "transport/base.py::Transport.send_message": _HOOK,
    "transport/base.py::Transport.on_packet": _HOOK,
    "transport/base.py::Transport._repair": _HOOK,
    "apps/openloop.py::PoissonSource._send": _HOOK,
    "core/packet.py::Packet.__repr__": "debugging aid",
    "workloads/distributions.py::EmpiricalCDF.__repr__": "debugging aid",
}

#: (label, callable) pairs, run in this order
DRIVERS: list[tuple[str, object]] = []


def driver(label: str):
    def register(fn):
        DRIVERS.append((label, fn))
        return fn
    return register


def _run_script(path: Path, *argv: str) -> None:
    """Run a script as ``__main__`` with ``argv``; a non-zero exit raises."""
    saved = sys.argv
    sys.argv = [str(path), *argv]
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as stop:
        if stop.code not in (None, 0):
            raise RuntimeError(f"{path.name} {' '.join(argv)} exited "
                               f"with {stop.code}") from None
    finally:
        sys.argv = saved


def _cli(*argv: str) -> None:
    from repro.__main__ import main
    code = main(list(argv))
    if code:
        raise RuntimeError(f"repro {' '.join(argv)} exited with {code}")


@driver("campaign all --fresh --jobs 1")
def _campaigns() -> None:
    _cli("campaign", "all", "--fresh", "--jobs", "1")


@driver("examples")
def _examples() -> None:
    for path in sorted((ROOT / "examples").glob("*.py")):
        _run_script(path)


@driver("cli run / run --rpc / alloc / workloads")
def _commands() -> None:
    small = ("--racks", "1", "--hosts-per-rack", "4", "--aggrs", "1",
             "--duration-ms", "1", "--warmup-ms", "0", "--seed", "3")
    _cli("run", "--workload", "W3", *small)
    _cli("run", "--rpc", "--workload", "W1", *small)
    _cli("alloc", "W4")
    _cli("workloads")


@driver("bench_fabric_stress.py --smoke --jobs 2 --fresh")
def _fabric_stress() -> None:
    # CI's campaign-smoke leg; --jobs 2 runs the pool's parent side here.
    _run_script(BENCH / "bench_fabric_stress.py", "--smoke", "--jobs", "2",
                "--fresh")


@driver("perf/run.py --smoke")
def _perf_smoke() -> None:
    for name in ("homa_w4_clean", "homa_w1_small", "protocols_w3_lossy3",
                 "campaign_stack"):
        _run_script(BENCH / "perf" / "run.py", "--workload", name, "--smoke")


@driver("farm_smoke.py")
def _farm() -> None:
    _run_script(BENCH / "farm_smoke.py")


# -- what exists ---------------------------------------------------------

def _defs(node, prefix: str = ""):
    """``(qualname, line)`` of every function under ``node``, in source
    order; qualnames follow ``__qualname__`` (``f.<locals>.g``)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = prefix + child.name
            yield qual, child.lineno
            yield from _defs(child, qual + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, prefix + child.name + ".")
        else:
            yield from _defs(child, prefix)


def candidates() -> dict[str, int]:
    """Every function under src/repro (outside EXCLUDED): name -> line."""
    found: dict[str, int] = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if not rel.startswith(EXCLUDED):
            for qual, line in _defs(ast.parse(path.read_text(), str(path))):
                found.setdefault(f"{rel}::{qual}", line)
    return found


def exports() -> list[str]:
    """Import statements in package ``__init__.py`` files."""
    found = []
    for path in sorted(SRC.rglob("__init__.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith(EXCLUDED):
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found.append(f"{rel}:{node.lineno}: re-export")
    return found


# -- what runs -----------------------------------------------------------

def record() -> set[str]:
    """Run every driver under the profiler; names of the functions entered."""
    codes: set = set()

    def profile(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    os.environ["REPRO_BENCH_SCALE"] = "tiny"
    for path in (str(SRC.parent), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)
    with tempfile.TemporaryDirectory(prefix="reach-") as cache:
        os.environ["REPRO_CACHE_DIR"] = cache
        for label, fn in DRIVERS:
            began = time.perf_counter()
            out = io.StringIO()   # drivers print figures; show on failure
            threading.setprofile(profile)
            sys.setprofile(profile)
            try:
                with contextlib.redirect_stdout(out):
                    fn()
            except BaseException:
                sys.stdout.write(out.getvalue())
                raise
            finally:
                sys.setprofile(None)
                threading.setprofile(None)
            print(f"reach: {label}: {time.perf_counter() - began:.0f} s",
                  file=sys.stderr)

    src = str(SRC) + os.sep
    reached = set()
    for code in codes:
        filename = os.path.realpath(code.co_filename)
        if filename.startswith(src):
            rel = filename[len(src):].replace(os.sep, "/")
            reached.add(f"{rel}::{code.co_qualname}")
    return reached


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 on an unreached, unkept function or "
                             "a stale KEEP entry")
    args = parser.parse_args(argv)
    everything = candidates()
    reached = record()
    problems = exports()
    for name in everything:
        if name not in reached and name not in KEEP:
            path, qual = name.split("::")
            problems.append(f"{path}:{everything[name]}: {qual} is never "
                            f"entered and has no KEEP reason")
    for name in sorted(KEEP):
        if name not in everything:
            problems.append(f"KEEP {name}: no such function")
        elif name in reached:
            problems.append(f"KEEP {name}: now reached; drop the entry")
    unreached = sum(name not in reached for name in everything)
    print(f"reach: {len(everything)} functions, {len(everything) - unreached}"
          f" reached, {unreached} kept or unreached, {len(KEEP)} KEEP "
          f"entries", file=sys.stderr)
    for line in problems:
        print(line)
    return 1 if problems and args.check else 0


if __name__ == "__main__":
    sys.exit(main())
