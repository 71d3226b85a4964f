"""The traced run's instruments: cProfile bucketed by layer, and
isolated ns/op timings of each layer's public calls.

Shares are indicative (cProfile taxes Python calls, not the work inside
native code); call counts are exact for a fixed seed and may carry a
later claim.
"""

from __future__ import annotations

import cProfile
import gc
import pstats

import numpy as np

from repro.core.engine import Simulator
from repro.core.packet import Packet, PacketType
from repro.core.pool import PacketPool
from repro.core.port import QueuedPort
from repro.core.topology import NetworkConfig, build_network
from repro.metrics.slowdown import SlowdownTracker
from repro.transport.messages import Intervals
from repro.workloads.catalog import get_workload

import perf_harness as harness
from perf_metrics import LAYERS

#: files of core/ that are not the fabric
_CORE_LAYERS = {"engine.py": "engine", "port.py": "port", "pool.py": "pool",
                "packet.py": "pool"}
_DIR_LAYERS = {"homa": "homa", "baselines": "baselines",
               "transport": "transport", "apps": "apps", "workloads": "apps",
               "metrics": "metrics"}
_EXPERIMENT_LAYERS = {"runner.py": "runner", "campaign.py": "campaign",
                      "wire.py": "wire", "farm.py": "farm"}


def layer_of(filename: str) -> str:
    """The layer a source file belongs to (``other``: stdlib, numpy, the
    benchmark's own files)."""
    parts = filename.replace("\\", "/").split("/")
    # .../repro/<directory>/<module>.py
    if len(parts) < 3 or parts[-3] != "repro":
        return "other"
    directory, module = parts[-2:]
    if directory == "core":
        return _CORE_LAYERS.get(module, "fabric")
    if directory == "experiments":
        return _EXPERIMENT_LAYERS.get(module, "other")
    return _DIR_LAYERS.get(directory, "other")


class LayerProfiler:
    """One cProfile pass (of the calling thread), accumulated over every
    ``runcall`` and reported per layer.

    A function outside the layers — a builtin, numpy, the standard
    library — has its self time passed up the caller graph, split by
    the time each caller accounts for, until a layer's file is reached
    (``json`` encoding lands on ``campaign`` or ``wire``, whoever asked
    for it); what no layer asked for stays in ``other``.  Its *calls*
    are counted on its direct caller's layer only, so call counts stay
    whole numbers that repeat exactly.
    """

    def __init__(self) -> None:
        self._profiler = cProfile.Profile()

    def runcall(self, fn, *args):
        return self._profiler.runcall(fn, *args)

    def layer_metrics(self) -> dict:
        """``<layer>.self_frac`` (summing to 1) and ``<layer>.calls``."""
        stats = pstats.Stats(self._profiler).stats
        shares: dict[tuple, dict[str, float]] = {}

        def share_of(func, path=()) -> dict[str, float]:
            """Which layers a function's self time belongs to."""
            layer = layer_of(func[0])
            if layer != "other":
                return {layer: 1.0}
            if func in shares:
                return shares[func]
            callers = stats[func][4] if func in stats else {}
            weight = {caller: tt for caller, (_, _, tt, _) in callers.items()
                      if caller not in path}
            total = sum(weight.values())
            if total <= 0:
                return {"other": 1.0}
            out: dict[str, float] = {}
            for caller, tt in weight.items():
                for name, part in share_of(caller, path + (func,)).items():
                    out[name] = out.get(name, 0.0) + part * tt / total
            if not path:
                shares[func] = out
            return out

        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for func, (_, ncalls, tottime, _, callers) in stats.items():
            for name, part in share_of(func).items():
                self_s[name] += tottime * part
            layer = layer_of(func[0])
            if layer != "other" or not callers:
                calls[layer] += ncalls
            else:
                for caller, (n, _, _, _) in callers.items():
                    calls[layer_of(caller[0])] += n
        total = sum(self_s.values())
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_frac"] = self_s[layer] / total if total else 0.0
            out[f"{layer}.calls"] = calls[layer]
        return out


# -- isolated ns/op timings ----------------------------------------------

def _dispatch(ops: int):
    """``schedule1`` + dispatch of a no-op with ~150 events pending: 150
    actors each re-arm themselves until ``ops`` events have fired."""
    def run():
        sim = Simulator()
        left = [ops]
        schedule1 = sim.schedule1

        def tick(i):
            left[0] -= 1
            if left[0] >= 150:
                # multiplicative hash: realistic sift depth, not sorted input
                schedule1(1000 + (i * 2654435761) % 4093, tick, i + 1)

        for i in range(1, 151):
            schedule1(1000 + (i * 2654435761) % 4093, tick, i)
        sim.run()
    return run


def _enqueue_tx(ops: int):
    def run():
        sim = Simulator()
        port = QueuedPort(sim, "bench", 10, lambda pkt: None, "tor_down")
        pkts = [Packet(0, 1, PacketType.DATA, prio=i % 8, payload=1460,
                       rpc_id=1, offset=i * 1460) for i in range(64)]
        for _ in range(ops // 64):
            for pkt in pkts:
                port.enqueue(pkt)
            sim.run()
    return run


def _alloc_free(ops: int):
    def run():
        pool = PacketPool(prealloc=64)
        alloc, free = pool.alloc_data, pool.free
        for i in range(ops):
            free(alloc(1, 2, 3, 1460, i, True, 0, 99999,
                       True, False, False, None, 0, 12345))
    return run


def _intervals_add(ops: int):
    def run():
        for _ in range(ops // 100):
            intervals = Intervals()
            add = intervals.add
            for k in range(100):
                add(k * 1460, (k + 1) * 1460)
    return run


def _sample(ops: int, workload: str):
    sample_one = get_workload(workload).cdf.sample_one
    rng = np.random.default_rng(1)

    def run():
        for _ in range(ops):
            sample_one(rng)
    return run


def _record(ops: int):
    net = build_network(Simulator(), NetworkConfig(
        racks=2, hosts_per_rack=4, aggrs=2))

    def run():
        record = SlowdownTracker(net).record_oneway
        for i in range(ops):
            record(i & 3, 4 + (i & 3), 1000 + i % 5000, 0, 10_000_000)
    return run


def layer_call_timings(workload: str, smoke: bool) -> dict:
    """Best-of-5 ns/op of one public call per layer (op counts in
    README.md)."""
    ops = 400 if smoke else 40_000
    rows = {
        "engine.dispatch_ns": (_dispatch(ops), ops),
        "port.enqueue_tx_ns": (_enqueue_tx(ops), ops // 64 * 64),
        "pool.alloc_free_ns": (_alloc_free(ops), ops),
        "transport.intervals_add_ns": (_intervals_add(ops), ops // 100 * 100),
        "apps.sample_ns": (_sample(ops, workload), ops),
        "metrics.record_ns": (_record(ops), ops),
    }
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        return {name: harness.best_of(fn) * 1e9 / n
                for name, (fn, n) in rows.items()}
    finally:
        if gc_was_enabled:
            gc.enable()
