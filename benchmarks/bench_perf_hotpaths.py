"""Hot-path performance benchmark: the indexed simulator vs. the seed.

Runs the canonical 144-host W4 @ 80% load scenario (the paper's
Figure 11 topology) on the current tree, verifies that the slowdown
percentiles are byte-identical to the recorded seed digests (the
indexing refactor must not change simulation results), and reports the
wall-time speedup against the seed.  Results land in
``BENCH_hotpaths.json`` at the repository root so later PRs can track
the trajectory; see docs/PERFORMANCE.md for how to read it.

Because shared machines drift in speed from minute to minute, the only
rigorous comparison is *interleaved*: ``--against-worktree PATH`` runs
the scenario alternately in a seed checkout and the current tree
(subprocess per run, best-of-N each) — this is how the committed
artifact was produced.  Without the flag, the current tree is measured
alone and compared against the recorded seed baseline, which is
approximate across sessions.

Both canonical scenarios pin ``grant_batch_ns=0`` (legacy per-packet
grants): the digest contract is defined against the seed code, and the
batched grant pacer intentionally changes grant timing.  The pacer's
own claim — fewer GRANT control packets at the default batch interval —
is measured by ``--grant-batching``, which runs the 144-host W4 @ 80%
scenario in both modes and records the reduction (grant counts are
deterministic, so one run per mode suffices) under the
``grant_batching`` key of ``BENCH_hotpaths.json``.

``--dispatch-micro`` measures the dispatch-layer primitives that the
array-core design rests on — storage-layout read costs (slot attribute
vs list index vs ``array('q')``), queue disciplines (C ``deque`` vs a
pure-Python ring buffer), event-heap push+pop at the canonical
scenario's working heap size, and the pooled alloc/free cycle vs plain
``Packet`` construction.  With ``--smoke`` it also gates CI: the pooled
control-packet cycle must be strictly cheaper than the keyword-argument
construction the grant path used before pooling, and the smoke
scenario's digests must equal the recorded seed digests.

Usage:
    PYTHONPATH=src python benchmarks/bench_perf_hotpaths.py
        [--smoke] [--repeats N] [--against-worktree PATH]
        [--grant-batching] [--dispatch-micro]

``--smoke`` runs a seconds-long 2-rack variant (no JSON overwrite, no
speedup claim) so CI catches harness bitrot.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_hotpaths.json"
SMOKE_RESULT_PATH = (Path(__file__).resolve().parent / "results"
                     / "BENCH_hotpaths_smoke.json")

#: the canonical scenario: full Figure 11 topology, heavy-tailed W4.
#: ``homa.grant_batch_ns=0`` pins legacy per-packet grants — the digest
#: contract is against the seed code (the batched pacer drifts by
#: design; ``--grant-batching`` measures that mode separately).
SCENARIO = dict(protocol="homa", workload="W4", load=0.8,
                racks=9, hosts_per_rack=16, aggrs=4,
                duration_ms=3.0, warmup_ms=0.5, drain_ms=10.0,
                seed=42, max_messages=1200,
                homa={"grant_batch_ns": 0})

SMOKE_SCENARIO = dict(protocol="homa", workload="W4", load=0.8,
                      racks=2, hosts_per_rack=4, aggrs=2,
                      duration_ms=2.0, warmup_ms=0.5, drain_ms=8.0,
                      seed=7, max_messages=150,
                      homa={"grant_batch_ns": 0})

#: seed-code slowdown digests for SMOKE_SCENARIO — the same scenario
#: (and bytes) tests/test_hotpath_regressions.py pins as GOLDEN_P50/P99.
#: ``--dispatch-micro --smoke`` asserts digest identity against these.
SMOKE_P50 = [
    "1.5009050975091716", "1.1670182719005746", "1.0279255319148937",
    "1.0441817406143346", "1.1406033720287452", "1.1435432982355214",
    "1.0559966867005701", "1.0824325191564734", "1.0700807123640126",
    "1.1932839408099105",
]
SMOKE_P99 = [
    "1.7767629172975146", "1.2863380476441835", "1.598025011635208",
    "1.806829926099352", "1.4417672882216506", "1.4726971202640802",
    "1.222181939521681", "1.0980201786448214", "2.0018056622704568",
    "1.9745655835647904",
]


def build_config(scenario: dict):
    """Scenario dict -> ExperimentConfig (expands the ``homa`` entry)."""
    from repro.experiments.runner import ExperimentConfig
    from repro.homa.config import HomaConfig
    data = dict(scenario)
    homa = data.pop("homa", None)
    if homa is not None:
        homa = HomaConfig(**homa)
    return ExperimentConfig(homa=homa, **data)

#: seed-commit reference (eb72f9c) for single-tree trajectory runs,
#: recorded from an interleaved best-of-5 session (see methodology).
SEED_BASELINE = {
    "commit": "eb72f9c",
    "wall_seconds": 11.1273,
    "events": 2735403,
    "events_per_sec": 245829,
    "walls_seconds": [12.089, 11.127, 11.375, 12.903, 13.543],
    "methodology": "best-of-5, interleaved with the refactored tree "
                   "on the same machine",
}

#: seed-code slowdown digests for SCENARIO (repr() of every percentile):
#: the refactor must reproduce these bytes exactly.
SEED_P50 = [
    "1.0521930256610235", "1.0825844486934353", "1.0378528481012659",
    "1.0276892825259134", "1.0564862891519016", "1.0421184042314313",
    "1.0966928276380024", "1.0666524831472126", "1.0514078119190127",
    "1.0826304750380495",
]
SEED_P99 = [
    "1.5369225366870063", "1.5122067931895813", "1.513742523324163",
    "1.614270697072381", "1.4093682606704407", "1.4908855324912582",
    "1.3398409970445109", "1.5552276061822574", "1.4166485326631628",
    "1.8938824628532993",
]

#: subprocess payload: run SCENARIO once in the tree given as argv[1].
#: The ``homa`` entry is filtered to the fields that tree's HomaConfig
#: knows, so the seed checkout (no ``grant_batch_ns``) accepts the
#: pinned legacy scenario — dropping ``grant_batch_ns=0`` there is a
#: no-op because 0 *is* the seed behavior.
_WORKER = """
import sys, json, dataclasses
sys.path.insert(0, sys.argv[1] + "/src")
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.homa.config import HomaConfig
spec = json.loads(sys.argv[2])
homa = spec.pop("homa", None)
if homa is not None:
    known = {f.name for f in dataclasses.fields(HomaConfig)}
    homa = HomaConfig(**{k: v for k, v in homa.items() if k in known})
cfg = ExperimentConfig(homa=homa, **spec)
r = run_experiment(cfg)
control = getattr(r, "control", None)
print(json.dumps({
    "wall": r.wall_seconds, "events": r.events,
    "completed": r.completed,
    "grants": getattr(control, "grants", 0),
    "p50": [repr(x) for x in r.slowdown_series(50)],
    "p99": [repr(x) for x in r.slowdown_series(99)],
}))
"""


def run_in_tree(tree: Path, scenario: dict) -> dict:
    if not (tree / "src" / "repro").is_dir():
        raise SystemExit(f"error: {tree} does not contain src/repro")
    # Strip PYTHONPATH so the tree argument is authoritative — an
    # inherited path would silently measure the wrong checkout.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "-c", _WORKER, str(tree), json.dumps(scenario)],
        capture_output=True, text=True, check=True, env=env)
    return json.loads(out.stdout.splitlines()[-1])


def run_scenario(scenario: dict, repeats: int):
    """Run in-process ``repeats`` times; returns (best_result, walls)."""
    from repro.experiments.runner import run_experiment
    best = None
    walls = []
    for _ in range(repeats):
        result = run_experiment(build_config(scenario))
        walls.append(result.wall_seconds)
        if best is None or result.wall_seconds < best.wall_seconds:
            best = result
    return best, walls


def _merge_into_results(key: str, value: dict) -> None:
    """Set one top-level key of BENCH_hotpaths.json, preserving the rest."""
    try:
        payload = json.loads(RESULT_PATH.read_text())
    except (OSError, ValueError):
        payload = {}
    payload[key] = value
    RESULT_PATH.write_text(json.dumps(payload, indent=1) + "\n")


def run_experiment_once(cfg):
    from repro.experiments.runner import run_experiment
    return run_experiment(cfg)


class _Ring:
    """Pure-Python power-of-two ring buffer — the ``array-backed port``
    candidate the tentpole named.  Measured here against ``deque`` so
    the choice in ``QueuedPort`` stays evidence-backed (the C deque
    wins on CPython; see docs/PERFORMANCE.md)."""

    __slots__ = ("buf", "mask", "head", "tail")

    def __init__(self, capacity: int = 256) -> None:
        self.buf = [None] * capacity
        self.mask = capacity - 1
        self.head = 0
        self.tail = 0

    def append(self, item) -> None:
        self.buf[self.tail & self.mask] = item
        self.tail += 1

    def popleft(self):
        head = self.head
        item = self.buf[head & self.mask]
        self.head = head + 1
        return item


def _best_ns_per_op(fn, iters: int, repeats: int = 5) -> float:
    """Minimum over ``repeats`` timed calls of ``fn(iters)``, per op."""
    import time
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        fn(iters)
        dt = time.perf_counter_ns() - t0
        if best is None or dt < best:
            best = dt
    return best / iters


def dispatch_micro(smoke: bool = False) -> dict:
    """Measure the dispatch-layer primitives underpinning the array
    core.  Reported numbers include the Python loop overhead (the
    ``loop_baseline`` row), which is identical across rows — the
    *ratios* between rows are the design evidence."""
    import gc
    from array import array
    from collections import deque
    from heapq import heappush, heappop

    from repro.core.packet import CTRL_PRIO, Packet, PacketType
    from repro.core.pool import PacketPool

    iters = 20_000 if smoke else 200_000
    pkt = Packet(1, 2, PacketType.DATA, payload=1460, rpc_id=7,
                 offset=11, total_length=99999)
    lst = list(range(32))
    arr = array("q", range(32))
    dq: deque = deque()
    ring = _Ring(256)
    pool = PacketPool(prealloc=64)
    heap: list = []
    # Canonical-scenario working heap size (measured median ~150); keys
    # from a fixed multiplicative hash so the sift depth is realistic
    # rather than sorted-input degenerate.
    for i in range(150):
        heappush(heap, [(i * 2654435761) % (1 << 32), i, None, None])

    def read_slot_attr(n):
        for _ in range(n):
            pkt.offset; pkt.offset; pkt.offset; pkt.offset  # noqa: B018

    def read_list_index(n):
        for _ in range(n):
            lst[7]; lst[7]; lst[7]; lst[7]  # noqa: B018

    def read_array_q(n):
        for _ in range(n):
            arr[7]; arr[7]; arr[7]; arr[7]  # noqa: B018

    def loop_baseline(n):
        for _ in range(n):
            pkt; pkt; pkt; pkt  # noqa: B018

    def deque_cycle(n):
        append, popleft = dq.append, dq.popleft
        for i in range(n):
            append(i)
            popleft()

    def ring_cycle(n):
        for i in range(n):
            ring.append(i)
            ring.popleft()

    def packet_ctor(n):
        for i in range(n):
            Packet(1, 2, PacketType.DATA, 3, 1460, i, True, 0, 99999,
                   True, False, False, None, 0, 12345)

    def pool_cycle(n):
        alloc, free = pool.alloc_data, pool.free
        for i in range(n):
            free(alloc(1, 2, 3, 1460, i, True, 0, 99999,
                       True, False, False, None, 0, 12345))

    def ctrl_ctor_kwargs(n):
        # Mirrors the pre-pool grant path's call style: keyword-argument
        # Packet construction for every control packet.
        for i in range(n):
            Packet(3, 7, PacketType.GRANT, prio=CTRL_PRIO,
                   rpc_id=i, is_request=True,
                   grant_offset=14600, grant_prio=2)

    def ctrl_pool_cycle(n):
        alloc, free = pool.alloc_ctrl, pool.free
        for i in range(n):
            free(alloc(PacketType.GRANT, 3, 7, i, True, 14600, 2))

    def heap_cycle(n):
        seq = 1 << 33
        for i in range(n):
            heappush(heap, [(i * 2654435761) % (1 << 32), seq + i,
                            None, None])
            heappop(heap)

    rows = {
        "loop_baseline": loop_baseline,
        "slot_attr_read": read_slot_attr,
        "list_index_read": read_list_index,
        "array_q_read": read_array_q,
        "deque_cycle": deque_cycle,
        "ring_cycle": ring_cycle,
        "packet_ctor": packet_ctor,
        "pool_cycle": pool_cycle,
        "ctrl_ctor_kwargs": ctrl_ctor_kwargs,
        "ctrl_pool_cycle": ctrl_pool_cycle,
        "heap_cycle_at_150": heap_cycle,
    }
    gc_was = gc.isenabled()
    gc.disable()
    try:
        ns = {name: round(_best_ns_per_op(fn, iters), 2)
              for name, fn in rows.items()}
    finally:
        if gc_was:
            gc.enable()
    # The 4x-unrolled read rows measure 4 reads per iteration.
    for name in ("loop_baseline", "slot_attr_read", "list_index_read",
                 "array_q_read"):
        ns[name] = round(ns[name] / 4, 2)

    result = run_experiment_once(build_config(SMOKE_SCENARIO))
    digest_ok = (
        [repr(x) for x in result.slowdown_series(50)] == SMOKE_P50
        and [repr(x) for x in result.slowdown_series(99)] == SMOKE_P99)
    return {
        "iters": iters,
        "ns_per_op": ns,
        "data_pool_vs_ctor_speedup":
            round(ns["packet_ctor"] / ns["pool_cycle"], 3),
        "ctrl_pool_vs_ctor_speedup":
            round(ns["ctrl_ctor_kwargs"] / ns["ctrl_pool_cycle"], 3),
        "deque_vs_ring_speedup": round(ns["ring_cycle"] / ns["deque_cycle"], 3),
        "digest_identical_to_seed": digest_ok,
        "notes": "ns/op includes Python loop overhead (loop_baseline row);"
                 " compare rows, not absolutes.  The data-packet pool cycle"
                 " is roughly cost-neutral vs positional construction (the"
                 " seed's data path was already positional); the win the CI"
                 " gate asserts is the control path, where pooling replaced"
                 " keyword-argument construction per grant.",
    }


def grant_batching_comparison() -> dict:
    """Run SCENARIO with legacy and batched grants; report the cut.

    Grant/event counts are deterministic for a seeded scenario, so one
    run per mode is exact; wall times are incidental here.
    """
    from repro.homa.config import HomaConfig

    legacy_scn = dict(SCENARIO, homa={"grant_batch_ns": 0})
    batch_ns = HomaConfig().grant_batch_ns
    batched_scn = dict(SCENARIO, homa={"grant_batch_ns": batch_ns})

    def measure(scenario):
        result, _ = run_scenario(scenario, 1)
        return result, {
            "grants": result.control.grants,
            "grant_ticks": result.control.grant_ticks,
            "ctrl_packets": result.control.total,
            "events": result.events,
            "completed": result.completed,
            "submitted": result.submitted,
            "wall_seconds": round(result.wall_seconds, 4),
            "p50": [repr(x) for x in result.slowdown_series(50)],
            "p99": [repr(x) for x in result.slowdown_series(99)],
        }

    legacy_result, legacy = measure(legacy_scn)
    batched_result, batched = measure(batched_scn)
    return {
        "scenario": SCENARIO,
        "grant_batch_ns": batch_ns,
        "legacy": legacy,
        "batched": batched,
        "grant_reduction": round(legacy["grants"] / batched["grants"], 3),
        "event_reduction": round(legacy["events"] / batched["events"], 3),
        "digest_identical_to_seed_at_batch_0":
            legacy["p50"] == SEED_P50 and legacy["p99"] == SEED_P99,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long CI variant (no JSON overwrite)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per measurement; best (min wall) wins")
    parser.add_argument("--against-worktree", metavar="PATH",
                        help="seed checkout to measure interleaved with "
                             "the current tree (rigorous mode)")
    parser.add_argument("--grant-batching", action="store_true",
                        help="measure the grant pacer: legacy vs batched "
                             "GRANT counts on the canonical scenario "
                             "(updates BENCH_hotpaths.json)")
    parser.add_argument("--dispatch-micro", action="store_true",
                        help="measure dispatch-layer primitives (storage "
                             "reads, queue disciplines, heap cycle, pool "
                             "vs ctor) plus a digest check; with --smoke "
                             "gates CI and writes nothing, otherwise "
                             "updates BENCH_hotpaths.json")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    if args.dispatch_micro:
        micro = dispatch_micro(smoke=args.smoke)
        print(json.dumps(micro, indent=1))
        print(f"ctrl pool cycle vs kwargs ctor: "
              f"{micro['ctrl_pool_vs_ctor_speedup']:.2f}x cheaper "
              f"(digest identical: {micro['digest_identical_to_seed']})")
        ok = (micro["digest_identical_to_seed"]
              and micro["ns_per_op"]["ctrl_pool_cycle"]
              < micro["ns_per_op"]["ctrl_ctor_kwargs"])
        if not ok:
            print("FAIL: pooled ctrl alloc+free must be strictly cheaper "
                  "than the kwargs Packet construction it replaced, with "
                  "seed-identical digests", file=sys.stderr)
            return 1
        if not args.smoke:
            _merge_into_results("dispatch_micro", micro)
        return 0

    if args.grant_batching:
        comparison = grant_batching_comparison()
        _merge_into_results("grant_batching", comparison)
        print(json.dumps(comparison, indent=1))
        reduction = comparison["grant_reduction"]
        print(f"grant packets: {comparison['legacy']['grants']} -> "
              f"{comparison['batched']['grants']} "
              f"({reduction:.2f}x cut at "
              f"grant_batch_ns={comparison['grant_batch_ns']})")
        ok = (reduction >= 1.8
              and comparison["digest_identical_to_seed_at_batch_0"])
        if not ok:
            print("FAIL: expected >= 1.8x grant reduction and a "
                  "seed-identical legacy digest", file=sys.stderr)
        return 0 if ok else 1

    if args.smoke:
        best, walls = run_scenario(SMOKE_SCENARIO, 1)
        payload = {
            "scenario": SMOKE_SCENARIO,
            "wall_seconds": round(best.wall_seconds, 4),
            "events": best.events,
            "messages_completed": best.completed,
            "grants_sent": best.control.grants,
        }
        SMOKE_RESULT_PATH.parent.mkdir(parents=True, exist_ok=True)
        SMOKE_RESULT_PATH.write_text(json.dumps(payload, indent=1) + "\n")
        print(json.dumps(payload, indent=1))
        print("smoke OK")
        return 0

    if args.against_worktree:
        seed_tree = Path(args.against_worktree)
        cur_tree = REPO_ROOT
        seed_runs, cur_runs = [], []
        for _ in range(args.repeats):
            seed_runs.append(run_in_tree(seed_tree, SCENARIO))
            cur_runs.append(run_in_tree(cur_tree, SCENARIO))
        seed_best = min(seed_runs, key=lambda r: r["wall"])
        cur_best = min(cur_runs, key=lambda r: r["wall"])
        digest_ok = (cur_best["p50"] == seed_best["p50"]
                     and cur_best["p99"] == seed_best["p99"])
        # Headline speedup: the median of the adjacent-pair ratios.
        # Each pair shares one time window, so common-mode machine
        # drift cancels inside the ratio; best-vs-best instead compares
        # minima from different windows of a drifting machine.
        pairwise = sorted(s["wall"] / c["wall"]
                          for s, c in zip(seed_runs, cur_runs))
        mid = len(pairwise) // 2
        if len(pairwise) % 2:
            speedup = pairwise[mid]
        else:
            speedup = (pairwise[mid - 1] + pairwise[mid]) / 2
        payload = {
            "scenario": SCENARIO,
            "methodology": f"interleaved best-of-{args.repeats}, "
                           "one subprocess per run",
            "seed": {
                "commit": SEED_BASELINE["commit"],
                "walls_seconds": [round(r["wall"], 4) for r in seed_runs],
                "wall_seconds": round(seed_best["wall"], 4),
                "events": seed_best["events"],
                "events_per_sec": int(seed_best["events"]
                                      / seed_best["wall"]),
            },
            "current": {
                "walls_seconds": [round(r["wall"], 4) for r in cur_runs],
                "wall_seconds": round(cur_best["wall"], 4),
                "events": cur_best["events"],
                "events_per_sec": int(cur_best["events"]
                                      / cur_best["wall"]),
                "effective_events_per_sec": int(seed_best["events"]
                                                / cur_best["wall"]),
            },
            "speedup_wall": round(speedup, 3),
            "speedup_best_of": round(seed_best["wall"] / cur_best["wall"], 3),
            "speedup_pairwise": [round(x, 3) for x in pairwise],
            "digest_identical": digest_ok,
            "p50": cur_best["p50"],
            "p99": cur_best["p99"],
        }
        # Carry over every section other tooling owns (trajectory
        # notes, the grant-batching comparison, future side keys):
        # anything this mode does not itself write survives the rewrite.
        try:
            previous = json.loads(RESULT_PATH.read_text())
        except (OSError, ValueError):
            previous = {}
        for key, value in previous.items():
            payload.setdefault(key, value)
        RESULT_PATH.write_text(json.dumps(payload, indent=1) + "\n")
        print(json.dumps(payload, indent=1))
        print(f"speedup vs seed (interleaved): {speedup:.2f}x "
              f"(digest identical: {digest_ok})")
        return 0 if digest_ok else 1

    best, walls = run_scenario(SCENARIO, args.repeats)
    p50 = [repr(x) for x in best.slowdown_series(50)]
    p99 = [repr(x) for x in best.slowdown_series(99)]
    digest_ok = p50 == SEED_P50 and p99 == SEED_P99
    speedup = SEED_BASELINE["wall_seconds"] / best.wall_seconds
    payload = {
        "scenario": SCENARIO,
        "methodology": "current tree only vs recorded seed baseline "
                       "(approximate across sessions)",
        "walls_seconds": [round(w, 4) for w in walls],
        "wall_seconds": round(best.wall_seconds, 4),
        "events": best.events,
        "events_per_sec": int(best.events / best.wall_seconds),
        "effective_events_per_sec": int(SEED_BASELINE["events"]
                                        / best.wall_seconds),
        "seed_baseline": SEED_BASELINE,
        "speedup_wall": round(speedup, 3),
        "digest_identical_to_seed": digest_ok,
    }
    print(json.dumps(payload, indent=1))
    print(f"speedup vs recorded seed baseline: {speedup:.2f}x "
          f"(digest identical: {digest_ok})")
    if not digest_ok:
        print("FAIL: slowdown digests diverged from the seed", file=sys.stderr)
        return 1
    return 0


def test_perf_hotpaths_smoke():
    """Tier-1 guard: the bench harness runs and stays deterministic."""
    best, _ = run_scenario(SMOKE_SCENARIO, 1)
    assert best.completed == best.submitted > 0


if __name__ == "__main__":
    raise SystemExit(main())
