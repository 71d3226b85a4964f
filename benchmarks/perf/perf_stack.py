"""``campaign_stack``: the campaign/cache/wire/farm stack with the
simulator idle.

Four real ``experiment_task`` payloads are simulated during set-up;
the 96 cells of the timed campaign only *replay* them, so the serial,
cache-hit and farmed runs measure per-cell stack overhead undiluted.
The farm runs on loopback with exactly one in-process worker thread
(two cores cannot time a process pool honestly; that is
``measure_jobs_scaling.py``'s job).
"""

from __future__ import annotations

import gc
import json
import shutil
import socket
import tempfile
import threading
import time
from pathlib import Path
from statistics import median

import numpy as np

from repro.experiments import campaign, farm, wire
from repro.experiments.runner import ExperimentConfig, run_experiment

import perf_harness as harness

HERE = Path(__file__).resolve().parent
#: scratch space inside the checkout (git-ignored, removed after each run)
WORK_DIR = HERE / ".work"

REPLAY_TASK = "perf_stack:replay_task"
CELLS = 96
SMOKE_CELLS = 8

#: payloads the running campaign replays, keyed by the name a cell's spec
#: carries.  A cell task is resolved by import path inside the worker, so
#: the hand-off has to be module state; set-up fills it, nothing else
#: writes it.
_PAYLOADS: dict[str, dict] = {}


def replay_task(spec: dict) -> dict:
    """The cell task: hand back a payload simulated during set-up."""
    return _PAYLOADS[spec["payload"]]


def payload_configs(seed: int, smoke: bool) -> dict[str, ExperimentConfig]:
    """Four clean-fabric cells whose payloads (~200-400 KB of JSON each)
    the campaign replays."""
    if smoke:
        shape = dict(racks=2, hosts_per_rack=4, aggrs=2)
        w1 = dict(duration_ms=0.02, warmup_ms=0.005)
        w2 = dict(duration_ms=0.04, warmup_ms=0.01)
    else:
        shape = dict(racks=3, hosts_per_rack=8, aggrs=2)
        w1 = dict(duration_ms=0.1, warmup_ms=0.02)
        w2 = dict(duration_ms=0.25, warmup_ms=0.05)
    base = dict(load=0.8, drain_ms=5.0, **shape)
    return {
        "homa-W1": ExperimentConfig(protocol="homa", workload="W1",
                                    seed=seed, **w1, **base),
        "pfabric-W1": ExperimentConfig(protocol="pfabric", workload="W1",
                                       seed=seed + 1, **w1, **base),
        "homa-W2": ExperimentConfig(protocol="homa", workload="W2",
                                    seed=seed + 2, **w2, **base),
        "pfabric-W2": ExperimentConfig(protocol="pfabric", workload="W2",
                                       seed=seed + 3, **w2, **base),
    }


def replay_spec(names: list[str], n_cells: int) -> campaign.CampaignSpec:
    """``n_cells`` cells cycling over the payload names."""
    return campaign.CampaignSpec(name="perf-replay", cells=tuple(
        campaign.Cell(key=index,
                      spec={"payload": names[index % len(names)],
                            "cell": index},
                      task=REPLAY_TASK, decode=campaign.EXPERIMENT_DECODE)
        for index in range(n_cells)))


def _farmed(spec, work: Path):
    """``run_farm`` on loopback with one ``worker_loop`` thread."""
    workers: list[threading.Thread] = []

    def on_listening(port: int) -> None:
        thread = threading.Thread(
            target=farm.worker_loop, args=("127.0.0.1", port),
            kwargs={"name": "perf-worker"}, name="perf-farm-worker")
        thread.start()
        workers.append(thread)

    try:
        return farm.run_farm(
            [spec], jobs=1, fresh=True, cache_dir=work / "farm-cache",
            journal_dir=work / "journal", on_listening=on_listening,
            quiet=True)[spec.name]
    finally:
        for thread in workers:
            thread.join(timeout=60)
            if thread.is_alive():
                raise RuntimeError("farm worker thread did not stop")


def _pooled(results) -> tuple[np.ndarray, np.ndarray]:
    sizes = np.concatenate([np.asarray(r.tracker.sizes)
                            for r in results.values()])
    slowdowns = np.concatenate([np.asarray(r.tracker.slowdowns)
                                for r in results.values()])
    return sizes, slowdowns


def run_rep(seed: int, smoke: bool, spans: harness.Spans, index: int,
            body=None) -> dict:
    """One repetition: set-up (simulate payloads, expand the spec, fresh
    directories), then the timed body (serial fresh, serial cached,
    farmed fresh).  ``body`` lets the traced run wrap the timed part."""
    since = spans.begin(f"rep{index}/campaign")
    setup_began = time.perf_counter()
    configs = payload_configs(seed, smoke)
    live = {name: run_experiment(cfg) for name, cfg in configs.items()}
    _PAYLOADS.clear()
    _PAYLOADS.update({name: result.to_payload()
                      for name, result in live.items()})
    spec = replay_spec(list(configs), SMOKE_CELLS if smoke else CELLS)
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="rep-", dir=WORK_DIR))
    setup_spans = spans.totals(since)
    setup_s = time.perf_counter() - setup_began

    call = body or (lambda fn: fn())
    n = len(spec.cells)
    phases: dict[str, float] = {}
    cpu: list[float] = []
    digests: dict[str, str] = {}
    violations: list[str] = []

    def phase(label: str, fn, expect: str):
        """Time one phase, then check and digest its results outside the
        timing; only one decoded grid is alive at a time."""
        began, cpu_began = time.perf_counter(), time.process_time()
        results = call(fn)
        phases[label] = time.perf_counter() - began
        cpu.append(time.process_time() - cpu_began)
        digests[label] = campaign.slowdown_digest(results)
        if getattr(results, expect) != n:
            violations.append(f"{label}: {getattr(results, expect)} cells "
                              f"{expect}, expected {n}")
        wrong = sum(
            1 for key, result in results.items()
            if result.tracker.slowdowns
            != live[spec.cells[key].spec["payload"]].tracker.slowdowns)
        if wrong:
            violations.append(f"{label}: {wrong} decoded cells differ from "
                              f"the simulated result they replay")
        return results

    gc.collect()   # the set-up's garbage, before the body is timed
    body_since = spans.begin(f"rep{index}/campaign")
    try:
        phase("fresh", lambda: campaign.run(
            spec, jobs=1, fresh=True, cache_dir=work / "cache", quiet=True),
            "computed")
        phase("cached", lambda: campaign.run(
            spec, jobs=1, cache_dir=work / "cache", quiet=True), "cached")
        farmed = phase("farm", lambda: _farmed(spec, work), "computed")
        body_spans = spans.totals(body_since)
        if len(set(digests.values())) != 1:
            violations.append(f"digests differ across phases: {digests}")
        if farmed.farm_workers != 1 or farmed.farm_fallback:
            violations.append(
                f"farm ran with {farmed.farm_workers} workers, "
                f"fallback={farmed.farm_fallback}")
        sizes, slowdowns = _pooled(farmed)
        if slowdowns.min() < 1.0:
            violations.append("slowdown below the idle-network oracle")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    return {
        "setup_s": setup_s,
        "setup_spans": setup_spans,
        "body_spans": body_spans,
        "wall_s": sum(phases.values()),
        "cpu_s": sum(cpu),
        "phases": phases,
        "cells": n,
        "digest": digests["farm"],
        "violations": violations,
        "requeues": farmed.farm_requeues,
        "p50": float(np.percentile(slowdowns, 50)),
        "p99": float(np.percentile(slowdowns, 99)),
        "short_p99": harness.short_p99(sizes, slowdowns),
        "samples": int(slowdowns.size),
        "payload_kb": float(np.mean(
            [len(json.dumps(p, separators=(",", ":")))
             for p in _PAYLOADS.values()])) / 1024,
        "sim_events": sum(r.events for r in live.values()),
        "sim_submitted": sum(r.submitted for r in live.values()),
        "config_hash": {name: harness.config_hash(cfg)
                        for name, cfg in configs.items()},
    }


def cleanup() -> None:
    shutil.rmtree(WORK_DIR, ignore_errors=True)


def account(reps) -> dict:
    """Attempted = the cells of one repetition; a repetition that breaks
    a check fails all of its cells."""
    problems = []
    failed_per_rep = []
    for index, rep in enumerate(reps):
        broken = list(rep["violations"])
        if rep["digest"] != reps[0]["digest"]:
            broken.append("slowdown digest differs from repetition 0")
        failed_per_rep.append(rep["cells"] if broken else 0)
        problems += [f"rep{index}: {text}" for text in broken]
    return {"attempted": reps[0]["cells"], "failed": max(failed_per_rep),
            "problems": problems, "notes": [],
            "failed_per_rep": failed_per_rep}


def aggregate(reps) -> tuple[dict, dict, dict]:
    first = reps[0]
    n = first["cells"]

    def med(key):
        return median([rep[key] for rep in reps])

    def phase(key):
        return median([rep["phases"][key] for rep in reps])

    end_to_end = {
        "setup_rep_s": med("setup_s"),
        "wall_s": med("wall_s"),
        "sim_p50_slowdown": first["p50"],
        "sim_p99_slowdown": first["p99"],
    }
    fresh_ms, cached_ms, farm_ms = (phase(k) / n * 1e3
                                    for k in ("fresh", "cached", "farm"))
    layer = {span: median([rep["setup_spans"][span] for rep in reps])
             for span in harness.SPAN_NAMES}
    # Simulator time inside the *timed body*: the acceptance check that
    # this workload keeps the simulator idle.
    layer["engine.run_s"] = median(
        [rep["body_spans"]["engine.run_s"] for rep in reps])
    layer.update({
        "runner.cpu_s": med("cpu_s"),
        "runner.wall_spread_frac": harness.spread_frac(
            [rep["wall_s"] for rep in reps]),
        "apps.msgs_submitted": first["sim_submitted"],
        "metrics.samples": first["samples"],
        "homa.short_p99_slowdown": first["short_p99"],
        "campaign.fresh_cell_ms": fresh_ms,
        "campaign.cached_cell_ms": cached_ms,
        "campaign.payload_kb": first["payload_kb"],
        "farm.cell_ms": farm_ms,
        "farm.overhead_ms_per_cell": farm_ms - fresh_ms,
        "farm.requeues": first["requeues"],
    })
    raw = {
        "reps": len(reps),
        "setup_s": harness.summary(rep["setup_s"] for rep in reps),
        "wall_s": harness.summary(rep["wall_s"] for rep in reps),
        "cpu_s": harness.summary(rep["cpu_s"] for rep in reps),
        "phases": {key: harness.summary(rep["phases"][key] for rep in reps)
                   for key in ("fresh", "cached", "farm")},
        "cells": n,
        "samples": first["samples"],
        "digest": first["digest"],
        "config_hash": first["config_hash"],
        "setup_sim_events": first["sim_events"],
    }
    return end_to_end, layer, raw


# -- isolated stack calls (the traced run) -------------------------------

def _best_ms(fn) -> float:
    return harness.best_of(fn) * 1e3


def stack_calls(seed: int, smoke: bool) -> dict:
    """Best-of-5 timings of the stack's public calls on real payloads
    (the ones the last repetition left in ``_PAYLOADS``)."""
    configs = payload_configs(seed, smoke)
    names = list(configs)
    payloads = [_PAYLOADS[name] for name in names]
    live = run_experiment(configs[names[0]])
    spec = replay_spec(names, len(names))
    cells = spec.cells
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="calls-", dir=WORK_DIR))
    try:
        cache = campaign.ResultCache(work / "cache")
        paths = [cache.path_for(spec.name, cell) for cell in cells]

        def fingerprint():
            # Drop the memo so the call re-reads the package, which is
            # what the first cell of every process pays.
            campaign._fingerprints.clear()
            campaign.code_fingerprint()

        def store():
            for path, cell, payload in zip(paths, cells, payloads):
                cache.store(path, spec.name, cell, payload)

        def load():
            for path in paths:
                if cache.load(path) is None:
                    raise RuntimeError(f"cache entry {path} did not load")

        journal = farm.Journal("perfsweep", [spec.name], work / "journal")
        records = 20

        def journal_record():
            for index in range(records):
                journal.record(spec.name, f"cell{index}", cells[0])

        frames = [{"type": "result", "id": f"{spec.name}/{i}",
                   "payload": payload} for i, payload in enumerate(payloads)]
        encoded = [wire.encode_frame(frame) for frame in frames]
        cell_frames = [wire.encode_frame(
            {"type": "cell", "id": f"{spec.name}/{i}", "campaign": spec.name,
             "task": cell.task, "spec": farm.encode_spec(cell.spec)})
            for i, cell in enumerate(cells)]

        def wire_decode():
            left, right = socket.socketpair()
            try:
                feeder = threading.Thread(
                    target=lambda: [left.sendall(data) for data in encoded])
                feeder.start()
                reader = wire.FrameReader(right)
                for _ in encoded:
                    if reader.read_frame() is None:
                        raise RuntimeError("socketpair closed early")
                feeder.join()
            finally:
                left.close()
                right.close()

        hashes = 200
        k = len(payloads)
        out = {
            "campaign.code_fingerprint_ms": _best_ms(fingerprint),
            "campaign.cell_hash_us": _best_ms(
                lambda: [campaign.cell_hash(cells[0])
                         for _ in range(hashes)]) / hashes * 1e3,
            "campaign.cache_store_ms": _best_ms(store) / k,
            "campaign.cache_load_ms": _best_ms(load) / k,
            "campaign.payload_encode_ms": _best_ms(live.to_payload),
            "campaign.payload_decode_ms": _best_ms(
                lambda: [campaign.experiment_decode(p)
                         for p in payloads]) / k,
            "farm.journal_record_ms": _best_ms(journal_record) / records,
            "wire.encode_us": _best_ms(
                lambda: [wire.encode_frame(f) for f in frames]) / k * 1e3,
            "wire.decode_us": _best_ms(wire_decode) / k * 1e3,
            "wire.bytes_per_cell": (sum(map(len, encoded))
                                    + sum(map(len, cell_frames))) / k,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        cleanup()
    return out
