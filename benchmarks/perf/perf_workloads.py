"""The three simulation workloads: their configs and their measurement.

Sizes are fixed here (never read from ``REPRO_BENCH_SCALE``).  A
workload is a list of named cells, each one ``ExperimentConfig``; a
repetition runs every cell once.
"""

from __future__ import annotations

import gc
from statistics import median

from repro.core.faults import FaultEvent, LossRates
from repro.core.topology import TopologySpec
from repro.experiments.paper_data import FIG12_SHORT_MSG_P99_80
from repro.experiments.runner import ExperimentConfig
from repro.homa.config import HomaConfig
from repro.transport.registry import PROTOCOLS
from repro.workloads.catalog import get_workload

import perf_harness as harness

#: the paper's Figure 11 shape, and the shape --smoke swaps in
FULL_SHAPE = dict(racks=9, hosts_per_rack=16, aggrs=4)
SMOKE_SHAPE = dict(racks=2, hosts_per_rack=4, aggrs=2)

#: bench_fabric_stress's 3-level rate.  At 1% per tier ~3% of Homa's
#: messages wait out a RESEND timeout, so p99 sits on the plateau of that
#: population; at 0.5% the hit share is ~1.5% and p99 falls on the cliff
#: between "untouched" (~2) and "timed out" (~400), swinging 20% by seed.
LOSS = LossRates(tor=0.01, aggr=0.01, core=0.01)


def _fault_schedule(window_ms: float) -> tuple:
    """bench_fabric_stress's schedule, re-declared so this directory
    stands alone: down a ToR uplink and a core mid-generation, restore
    the link (the core stays dead, so reroutes persist into the drain)."""
    return (
        FaultEvent(0.35 * window_ms, "link", "down", "tor0:aggr0.1"),
        FaultEvent(0.55 * window_ms, "switch", "down", "core0"),
        FaultEvent(0.80 * window_ms, "link", "up", "tor0:aggr0.1"),
    )


def homa_w4_clean(seed: int, smoke: bool) -> list[tuple[str, ExperimentConfig]]:
    # drain_ms is long enough for the largest W4 message to finish behind
    # everything SRPT ranks above it, so no seed leaves one undelivered;
    # the idle tail of the drain costs no events.
    size = (dict(duration_ms=1.0, warmup_ms=0.2, max_messages=80, **SMOKE_SHAPE)
            if smoke else
            dict(duration_ms=3.0, warmup_ms=0.5, max_messages=1440,
                 **FULL_SHAPE))
    return [("homa", ExperimentConfig(
        protocol="homa", workload="W4", load=0.8, drain_ms=100.0, seed=seed,
        homa=HomaConfig(grant_batch_ns=0), **size))]


def homa_w1_small(seed: int, smoke: bool) -> list[tuple[str, ExperimentConfig]]:
    size = (dict(duration_ms=0.1, warmup_ms=0.02, **SMOKE_SHAPE) if smoke
            else dict(duration_ms=0.2, warmup_ms=0.05, **FULL_SHAPE))
    return [("homa", ExperimentConfig(
        protocol="homa", workload="W1", load=0.8, drain_ms=5.0, seed=seed,
        **size))]


def protocols_w3_lossy3(seed: int,
                        smoke: bool) -> list[tuple[str, ExperimentConfig]]:
    if smoke:
        shape = dict(pods=2, racks=1, hosts_per_rack=4, aggrs=2, cores=4)
        warmup_ms, duration_ms = 0.04, 0.06
    else:
        shape = dict(pods=2, racks=2, hosts_per_rack=8, aggrs=2, cores=4)
        warmup_ms, duration_ms = 0.1, 0.3
    fabric = TopologySpec(
        levels=3, host_gbps=10, aggr_gbps=25, core_gbps=100, loss=LOSS,
        faults=_fault_schedule(warmup_ms + duration_ms), **shape)
    return [(proto, ExperimentConfig(
        protocol=proto, workload="W3", load=0.5, duration_ms=duration_ms,
        warmup_ms=warmup_ms, drain_ms=20.0, seed=seed * 100 + index,
        fabric=fabric)) for index, proto in enumerate(PROTOCOLS)]


SIM_WORKLOADS = {
    "homa_w4_clean": homa_w4_clean,
    "homa_w1_small": homa_w1_small,
    "protocols_w3_lossy3": protocols_w3_lossy3,
}

#: paper shape target printed beside homa.short_p99_slowdown (stated, not
#: gated: the error against the paper is reported for the reader)
PAPER_REF = {"homa_w1_small": FIG12_SHORT_MSG_P99_80["W1"]["homa"]}


def run_rep(cells, spans: harness.Spans, parent: str) -> dict:
    """One repetition, ``{cell label: RunSample}``.  The previous
    repetition's garbage is collected first, so peak RSS does not depend
    on how many repetitions fit in the run."""
    gc.collect()
    return {label: harness.measure_run(cfg, spans, f"{parent}/{label}")
            for label, cfg in cells}


def account(reps, golden: dict | None) -> dict:
    """Failure accounting, one repetition at a time (satellite 1).

    Attempted = messages submitted.  Failed = messages undelivered at the
    end of the drain, on the lossy fabric too, plus duplicate deliveries,
    plus every message of a cell that breaks a check.  Repetitions are
    identical, so the result carries one repetition's counts — the worst
    one's — and does not scale with how many fitted in the run.
    """
    problems: list[str] = []   # broken checks: the run is not correct
    per_rep = []
    for index, rep in enumerate(reps):
        attempted = failed = 0
        notes = []             # counted failures of single messages
        for label, sample in rep.items():
            attempted += sample.submitted
            broken = list(sample.violations)
            if sample.digest != reps[0][label].digest:
                broken.append("slowdown digest differs from repetition 0")
            if golden is not None and sample.digest != golden.get(label):
                broken.append("slowdown digest differs from golden.json")
            if broken:
                failed += sample.submitted
                problems += [f"rep{index}/{label}: {text}" for text in broken]
                continue
            failed += sample.undelivered + sample.duplicates
            if sample.undelivered:
                notes.append(f"rep{index}/{label}: {sample.undelivered} of "
                             f"{sample.submitted} messages undelivered")
            if sample.duplicates:
                notes.append(f"rep{index}/{label}: {sample.duplicates} "
                             f"duplicate deliveries")
        per_rep.append({"attempted": attempted, "failed": failed,
                        "notes": notes})
    worst = max(per_rep, key=lambda rep: rep["failed"])
    return {**worst, "problems": problems,
            "failed_per_rep": [rep["failed"] for rep in per_rep]}


def aggregate(name: str, cells, reps) -> tuple[dict, dict, dict]:
    """(end-to-end values, per-layer values from spans and counts, raw
    per-repetition timings)."""
    labels = [label for label, _ in cells]
    primary = reps[0][labels[0]]   # the homa cell; counts repeat exactly

    def rep_sum(attr):
        return [sum(getattr(rep[label], attr) for label in labels)
                for rep in reps]

    def span_sum(span):
        return [sum(rep[label].spans[span] for label in labels)
                for rep in reps]

    # Per-cell medians summed: a noise spike that hits one cell in one
    # repetition does not move the total.
    cell_wall = {label: median([rep[label].wall_s for rep in reps])
                 for label in labels}
    size_factor = 1.0
    if name == "homa_w4_clean":
        # Host time here follows the payload bytes (~90 packets a message),
        # and the bytes 1400 draws from W4's heavy tail add up to differ by
        # +-12% between seeds: raw wall spread 23.6% over seeds 1-10 against
        # the 25% a bound may be.  So wall_s is stated at the workload's
        # mean input size; for one seed the factor is a constant.  Scaling
        # the other workloads by bytes doubles their spread (their host
        # time follows the message count), so they report wall as measured.
        stated_bytes = get_workload("W4").cdf.mean() * primary.submitted
        size_factor = stated_bytes / primary.submitted_bytes
    end_to_end = {
        "setup_rep_s": median(rep_sum("setup_s")),
        "wall_s": sum(cell_wall.values()) * size_factor,
        "sim_p50_slowdown": primary.p50,
        "sim_p99_slowdown": primary.p99,
    }

    events = sum(reps[0][label].events for label in labels)
    run_s = median(span_sum("engine.run_s"))
    layer = {span: median(span_sum(span))
             for span in harness.SPAN_NAMES}
    layer.update({
        "runner.cpu_s": median(rep_sum("cpu_s")),
        "runner.wall_spread_frac": harness.spread_frac(rep_sum("wall_s")),
        "engine.events": events,
        "engine.events_per_s": events / run_s,
        "engine.us_per_event": run_s / events * 1e6,
        "apps.msgs_submitted": sum(reps[0][label].submitted
                                   for label in labels),
        "metrics.samples": sum(reps[0][label].samples for label in labels),
        "homa.short_p99_slowdown": primary.short_p99,
    })
    for key in ("grants", "resends", "busys", "grant_ticks", "rtx_data",
                "rtx_recovered", "give_ups"):
        layer[f"homa.{key}"] = primary.control[key]
    fabric = [reps[0][label].fabric for label in labels]
    layer["fabric.drops"] = sum(
        f["drops_tor"] + f["drops_aggr"] + f["drops_core"] for f in fabric)
    for key in ("fault_drops", "black_holes", "reroutes"):
        layer[f"fabric.{key}"] = sum(f[key] for f in fabric)
    if name == "protocols_w3_lossy3":
        for label in labels:
            sample = reps[0][label]
            layer.update({
                f"proto.{label}.wall_s": cell_wall[label],
                f"proto.{label}.events": sample.events,
                f"proto.{label}.rtx_data": sample.control["rtx_data"],
                f"proto.{label}.give_ups": (
                    sample.control["give_ups"]
                    + sample.control["outbound_give_ups"]),
                f"proto.{label}.failed": (sample.undelivered
                                          + sample.duplicates),
                f"proto.{label}.sim_p99_slowdown": sample.p99,
            })

    raw = {
        "reps": len(reps),
        "samples": primary.samples,
        "setup_s": harness.summary(rep_sum("setup_s")),
        "wall_s": harness.summary(rep_sum("wall_s")),   # as measured
        "wall_size_factor": size_factor,
        "cpu_s": harness.summary(rep_sum("cpu_s")),
        "cells": {label: {
            "config_hash": harness.config_hash(cfg),
            "wall_s": harness.summary([rep[label].wall_s for rep in reps]),
            "samples": reps[0][label].samples,
            "submitted": reps[0][label].submitted,
            "completed": reps[0][label].completed,
            "submitted_bytes": reps[0][label].submitted_bytes,
            "digest": reps[0][label].digest,
        } for label, cfg in cells},
    }
    return end_to_end, layer, raw
