"""The benchmark's vocabulary: workloads, metric names, units, bounds.

This table is the single source of ``BENCHMARK.json``
(``run.py --write-manifest`` regenerates it; the smoke test asserts the
file on disk still matches) and of the units and bounds ``run.py``
prints and ``--selfcheck`` gates on.  ``sim_*`` names are simulated
quantities; every other time is host time.
"""

from __future__ import annotations

from repro.transport.registry import PROTOCOLS

#: (name, why) — the reason each workload exists, one line each
WORKLOADS = (
    ("homa_w4_clean",
     "Homa W4@80% on the clean 144-host fabric, one GRANT per data packet: "
     "engine/port/fused-ingress/pool work shows here (BENCH_hotpaths "
     "continuity)"),
    ("homa_w1_small",
     "Homa W1@80%, ~135k tiny messages: per-message work (apps, workload "
     "draws, message set-up, sample storage) shows here and grants are ~0"),
    ("protocols_w3_lossy3",
     "all eight transports on a lossy, faulted 3-level fabric: the general "
     "per-hop ingress, port modes, baselines and armed recovery run here "
     "and nowhere else"),
    ("campaign_stack",
     "96 replayed cells through campaign serial, cache-hit and farmed runs: "
     "cache/wire/journal overhead with the simulator idle; simulator-only "
     "changes must not move it"),
)

#: layers the traced run buckets cProfile self time and calls into
LAYERS = ("engine", "port", "fabric", "pool", "homa", "baselines",
          "transport", "apps", "metrics", "runner", "campaign", "wire",
          "farm", "other")

#: seconds one driver run measures, and the repetition floor within it
RUN_SECONDS = 30
MIN_REPS = 3

#: (name, unit, better, bound).  The bound is the share of the parent's
#: median by which the metric may worsen; it must cover the spread across
#: *seeds* (different traffic), which for the simulated tail on the lossy
#: fabric is far wider than the host-time noise.  For one seed the sim_*
#: values are exact, and --selfcheck demands they agree to the last digit.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("sim_p50_slowdown", "ratio", "lower", 0.15),
    ("sim_p99_slowdown", "ratio", "lower", 0.25),
)

#: ISSUE 11's bounds, which --selfcheck gates on: two sets of the *same*
#: seed differ by host-time noise only (sim_* must agree exactly)
SAME_SEED_BOUNDS = {"setup_s": 0.15, "wall_s": 0.10, "peak_rss_mb": 0.05}


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    rows = [
        # spans recorded by the benchmark around once-per-run calls
        ("fabric.build_s", "s", "lower"),
        ("transport.attach_s", "s", "lower"),
        ("apps.attach_s", "s", "lower"),
        ("engine.run_s", "s", "lower"),
        ("metrics.report_s", "s", "lower"),
        ("runner.import_s", "s", "lower"),
        ("runner.cpu_s", "s", "lower"),
        ("runner.wall_spread_frac", "fraction", "lower"),
        # counts the program exports, exact for a fixed seed
        ("engine.events", "count", "lower"),
        ("engine.events_per_s", "1/s", "higher"),
        ("engine.us_per_event", "us", "lower"),
        ("apps.msgs_submitted", "count", "higher"),
        ("metrics.samples", "count", "higher"),
        ("homa.grants", "count", "lower"),
        ("homa.resends", "count", "lower"),
        ("homa.busys", "count", "lower"),
        ("homa.grant_ticks", "count", "lower"),
        ("homa.rtx_data", "count", "lower"),
        ("homa.rtx_recovered", "count", "higher"),
        ("homa.give_ups", "count", "lower"),
        ("homa.short_p99_slowdown", "ratio", "lower"),
        ("fabric.drops", "count", "lower"),
        ("fabric.fault_drops", "count", "lower"),
        ("fabric.black_holes", "count", "lower"),
        ("fabric.reroutes", "count", "lower"),
    ]
    for proto in PROTOCOLS:
        rows += [
            (f"proto.{proto}.wall_s", "s", "lower"),
            (f"proto.{proto}.events", "count", "lower"),
            (f"proto.{proto}.rtx_data", "count", "lower"),
            (f"proto.{proto}.give_ups", "count", "lower"),
            (f"proto.{proto}.failed", "count", "lower"),
            (f"proto.{proto}.sim_p99_slowdown", "ratio", "lower"),
        ]
    # the traced run
    for layer in LAYERS:
        rows += [(f"{layer}.self_frac", "fraction", "lower"),
                 (f"{layer}.calls", "count", "lower")]
    rows += [
        ("runner.trace_overhead_x", "ratio", "lower"),
        ("metrics.probe_overhead_frac", "fraction", "lower"),
        ("engine.dispatch_ns", "ns", "lower"),
        ("port.enqueue_tx_ns", "ns", "lower"),
        ("pool.alloc_free_ns", "ns", "lower"),
        ("transport.intervals_add_ns", "ns", "lower"),
        ("apps.sample_ns", "ns", "lower"),
        ("metrics.record_ns", "ns", "lower"),
        # campaign_stack phases and stack calls
        ("campaign.fresh_cell_ms", "ms", "lower"),
        ("campaign.cached_cell_ms", "ms", "lower"),
        ("campaign.cell_hash_us", "us", "lower"),
        ("campaign.code_fingerprint_ms", "ms", "lower"),
        ("campaign.cache_store_ms", "ms", "lower"),
        ("campaign.cache_load_ms", "ms", "lower"),
        ("campaign.payload_encode_ms", "ms", "lower"),
        ("campaign.payload_decode_ms", "ms", "lower"),
        ("campaign.payload_kb", "KB", "lower"),
        ("farm.cell_ms", "ms", "lower"),
        ("farm.overhead_ms_per_cell", "ms", "lower"),
        ("farm.journal_record_ms", "ms", "lower"),
        ("farm.requeues", "count", "lower"),
        ("wire.encode_us", "us", "lower"),
        ("wire.decode_us", "us", "lower"),
        ("wire.bytes_per_cell", "B", "lower"),
    ]
    return tuple(rows)


PER_LAYER = _per_layer()

E2E_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def manifest() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER],
    }
