"""Tests for the campaign subsystem: payload round-trips, the shard
scheduler's determinism, the on-disk cache, max-load collation, and
the registration of every bench module as a campaign."""

import dataclasses
import importlib
import json
import os
import shutil
import time
from array import array
from pathlib import Path

import pytest

from repro.core.faults import FaultEvent, LossRates
from repro.core.topology import TopologySpec
from repro.experiments import campaign, farm
from repro.experiments.maxload import collate_max_load, probe_config
from repro.experiments.paper_data import CAMPAIGNS
from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)
from repro.homa.config import HomaConfig
from repro.metrics.control import ControlTraffic, FabricHealth
from repro.metrics.queues import QueueLevelStats
from repro.metrics.slowdown import SlowdownTracker


def small_cfg(**kw):
    """A sub-second single-rack run."""
    base = dict(protocol="homa", workload="W1", load=0.5,
                racks=1, hosts_per_rack=4, aggrs=0,
                duration_ms=1.0, warmup_ms=0.0, drain_ms=4.0,
                max_messages=120)
    base.update(kw)
    return ExperimentConfig(**base)


def small_grid():
    """The 2-protocol x 2-load determinism grid."""
    return {
        (protocol, load): small_cfg(protocol=protocol, load=load)
        for protocol in ("homa", "pfabric")
        for load in (0.3, 0.5)
    }


# -- payload round-trips -------------------------------------------------


def test_config_payload_round_trip():
    cfg = small_cfg(
        homa=HomaConfig(n_unsched_override=2, cutoff_override=(100, 16129)),
        collect=("queues", "throughput"),
        net_overrides={"preemptive_links": True})
    back = ExperimentConfig.from_payload(
        json.loads(json.dumps(cfg.to_payload())))
    assert back == cfg
    assert isinstance(back.collect, tuple)
    assert isinstance(back.homa.cutoff_override, tuple)


def test_result_payload_round_trip_is_exact():
    result = run_experiment(small_cfg(collect=("queues", "throughput")))
    back = ExperimentResult.from_payload(
        json.loads(json.dumps(result.to_payload())))
    # Bit-exact samples: the packed float64 column survives JSON.
    assert back.tracker.slowdowns == result.tracker.slowdowns
    assert back.tracker.sizes == result.tracker.sizes
    assert ([repr(v) for v in back.slowdown_series(99)]
            == [repr(v) for v in result.slowdown_series(99)])
    assert back.cfg == result.cfg
    assert back.completed == result.completed
    assert back.finish_rate == result.finish_rate
    assert [(r.label, r.mean_kb, r.max_kb) for r in back.queue_rows] \
        == [(r.label, r.mean_kb, r.max_kb) for r in result.queue_rows]
    assert back.total_utilization == result.total_utilization
    assert back.delay_breakdown == result.delay_breakdown


def _assert_every_field_set(obj) -> None:
    """Every dataclass field of ``obj`` that has a default holds a
    non-default value, so a field a payload pair drops cannot survive
    the round trip by falling back to the value it already had."""
    for f in dataclasses.fields(obj):
        if f.default is not dataclasses.MISSING:
            default = f.default
        elif f.default_factory is not dataclasses.MISSING:
            default = f.default_factory()
        else:
            continue
        assert getattr(obj, f.name) != default, (
            f"fixture must set a non-default {type(obj).__name__}.{f.name} "
            f"(new field? extend this test and the payload pair)")


def test_payload_round_trip_covers_every_field():
    """Set EVERY dataclass field of ExperimentConfig and ExperimentResult,
    and of every class they carry (HomaConfig, TopologySpec, LossRates,
    FaultEvent, ControlTraffic, FabricHealth, SlowdownTracker), to a
    non-default value and require an exact JSON round-trip.  A field silently dropped by a payload pair
    corrupts the on-disk campaign cache — the rerun "hits" with a default
    where measured data should be — and this test fails loudly the moment
    a new field is added without extending both the pair and this test."""
    # ``to_payload`` is ``asdict``: a field can only be lost on the way
    # back, e.g. by a ``from_payload`` that rebuilds a nested class by
    # hand.
    cfg = ExperimentConfig(
        protocol="pfabric", workload="W4", load=0.55, racks=2,
        hosts_per_rack=3, aggrs=1, duration_ms=2.5, warmup_ms=0.5,
        drain_ms=1.5, seed=7, mode="rpc_echo", max_messages=9,
        homa=HomaConfig(
            n_prios=4, unsched_limit=5000, n_unsched_override=2,
            n_sched_override=2, cutoff_override=(100, 16129),
            overcommit_override=3, unlimited_overcommit=True,
            resend_interval_ps=3_000_000_000, max_resends=7,
            incast_threshold=8, incast_response_unsched=500,
            incast_control=False, online_priorities=True,
            online_refresh_ps=7_000_000_000, grant_oldest=True,
            grant_batch_ns=2000, grant_batch_pkts=4),
        collect=("queues",), net_overrides={"preemptive_links": True},
        fabric=TopologySpec(
            levels=3, pods=2, racks=2, hosts_per_rack=4, aggrs=4,
            cores=8, host_gbps=20, aggr_gbps=25, core_gbps=40,
            switch_delay_ns=300, software_delay_ns=1000,
            loss=LossRates(tor=0.01, aggr=0.02, core=0.03),
            faults=(FaultEvent(1.5, "link", "down", "tor0:aggr0.1"),
                    FaultEvent(2.5, "switch", "down", "core3"))))
    for obj in (cfg, cfg.homa, cfg.fabric, cfg.fabric.loss,
                *cfg.fabric.faults):
        _assert_every_field_set(obj)
    back = ExperimentConfig.from_payload(
        json.loads(json.dumps(cfg.to_payload())))
    assert back == cfg

    recorded = SlowdownTracker(None, warmup_ps=123)
    recorded._push(100, 1.5)
    recorded._push(200, 2.5)
    tracker = SlowdownTracker.from_payload(recorded.to_payload())
    result = ExperimentResult(
        cfg=cfg, tracker=tracker, submitted=5, completed=4, pending=1,
        sim_time_ms=3.5, events=999, wall_seconds=0.25,
        queue_rows=[QueueLevelStats(
            label="TOR->host", mean_kb=1.5, max_kb=9.0)],
        prio_fractions=[0.25, 0.75], wasted_fraction=0.1,
        total_utilization=0.8, app_utilization=0.7,
        delay_breakdown=(1.25, 2.5), aborted=2,
        control=ControlTraffic(grants=3, resends=2, busys=1,
                               grant_ticks=4, rtx_data=6, rtx_recovered=5,
                               give_ups=1, outbound_give_ups=8),
        backlog_mid_bytes=11, backlog_end_bytes=22,
        fabric=FabricHealth(drops_tor=1, drops_aggr=2, drops_core=3,
                            fault_drops=4, black_holes=5, reroutes=6,
                            faults_applied=7))
    for obj in (result, result.control, result.fabric):
        _assert_every_field_set(obj)
    for obj in (result.control, result.fabric):
        assert type(obj).from_payload(
            json.loads(json.dumps(obj.to_payload()))) == obj
    back = ExperimentResult.from_payload(
        json.loads(json.dumps(result.to_payload())))
    assert back.to_payload() == result.to_payload()
    assert (back.tracker.warmup_ps, back.tracker.sizes,
            back.tracker.slowdowns) == (
        123, array("q", [100, 200]), array("d", [1.5, 2.5]))
    for f in dataclasses.fields(ExperimentResult):
        if f.name != "tracker":
            assert getattr(back, f.name) == getattr(result, f.name), f.name
    assert isinstance(back.delay_breakdown, tuple)
    assert isinstance(back.cfg.collect, tuple)


def test_tracker_from_payload_reports_without_net():
    tracker = SlowdownTracker(None)
    tracker._push(10, 1.5)
    tracker._push(20, 2.5)
    back = SlowdownTracker.from_payload(tracker.to_payload())
    assert back.overall(50) == 2.0
    assert back.count == 2


# -- stable hashing ------------------------------------------------------


def test_code_fingerprint_ignores_lint_edits(tmp_path, monkeypatch):
    """simlint (``repro/analysis/``) is imported by no simulation, so
    editing it must not invalidate cached cells; a simulator edit must."""
    package = tmp_path / "repro"
    shutil.copytree(Path(campaign.__file__).resolve().parents[1], package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(campaign, "__file__",
                        str(package / "experiments" / "campaign.py"))

    def fingerprint():
        monkeypatch.setattr(campaign, "_fingerprints", {})
        return campaign.code_fingerprint()

    before = fingerprint()
    with open(package / "analysis" / "core.py", "a") as fh:
        fh.write("# a lint edit\n")
    assert fingerprint() == before
    with open(package / "core" / "engine.py", "a") as fh:
        fh.write("# a simulator edit\n")
    assert fingerprint() != before


def test_cell_hash_stable_and_config_sensitive():
    cell_a = campaign.Cell(key="a", spec=small_cfg())
    cell_b = campaign.Cell(key="b", spec=small_cfg())  # key not hashed
    cell_c = campaign.Cell(key="a", spec=small_cfg(load=0.6))
    assert campaign.cell_hash(cell_a) == campaign.cell_hash(cell_b)
    assert campaign.cell_hash(cell_a) != campaign.cell_hash(cell_c)


def test_canonical_rejects_opaque_objects():
    with pytest.raises(TypeError):
        campaign.canonical(object())


def test_canonical_rejects_colliding_dict_keys():
    # 1 and "1" must never share one cache key.
    with pytest.raises(TypeError, match="collide"):
        campaign.canonical({1: "a", "1": "b"})


def test_duplicate_cell_keys_rejected():
    cells = (campaign.Cell(key="x", spec=small_cfg()),
             campaign.Cell(key="x", spec=small_cfg(load=0.6)))
    with pytest.raises(ValueError, match="duplicate"):
        campaign.CampaignSpec(name="dup", cells=cells)


def test_resolve_jobs(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert campaign.resolve_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert campaign.resolve_jobs() == 3
    assert campaign.resolve_jobs(2) == 2
    with pytest.raises(ValueError):
        campaign.resolve_jobs(0)


# -- the determinism + cache contract ------------------------------------


def test_campaign_sharded_matches_serial_and_caches(tmp_path):
    """jobs=1 and jobs=4 produce byte-identical slowdown digests, and
    a re-run is served entirely from the on-disk cache."""
    spec = campaign.experiment_grid("determinism", small_grid())

    serial = campaign.run(spec, jobs=1, fresh=True,
                          cache_dir=tmp_path, quiet=True)
    assert serial.computed == 4 and serial.cached == 0

    sharded = campaign.run(spec, jobs=4, fresh=True,
                           cache_dir=tmp_path, quiet=True)
    assert sharded.computed == 4
    assert (campaign.slowdown_digest(sharded)
            == campaign.slowdown_digest(serial))

    # Second run: every cell from cache, zero simulations executed.
    rerun = campaign.run(spec, jobs=4, cache_dir=tmp_path, quiet=True)
    assert rerun.computed == 0 and rerun.cached == 4
    assert campaign.slowdown_digest(rerun) == campaign.slowdown_digest(serial)

    # Results arrive in cell order regardless of completion order.
    assert list(rerun) == list(small_grid())


def test_campaign_cache_keyed_by_config(tmp_path):
    cfg = small_cfg()
    spec_a = campaign.experiment_grid("keyed", {"cell": cfg})
    campaign.run(spec_a, jobs=1, cache_dir=tmp_path, quiet=True)
    # A different config is a miss; the same config (rebuilt) is a hit.
    spec_b = campaign.experiment_grid("keyed", {"cell": small_cfg(load=0.4)})
    run_b = campaign.run(spec_b, jobs=1, cache_dir=tmp_path, quiet=True)
    assert run_b.computed == 1
    spec_c = campaign.experiment_grid("keyed", {"cell": small_cfg()})
    run_c = campaign.run(spec_c, jobs=1, cache_dir=tmp_path, quiet=True)
    assert run_c.computed == 0 and run_c.cached == 1


def test_version_1_cache_entry_is_a_miss_and_is_overwritten(tmp_path):
    """An entry written before the packed columns (version 1, list-form
    samples) must never reach ``from_payload``: it is recomputed and
    replaced in place by a current entry."""
    spec = campaign.experiment_grid("skew", {"cell": small_cfg()})
    first = campaign.run(spec, jobs=1, cache_dir=tmp_path, quiet=True)
    path = campaign.ResultCache(tmp_path).path_for(spec.name, spec.cells[0])
    entry = json.loads(path.read_bytes())
    assert entry["version"] == campaign._CACHE_VERSION == 2
    packed = dict(entry["payload"]["tracker"])
    assert isinstance(packed["slowdowns"], str)

    tracker = first["cell"].tracker
    entry["version"] = 1
    entry["payload"]["tracker"].update(
        sizes=list(tracker.sizes), slowdowns=[99.0] * tracker.count)
    path.write_text(json.dumps(entry))
    assert campaign.ResultCache(tmp_path).load(path) is None

    rerun = campaign.run(spec, jobs=1, cache_dir=tmp_path, quiet=True)
    assert rerun.computed == 1 and rerun.cached == 0
    assert rerun["cell"].tracker.slowdowns == tracker.slowdowns
    # Deterministic cell: the overwrite differs only in its wall time.
    rewritten = json.loads(path.read_bytes())
    assert rewritten["version"] == 2
    assert rewritten["payload"]["tracker"] == packed
    assert campaign.run(spec, jobs=1, cache_dir=tmp_path,
                        quiet=True).cached == 1


@pytest.mark.parametrize("corruption",
                         ["truncated-column", "[1, 2]", "null", '"x"'])
def test_corrupt_cache_entry_is_recomputed_and_rewritten(tmp_path,
                                                         corruption):
    """A current-version entry whose packed column was truncated, or a
    file whose JSON is not an entry object, is a miss: the cell is
    recomputed and the entry rewritten, instead of every later run
    raising in ``from_payload`` or on the entry's ``.get``."""
    spec = campaign.experiment_grid("truncated", {"cell": small_cfg()})
    first = campaign.run(spec, jobs=1, cache_dir=tmp_path, quiet=True)
    cache = campaign.ResultCache(tmp_path)
    path = cache.path_for(spec.name, spec.cells[0])
    entry = json.loads(path.read_bytes())
    packed = dict(entry["payload"]["tracker"])
    if corruption == "truncated-column":
        entry["payload"]["tracker"]["sizes"] = packed["sizes"][:-3]
        path.write_text(json.dumps(entry))
        with pytest.raises(ValueError, match="'sizes' is not valid base64"):
            campaign.experiment_decode(cache.load(path))
    else:
        path.write_text(corruption)
        assert cache.load(path) is None

    rerun = campaign.run(spec, jobs=1, cache_dir=tmp_path, quiet=True)
    assert (rerun.computed, rerun.cached) == (1, 0)
    assert campaign.slowdown_digest(rerun) == campaign.slowdown_digest(first)
    assert json.loads(path.read_bytes())["payload"]["tracker"] == packed
    assert campaign.run(spec, jobs=1, cache_dir=tmp_path,
                        quiet=True).cached == 1


def test_cache_entry_written_before_typed_columns_is_a_hit(tmp_path):
    """The typed columns changed no byte of the payload and no version
    number, so an entry the list-backed code (commit ee73789) wrote is
    served, not recomputed or rewritten.  The entry is checked in; it is
    filed under today's key because the key's code fingerprint moves
    with every ``src/repro`` edit by design — the *format* is the pin."""
    stored = Path(__file__).parent / "data" / "cache_entry_parent_format.json"
    spec = campaign.experiment_grid(
        "parent-format", {"cell": small_cfg(max_messages=12)})
    path = campaign.ResultCache(tmp_path).path_for(spec.name, spec.cells[0])
    shutil.copy(stored, path)

    rerun = campaign.run(spec, jobs=1, cache_dir=tmp_path, quiet=True)
    assert (rerun.cached, rerun.computed) == (1, 0)
    assert path.read_bytes() == stored.read_bytes()
    hit = rerun["cell"]
    assert hit.wall_seconds == 0.05194846099766437   # the entry's, not ours
    fresh = campaign.run(spec, jobs=1, fresh=True,
                         cache_dir=tmp_path / "fresh", quiet=True)["cell"]
    assert hit.tracker.count == 12
    assert hit.tracker.sizes == fresh.tracker.sizes
    assert hit.tracker.slowdowns == fresh.tracker.slowdowns
    assert hit.tracker.to_payload() \
        == json.loads(stored.read_bytes())["payload"]["tracker"]


def test_campaign_cell_error_names_the_config(tmp_path):
    spec = campaign.experiment_grid(
        "boom", {"bad": small_cfg(mode="bogus")})
    with pytest.raises(campaign.CampaignCellError) as excinfo:
        campaign.run(spec, jobs=1, cache_dir=tmp_path, quiet=True)
    message = str(excinfo.value)
    assert "boom" in message and "'bad'" in message
    assert '"mode":"bogus"' in message  # the full config is in the error


def test_campaign_pool_failure_keeps_completed_siblings(tmp_path):
    """A crashed cell must not discard siblings that finished: the
    retry (minus the bad cell) is served from cache."""
    good = {"ok1": small_cfg(load=0.3), "ok2": small_cfg(load=0.5)}
    # The global queue dispatches largest-cell-first, so make the bad
    # cell the cheapest: with two workers it only starts after a good
    # cell finishes, which is the scenario this test pins.
    spec = campaign.experiment_grid(
        "partial",
        {**good, "bad": small_cfg(mode="bogus", load=0.1,
                                  duration_ms=0.2)})
    with pytest.raises(campaign.CampaignCellError, match="'bad'"):
        campaign.run(spec, jobs=2, cache_dir=tmp_path, quiet=True)
    # The bad cell only started after a worker finished a good cell,
    # so at least that completed sibling must have been cached.  (The
    # other good cell may still have been in flight when the failure
    # surfaced — that one is legitimately recomputed.)
    retry = campaign.run(campaign.experiment_grid("partial", good),
                         jobs=2, cache_dir=tmp_path, quiet=True)
    assert retry.cached >= 1
    assert retry.cached + retry.computed == 2


def gate_task(spec):
    """Returns ``spec["x"]``; with ``wait_for``, only once that file (a
    sibling's cache entry) exists."""
    deadline = time.monotonic() + 10.0
    while spec.get("wait_for") and not Path(spec["wait_for"]).exists():
        if time.monotonic() > deadline:
            raise TimeoutError(f"sibling entry never landed: "
                               f"{spec['wait_for']}")
        time.sleep(0.02)
    return spec["x"]


def flaky_task(spec):
    """Returns ``spec["x"]``; with ``needs``, raises until that file
    exists."""
    if spec.get("needs") and not Path(spec["needs"]).exists():
        raise RuntimeError(f"{spec['needs']} does not exist yet")
    return spec["x"]


def _custom_cell(key, task, **spec):
    return campaign.Cell(key=key, spec=spec,
                         task=f"tests.test_campaign:{task}",
                         decode=campaign.IDENTITY_DECODE)


@pytest.mark.parametrize("path", ["pooled", "farm_fallback"])
def test_pool_caches_each_cell_as_it_lands(tmp_path, path):
    """A ``--jobs N`` run stores every cell the moment it finishes, so
    a killed run keeps its finished cells: the gate cell only returns
    once its sibling's cache entry exists."""
    quick = _custom_cell("quick", "gate_task", x=1)
    entry = campaign.ResultCache(tmp_path).path_for("gate", quick)
    gate = _custom_cell("gate", "gate_task", x=2, wait_for=str(entry))
    spec = campaign.CampaignSpec(name="gate", cells=(quick, gate))
    if path == "pooled":
        out = campaign.run_pooled([spec], jobs=2, cache_dir=tmp_path,
                                  quiet=True)
    else:
        out = farm.run_farm([spec], jobs=2, cache_dir=tmp_path,
                            farm_wait_s=0.0, quiet=True)
        assert out["gate"].farm_fallback
    assert dict(out["gate"]) == {"quick": 1, "gate": 2}


def _listing(directory: Path):
    return sorted(os.listdir(directory)) if directory.is_dir() else None


def test_fresh_local_sweep_resumes_from_its_journal(tmp_path):
    """A local ``--fresh`` sweep journals every finished cell beside the
    cache; re-running the same sweep after a failure computes only the
    missing cells and then retires the journal."""
    marker = tmp_path / "ready"
    spec = campaign.CampaignSpec(name="resume", cells=tuple(
        [_custom_cell(i, "flaky_task", x=i) for i in range(3)]
        + [_custom_cell("flaky", "flaky_task", x=9, needs=str(marker))]))
    outside = [campaign.DEFAULT_CACHE_DIR, campaign.DEFAULT_CACHE_DIR.parent]
    before = [_listing(d) for d in outside]
    cache_dir = tmp_path / "cache"
    with pytest.raises(campaign.CampaignCellError, match="'flaky'"):
        campaign.run_pooled([spec], jobs=1, fresh=True, cache_dir=cache_dir,
                            quiet=True)
    journal = cache_dir / "journal" / "resume.jsonl"
    assert len(journal.read_text().splitlines()) == 3

    marker.touch()
    out = campaign.run_pooled([spec], jobs=1, fresh=True,
                              cache_dir=cache_dir, quiet=True)["resume"]
    assert dict(out) == {0: 0, 1: 1, 2: 2, "flaky": 9}
    assert (out.computed, out.cached, out.farm_resumed) == (1, 3, 3)
    assert not journal.exists()
    assert [_listing(d) for d in outside] == before


# -- speculative max-load collation --------------------------------------


def _probe_result(cfg, *, stable: bool) -> ExperimentResult:
    """A synthetic completed probe (no simulation)."""
    tracker = SlowdownTracker(None)
    return ExperimentResult(
        cfg=cfg, tracker=tracker,
        submitted=100, completed=100 if stable else 10,
        pending=0 if stable else 90,
        sim_time_ms=1.0, events=1000, wall_seconds=0.1,
        total_utilization=cfg.load * 0.9,
        app_utilization=cfg.load * 0.8,
        backlog_mid_bytes=1000,
        backlog_end_bytes=1000 if stable else 10_000_000,
    )


def test_collate_max_load_last_stable():
    base = small_cfg()
    grid = (0.3, 0.5, 0.7, 0.9)
    results = [
        _probe_result(probe_config(base, 0.3), stable=True),
        _probe_result(probe_config(base, 0.5), stable=True),
        _probe_result(probe_config(base, 0.7), stable=False),
        # Speculative probe past the first unstable point: ignored even
        # if it accidentally looks stable (open-loop semantics).
        _probe_result(probe_config(base, 0.9), stable=True),
    ]
    row = collate_max_load(grid, results)
    assert row.max_load == 0.5
    assert row.total_utilization == results[1].total_utilization
    assert [load for load, _ in row.probes] == [0.3, 0.5, 0.7]


def test_collate_max_load_fallback_reuses_first_probe():
    base = small_cfg()
    grid = (0.3, 0.5)
    first = _probe_result(probe_config(base, 0.3), stable=False)
    row = collate_max_load(grid, [first])
    assert row.max_load == 0.0
    # The fallback reports the first probe's already-computed
    # utilization — no re-simulation happened to produce it.
    assert row.total_utilization == first.total_utilization
    assert row.app_utilization == first.app_utilization
    assert len(row.probes) == 1


def test_collate_max_load_requires_probes():
    with pytest.raises(ValueError):
        collate_max_load((0.5,), [])


# -- campaign registration -----------------------------------------------


def test_every_bench_module_is_a_registered_complete_campaign(monkeypatch):
    """``python -m repro campaign`` and ``--farm`` reach a figure only
    through ``paper_data.CAMPAIGNS``, and pool its cells through the
    module's ``campaign_specs()`` / ``campaign_spec()``.  A bench module
    missing from either runs fine standalone while silently dropping out
    of ``campaign all`` and the pooled cache warm-up."""
    # Checked against deleting the "fig18" entry from paper_data.CAMPAIGNS.
    bench_dir = Path(__file__).resolve().parents[1] / "benchmarks"
    on_disk = {path.stem for path in bench_dir.glob("bench_*.py")}
    registered = {module for module, _ in CAMPAIGNS.values()}
    assert on_disk - registered == set(), "not in paper_data.CAMPAIGNS"
    monkeypatch.syspath_prepend(str(bench_dir))
    for name in sorted(registered):
        module = importlib.import_module(name)
        assert callable(getattr(module, "run_figure", None)), name
        assert (hasattr(module, "campaign_specs")
                or hasattr(module, "campaign_spec")), name


# -- cross-figure pooling ------------------------------------------------


def test_pooled_campaigns_match_per_figure_runs(tmp_path):
    """``run_pooled`` (the ``campaign all`` global largest-cell-first
    queue) must produce byte-identical digests to running each
    campaign alone, and must populate the same cache entries."""
    spec_a = campaign.experiment_grid("pool-a", {
        ("homa", load): small_cfg(load=load) for load in (0.3, 0.5)})
    spec_b = campaign.experiment_grid("pool-b", {
        ("pfabric", 0.5): small_cfg(protocol="pfabric", load=0.5),
        ("w5-ish", 0.5): small_cfg(workload="W3", duration_ms=2.0)})

    solo_dir = tmp_path / "solo"
    solo = {s.name: campaign.run(s, jobs=1, cache_dir=solo_dir, quiet=True)
            for s in (spec_a, spec_b)}
    pool_dir = tmp_path / "pool"
    pooled = campaign.run_pooled([spec_a, spec_b], jobs=2,
                                 cache_dir=pool_dir, quiet=True)

    assert set(pooled) == {"pool-a", "pool-b"}
    for name in pooled:
        assert (campaign.slowdown_digest(pooled[name])
                == campaign.slowdown_digest(solo[name]))
    # Same cache keys: a per-figure rerun over the pooled cache is a
    # pure cache hit.
    rerun = campaign.run(spec_a, jobs=1, cache_dir=pool_dir, quiet=True)
    assert rerun.cached == len(spec_a.cells) and rerun.computed == 0
    assert (campaign.slowdown_digest(rerun)
            == campaign.slowdown_digest(solo["pool-a"]))


def test_pooled_queue_orders_largest_first(tmp_path):
    """The global queue dispatches heavy cells first (cost heuristic:
    simulated duration x hosts x load; non-experiment specs lead)."""
    big = small_cfg(duration_ms=3.0, load=0.8)
    small = small_cfg(duration_ms=0.5, load=0.3)
    cells = [
        campaign.Cell(key="small", spec=small),
        campaign.Cell(key="big", spec=big),
    ]
    ordered = sorted(cells, key=campaign._cell_cost, reverse=True)
    assert [c.key for c in ordered] == ["big", "small"]
    custom = campaign.Cell(key="custom", spec={"anything": 1},
                           task="tests.test_campaign:_never_run",
                           decode=campaign.IDENTITY_DECODE)
    ordered = sorted(cells + [custom], key=campaign._cell_cost,
                     reverse=True)
    assert ordered[0].key == "custom"


def _never_run(spec):  # pragma: no cover - scheduling-order fixture
    raise AssertionError("fixture task must not execute")
