"""Figures 8 and 9: the implementation measurements, reproduced in
simulation on the 16-host single-switch CloudLab-like cluster.

Echo RPC clients/servers at 80% load compare: Homa, HomaP4/P2/P1
(priority levels collapsed), Basic (no priorities, unlimited
overcommitment), and the streaming transport with one connection per
pair ("TCP"/"InfRC" analogue) and many connections ("TCP-MC").

Substitution note: the original figure measures RAMCloud on
real hardware; absolute microseconds differ here, but the protocol-level
ordering — Homa < HomaP2 < Basic << single-stream — is the claim under
test.
"""

from repro.experiments import campaign
from repro.experiments.paper_data import FIG8
from repro.experiments.runner import ExperimentConfig
from repro.experiments.scale import current_scale
from repro.experiments.tables import series_table
from repro.homa.config import HomaConfig
from repro.workloads.catalog import get_workload

from _shared import parametrize, run_once, save_result

VARIANTS = (
    ("Homa", "homa", None),
    ("HomaP4", "homa", 4),
    ("HomaP2", "homa", 2),
    ("HomaP1", "homa", 1),
    ("Basic", "basic", None),
    ("Stream-MC", "stream_mc", None),
    ("Stream", "stream", None),
)

WORKLOADS_BY_SCALE = {"tiny": ("W3",), "quick": ("W3", "W4"),
                      "paper": ("W3", "W4", "W5")}


def cluster_kwargs():
    scale = current_scale()
    return dict(racks=1, hosts_per_rack=16, aggrs=0,
                duration_ms=scale.duration_ms,
                warmup_ms=0.0 if scale.name == "tiny" else 0.5,
                drain_ms=scale.drain_ms,
                max_messages=scale.max_messages, mode="rpc_echo")


def campaign_spec(workload: str) -> campaign.CampaignSpec:
    heavy = workload in ("W4", "W5")
    scale = current_scale()
    kwargs = cluster_kwargs()
    if heavy:
        kwargs["duration_ms"] = scale.heavy_duration_ms
        kwargs["drain_ms"] = scale.heavy_drain_ms
        kwargs["max_messages"] = scale.heavy_max_messages
    cfgs = {}
    for label, protocol, n_prios in VARIANTS:
        homa_cfg = None  # protocol defaults (Basic keeps basic())
        if n_prios is not None:
            homa_cfg = HomaConfig().with_prios(n_prios)
        cfgs[label] = ExperimentConfig(protocol=protocol, workload=workload,
                                       load=0.8, homa=homa_cfg, **kwargs)
    return campaign.experiment_grid(f"fig08-{workload}", cfgs)


def campaign_specs() -> list[campaign.CampaignSpec]:
    """Every per-workload campaign (the ``campaign all`` pool)."""
    return [campaign_spec(workload)
            for workload in WORKLOADS_BY_SCALE[current_scale().name]]


def run_campaign(workload: str, jobs=None, fresh=False):
    return campaign.run(campaign_spec(workload), jobs=jobs, fresh=fresh)


def render(workload: str, results, percentile: float, figure: str) -> str:
    edges = get_workload(workload).bucket_edges()
    columns = {label: results[label].slowdown_series(percentile)
               for label, _, _ in VARIANTS}
    pct = "99th-percentile" if percentile == 99 else "median"
    text = series_table(
        f"Figure {figure}: implementation proxy, {pct} echo-RPC slowdown, "
        f"{workload}, 80% load (16-host cluster)",
        edges, columns)
    text += ("\n   paper: Basic 5-15x worse than Homa; single stream "
             f"~{FIG8['stream_vs_multi']}x worse than multi-connection "
             "for small RPCs")
    return text


def run_figure(jobs=None, fresh=False) -> list[str]:
    """CLI entry: regenerate Figures 8 and 9 at the current scale."""
    paths = []
    for workload in WORKLOADS_BY_SCALE[current_scale().name]:
        results = run_campaign(workload, jobs=jobs, fresh=fresh)
        paths.append(save_result(f"fig08_implementation_p99_{workload}",
                                 render(workload, results, 99, "8")))
        paths.append(save_result(f"fig09_implementation_median_{workload}",
                                 render(workload, results, 50, "9")))
    return paths


@parametrize("workload", WORKLOADS_BY_SCALE[current_scale().name])
def test_fig08_implementation_p99(benchmark, workload):
    results = run_once(benchmark, lambda: run_campaign(workload))
    text = render(workload, results, 99, "8")
    save_result(f"fig08_implementation_p99_{workload}", text)
    homa = results["Homa"]
    stream = results["Stream"]
    assert homa.completed > 100
    # Shape assertions: priorities + overcommitment beat Basic; a single
    # FIFO stream is far worse for small RPCs (HOL blocking).
    small_homa = homa.slowdown_series(99)[0]
    small_stream = stream.slowdown_series(99)[0]
    if small_homa == small_homa and small_stream == small_stream:
        assert small_stream > small_homa


@parametrize("workload", WORKLOADS_BY_SCALE[current_scale().name])
def test_fig09_implementation_median(benchmark, workload):
    results = run_once(benchmark, lambda: run_campaign(workload))
    text = render(workload, results, 50, "9")
    save_result(f"fig09_implementation_median_{workload}", text)
    assert results["Homa"].tracker.overall(50) >= 1.0
