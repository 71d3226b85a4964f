"""Maximum sustainable load search (Figure 15 / Figure 16).

"We simulated each workload-protocol combination at higher and higher
network loads to identify the highest load the protocol can support
(the load generator runs open-loop, so if the offered load exceeds the
protocol's capacity, queues grow without bound)."

A run is *stable* when nearly everything submitted finishes within the
drain window.  We sweep an ascending load grid and report the last
stable point, plus the application-goodput share there.

The sweep is a **speculative shard**: :func:`probe_config` builds
every grid point as an independent campaign cell, all probed in
parallel, and :func:`collate_max_load` applies last-stable semantics to
the collected results (probes past the first unstable point are
discarded: open-loop, higher loads stay unstable).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.experiments.runner import ExperimentConfig, ExperimentResult

#: fraction of submitted messages that must complete for stability
STABLE_FINISH_RATE = 0.90
#: open-loop backlog may not grow more than this between 2/3 of the
#: window and its end (unbounded linear growth measures ~1.5 there)
STABLE_BACKLOG_GROWTH = 1.35


@dataclass
class MaxLoadResult:
    protocol: str
    workload: str
    max_load: float          # highest stable offered load (0..1)
    total_utilization: float  # goodput incl. headers/control at that load
    app_utilization: float    # application bytes only
    probes: list[tuple[float, float]]  # (load, backlog growth) per probe


def probe_config(base: ExperimentConfig, load: float) -> ExperimentConfig:
    """One grid point of the sweep (utilization must be collected)."""
    return replace(base, load=load, collect=("throughput",))


def probe_stable(result: ExperimentResult) -> bool:
    """The stability predicate over one completed probe."""
    from repro.workloads.catalog import get_workload

    cfg = result.cfg
    # Slack: pipe-content wobble — a few RTTs plus a couple of mean
    # messages per host do not count as backlog growth.
    n_hosts = cfg.racks * cfg.hosts_per_rack
    mean_msg = get_workload(cfg.workload).cdf.mean()
    slack = (6 * 9680 + 2 * mean_msg) * n_hosts
    grown = (result.backlog_end_bytes
             > STABLE_BACKLOG_GROWTH * result.backlog_mid_bytes + slack)
    finished = result.finish_rate >= STABLE_FINISH_RATE
    return finished and not grown


def collate_max_load(
    grid: Sequence[float],
    results: Sequence[ExperimentResult],
) -> MaxLoadResult:
    """Last-stable semantics over ascending probes.

    ``results[i]`` is the completed probe at ``grid[i]`` (``results``
    may be shorter when the producer stopped early).  Probes past the
    first unstable load are ignored, so a speculative parallel sweep
    collates to exactly what the serial early-break sweep reports.
    When no grid point is stable, the first probe's already-computed
    result supplies the utilization figures (no re-simulation).
    """
    if not results:
        raise ValueError("collate_max_load needs at least one probe result")
    best_load = 0.0
    best_result = None
    probes = []
    for load, result in zip(grid, results):
        probes.append((load, result.backlog_growth()))
        if probe_stable(result):
            best_load = load
            best_result = result
        else:
            break  # open-loop: loads above an unstable point stay unstable
    if best_result is None:
        best_result = results[0]
        best_load = 0.0
    base_cfg = results[0].cfg
    return MaxLoadResult(
        protocol=base_cfg.protocol,
        workload=base_cfg.workload,
        max_load=best_load,
        total_utilization=best_result.total_utilization,
        app_utilization=best_result.app_utilization,
        probes=probes,
    )
