"""Measuring one ``run_experiment`` from outside: spans, checks, stats.

Nothing here edits the simulator.  Spans come from wrapping the names
``run_experiment`` resolves once per run (never a per-event call), so
the timed run and the traced run carry the same instrumentation and the
event loop itself runs exactly the code a user runs.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import Simulator
from repro.core.topology import Network
from repro.experiments import runner
from repro.experiments.campaign import slowdown_digest, spec_json
from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)
from repro.metrics.control import ControlTraffic, FabricHealth

#: span name per wrapped call; the layer is the part before the dot
_MODULE_SPANS = (
    ("build_network", "fabric.build_s"),
    ("build_fabric", "fabric.build_s"),
    ("attach_openloop_workload", "apps.attach_s"),
)
_METHOD_SPANS = (
    (Network, "attach_transports", "transport.attach_s"),
    (Simulator, "run", "engine.run_s"),
    (ExperimentResult, "to_payload", "metrics.report_s"),
)
_CLASSMETHOD_SPANS = (
    (ControlTraffic, "collect", "metrics.report_s"),
    (FabricHealth, "collect", "metrics.report_s"),
)
SPAN_NAMES = ("fabric.build_s", "transport.attach_s", "apps.attach_s",
              "engine.run_s", "metrics.report_s")


class Spans:
    """In-memory span recorder for the layer boundaries of one run.

    Each record is ``(name, start, end, parent)`` on the
    ``time.perf_counter`` clock; ``parent`` is the label of the
    repetition that caused it, so spans of one run share an identifier.
    """

    def __init__(self) -> None:
        self.records: list[tuple[str, float, float, str]] = []
        self.parent = ""
        #: senders returned by the last attach_openloop_workload call
        self.apps: list = []
        #: (perf_counter, process_time) when Simulator.run last started
        self.run_started: tuple[float, float] | None = None

    def _timed(self, name: str, fn, *, keep_apps=False, mark_run=False):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            if mark_run and self.run_started is None:
                self.run_started = (start, time.process_time())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.records.append(
                    (name, start, time.perf_counter(), self.parent))
            if keep_apps:
                self.apps = out
            return out
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the boundary calls for the duration of the block."""
        saved = []
        try:
            for attr, name in _MODULE_SPANS:
                saved.append((runner, attr, getattr(runner, attr)))
                setattr(runner, attr, self._timed(
                    name, getattr(runner, attr),
                    keep_apps=attr == "attach_openloop_workload"))
            for cls, attr, name in _METHOD_SPANS:
                saved.append((cls, attr, cls.__dict__[attr]))
                setattr(cls, attr, self._timed(
                    name, cls.__dict__[attr], mark_run=attr == "run"))
            for cls, attr, name in _CLASSMETHOD_SPANS:
                original = cls.__dict__[attr]
                saved.append((cls, attr, original))
                setattr(cls, attr, classmethod(
                    self._timed(name, original.__func__)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def begin(self, parent: str) -> int:
        self.parent = parent
        self.run_started = None
        return len(self.records)

    def totals(self, since: int) -> dict[str, float]:
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for name, start, end, _ in self.records[since:]:
            out[name] += end - start
        return out


@dataclass
class RunSample:
    """Everything kept from one measured ``run_experiment``."""

    setup_s: float        # entry of run_experiment -> first Simulator.run
    wall_s: float         # Simulator.run start -> run_experiment returns
    cpu_s: float          # process CPU over the same interval as wall_s
    spans: dict[str, float]
    events: int
    submitted: int
    completed: int
    submitted_bytes: int  # payload bytes the open-loop senders submitted
    samples: int
    control: dict
    fabric: dict
    digest: str
    p50: float
    p99: float
    short_p99: float
    violations: list[str] = field(default_factory=list)

    @property
    def undelivered(self) -> int:
        return max(0, self.submitted - self.completed)

    @property
    def duplicates(self) -> int:
        # ExperimentResult.pending clamps at zero and so hides these.
        return max(0, self.completed - self.submitted)


def violations_of(cfg: ExperimentConfig, result: ExperimentResult) -> list[str]:
    """Invariants a correct run keeps whatever the fabric does."""
    out = []
    fastest = min(result.tracker.slowdowns, default=None)
    if fastest is None:
        out.append("no samples recorded")
    elif fastest < 1.0:
        out.append(f"slowdown {fastest!r} below the idle-network oracle")
    control = result.control
    if control.rtx_recovered > control.rtx_data:
        out.append(f"rtx_recovered {control.rtx_recovered} > rtx_data "
                   f"{control.rtx_data}")
    negative = {k: v for k, v in result.fabric.to_payload().items() if v < 0}
    if negative:
        out.append(f"negative fabric counters {negative}")
    if cfg.fabric is not None and cfg.fabric.faults:
        if result.fabric.faults_applied != len(cfg.fabric.faults):
            out.append(f"faults_applied {result.fabric.faults_applied} != "
                       f"{len(cfg.fabric.faults)}")
    if cfg.fabric is not None and cfg.fabric.loss.any():
        if result.fabric.total_drops <= 0:
            out.append("lossy fabric dropped nothing")
    return out


def short_p99(sizes, slowdowns) -> float:
    """p99 slowdown of the shortest 50% of messages (Figure 12's
    short-message number)."""
    sizes = np.asarray(sizes)
    slowdowns = np.asarray(slowdowns)
    return float(np.percentile(slowdowns[sizes <= np.median(sizes)], 99))


def measure_run(cfg: ExperimentConfig, spans: Spans, parent: str,
                run=run_experiment) -> RunSample:
    """One timed ``run_experiment`` with its spans, counts and checks.

    ``run`` lets the traced repetition pass a profiled call; it must
    return what ``run_experiment(cfg)`` returns.
    """
    since = spans.begin(parent)
    entered = time.perf_counter()
    result = run(cfg)
    returned = time.perf_counter()
    cpu_returned = time.process_time()
    run_start, cpu_start = spans.run_started
    tracker = result.tracker
    violations = violations_of(cfg, result)
    ok = tracker.count > 0
    return RunSample(
        setup_s=run_start - entered,
        wall_s=returned - run_start,
        cpu_s=cpu_returned - cpu_start,
        spans=spans.totals(since),
        events=result.events,
        submitted=result.submitted,
        completed=result.completed,
        submitted_bytes=sum(app.submitted_bytes for app in spans.apps),
        samples=tracker.count,
        control=result.control.to_payload(),
        fabric=result.fabric.to_payload(),
        digest=slowdown_digest({"cell": result}) if ok else "",
        p50=tracker.overall(50) if ok else math.nan,
        p99=tracker.overall(99) if ok else math.nan,
        short_p99=short_p99(tracker.sizes, tracker.slowdowns) if ok
        else math.nan,
        violations=violations,
    )


def config_hash(cfg: ExperimentConfig) -> str:
    """Provenance: a short hash of ``campaign.spec_json`` of the config."""
    return hashlib.sha256(spec_json(cfg).encode()).hexdigest()[:16]


def repeat(run_one, seconds: float, min_reps: int, at_floor) -> list:
    """Identical repetitions (``run_one(index)``) back to back until the
    next one would overrun ``seconds``; never fewer than ``min_reps``,
    and ``at_floor()`` is called once when that many are done."""
    reps: list = []
    began = time.perf_counter()
    while True:
        rep_began = time.perf_counter()
        reps.append(run_one(len(reps)))
        now = time.perf_counter()
        if len(reps) == min_reps:
            at_floor()
        if len(reps) >= min_reps and (now - began) + (now - rep_began) > seconds:
            return reps


def best_of(fn, repeat: int = 5) -> float:
    """Shortest of ``repeat`` timings of ``fn()``, in seconds."""
    best = math.inf
    for _ in range(repeat):
        began = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - began)
    return best


def spread_frac(values) -> float:
    """(max - min) / median: how far apart identical repetitions landed."""
    mid = statistics.median(values)
    return (max(values) - min(values)) / mid if mid else 0.0


def summary(values) -> dict:
    """Median plus min/max and the count, the form every timing takes."""
    values = list(values)
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "n": len(values), "raw": values}
