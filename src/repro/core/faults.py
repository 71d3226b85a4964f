"""Deterministic fabric faults: per-layer loss and scheduled failures.

Two independent mechanisms, both default-off and both seeded off the
run's deterministic RNG stream (never wall-clock, never the global
``random`` module):

* :func:`install_loss` puts a Bernoulli drop filter on every switch of
  a layer with a nonzero rate in :class:`LossRates`.  All filters share
  one ``random.Random`` seeded from the experiment seed, so the drop
  pattern is a pure function of (spec, seed) and replays byte-exactly.
* :class:`FaultInjector` schedules :class:`FaultEvent` s — kill or
  restore a named link or switch at a fixed sim time — as ordinary
  simulator events.  Applying a fault recomputes the fabric's live
  spray sets (``Network.apply_fault``), so subsequent packets reroute
  around the failure mid-simulation.

Loss flows through the real recovery path: a dropped DATA or GRANT
packet is recovered (or given up on) by the transport's §3.7 timeout
machinery, not by any simulator-level bookkeeping.

Determinism contract (docs/FABRICS.md): same spec + same seed ⇒ same
drop decisions, same reroutes, same digests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from repro.core.units import MS

#: valid FaultEvent.kind values
FAULT_KINDS = ("link", "switch")
#: valid FaultEvent.action values
FAULT_ACTIONS = ("down", "up")

#: ``Network.next_fault_ps`` while no fault is scheduled (far future)
NO_FAULT_PS = 1 << 62

#: distinct multiplier/offset from the spray RNG's ``seed*7919+13`` so
#: the loss stream never aliases the path-spray stream
_LOSS_SEED_MUL = 104729
_LOSS_SEED_OFF = 77


def from_fields(cls, payload: dict, **decoded):
    """``cls(**payload)`` for a dataclass ``cls``, with ``decoded``
    replacing the JSON forms of nested values.  A payload whose keys are
    not exactly the field names raises: a defaulted field missing from
    it must not decode as its default (a run record of zeros)."""
    names = cls.__dataclass_fields__.keys()
    if payload.keys() != names:
        raise ValueError(
            f"{cls.__name__} payload: missing {sorted(names - payload.keys())}"
            f", unknown {sorted(payload.keys() - names)}")
    return cls(**{**payload, **decoded})


@dataclass(frozen=True)
class LossRates:
    """Per-layer Bernoulli packet-loss probabilities, in ``[0, 1)``."""

    tor: float = 0.0
    aggr: float = 0.0
    core: float = 0.0

    def __post_init__(self) -> None:
        for name in ("tor", "aggr", "core"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(
                    f"LossRates.{name} must be a number, got {value!r}")
            if not 0.0 <= value < 1.0:
                raise ValueError(
                    f"LossRates.{name} must be in [0, 1), got {value!r}")

    def any(self) -> bool:
        return bool(self.tor or self.aggr or self.core)

    def rate_for(self, level: str) -> float:
        """The drop probability for a switch layer name (0.0 if unknown)."""
        if level in ("tor", "aggr", "core"):
            return getattr(self, level)
        return 0.0


@dataclass(frozen=True)
class FaultEvent:
    """Kill or restore one link or switch at a fixed simulation time.

    ``target`` names a switch (``"tor3"``, ``"aggr0.1"``, ``"core2"``)
    or a link (``"tor3:aggr0.1"``, ``"aggr0.1:core2"``) of the fabric;
    target existence is validated against the built network when the
    injector is constructed, naming the offending event index.
    """

    at_ms: float
    kind: str      # "link" | "switch"
    action: str    # "down" | "up"
    target: str

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"FaultEvent.kind must be one of {FAULT_KINDS}, "
                f"got {self.kind!r}")
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"FaultEvent.action must be one of {FAULT_ACTIONS}, "
                f"got {self.action!r}")
        if isinstance(self.at_ms, bool) or not isinstance(
                self.at_ms, (int, float)) or self.at_ms < 0:
            raise ValueError(
                f"FaultEvent.at_ms must be a non-negative number, "
                f"got {self.at_ms!r}")
        if not self.target or not isinstance(self.target, str):
            raise ValueError(
                f"FaultEvent.target must name a switch or link, "
                f"got {self.target!r}")

    @property
    def at_ps(self) -> int:
        return int(self.at_ms * MS)


class FaultInjector:
    """Applies a fault schedule to a built fabric at simulated times.

    Construction validates every target against the network; ``arm()``
    files one simulator event per fault.  ``net.next_fault_ps`` is kept
    at the time of the next unapplied fault, so the fused switch ingress
    never appends a packet early across a buffer flush
    (``core/topology.py``).  Faults apply in firing order, at simulated
    time only
    (``tests/test_faults.py::test_fault_schedule_fires_in_order_with_observer``).
    """

    __slots__ = ("sim", "net", "events", "applied", "_due")

    def __init__(self, sim, net, events: Iterable[FaultEvent]) -> None:
        self.sim = sim
        self.net = net
        self.events = tuple(events)
        self.applied = 0
        #: fault times in firing order, then the no-fault sentinel
        self._due = sorted(ev.at_ps for ev in self.events) + [NO_FAULT_PS]
        for i, ev in enumerate(self.events):
            net.validate_fault_target(ev, i)

    def arm(self) -> None:
        """Schedule every fault at its absolute simulation time."""
        for ev in self.events:
            self.sim.schedule_at(ev.at_ps, self._apply, ev)
        self.net.next_fault_ps = self._due[self.applied]

    def _apply(self, ev: FaultEvent) -> None:
        self.net.apply_fault(ev)
        self.applied += 1
        self.net.next_fault_ps = self._due[self.applied]


def install_loss(net, loss: LossRates, seed: int) -> None:
    """Install seeded Bernoulli drop filters on every lossy layer.

    One shared ``random.Random`` drives all layers, so the drop stream
    is a pure function of (spec, seed) and the packet arrival order —
    both deterministic.
    """
    if not loss.any():
        return
    rng = random.Random(seed * _LOSS_SEED_MUL + _LOSS_SEED_OFF)
    uniform = rng.random
    for switch in net.all_switches():
        rate = loss.rate_for(switch.level)
        if rate <= 0.0:
            continue

        def drop(pkt, rate=rate, uniform=uniform):
            return uniform() < rate

        switch.drop_filter = drop
