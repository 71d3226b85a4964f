"""Transport base class and the shared loss-recovery contract.

A transport lives on a host.  The host NIC *pulls* packets from it
(``next_packet``) whenever the uplink is free, and fully arrived packets
are *pushed* to it (``on_packet``) after the host software delay.
Control packets always take precedence over data packets (paper
section 3.2: "Control packets such as GRANTs and RESENDs are always
given priority over DATA packets").

Loss recovery (docs/FABRICS.md): every protocol that runs on a lossy
or faulty fabric shares one audited state machine —
:class:`RecoveryConfig` (the detection timeout) and this module's
backoff constants (exponential backoff, bounded give-up budget) drive a
:class:`RecoveryTracker` per direction.  The tracker owns timer arming;
the protocol supplies only its repair action.  Give-ups and
retransmissions flow through the shared counters below into
``metrics/control.py`` ControlTraffic.
Every transport shares one receiver (``_inbound_for`` / ``_record``
/ ``_complete`` / ``_in_give_up``, with a done-memory for late copies)
and one sender exit (``outbound`` left through ``_retire`` /
``_out_give_up``); the baselines also share the sender's watch
(``_out_watch``) and the retry-budget gate ``_recovery_round``.  Each
protocol keeps only its packet formats, its repair action and its own
per-message state.
On clean fabrics the registry passes ``recovery=None`` and none of
this machinery schedules a single event, keeping the clean-fabric
slowdown digests byte-identical (default-off stays default-off).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional

from repro.core.engine import Simulator
from repro.core.packet import MAX_PAYLOAD, Packet
from repro.transport.messages import InboundMessage

#: backoff multiplier: retry *k* waits ``base_ps * BACKOFF_FACTOR**k``
BACKOFF_FACTOR = 2
#: ceiling on any single backoff interval, in multiples of ``base_ps``
BACKOFF_CAP = 4
#: fruitless retries before a message is retired (a give-up)
MAX_TRIES = 6


class RecoveryConfig:
    """Loss-recovery policy: the detection timeout.

    ``base_ps`` is the silence interval after which a message is
    presumed to have lost packets; retry *k* waits
    ``base_ps * BACKOFF_FACTOR**k`` capped at ``BACKOFF_CAP * base_ps``.
    After ``MAX_TRIES`` fruitless retries the message is retired (a
    give-up) — the budget is what bounds event exhaustion on a dead path.
    """

    __slots__ = ("base_ps",)

    def __init__(self, base_ps: int) -> None:
        if base_ps <= 0:
            raise ValueError(f"recovery base_ps must be positive, got {base_ps}")
        self.base_ps = base_ps

    def interval_ps(self, tries: int) -> int:
        """Backoff delay before retry number ``tries`` (0-based)."""
        delay = self.base_ps * BACKOFF_FACTOR ** tries
        cap = BACKOFF_CAP * self.base_ps
        return delay if delay < cap else cap

    @property
    def horizon_ps(self) -> int:
        """Upper bound on the silence a watched message can survive
        (every retry at the cap); done-memory retention must exceed it
        so a slow retrier never sees its peer forget a completion."""
        return (MAX_TRIES + 2) * BACKOFF_CAP * self.base_ps


class RecoveryTracker:
    """Per-key loss-detection timer with backoff and give-up budget.

    A protocol ``watch()``-es a message key while bytes are
    outstanding, ``touch()``-es it on progress (resetting the retry
    count), and ``forget()``-s it on completion.  One simulator timer
    per tracker sweeps the watched keys every ``base_ps // 2``; a key
    silent past its deadline fires ``on_expire(key, tries)`` and backs
    off, and once the budget is exhausted fires ``on_give_up(key)``
    (after forgetting the key, so the hook may re-watch deliberately).
    """

    __slots__ = ("sim", "policy", "on_expire", "on_give_up",
                 "_watch", "_timer")

    def __init__(self, sim: Simulator, policy: RecoveryConfig, *,
                 on_expire: Callable[[int, int], None],
                 on_give_up: Callable[[int], None]) -> None:
        self.sim = sim
        self.policy = policy
        self.on_expire = on_expire
        self.on_give_up = on_give_up
        self._watch: dict[int, list[int]] = {}  # key -> [tries, deadline_ps]
        self._timer = None

    def watch(self, key: int) -> None:
        """Start (or keep) tracking ``key``; no-op if already watched."""
        if key not in self._watch:
            self._watch[key] = [0, self.sim.now + self.policy.interval_ps(0)]
            self._arm()

    def touch(self, key: int) -> None:
        """Progress signal: reset the retry budget and push the deadline."""
        state = self._watch.get(key)
        if state is not None:
            state[0] = 0
            state[1] = self.sim.now + self.policy.interval_ps(0)

    def forget(self, key: int) -> None:
        self._watch.pop(key, None)

    def _arm(self) -> None:
        if self._timer is not None and Simulator.is_pending(self._timer):
            return
        if self._watch:
            self._timer = self.sim.schedule(
                self.policy.base_ps // 2, self._sweep)

    def _sweep(self) -> None:
        self._timer = None
        now = self.sim.now
        policy = self.policy
        for key, state in list(self._watch.items()):
            if self._watch.get(key) is not state or now < state[1]:
                continue  # not yet due, or a prior hook retired/reset it
            state[0] += 1
            if state[0] > MAX_TRIES:
                del self._watch[key]
                self.on_give_up(key)
            else:
                state[1] = now + policy.interval_ps(state[0])
                self.on_expire(key, state[0])
        self._arm()


def gap_chunks(gaps: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """``(offset, size)`` of the packets that cover ``gaps`` in order,
    each at most ``MAX_PAYLOAD``; a gap ending mid-packet ends in a
    short chunk.  Callers bound how many they take per expiry."""
    for start, end in gaps:
        for offset in range(start, end, MAX_PAYLOAD):
            yield offset, min(MAX_PAYLOAD, end - offset)


class Transport:
    """Common state and hooks; protocols override the abstract parts."""

    protocol_name = "base"

    def __init__(self, sim: Simulator,
                 recovery: RecoveryConfig | None = None) -> None:
        self.sim = sim
        self.host = None
        #: host id; set by bind() (a plain attribute, not a property:
        #: transports read it per packet)
        self.hid = None
        self.ctrl: list[Packet] = []
        #: called as fn(inbound_message, completion_time_ps)
        self.on_message_complete: Optional[Callable[[InboundMessage, int], None]] = None
        #: messages fully received (count; bodies reported via the hook)
        self.messages_received = 0
        self.bytes_received = 0
        #: loss-recovery policy; None on clean fabrics (the machinery
        #: below then never schedules an event — digest-neutral)
        self.recovery = recovery
        # Shared recovery accounting (metrics/control.py ControlTraffic).
        self.rtx_data_sent = 0      # retransmitted DATA packets
        self.rtx_recovered = 0      # retransmitted DATA that filled a gap
        self.inbound_gaveups = 0    # inbound messages retired by the receiver
        self.outbound_gaveups = 0   # outbound messages retired by the sender
        # Completed-message memory: keys of recently finished inbound
        # messages, kept for the peer's whole retry span (its retry
        # policy's ``horizon_ps``) so late retransmissions are
        # re-acknowledged instead of re-registered (duplicate delivery
        # must be idempotent).  One retry *spacing* is not enough: the
        # retries themselves can be lost, leaving the receiver silent
        # for several spacings.  Every re-ACK refreshes the entry.
        # Protocols whose retries run on their own scale (PIAS's RTO,
        # Homa's RESEND timer) set ``_done_horizon_ps`` to that policy's
        # horizon; at 0 nothing is remembered.
        # Insertion-ordered by expiry, purged from the front on insert.
        self._done_memory: dict[int, int] = {}
        self._done_horizon_ps = recovery.horizon_ps if recovery else 0
        #: receiver state: message key -> partially received message
        self.inbound: dict[int, InboundMessage] = {}
        # Receiver GC of partial inbound messages (None on clean fabrics).
        self._in_watch = self._tracker(self._in_expire, self._in_give_up)
        #: sender state: message key -> the protocol's per-message
        #: record, from ``send_message`` until ``_retire``
        self.outbound: dict = {}
        # Sender ACK-silence timer of the tracker-driven baselines (None
        # on clean fabrics; pFabric and PIAS gate on their RTO instead).
        self._out_watch = self._tracker(self._out_expire, self._out_give_up)

    # ------------------------------------------------------------------
    # host binding
    # ------------------------------------------------------------------

    def bind(self, host) -> None:
        self.host = host
        self.hid = host.hid
        # ``self.kick()`` tells the NIC that new work may be available.
        # Bind it, and keep a direct egress reference: transports touch
        # these once or more per packet, so skip the attribute chase.
        self.kick = host.egress.kick
        self._egress = host.egress

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def send_ctrl(self, pkt: Packet) -> None:
        """Queue a control packet (highest priority, FIFO)."""
        egress = self._egress
        if egress.busy:
            # The NIC pulls the ctrl queue first when the wire frees.
            self.ctrl.append(pkt)
        elif self.ctrl:
            self.ctrl.append(pkt)
            egress.kick()
        else:
            # Idle NIC, empty ctrl queue: the pull would return exactly
            # this packet — hand it straight to the wire.
            egress._transmit(pkt)

    def next_packet(self) -> Optional[Packet]:
        """NIC pull: control first, then protocol-chosen data."""
        if self.ctrl:
            return self.ctrl.pop(0)  # simlint: ok(quadratic-pop) — a NIC control FIFO held at most 17 packets on any measured run; a deque costs 760 B per host (docs/PERFORMANCE.md, "Switch-port and NIC FIFOs")
        return self._next_data()

    def _next_data(self) -> Optional[Packet]:
        raise NotImplementedError

    def send_message(self, dst: int, length: int, **kwargs):
        raise NotImplementedError

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------

    def on_packet(self, pkt: Packet) -> None:
        raise NotImplementedError

    def _report_complete(self, message: InboundMessage) -> None:
        """Count an inbound message complete and notify the application."""
        self.messages_received += 1
        self.bytes_received += message.length
        if self.on_message_complete is not None:
            self.on_message_complete(message, self.sim.now)

    # ------------------------------------------------------------------
    # the shared receiver: register, record, complete, GC
    # ------------------------------------------------------------------

    def _inbound_for(self, pkt: Packet) -> Optional[InboundMessage]:
        """The inbound message ``pkt`` belongs to, registered on first
        sight; None for a late copy of a recently completed message,
        which is re-acknowledged (``self._reack(pkt)``, supplied by each
        protocol that calls this) and never re-registered — a fresh
        partial inbound there is a duplicate delivery waiting to
        complete."""
        key = pkt.msg_key
        msg = self.inbound.get(key)
        if msg is not None:
            return msg
        if self._done_memory and self._late_copy(pkt):
            return None
        msg = InboundMessage(pkt.rpc_id, pkt.is_request, pkt.src, self.hid,
                             pkt.total_length, self.sim.now, pkt.created_ps,
                             pkt.app_meta, pkt.incast)
        self.inbound[key] = msg
        self._registered(msg)
        if self._in_watch is not None:
            self._in_watch.watch(key)
        return msg

    def _record(self, msg: InboundMessage, pkt: Packet) -> None:
        """Record ``pkt``'s bytes; a retransmission that filled a gap
        counts as recovered, and any arrival is progress."""
        if msg.record(pkt.offset, pkt.payload, self.sim.now) and pkt.retx:
            self.rtx_recovered += 1
        if self._in_watch is not None:
            self._in_watch.touch(msg.key)

    def _complete(self, msg: InboundMessage) -> None:
        """Retire a fully received message, remember it for late
        retransmissions (every message under ``_in_watch``; otherwise
        only one this host asked to be resent), and report it."""
        key = msg.key
        del self.inbound[key]
        self._forget_inbound(key)
        if self._in_watch is not None:
            self._in_watch.forget(key)
            self._note_done(key)
        elif msg.resent:
            self._note_done(key)
        self._report_complete(msg)

    def _registered(self, msg: InboundMessage) -> None:
        """Hook: per-message receiver state for a new inbound message."""

    def _forget_inbound(self, key: int) -> None:
        """Hook: drop that state again (completion or give-up)."""

    def _in_expire(self, key: int, tries: int) -> None:
        """A passive receiver — the sender's timer owns retransmission —
        lets expiries just burn down the GC budget."""

    def _in_give_up(self, key: int) -> None:
        """Sender went silent mid-message: GC the partial inbound."""
        if self.inbound.pop(key, None) is not None:
            self.inbound_gaveups += 1
            self._forget_inbound(key)

    # ------------------------------------------------------------------
    # the shared sender: register, retire, retry, give up
    # ------------------------------------------------------------------

    def _watch_outbound(self, key: int, record) -> None:
        """Register ``record`` as message ``key``'s sender state and,
        under recovery, watch it for ACK silence."""
        self.outbound[key] = record
        if self._out_watch is not None:
            self._out_watch.watch(key)

    def _retire(self, key: int) -> None:
        """The one exit of an outbound message — fully acknowledged, or
        given up by the tracker or ``_recovery_round``: drop its record
        and its watch, then let the protocol release the rest."""
        record = self.outbound.pop(key)
        if self._out_watch is not None:
            self._out_watch.forget(key)
        self._forget_outbound(record)

    def _forget_outbound(self, record) -> None:
        """Hook: release the protocol's other per-message sender state."""

    def _repair(self, record) -> None:
        """Hook: the protocol's repair action when ``_out_watch``
        expires on a message (re-announce, retransmit, re-request)."""

    def _out_expire(self, key: int, tries: int) -> None:
        """ACK silence past the backoff deadline: repair the message
        (every watched key has a record until ``_retire``)."""
        self._repair(self.outbound[key])

    def _out_give_up(self, key: int) -> None:
        """Retry budget spent: retire the message, loudly."""
        self.outbound_gaveups += 1
        self._retire(key)

    # ------------------------------------------------------------------
    # shared loss-recovery helpers (active only with a RecoveryConfig)
    # ------------------------------------------------------------------

    def _tracker(self, on_expire, on_give_up) -> Optional[RecoveryTracker]:
        """A RecoveryTracker under this transport's policy, or None on a
        clean fabric (callers guard every use on the tracker)."""
        if self.recovery is None:
            return None
        return RecoveryTracker(self.sim, self.recovery,
                               on_expire=on_expire, on_give_up=on_give_up)

    def _recovery_round(self, flow, policy: RecoveryConfig | None,
                        now: int) -> bool:
        """Charge one fruitless recovery round against ``flow``'s
        give-up budget under ``policy`` (the flow carries its ``msg``,
        ``rec_rounds`` and the backoff anchor ``rec_last_ps``).  Returns
        True when the caller should act: always with no policy (clean
        fabric), else once the backoff has elapsed with budget left.  On
        exhaustion the message is given up through ``_out_give_up``."""
        if policy is None:
            return True
        bounded = min(flow.rec_rounds, MAX_TRIES)
        if now - flow.rec_last_ps < policy.interval_ps(bounded):
            return False
        flow.rec_rounds += 1
        flow.rec_last_ps = now
        if flow.rec_rounds > MAX_TRIES:
            self._out_give_up(flow.msg.key)
            return False
        return True

    def _note_done(self, key: int) -> None:
        """Remember (or refresh) a completed inbound message for the
        peer's retry span (no-op while ``_done_horizon_ps`` is 0, as on
        the baselines' clean fabrics).  ``_inbound_for`` calls this
        again on every late copy so a slowly backing-off retrier never
        outlives the memory of its own completion."""
        if not self._done_horizon_ps:
            return
        memory = self._done_memory
        now = self.sim.now
        memory.pop(key, None)  # re-insert at the back (expiry order)
        memory[key] = now + self._done_horizon_ps
        expired = []
        for old_key, expiry in memory.items():
            if expiry >= now:
                break
            expired.append(old_key)
        for old_key in expired:
            del memory[old_key]

    def _late_copy(self, pkt: Packet) -> bool:
        """True if ``pkt``'s message completed within the peer's retry
        span: the packet is a late retransmission, so refresh the
        memory (the peer is still retrying) and re-acknowledge it
        instead of registering a new message."""
        key = pkt.msg_key
        expiry = self._done_memory.get(key)
        if expiry is None or expiry < self.sim.now:
            return False
        self._note_done(key)
        self._reack(pkt)
        return True
