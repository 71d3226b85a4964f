"""Transport base class and the shared loss-recovery contract.

A transport lives on a host.  The host NIC *pulls* packets from it
(``next_packet``) whenever the uplink is free, and fully arrived packets
are *pushed* to it (``on_packet``) after the host software delay.
Control packets always take precedence over data packets (paper
section 3.2: "Control packets such as GRANTs and RESENDs are always
given priority over DATA packets").

Loss recovery (docs/FABRICS.md): every protocol that runs on a lossy
or faulty fabric shares one audited state machine —
:class:`RecoveryConfig` (detection timeout, exponential backoff,
bounded give-up budget) drives a :class:`RecoveryTracker` per
direction.  The tracker owns timer arming; the protocol supplies only
the two hooks (*expire* = retransmit / re-request, *give up* = retire
the message and count it).  Give-ups and retransmissions flow through
the shared counters below into ``metrics/control.py`` ControlTraffic.
The baselines also share one receiver (``_inbound_for`` / ``_record``
/ ``_complete`` / ``_in_give_up``) and one sender retry-budget gate
(``_recovery_round``); each keeps only its ACK format and its own
per-message state.
On clean fabrics the registry passes ``recovery=None`` and none of
this machinery schedules a single event, keeping the clean-fabric
slowdown digests byte-identical (default-off stays default-off).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.core.engine import Simulator
from repro.core.packet import Packet
from repro.transport.messages import InboundMessage


class RecoveryConfig:
    """Loss-recovery policy: detection timeout, backoff, give-up budget.

    ``base_ps`` is the silence interval after which a message is
    presumed to have lost packets; retry *k* waits
    ``base_ps * factor**k`` capped at ``cap_ps``.  After ``max_tries``
    fruitless retries the message is retired (a give-up) — the budget
    is what bounds event exhaustion on a dead path.
    """

    __slots__ = ("base_ps", "factor", "cap_ps", "max_tries")

    def __init__(self, base_ps: int, *, factor: int = 2,
                 cap_ps: int | None = None, max_tries: int = 6) -> None:
        if base_ps <= 0:
            raise ValueError(f"recovery base_ps must be positive, got {base_ps}")
        self.base_ps = base_ps
        self.factor = factor
        self.cap_ps = cap_ps if cap_ps is not None else 4 * base_ps
        self.max_tries = max_tries

    def interval_ps(self, tries: int) -> int:
        """Backoff delay before retry number ``tries`` (0-based)."""
        delay = self.base_ps * self.factor ** tries
        return delay if delay < self.cap_ps else self.cap_ps

    @property
    def horizon_ps(self) -> int:
        """Upper bound on the silence a watched message can survive
        (every retry at the cap); done-memory retention must exceed it
        so a slow retrier never sees its peer forget a completion."""
        return (self.max_tries + 2) * self.cap_ps


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

    def __len__(self) -> int:
        return len(self._watch)

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
            if state[0] > policy.max_tries:
                del self._watch[key]
                self.on_give_up(key)
            else:
                state[1] = now + policy.interval_ps(state[0])
                self.on_expire(key, state[0])
        self._arm()


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
        self.ctrl: deque[Packet] = deque()
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
        # messages, kept for the peer's worst-case retry *spacing* so
        # late retransmissions are re-acknowledged instead of
        # re-registered (duplicate delivery must be idempotent).  Every
        # re-ACK refreshes the entry, so retention only needs to exceed
        # the gap between consecutive retries, not the total retry span.
        # Protocols whose retry timers run on their own scale (PIAS's
        # RTO floor) must raise ``_done_horizon_ps`` accordingly.
        # Insertion-ordered by expiry, purged from the front on insert.
        self._done_memory: dict[int, int] = {}
        self._done_horizon_ps = recovery.horizon_ps if recovery else 0
        #: receiver state: message key -> partially received message
        self.inbound: dict[int, InboundMessage] = {}
        # Receiver GC of partial inbound messages (None on clean fabrics).
        self._in_watch = self._tracker(self._in_expire, self._in_give_up)

    # ------------------------------------------------------------------
    # host binding
    # ------------------------------------------------------------------

    def bind(self, host) -> None:
        self.host = host
        self.hid = host.hid
        # Shadow the method with the NIC's bound kick, and keep a direct
        # egress reference: transports touch these once or more per
        # packet, so skip the attribute chase.
        self.kick = host.egress.kick
        self._egress = host.egress

    def kick(self) -> None:
        """Tell the NIC that new work may be available."""
        self.host.egress.kick()

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
            return self.ctrl.popleft()
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
        """Mark an inbound message complete and notify the application."""
        message.completed = True
        self.messages_received += 1
        self.bytes_received += message.length
        if self.on_message_complete is not None:
            self.on_message_complete(message, self.sim.now)

    # ------------------------------------------------------------------
    # the baselines' shared receiver: register, record, complete, GC
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
        if self._in_watch is not None and self._recently_done(key):
            self._note_done(key)  # refresh: the peer is still retrying
            self._reack(pkt)
            return None
        msg = InboundMessage(pkt.rpc_id, pkt.is_request, pkt.src, self.hid,
                             pkt.total_length, now_ps=self.sim.now)
        msg.created_ps = pkt.created_ps
        msg.app_meta = pkt.app_meta
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
        retransmissions, and report it."""
        key = msg.key
        del self.inbound[key]
        self._forget_inbound(key)
        if self._in_watch is not None:
            self._in_watch.forget(key)
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
        give-up budget under ``policy`` (the flow carries ``rec_rounds``
        and its backoff anchor ``rec_last_ps``).  Returns True when the
        caller should act: always with no policy (clean fabric), else
        once the backoff has elapsed with budget left.  On exhaustion the
        flow is retired through the sender's ``_retire(flow)``."""
        if policy is None:
            return True
        bounded = min(flow.rec_rounds, policy.max_tries)
        if now - flow.rec_last_ps < policy.interval_ps(bounded):
            return False
        flow.rec_rounds += 1
        flow.rec_last_ps = now
        if flow.rec_rounds > policy.max_tries:
            self._retire(flow)
            self.outbound_gaveups += 1
            return False
        return True

    def _note_done(self, key: int) -> None:
        """Remember (or refresh) a completed inbound message for the
        peer's retry spacing (no-op on clean fabrics).  Protocols call
        this again from their re-ACK branch so a slowly backing-off
        retrier never outlives the memory of its own completion."""
        if self.recovery is None:
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

    def _recently_done(self, key: int) -> bool:
        """True if ``key`` completed within the peer's retry spacing —
        a data packet for it is a late retransmission to re-acknowledge,
        not a new message."""
        expiry = self._done_memory.get(key)
        return expiry is not None and expiry >= self.sim.now
