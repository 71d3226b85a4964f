"""Property-based end-to-end invariants of the Homa implementation.

Hypothesis drives randomized message schedules through a real network
and checks the properties the protocol must never violate:

* conservation — every submitted message is delivered exactly once;
* physicality — nothing completes faster than the unloaded oracle;
* flow control — granted-but-unreceived never exceeds the grant window
  (RTTbytes plus the batch pacing slack, modulo packet rounding) for
  any inbound message;
* overcommitment — no single scheduling pass extends grants to more
  messages than the configured degree.

Conservation/physicality run in both grant-pacing modes (legacy
per-packet and the default batched pacer); the other invariants hold
for whichever mode the default config selects, with bounds read off
the transport so they track the configuration.

The loss axis re-checks conservation on lossy fabrics: with drops
injected at every tier, an RPC may fail, but it must fail *loudly*
(section 3.7 abort) — at event exhaustion every submitted RPC is
accounted for as a completion or an error, client state has drained,
and any leftover server response is a bounded dead-peer orphan
(docs/FABRICS.md).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.units import MS
from repro.homa.config import HomaConfig

from tests.helpers import collect_completions, fabric_cluster, homa_cluster

# A schedule is a list of (src, dst_offset, size, gap_us) tuples.
schedules = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),   # sender
        st.integers(min_value=1, max_value=5),   # dst = (src + off) % 6
        st.integers(min_value=1, max_value=120_000),  # size
        st.integers(min_value=0, max_value=200),      # gap in us
    ),
    min_size=1, max_size=12,
)


def run_schedule(schedule, homa_cfg=None):
    sim, net, transports = homa_cluster(
        racks=2, hosts_per_rack=3, aggrs=2, homa_cfg=homa_cfg)
    records = collect_completions(transports)
    submitted = []

    clock = 0
    for src, offset, size, gap_us in schedule:
        clock += gap_us * 1_000_000
        dst = (src + offset) % 6
        sim.schedule_at(clock, transports[src].send_message, dst, size)
        submitted.append((src, dst, size))
    sim.run(until_ps=clock + 400 * MS)
    return sim, net, transports, records, submitted


@pytest.mark.parametrize("grant_batch_ns", [0, HomaConfig().grant_batch_ns],
                         ids=["per-packet", "batched"])
@given(schedules)
@settings(max_examples=25, deadline=None)
def test_prop_conservation_and_physicality(grant_batch_ns, schedule):
    cfg = HomaConfig(grant_batch_ns=grant_batch_ns)
    sim, net, transports, records, submitted = run_schedule(
        schedule, homa_cfg=cfg)
    assert len(records) == len(submitted)
    delivered = sorted((msg.src, hid, msg.length) for hid, msg, _ in records)
    assert delivered == sorted(submitted)
    for hid, msg, now in records:
        oracle = net.min_oneway_between(msg.src, hid, msg.length)
        assert now - msg.created_ps >= oracle


@given(schedules)
@settings(max_examples=15, deadline=None)
def test_prop_flow_control_bound(schedule):
    sim, net, transports = homa_cluster(racks=2, hosts_per_rack=3, aggrs=2)
    # grant_window = RTTbytes + the batch pacing slack (0 when the
    # pacer is off); grants are rounded up to whole packets.
    bound = transports[0].grant_window + 1460
    violations = []

    for transport in transports:
        original = transport._schedule_grants

        def checked(*args, t=transport, original=original):
            original(*args)
            for m in t.inbound.values():
                excess = m.granted - m.bytes_received
                if excess > bound:
                    violations.append(excess)

        transport._schedule_grants = checked

    clock = 0
    for src, offset, size, gap_us in schedule:
        clock += gap_us * 1_000_000
        sim.schedule_at(clock, transports[src].send_message,
                        (src + offset) % 6, size)
    sim.run(until_ps=clock + 300 * MS)
    assert not violations


@given(schedules, st.integers(min_value=1, max_value=3))
@settings(max_examples=15, deadline=None)
def test_prop_overcommitment_degree_respected(schedule, degree):
    """No single scheduling pass extends grants to more than ``degree``
    messages.  That is the contract the receiver actually enforces:
    grants are never retracted, so a message granted while it ranked in
    the top-K keeps its outstanding window after a shorter message
    preempts it — the *cumulative* number of partially-granted messages
    can therefore legitimately exceed the degree (hypothesis finds such
    schedules: two concurrent ~8-packet messages at degree 1), but each
    pass only ever feeds the top-K active set."""
    cfg = HomaConfig(n_sched_override=degree)
    sim, net, transports = homa_cluster(racks=2, hosts_per_rack=3, aggrs=2,
                                        homa_cfg=cfg)
    over_limit = []

    for transport in transports:
        original = transport._schedule_grants

        def checked(*args, t=transport, original=original):
            before = {key: m.granted for key, m in t.inbound.items()}
            original(*args)
            # No inbound message appears between the snapshot and the
            # pass, so every increase is a GRANT this pass emitted.
            extended = sum(
                1 for key, m in t.inbound.items()
                if m.granted > before.get(key, m.granted))
            if extended > degree:
                over_limit.append(extended)
        transport._schedule_grants = checked

    clock = 0
    for src, offset, size, gap_us in schedule:
        clock += gap_us * 1_000_000
        sim.schedule_at(clock, transports[src].send_message,
                        (src + offset) % 6, size)
    sim.run(until_ps=clock + 300 * MS)
    assert not over_limit


@given(st.lists(st.integers(min_value=1, max_value=60_000),
                min_size=2, max_size=8))
@settings(max_examples=20, deadline=None)
def test_prop_rpc_conservation(sizes):
    """Every RPC completes exactly once with the echoed length."""
    from repro.apps.echo import echo_handler

    sim, net, transports = homa_cluster(racks=1, hosts_per_rack=4, aggrs=0)
    for transport in transports[1:]:
        transport.rpc_handler = echo_handler
    done = []
    for index, size in enumerate(sizes):
        transports[0].send_rpc(1 + index % 3, size,
                               on_response=lambda rid, msg:
                               done.append(msg.length))
    sim.run(until_ps=400 * MS)
    assert sorted(done) == sorted(sizes)
    assert not transports[0].client_rpcs


@given(schedules,
       st.sampled_from([0.01, 0.03, 0.08]),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=8, deadline=None)
def test_prop_rpc_conservation_under_loss(schedule, rate, seed):
    """Conservation at event exhaustion on a lossy fabric.

    With drops injected at every TOR an RPC may fail, but it must fail
    loudly: every submission ends as exactly one completion or one
    error (3.7 abort), client-side state drains completely, and the
    only leftover sender state is dead-peer response orphans — bounded
    by the errors and re-executions that created them.
    """
    from repro.apps.echo import echo_handler
    from repro.core.faults import LossRates
    from repro.core.topology import TopologySpec

    spec = TopologySpec(levels=2, racks=2, hosts_per_rack=3, aggrs=1,
                        loss=LossRates(tor=rate))
    sim, net, transports = fabric_cluster(spec, seed=seed)
    for transport in transports:
        transport.rpc_handler = echo_handler
    stats = {"done": 0, "errors": 0}

    def submit(src, dst, size):
        transports[src].send_rpc(
            dst, size,
            on_response=lambda rid, msg: stats.update(
                done=stats["done"] + 1),
            on_error=lambda rid: stats.update(
                errors=stats["errors"] + 1))

    clock = 0
    for src, offset, size, gap_us in schedule:
        clock += gap_us * 1_000_000
        sim.schedule_at(clock, submit, src, (src + offset) % 6, size)
    sim.run()  # to exhaustion: retry budgets guarantee termination

    assert stats["done"] + stats["errors"] == len(schedule)
    orphans = 0
    for transport in transports:
        assert not transport.client_rpcs
        assert not transport.inbound
        for msg in transport.outbound.values():
            # Dead-peer orphan: an inert response whose client is gone.
            assert not msg.is_request
            assert msg.rpc_id not in transports[msg.dst].client_rpcs
            orphans += 1
    allowance = (stats["errors"]
                 + sum(t.reexecutions for t in transports))
    assert orphans <= allowance


# ---------------------------------------------------------------------------
# pinned seeds: at-most-once bugs the benchmark wrote down (ROADMAP item 1)
# ---------------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: a 5 MB W4 message starved behind shorter ones "
    "outlives max_resends x resend_interval; the receiver gives up, the "
    "sender restarts from scratch and both copies complete (1399 "
    "completions of 1398 submissions).  Delete this mark with the fix."))
def test_homa_w4_seed10_delivers_at_most_once():
    """``benchmarks/perf`` workload ``homa_w4_clean`` at seed 10: the
    paper's Figure 11 fabric, clean, per-packet grants."""
    from repro.experiments.runner import ExperimentConfig, run_experiment

    result = run_experiment(ExperimentConfig(
        protocol="homa", workload="W4", load=0.8,
        racks=9, hosts_per_rack=16, aggrs=4,
        duration_ms=3.0, warmup_ms=0.5, drain_ms=100.0,
        max_messages=1440, seed=10, homa=HomaConfig(grant_batch_ns=0)))
    assert result.duplicates == 0
    assert result.completed <= result.submitted


@pytest.mark.slow
@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: W4@0.8 on a clean 3x8 fabric at seed 5 completes "
    "1801 of 1800 messages with no give-up, so it is not seed 10's "
    "give-up-then-restart path.  Suspect: a RESEND-driven retransmission "
    "arrives after completion and re-registers, because Homa keeps no "
    "done-memory on clean fabrics.  Delete this mark with the fix."))
def test_homa_w4_seed5_delivers_at_most_once():
    """A 7 s clean-fabric duplicate with the default (timer) grant
    pacer: 1,800 submitted, 17 RESENDs, 0 give-ups, 0 aborts.
    Per-packet grants (``grant_batch_ns=0``) duplicate the same way."""
    from repro.experiments.runner import ExperimentConfig, run_experiment

    result = run_experiment(ExperimentConfig(
        protocol="homa", workload="W4", load=0.8,
        racks=3, hosts_per_rack=8, aggrs=2,
        duration_ms=25, warmup_ms=0.5, drain_ms=40,
        max_messages=1800, seed=5, homa=HomaConfig()))
    assert result.duplicates == 0
    assert result.completed <= result.submitted


@pytest.mark.slow
@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: stream and stream_mc over-deliver on the lossy, "
    "faulted 3-level fabric (18,970 completions of 18,817 submissions at "
    "seed 306, 19,244 of 19,080 at seed 307).  Delete this mark with "
    "the fix."))
@pytest.mark.parametrize("protocol,seed", [("stream", 306),
                                           ("stream_mc", 307)])
def test_stream_lossy_3level_delivers_at_most_once(protocol, seed):
    """``protocols_w3_lossy3``'s fabric (32 hosts) and cell seeds for
    the two stream transports, with W3@0.5 for 1 ms after a 0.5 ms
    warm-up."""
    from repro.experiments.runner import ExperimentConfig, run_experiment

    from tests.test_recovery import lossy_3level_spec

    result = run_experiment(ExperimentConfig(
        protocol=protocol, workload="W3", load=0.5, duration_ms=1.0,
        warmup_ms=0.5, drain_ms=20.0, seed=seed,
        fabric=lossy_3level_spec(window_ms=1.5, hosts_per_rack=8)))
    assert result.completed <= result.submitted


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: pHost strands messages on a clean fabric (45 of "
    "9,234, 48 of 9,226 and 41 of 9,176 undelivered at seeds 1-3, no "
    "duplicates).  Tokens expire unused at a busy sender and the "
    "receiver never re-issues them.  Delete this mark with the fix."))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_phost_clean_fabric_strands_nothing(seed):
    """pHost W3@0.5 on a clean 2x4 fabric, 1 ms of traffic and a 100 ms
    drain: every submitted message must be delivered."""
    from repro.experiments.runner import ExperimentConfig, run_experiment

    result = run_experiment(ExperimentConfig(
        protocol="phost", workload="W3", load=0.5,
        racks=2, hosts_per_rack=4, aggrs=2,
        duration_ms=1.0, drain_ms=100.0, seed=seed))
    assert result.pending == 0
