"""The generators' draw path, pinned bit for bit against numpy.

``PoissonSource`` (``OpenLoopSender`` and ``EchoClient``) draws each
message's size with ``EmpiricalCDF.sample_one``, its peer with
``UniformIndex`` and the gap to the next message as
``scale * standard_exponential()``; each replaces a scalar numpy call
(``np.interp``, ``Generator.integers``, ``Generator.exponential``) with
arithmetic that must give the same bits.  A numpy upgrade that changes
any of them fails here, not as a golden-digest diff.
"""

import math

import numpy as np
import pytest

from repro.apps.echo import EchoClient
from repro.apps.openloop import OpenLoopSender
from repro.core.engine import Simulator
from repro.workloads.catalog import WORKLOADS
from repro.workloads import distributions
from repro.workloads.distributions import UniformIndex

PEER_COUNTS = (1, 2, 3, 15, 143, 2**32 - 1)
SCALE = 1e12 / 12_345.0  # a mean inter-arrival in ps


def test_uniform_index_matches_integers_as_the_senders_draw():
    """Per message a sender draws random(), then the peer, then the
    next gap; the peer draw must match ``integers(n)`` at every step
    of that interleaving (one gap is drawn first, at construction)."""
    for seed in range(1, 21):
        for n in PEER_COUNTS:
            ref = np.random.default_rng(seed)
            rng = np.random.default_rng(seed)
            index = UniformIndex(rng)
            assert ref.exponential(SCALE) == SCALE * rng.standard_exponential()
            for _ in range(200):
                assert ref.random() == rng.random()
                assert ref.integers(n) == index.draw(n), (seed, n)
                assert (ref.exponential(SCALE)
                        == SCALE * rng.standard_exponential())


def test_uniform_index_rejection_loop_matches_integers():
    """n = 3 * 2**30 rejects a quarter of the 32-bit words, so the
    rejection loop runs hundreds of times here."""
    n = 3 * 2**30
    ref = np.random.default_rng(7)
    index = UniformIndex(np.random.default_rng(7))
    assert [int(ref.integers(n)) for _ in range(2000)] == [
        index.draw(n) for _ in range(2000)]


def test_uniform_index_of_one_draws_nothing():
    ref = np.random.default_rng(3)
    rng = np.random.default_rng(3)
    index = UniformIndex(rng)
    assert [index.draw(1) for _ in range(5)] == [0] * 5
    assert ref.integers(1) == 0
    assert ref.random() == rng.random()


def test_uniform_index_refuses_a_range_past_32_bits():
    index = UniformIndex(np.random.default_rng(1))
    with pytest.raises(ValueError):
        index.draw(2**32)


class _FixedU:
    """A stand-in generator whose ``random()`` returns a chosen u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def _interp_size(cdf, log_size):
    return max(1, round(math.exp(float(log_size)))) * cdf.unit_bytes


class _ExpSpy:
    """Stands in for the ``math`` module ``sample_one`` calls: records
    the log-size it exponentiates, so the test sees the float itself."""

    def __init__(self):
        self.logs = []

    def exp(self, x):
        self.logs.append(x)
        return math.exp(x)


@pytest.mark.parametrize("name", ["W1", "W2", "W3", "W4", "W5"])
def test_sample_one_matches_np_interp(name, monkeypatch):
    """At every anchor (u exactly a quantile: ``np.interp`` returns the
    anchor's log) and at 10**5 uniform draws: the same log-size bit for
    bit, hence the same size."""
    cdf = WORKLOADS[name].cdf
    spy = _ExpSpy()
    monkeypatch.setattr(distributions, "math", spy)
    us = [*cdf._qs.tolist(), *np.random.default_rng(11).random(100_000)]
    sizes = [cdf.sample_one(_FixedU(float(u))) for u in us]
    monkeypatch.undo()
    logs = np.interp(us, cdf._qs, cdf._logs).tolist()
    assert spy.logs == logs
    assert sizes == [_interp_size(cdf, log_size) for log_size in logs]
    # the scalar np.interp the generators called, at the anchors
    assert spy.logs[:len(cdf._qs)] == [
        float(np.interp(q, cdf._qs, cdf._logs)) for q in cdf._qs]


@pytest.mark.parametrize("name", ["W1", "W4", "W5"])
def test_sample_one_is_sample_of_one(name):
    """``sample_one(rng)`` and the vectorized ``sample(rng, 1)`` take
    the same draw from the same stream."""
    cdf = WORKLOADS[name].cdf
    a = np.random.default_rng(5)
    b = np.random.default_rng(5)
    for _ in range(2000):
        assert cdf.sample_one(a) == int(cdf.sample(b, 1)[0])


class _Sink:
    """A transport stub that records what a generator submits."""

    def __init__(self, sim):
        self.sim = sim
        self.sent = []

    def send_message(self, dst, size):
        self.sent.append((self.sim.now, dst, size))

    def send_rpc(self, dst, size, on_response=None, on_error=None):
        self.sent.append((self.sim.now, dst, size))
        return len(self.sent)


def _reference(seed, peers, cdf, count):
    """The generators' schedule, drawn with numpy's scalar calls."""
    rng = np.random.default_rng(seed)
    now = int(rng.exponential(SCALE)) + 1
    out = []
    for _ in range(count):
        log_size = np.interp(rng.random(), cdf._qs, cdf._logs)
        size = _interp_size(cdf, log_size)
        out.append((now, peers[rng.integers(len(peers))], size))
        now += int(rng.exponential(SCALE)) + 1
    return out


@pytest.mark.parametrize("generator", [OpenLoopSender, EchoClient])
@pytest.mark.parametrize("n_peers", [1, 3, 15, 143])
def test_generators_draw_what_numpy_draws(generator, n_peers):
    cdf = WORKLOADS["W1"].cdf
    peers = list(range(100, 100 + n_peers))
    for seed in (1, 2, 42):
        sim = Simulator()
        sink = _Sink(sim)
        generator(sim, sink, peers, cdf, 12_345.0, seed=seed,
                  stop_ps=10**15)
        sim.run(until_ps=300 * int(SCALE))
        assert len(sink.sent) > 200
        assert sink.sent == _reference(seed, peers, cdf, len(sink.sent))

