"""Per-rule fixture tests for simlint (src/repro/analysis).

Each rule gets a minimal failing snippet, a passing snippet, and a
pragma-waiver case; the suite ends with the self-check the acceptance
contract names: the real repo is clean modulo the committed baseline,
and the CLI exits non-zero when a violation is injected.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.analysis import (
    DEFAULT_TARGETS,
    REPO_ROOT,
    RULES,
    Module,
    Project,
    analyze_source,
    diff_baseline,
    load_baseline,
    run,
)
from repro.analysis.core import DEFAULT_BASELINE


def findings(source, *, rel="src/repro/core/snippet.py", rules=None, **kw):
    return analyze_source(
        textwrap.dedent(source), rel=rel, rules=rules, **kw
    ).findings


def rule_hits(source, rule, **kw):
    return [f for f in findings(source, rules=[rule], **kw) if f.rule == rule]


# -- registry completeness ----------------------------------------------


def test_every_rule_has_fixture_coverage():
    """The registry holds exactly the documented rule families."""
    assert set(RULES) == {
        "det-unseeded-rng",
        "det-wallclock",
        "det-set-order",
        "det-id-order",
        "det-float-time-eq",
        "fault-determinism",
        "hot-alloc",
        "quadratic-pop",
        "payload-roundtrip",
        "doc-drift",
        "registry-hooks",
        "sched-arity",
        "campaign-registry",
        "units",
    }
    assert RULES["hot-alloc"].tier == "advisory"


# -- det-unseeded-rng ---------------------------------------------------


def test_unseeded_rng_fails():
    hits = rule_hits(
        """
        import random
        x = random.random()
        """,
        "det-unseeded-rng",
    )
    assert [f.detail for f in hits] == ["random.random"]


def test_unseeded_rng_catches_zero_arg_ctors_and_aliases():
    src = """
        import numpy as np
        from random import Random
        a = np.random.default_rng()
        b = np.random.rand(3)
        c = Random()
        np.random.seed(1)
        """
    assert sorted(f.detail for f in rule_hits(src, "det-unseeded-rng")) == [
        "numpy.random.default_rng",
        "numpy.random.rand",
        "numpy.random.seed",
        "random.Random",
    ]


def test_seeded_rng_passes():
    src = """
        import random
        import numpy as np
        r = random.Random(42)
        g = np.random.default_rng(7 * 99_991)
        x = r.random() + g.random()
        """
    assert rule_hits(src, "det-unseeded-rng") == []


def test_unseeded_rng_pragma_waives():
    src = """
        import random
        x = random.random()  # simlint: ok(det-unseeded-rng) — fixture: entropy is the point here
        """
    result = analyze_source(
        textwrap.dedent(src), rules=["det-unseeded-rng"]
    )
    assert result.findings == []
    assert [f.rule for f in result.waived] == ["det-unseeded-rng"]


# -- det-wallclock ------------------------------------------------------


def test_wallclock_fails_in_sim_packages():
    src = """
        import time
        t = time.perf_counter()
        """
    hits = rule_hits(src, "det-wallclock", rel="src/repro/core/engine2.py")
    assert [f.detail for f in hits] == ["time.perf_counter"]


def test_wallclock_allowed_outside_sim_packages():
    src = """
        import time
        t = time.perf_counter()
        """
    assert rule_hits(src, "det-wallclock", rel="benchmarks/bench_x.py") == []
    assert (
        rule_hits(src, "det-wallclock", rel="src/repro/experiments/x.py")
        == []
    )


def test_wallclock_pragma_waives():
    src = """
        import time
        t = time.monotonic()  # simlint: ok(det-wallclock) — fixture: profiling hook, not sim state
        """
    result = analyze_source(
        textwrap.dedent(src),
        rel="src/repro/core/engine2.py",
        rules=["det-wallclock"],
    )
    assert result.findings == []
    assert len(result.waived) == 1


# -- det-set-order ------------------------------------------------------


def test_set_iteration_fails():
    hits = rule_hits(
        """
        def f(xs):
            for x in set(xs):
                pass
            return [y for y in {1, 2}] + list(xs.keys())
        """,
        "det-set-order",
    )
    assert len(hits) == 3


def test_sorted_set_iteration_passes():
    src = """
        def f(xs, d):
            for x in sorted(set(xs)):
                pass
            for k in d:
                pass
            return sorted(d.keys())
        """
    assert rule_hits(src, "det-set-order") == []


def test_set_order_outside_src_not_flagged():
    src = """
        for x in {1, 2}:
            pass
        """
    assert rule_hits(src, "det-set-order", rel="tests/test_x.py") == []


def test_set_order_pragma_waives():
    src = """
        def f(xs):
            total = 0
            for x in set(xs):  # simlint: ok(det-set-order) — fixture: order-insensitive sum
                total += x
            return total
        """
    result = analyze_source(textwrap.dedent(src), rules=["det-set-order"])
    assert result.findings == []
    assert len(result.waived) == 1


# -- det-id-order -------------------------------------------------------


def test_id_order_fails():
    hits = rule_hits(
        """
        def f(objs):
            objs.sort(key=id)
            return sorted(id(o) for o in objs)
        """,
        "det-id-order",
        rel="tests/test_x.py",
    )
    assert len(hits) == 2


def test_stable_key_sort_passes():
    src = """
        def f(ports):
            return sorted(ports, key=lambda p: p.name)
        """
    assert rule_hits(src, "det-id-order") == []


def test_id_order_pragma_waives():
    src = """
        def f(a, b):
            assert sorted(id(p) for p in a) == sorted(id(p) for p in b)  # simlint: ok(det-id-order) — fixture: multiset identity equality
        """
    result = analyze_source(
        textwrap.dedent(src), rel="tests/test_x.py", rules=["det-id-order"]
    )
    assert result.findings == []
    assert len(result.waived) == 2  # both sorted() calls on the line


# -- det-float-time-eq --------------------------------------------------


def test_float_time_eq_fails():
    hits = rule_hits(
        """
        def f(t_ps, total):
            if t_ps == total / 2:
                return True
            return t_ps != 1.5
        """,
        "det-float-time-eq",
    )
    assert len(hits) == 2


def test_integer_time_eq_passes():
    src = """
        def f(t_ps, total):
            return t_ps == total // 2 or t_ps != 0
        """
    assert rule_hits(src, "det-float-time-eq") == []


def test_float_time_eq_pragma_waives():
    src = """
        def f(t_ps):
            return t_ps == float("inf")  # simlint: ok(det-float-time-eq) — fixture: inf sentinel compares exactly
        """
    result = analyze_source(
        textwrap.dedent(src), rules=["det-float-time-eq"]
    )
    assert result.findings == []
    assert len(result.waived) == 1


# -- hot-alloc ----------------------------------------------------------

HOT_MANIFEST = {"src/repro/core/engine.py": frozenset({"hot"})}


def test_hot_alloc_flags_per_call_constructs():
    hits = rule_hits(
        """
        def hot(xs):
            fn = lambda x: x + 1
            squares = [fn(x) for x in xs]
            return "total: {}".format(len(squares))
        """,
        "hot-alloc",
        rel="src/repro/core/engine.py",
        hot_manifest=HOT_MANIFEST,
    )
    kinds = sorted(f.detail.split(":")[0] for f in hits)
    assert kinds == ["closure", "comprehension", "format"]


def test_hot_alloc_ignores_failure_paths_and_cold_functions():
    src = """
        def hot(x):
            if x < 0:
                raise ValueError(f"negative: {x}")
            assert x < 100, f"too big: {x}"
            return x

        def cold(xs):
            return [x for x in xs]
        """
    assert (
        rule_hits(
            src,
            "hot-alloc",
            rel="src/repro/core/engine.py",
            hot_manifest=HOT_MANIFEST,
        )
        == []
    )


def test_hot_alloc_try_in_loop():
    hits = rule_hits(
        """
        def hot(xs):
            for x in xs:
                try:
                    x()
                except KeyError:
                    pass
        """,
        "hot-alloc",
        rel="src/repro/core/engine.py",
        hot_manifest=HOT_MANIFEST,
    )
    assert [f.detail.split(":")[0] for f in hits] == ["try-in-loop"]


def test_hot_alloc_stale_manifest_entry():
    hits = rule_hits(
        "def other():\n    pass\n",
        "hot-alloc",
        rel="src/repro/core/engine.py",
        hot_manifest=HOT_MANIFEST,
    )
    assert [f.detail for f in hits] == ["stale-entry"]


def test_hot_alloc_pragma_waives():
    src = """
        def hot(xs):
            return [x for x in xs]  # simlint: ok(hot-alloc) — fixture: cold branch despite manifest
        """
    result = analyze_source(
        textwrap.dedent(src),
        rel="src/repro/core/engine.py",
        rules=["hot-alloc"],
        hot_manifest=HOT_MANIFEST,
    )
    assert result.findings == []
    assert len(result.waived) == 1


def test_hot_manifest_names_the_baseline_sender_pulls():
    """The per-pull functions of the streaming / PIAS / NDP senders are
    under the hot-alloc rule (and the stale check keeps them honest)."""
    from repro.analysis.rules_hotpath import HOT_FUNCTIONS

    assert HOT_FUNCTIONS["src/repro/transport/rotation.py"] == {
        "ReadyRing.mark", "ReadyRing.pull"}
    assert {"_Connection.sendable", "StreamTransport._next_data"} <= (
        HOT_FUNCTIONS["src/repro/baselines/stream.py"])
    for rel, cls in (("pias", "PiasTransport"), ("ndp", "NdpTransport")):
        assert {f"{cls}._next_data", f"{cls}._emit"} <= (
            HOT_FUNCTIONS[f"src/repro/baselines/{rel}.py"])


def test_hot_manifest_names_the_sample_recorders():
    """Once per completed message: what appends to the typed sample
    columns must not grow a per-sample comprehension or f-string."""
    from repro.analysis.rules_hotpath import HOT_FUNCTIONS

    assert HOT_FUNCTIONS["src/repro/metrics/slowdown.py"] == {
        "SlowdownTracker.record_oneway", "SlowdownTracker.record_rpc",
        "SlowdownTracker._push"}


# -- quadratic-pop ------------------------------------------------------

QUEUE_IN_A_LIST = """
    class Sender:
        def pull(self):
            key = self._rr.pop(0)
            self.conn.queue.insert(0, key)
            ring = self._rr
            return ring.pop(0)
    """


def test_quadratic_pop_flags_front_shifts_on_object_state():
    hits = rule_hits(QUEUE_IN_A_LIST, "quadratic-pop",
                     rel="src/repro/baselines/snippet.py")
    assert [f.detail for f in hits] == [
        "pop:self._rr", "insert:self.conn.queue", "pop:ring"]
    assert all(f.scope == "Sender.pull" for f in hits)
    assert "collections.deque" in hits[0].message


def test_quadratic_pop_ignores_deques_dicts_scratch_lists_and_tests():
    src = """
        import sys

        class Sender:
            def pull(self, xs):
                self.queue.popleft()
                self.queue.pop()
                self.queue.pop(-1)
                self.queue.insert(1, 0)
                self.flows.pop(0, None)      # a dict keyed by 0
                self.queue.pop(False)
                scratch = sorted(xs)
                scratch.insert(0, None)      # bounded by this call
                sys.path.insert(0, "bench")
                return scratch.pop(0)
        """
    assert rule_hits(src, "quadratic-pop",
                     rel="src/repro/baselines/snippet.py") == []
    assert rule_hits(QUEUE_IN_A_LIST, "quadratic-pop",
                     rel="tests/snippet.py") == []


def test_quadratic_pop_pragma_waives():
    src = """
        class Sender:
            def pull(self):
                return self.two.pop(0)  # simlint: ok(quadratic-pop) — fixture: never more than two entries
        """
    result = analyze_source(textwrap.dedent(src),
                            rel="src/repro/baselines/snippet.py",
                            rules=["quadratic-pop"])
    assert result.findings == []
    assert len(result.waived) == 1


# -- sched-arity --------------------------------------------------------


def test_sched_arity_flags_self_method_mismatch():
    hits = rule_hits(
        """
        class Port:
            def _tx_done(self):
                pass

            def start(self, duration, pkt):
                self.sim.schedule1(duration, self._tx_done, pkt)
        """,
        "sched-arity",
    )
    assert [f.detail for f in hits] == ["schedule1:_tx_done:expected=1"]


def test_sched_arity_flags_variadic_undercount():
    hits = rule_hits(
        """
        def deliver(pkt, port):
            pass

        def kick(sim, pkt):
            sim.schedule(10, deliver, pkt)
        """,
        "sched-arity",
    )
    assert [f.detail for f in hits] == ["schedule:deliver:expected=1"]


def test_sched_arity_flags_lambda_and_local_def():
    hits = rule_hits(
        """
        def kick(sim, pkt):
            def fire():
                pass
            sim.schedule1(10, fire, pkt)
            sim.schedule1(20, lambda: None, pkt)
        """,
        "sched-arity",
    )
    assert sorted(f.detail for f in hits) == [
        "schedule1:<lambda>:expected=1",
        "schedule1:fire:expected=1",
    ]


def test_sched_arity_passes_matching_and_flexible_signatures():
    src = """
        class Timer:
            def _fire(self):
                pass

            def _fire1(self, key, extra=None):
                pass

            def arm(self, sim, key):
                sim.schedule(10, self._fire)
                sim.schedule1(10, self._fire1, key)
                sim.schedule(10, self._fire1, key, 3)
                sim.schedule_at(20, catchall, key, key, key)

        def catchall(*args):
            pass
        """
    assert rule_hits(src, "sched-arity") == []


def test_sched_arity_skips_unresolvable_callbacks():
    src = """
        def arm(sim, collector, pkt, cbs):
            sim.schedule_at(10, collector.snapshot)
            sim.schedule1(10, cbs[0], pkt)
            sim.schedule(10, collector.route(pkt).enqueue, pkt)
            sim.schedule(10, forward, *pkt)
            sim.schedule1(10, self_bound, arg=pkt)
        """
    assert rule_hits(src, "sched-arity") == []


def test_sched_arity_pragma_waives():
    src = """
        def fire():
            pass

        def arm(sim, pkt):
            sim.schedule1(10, fire, pkt)  # simlint: ok(sched-arity) — fixture: callback swallows via C shim
        """
    result = analyze_source(
        textwrap.dedent(src),
        rel="src/repro/core/snippet.py",
        rules=["sched-arity"],
    )
    assert result.findings == []
    assert len(result.waived) == 1


# -- payload-roundtrip --------------------------------------------------


def test_payload_unread_field_fails():
    hits = rule_hits(
        """
        class C:
            def to_payload(self):
                return {"a": self.a, "b": self.b}
            @classmethod
            def from_payload(cls, payload):
                return cls(a=payload["a"])
        """,
        "payload-roundtrip",
    )
    assert [f.detail for f in hits] == ["unread:b"]


def test_payload_dropped_dataclass_field_fails():
    hits = rule_hits(
        """
        from dataclasses import dataclass

        @dataclass
        class C:
            a: int = 0
            b: int = 0

            def to_payload(self):
                return {"a": self.a}

            @classmethod
            def from_payload(cls, payload):
                return cls(a=payload["a"])
        """,
        "payload-roundtrip",
    )
    # b is never written, so only the dropped-field case fires (unread
    # requires a written-but-unread key).
    assert [f.detail for f in hits] == ["dropped:b"]


def test_payload_exhaustive_pair_passes():
    src = """
        from dataclasses import asdict, dataclass

        @dataclass
        class C:
            a: int = 0
            b: int = 0

            def to_payload(self):
                return asdict(self)

            @classmethod
            def from_payload(cls, payload):
                data = dict(payload)
                data["a"] = int(data.get("a") or 0)
                return cls(**data)
        """
    assert rule_hits(src, "payload-roundtrip") == []


def test_payload_nested_dict_reads_not_counted():
    """Regression: reads on a *nested* sub-dict belong to that class's
    round-trip, not this one's (ExperimentConfig's homa handling)."""
    src = """
        class C:
            def to_payload(self):
                return {"sub": self.sub.to_payload()}
            @classmethod
            def from_payload(cls, payload):
                sub = dict(payload["sub"])
                if sub.get("extra") is not None:
                    sub["extra"] = tuple(sub["extra"])
                return cls(sub=Sub(**sub))
        """
    assert rule_hits(src, "payload-roundtrip") == []


def test_payload_opaque_to_payload_flagged():
    hits = rule_hits(
        """
        class C:
            def to_payload(self):
                out = {}
                for k in self.keys:
                    out[k] = getattr(self, k)
                return out
            @classmethod
            def from_payload(cls, payload):
                return cls(**payload)
        """,
        "payload-roundtrip",
    )
    assert [f.detail for f in hits] == ["opaque-to_payload"]


def test_payload_pragma_waives():
    src = """
        class C:
            def to_payload(self):  # simlint: ok(payload-roundtrip) — fixture: keys proven exhaustive elsewhere
                out = {}
                for k in self.keys:
                    out[k] = getattr(self, k)
                return out
            @classmethod
            def from_payload(cls, payload):
                return cls(**payload)
        """
    result = analyze_source(
        textwrap.dedent(src), rules=["payload-roundtrip"]
    )
    assert result.findings == []
    assert len(result.waived) == 1


def test_payload_keys_visible_through_packing_helpers():
    """Values wrapped in calls (the tracker's packed sample columns:
    ``_pack(column)`` on write, ``_unpack(name, code, payload[key])`` on
    read) keep their keys statically visible on both sides."""
    src = """
        class T:
            def to_payload(self):
                return {"warmup_ps": self.warmup_ps,
                        "sizes": _pack(self.sizes),
                        "slowdowns": _pack(self.slowdowns)}
            @classmethod
            def from_payload(cls, payload):
                t = cls(None, warmup_ps=payload["warmup_ps"])
                t.sizes = _unpack("sizes", "q", payload["sizes"])
                t.slowdowns = _unpack("slowdowns", "d", SLOWDOWNS)
                return t
        """
    assert rule_hits(src.replace("SLOWDOWNS", 'payload["slowdowns"]'),
                     "payload-roundtrip") == []
    # The column *name* passed to the helper is not a read of the key.
    hits = rule_hits(src.replace("SLOWDOWNS", "other"), "payload-roundtrip")
    assert [f.detail for f in hits] == ["unread:slowdowns"]


# -- doc-drift ----------------------------------------------------------

CONFIG_SRC = """
    from dataclasses import dataclass

    @dataclass
    class HomaConfig:
        n_prios: int = 8
        shiny_new_knob: int = 0
"""


def test_doc_drift_fails_on_undocumented_field():
    hits = rule_hits(
        CONFIG_SRC,
        "doc-drift",
        rel="src/repro/homa/config.py",
        docs={"docs/CONFIG.md": "| `n_prios` | 8 | levels |"},
    )
    assert [f.detail for f in hits] == ["undocumented:shiny_new_knob"]


def test_doc_drift_passes_when_documented():
    docs = {"docs/CONFIG.md": "mentions n_prios and shiny_new_knob."}
    assert (
        rule_hits(
            CONFIG_SRC,
            "doc-drift",
            rel="src/repro/homa/config.py",
            docs=docs,
        )
        == []
    )


def test_doc_drift_flags_stale_doc_rows():
    docs = {
        "docs/CONFIG.md": (
            "n_prios shiny_new_knob\n| `removed_knob` | 1 | gone |"
        )
    }
    hits = rule_hits(
        CONFIG_SRC, "doc-drift", rel="src/repro/homa/config.py", docs=docs
    )
    assert [f.detail for f in hits] == ["stale-doc:removed_knob"]
    assert hits[0].path == "docs/CONFIG.md"


def test_doc_drift_pragma_waives():
    src = """
        from dataclasses import dataclass

        @dataclass
        class HomaConfig:
            internal_knob: int = 0  # simlint: ok(doc-drift) — fixture: internal-only knob
        """
    result = analyze_source(
        textwrap.dedent(src),
        rel="src/repro/homa/config.py",
        rules=["doc-drift"],
        docs={},
    )
    assert result.findings == []
    assert len(result.waived) == 1


DOC_POINTER_SRC = '''
    """Framing model (see DESIGN.md section 3, docs/CONFIG.md and
    FABRICS.md; ``*.md`` globs are not pointers)."""

    def frame():
        return 84  # minimum wire size, as EXPERIMENTS.md tabulates
'''


def test_doc_drift_flags_pointers_to_missing_markdown():
    hits = rule_hits(
        DOC_POINTER_SRC, "doc-drift",
        docs={"docs/CONFIG.md": "", "docs/FABRICS.md": ""})
    assert [(f.line, f.detail) for f in hits] == [
        (2, "missing-doc:DESIGN.md"), (6, "missing-doc:EXPERIMENTS.md")]


def test_doc_drift_passes_when_every_pointer_resolves():
    docs = dict.fromkeys(("DESIGN.md", "EXPERIMENTS.md", "docs/CONFIG.md",
                          "docs/FABRICS.md"), "")
    assert rule_hits(DOC_POINTER_SRC, "doc-drift", docs=docs) == []


# -- registry-hooks -----------------------------------------------------

BASE_SRC = textwrap.dedent(
    """
    class Transport:
        def next_packet(self):
            if self.ctrl:
                return self.ctrl.popleft()
            return self._next_data()

        def _next_data(self):
            raise NotImplementedError

        def send_message(self, dst, length, **kwargs):
            raise NotImplementedError

        def on_packet(self, pkt):
            raise NotImplementedError
    """
)

REGISTRY_SRC = textwrap.dedent(
    """
    from repro.baselines.foo import FooTransport

    def transport_factory(protocol):
        return lambda host: FooTransport()
    """
)


def _registry_project(transport_src):
    modules = [
        Module("src/repro/transport/base.py", BASE_SRC),
        Module("src/repro/transport/registry.py", REGISTRY_SRC),
        Module("src/repro/baselines/foo.py", textwrap.dedent(transport_src)),
    ]
    return run(Project(modules), rules=["registry-hooks"])


def test_registry_missing_hook_fails():
    result = _registry_project(
        """
        from repro.transport.base import Transport

        class FooTransport(Transport):
            def _next_data(self):
                return None

            def send_message(self, dst, length, **kwargs):
                pass
        """
    )
    assert [f.detail for f in result.findings] == [
        "missing-hook:FooTransport.on_packet"
    ]


def test_registry_hooks_inherited_through_repo_base_pass():
    result = _registry_project(
        """
        from repro.transport.base import Transport

        class _Common(Transport):
            def on_packet(self, pkt):
                pass

        class FooTransport(_Common):
            def _next_data(self):
                return None

            def send_message(self, dst, length, **kwargs):
                pass
        """
    )
    assert result.findings == []


def test_registry_base_raising_stubs_do_not_count():
    result = _registry_project(
        """
        from repro.transport.base import Transport

        class FooTransport(Transport):
            pass
        """
    )
    assert sorted(f.detail for f in result.findings) == [
        "missing-hook:FooTransport._next_data",
        "missing-hook:FooTransport.on_packet",
        "missing-hook:FooTransport.send_message",
    ]


def test_registry_pragma_waives():
    result = _registry_project(
        """
        from repro.transport.base import Transport

        class FooTransport(Transport):  # simlint: ok(registry-hooks) — fixture: hooks added dynamically
            pass
        """
    )
    assert result.findings == []
    assert len(result.waived) == 3


# -- campaign-registry --------------------------------------------------

PAPER_DATA_SRC = textwrap.dedent(
    """
    CAMPAIGNS = {
        "fig99": ("bench_fig99_demo", "demo figure"),
    }
    """
)

COMPLETE_BENCH_SRC = textwrap.dedent(
    """
    from repro.experiments.campaign import CampaignSpec, Cell

    def campaign_spec():
        return CampaignSpec(name="fig99", cells=[Cell(key=1, spec={})])

    def run_figure(jobs=None, fresh=False):
        return []
    """
)


def _campaign_project(bench_src, bench_rel="benchmarks/bench_fig99_demo.py"):
    modules = [
        Module("src/repro/experiments/paper_data.py", PAPER_DATA_SRC),
        Module(bench_rel, textwrap.dedent(bench_src)),
    ]
    return run(Project(modules), rules=["campaign-registry"])


def test_campaign_complete_bench_passes():
    assert _campaign_project(COMPLETE_BENCH_SRC).findings == []


def test_campaign_missing_hooks_fail():
    result = _campaign_project(
        """
        from repro.experiments.campaign import CampaignSpec, Cell

        SPEC = CampaignSpec(name="fig99", cells=[Cell(key=1, spec={})])
        """
    )
    assert sorted(f.detail for f in result.findings) == [
        "missing-campaign-specs",
        "missing-run-figure",
    ]


def test_campaign_unregistered_module_fails():
    result = _campaign_project(
        COMPLETE_BENCH_SRC, bench_rel="benchmarks/bench_fig98_rogue.py"
    )
    assert [f.detail for f in result.findings] == [
        "unregistered:bench_fig98_rogue"
    ]


def test_campaign_rule_ignores_non_bench_and_specless_files():
    # CampaignSpec constructed outside benchmarks/bench_*.py: not scoped.
    assert rule_hits(
        """
        from repro.experiments.campaign import CampaignSpec
        SPEC = CampaignSpec(name="x", cells=[])
        """,
        "campaign-registry",
        rel="tests/helpers_farm.py",
    ) == []
    # A bench module with no CampaignSpec owes nothing.
    assert _campaign_project(
        """
        def run_bench():
            return 42
        """
    ).findings == []


def test_campaign_specs_plural_hook_counts():
    result = _campaign_project(
        """
        from repro.experiments.campaign import CampaignSpec, Cell

        def campaign_specs():
            return [CampaignSpec(name="fig99", cells=[Cell(key=1, spec={})])]

        def run_figure(jobs=None, fresh=False):
            return []
        """
    )
    assert result.findings == []


def test_campaign_non_dict_campaigns_reported():
    modules = [
        Module("src/repro/experiments/paper_data.py",
               "CAMPAIGNS = dict(fig99=('bench_fig99_demo', 'demo'))\n"),
        Module("benchmarks/bench_fig99_demo.py", COMPLETE_BENCH_SRC),
    ]
    result = run(Project(modules), rules=["campaign-registry"])
    assert [f.detail for f in result.findings] == [
        "campaigns-not-a-dict-literal"
    ]


def test_campaign_registry_pragma_waives():
    result = _campaign_project(
        COMPLETE_BENCH_SRC.replace(
            "return CampaignSpec(",
            "return CampaignSpec(  # simlint: ok(campaign-registry) — fixture: scratch bench\n            ",
        ),
        bench_rel="benchmarks/bench_fig98_rogue.py",
    )
    assert result.findings == []
    assert [f.rule for f in result.waived] == ["campaign-registry"]


# -- fault-determinism --------------------------------------------------


def test_fault_determinism_flags_wallclock_in_observer():
    src = """
        import time

        def watch(event, now_ps):
            stamp = time.time()
            print(event, stamp)

        injector.subscribe(watch)
        """
    hits = rule_hits(src, "fault-determinism", rel="benchmarks/bench_f.py")
    assert [f.detail for f in hits] == ["watch:time.time"]


def test_fault_determinism_flags_unseeded_rng_in_lambda_and_method():
    src = """
        import random

        class Harness:
            def arm(self, injector):
                injector.subscribe(self.on_fault)
                injector.subscribe(lambda ev, now: random.random())

            def on_fault(self, event, now_ps):
                self.jitter = random.Random()
        """
    hits = rule_hits(src, "fault-determinism", rel="tests/helper.py")
    assert sorted(f.detail for f in hits) == [
        "<lambda>:random.random",
        "on_fault:random.Random",
    ]


def test_fault_determinism_passes_seeded_and_simtime_observers():
    src = """
        import random

        def make_observer(seed):
            rng = random.Random(seed * 7919)

            def watch(event, now_ps):
                return (now_ps, rng.random())

            injector.subscribe(watch)
        """
    assert rule_hits(src, "fault-determinism", rel="benchmarks/bench_f.py") == []


def test_fault_determinism_skips_unresolvable_callbacks():
    src = """
        import helpers

        injector.subscribe(helpers.observer)
        injector.subscribe(obj.method)
        """
    assert rule_hits(src, "fault-determinism", rel="tests/helper.py") == []


def test_fault_determinism_pragma_waives():
    src = """
        import time

        def watch(event, now_ps):
            stamp = time.time()  # simlint: ok(fault-determinism) — fixture: wall profiling beside sim state
            return stamp

        injector.subscribe(watch)
        """
    result = analyze_source(
        textwrap.dedent(src), rel="tests/helper.py",
        rules=["fault-determinism"]
    )
    assert result.findings == []
    assert [f.rule for f in result.waived] == ["fault-determinism"]


# -- units --------------------------------------------------------------


def test_units_flags_mixed_suffix_arithmetic():
    hits = rule_hits(
        """
        def budget(self, deadline_ns, timeout_ps):
            return deadline_ns + timeout_ps
        """,
        "units",
    )
    assert [f.detail for f in hits] == ["binop:ns:ps"]


def test_units_flags_mixed_suffix_compare_and_augassign():
    hits = rule_hits(
        """
        def tick(self, elapsed_us, budget_ms, total_ps, step_ns):
            if elapsed_us > budget_ms:
                total_ps += step_ns
        """,
        "units",
    )
    assert sorted(f.detail for f in hits) == [
        "augassign:ps:ns",
        "compare:ms:us",
    ]


def test_units_flags_non_ps_schedule_argument():
    hits = rule_hits(
        """
        def arm(self, delay_ns, at_ms):
            self.sim.schedule(delay_ns, self._fire)
            self.sim.schedule_at(at_ms, self._fire)
            self.sim.schedule(self.sim.now + delay_ns * NS, self._fire)
        """,
        "units",
    )
    assert sorted(f.detail for f in hits) == [
        "schedule:ms",
        "schedule:ns",
    ]


def test_units_passes_conversion_idioms_and_same_unit_chains():
    src = """
        def arm(self, delay_ns, budget_ms, total_ps, count):
            deadline_ps = delay_ns * NS + budget_ms * MS
            self.sim.schedule(delay_ns * NS, self._fire)
            self.sim.schedule_at(now + 3 * total_ps, self._fire)
            spent_ms = total_ps // MS
            if total_ps // 2 > deadline_ps - total_ps:
                return spent_ms + budget_ms
            return count + total_ps  # unsuffixed operand: unknown unit
        """
    assert rule_hits(src, "units") == []


def test_units_pragma_waives():
    src = """
        def arm(self, delay_ns):
            self.sim.schedule(delay_ns, self._fire)  # simlint: ok(units) — fixture: shim converts inside schedule()
        """
    result = analyze_source(
        textwrap.dedent(src),
        rel="src/repro/core/snippet.py",
        rules=["units"],
    )
    assert result.findings == []
    assert [f.rule for f in result.waived] == ["units"]


# -- pragma hygiene -----------------------------------------------------


def test_pragma_without_justification_is_a_finding():
    src = """
        import random
        x = random.random()  # simlint: ok(det-unseeded-rng)
        """
    result = analyze_source(
        textwrap.dedent(src), rules=["det-unseeded-rng"]
    )
    assert [f.detail for f in result.findings] == [
        "unjustified:det-unseeded-rng"
    ]


def test_unused_pragma_is_a_finding():
    src = """
        x = 1  # simlint: ok(det-unseeded-rng) — nothing here to waive
        """
    result = analyze_source(
        textwrap.dedent(src), rules=["det-unseeded-rng"]
    )
    assert [f.detail for f in result.findings] == [
        "unused:det-unseeded-rng"
    ]


def test_unknown_rule_pragma_is_a_finding():
    src = """
        x = 1  # simlint: ok(not-a-rule) — typo'd rule name
        """
    result = analyze_source(textwrap.dedent(src), rules=["det-id-order"])
    assert [f.detail for f in result.findings] == [
        "unknown-rule:not-a-rule"
    ]


# -- identity / baseline machinery --------------------------------------


def test_identity_has_no_line_numbers():
    src = """
        import random
        x = random.random()
        """
    shifted = "\n\n\n" + textwrap.dedent(src)
    a = rule_hits(src, "det-unseeded-rng")[0]
    b = analyze_source(
        shifted,
        rel="src/repro/core/snippet.py",
        rules=["det-unseeded-rng"],
    ).findings[0]
    assert a.identity == b.identity
    assert a.line != b.line


def test_baseline_counts_grandfather_and_flag_excess():
    src = """
        import random
        a = random.random()
        b = random.random()
        """
    found = rule_hits(src, "det-unseeded-rng")
    assert len(found) == 2
    baseline = {found[0].identity: 1}
    diff = diff_baseline(found, baseline)
    assert len(diff.new) == 1  # one grandfathered, one new
    assert diff.stale == {}
    diff_fixed = diff_baseline(found[:0], baseline)
    assert diff_fixed.stale == {found[0].identity: 1}


# -- the real repo ------------------------------------------------------


def test_repo_clean_modulo_committed_baseline():
    """The acceptance self-check: zero non-baselined findings on the
    tree, and no stale baseline entries (debt only shrinks explicitly)."""
    project = Project.load(REPO_ROOT, DEFAULT_TARGETS)
    assert project.errors == []
    result = run(project)
    baseline = load_baseline(REPO_ROOT / DEFAULT_BASELINE)
    diff = diff_baseline(result.findings, baseline)
    assert diff.new == [], "\n".join(f.render() for f in diff.new)
    assert diff.stale == {}, (
        "baseline is stale; run: python -m repro.analysis --write-baseline"
    )


def test_cli_strict_gates_on_injected_violation(tmp_path):
    """python -m repro.analysis --strict exits 0 on a clean tree and
    non-zero once a violating file is injected."""
    src_dir = tmp_path / "src" / "repro" / "core"
    src_dir.mkdir(parents=True)
    (src_dir / "clean.py").write_text(
        "import random\n\nRNG = random.Random(42)\n"
    )
    env_cmd = [
        sys.executable,
        "-m",
        "repro.analysis",
        "--root",
        str(tmp_path),
        "--strict",
    ]
    kw = dict(
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    # A bare tree legitimately has stale hot-manifest findings (the
    # manifest names files this tmp repo lacks); grandfather them the
    # way a real adopter would, then the clean tree gates green.
    wb = subprocess.run(
        env_cmd[:-1] + ["--write-baseline"], **kw
    )
    assert wb.returncode == 0, wb.stdout + wb.stderr
    clean = subprocess.run(env_cmd, **kw)
    assert clean.returncode == 0, clean.stdout + clean.stderr

    (src_dir / "bad.py").write_text(
        "import random\n\n\ndef jitter():\n    return random.random()\n"
    )
    dirty = subprocess.run(env_cmd, **kw)
    assert dirty.returncode == 1, dirty.stdout + dirty.stderr
    assert "det-unseeded-rng" in dirty.stdout

    dirty_json = subprocess.run(env_cmd + ["--json"], **kw)
    payload = json.loads(dirty_json.stdout)
    assert payload["new"][0]["rule"] == "det-unseeded-rng"
