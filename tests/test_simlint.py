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
        "hot-alloc",
        "quadratic-pop",
        "doc-drift",
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
    assert "census bound" in hits[0].message


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


SCRIPT_POINTER_SRC = '''
    """Regenerate with benchmarks/bench_gone.py; globs such as
    ``benchmarks/bench_figNN_*.py`` and benchmarks/perf/run.py pass."""

    def regenerate():
        return 0  # the numbers come from benchmarks/bench_gone_too.py
'''

SCRIPT_POINTER_DOC = ("# Numbers\n\n"
                      "Regenerate with `benchmarks/bench_gone_doc.py`.\n")


def script_pointer_project(src, *, present=()):
    """The fixture module, empty modules at ``present``, and one doc
    page under docs/ plus one root-level history file naming a script
    that is gone."""
    modules = [Module("src/repro/core/snippet.py", textwrap.dedent(src))]
    modules += [Module(rel, "") for rel in present]
    docs = {"docs/NUMBERS.md": SCRIPT_POINTER_DOC,
            "CHANGES.md": "PR 9: deleted benchmarks/bench_history.py\n"}
    return Project(modules, docs)


def test_doc_drift_flags_pointers_to_missing_benchmark_scripts():
    result = run(script_pointer_project(
        SCRIPT_POINTER_SRC, present=["benchmarks/perf/run.py"]),
        rules=["doc-drift"])
    assert [(f.path, f.line, f.detail) for f in result.findings] == [
        ("docs/NUMBERS.md", 3, "missing-script:benchmarks/bench_gone_doc.py"),
        ("src/repro/core/snippet.py", 2,
         "missing-script:benchmarks/bench_gone.py"),
        ("src/repro/core/snippet.py", 6,
         "missing-script:benchmarks/bench_gone_too.py")]


def test_doc_drift_passes_when_every_script_pointer_resolves():
    present = ["benchmarks/perf/run.py", "benchmarks/bench_gone.py",
               "benchmarks/bench_gone_too.py", "benchmarks/bench_gone_doc.py"]
    result = run(script_pointer_project(SCRIPT_POINTER_SRC, present=present),
                 rules=["doc-drift"])
    assert result.findings == []


def test_doc_drift_pragma_waives_a_missing_script():
    src = """
        def regenerate():
            return 0  # was benchmarks/bench_gone.py  # simlint: ok(doc-drift) — fixture: history
        """
    result = analyze_source(textwrap.dedent(src), rules=["doc-drift"],
                            docs={})
    assert result.findings == []
    assert [f.detail for f in result.waived] == [
        "missing-script:benchmarks/bench_gone.py"]


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
    result = analyze_source(textwrap.dedent(src), rules=["det-unseeded-rng"])
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
