"""simlint core: project loading, pragmas, findings, baseline, rule registry.

This package is deliberately zero-dependency (stdlib ``ast`` only) so the
CLI can run in CI *before* ``pip install`` — the same install-forbidden
containers that keep ruff advisory (see ruff.toml) can still gate on it.

Key pieces:

* :class:`Finding` — one diagnostic.  Its :attr:`~Finding.identity` is
  ``rule::path::scope::detail`` with **no line numbers**, so baselines
  survive unrelated edits that shift code up or down.
* :class:`Module` / :class:`Project` — parsed source files plus the
  repo's markdown docs.  Every AST node is annotated with the qualname
  of its innermost enclosing function/class (``node._simlint_scope``).
* Pragmas — ``# simlint: ok(rule[,rule]) — justification`` on the same
  physical line as the flagged construct waives matching findings.  A
  pragma with no justification, or one that waives nothing, is itself a
  finding (rule ``pragma``): waivers must stay honest.
* Baseline — ``{identity: count}``.  Grandfathered findings are allowed
  up to their recorded count; the excess is "new" and fails the run.
  ``--strict`` additionally fails on *stale* entries (count dropped),
  forcing the baseline to shrink as debt is paid down.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

#: repo root, derived from this file's location (src/repro/analysis/core.py)
REPO_ROOT = Path(__file__).resolve().parents[3]

#: directories scanned when the CLI is given no explicit paths
DEFAULT_TARGETS = ("src", "benchmarks", "tests", "examples")

#: default baseline location, checked in next to the rules
DEFAULT_BASELINE = "src/repro/analysis/baseline.json"

#: directory names never descended into
SKIP_DIRS = {"__pycache__", ".git", ".seed-worktree", ".pytest_cache"}

PRAGMA_RE = re.compile(r"#\s*simlint:\s*ok\(([A-Za-z0-9_\-, ]+)\)(.*)$")


@dataclass(frozen=True)
class Finding:
    """One diagnostic.  ``detail`` must be stable across reformatting."""

    rule: str
    path: str  # repo-relative posix path
    line: int
    scope: str  # qualname of enclosing function/class, or "<module>"
    detail: str  # identity payload; no line numbers allowed here
    message: str

    @property
    def identity(self) -> str:
        return f"{self.rule}::{self.path}::{self.scope}::{self.detail}"

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass(frozen=True)
class Pragma:
    line: int
    rules: tuple[str, ...]
    justification: str


@dataclass(frozen=True)
class Rule:
    name: str
    tier: str  # "blocking" or "advisory" (advisory == expected to be baselined)
    doc: str
    check: Callable[["Project"], list[Finding]]


#: global registry, populated by the ``@rule`` decorator at import time
RULES: dict[str, Rule] = {}


def rule(name: str, *, tier: str = "blocking"):
    """Register a rule.  The decorated function takes a Project and
    returns a list of Findings; its docstring becomes the catalog entry."""

    def deco(fn: Callable[["Project"], list[Finding]]):
        if name in RULES:
            raise ValueError(f"duplicate rule {name!r}")
        RULES[name] = Rule(name, tier, (fn.__doc__ or "").strip(), fn)
        return fn

    return deco


# ----------------------------------------------------------------------
# source containers
# ----------------------------------------------------------------------


def _annotate_scopes(tree: ast.Module) -> dict[str, ast.AST]:
    """Set ``_simlint_scope`` on every node and return a map of function
    qualname -> FunctionDef/AsyncFunctionDef node (``<locals>`` included,
    matching ``__qualname__`` conventions)."""
    functions: dict[str, ast.AST] = {}

    def visit(node: ast.AST, scope: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            child._simlint_scope = scope  # type: ignore[attr-defined]
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                functions[qual] = child
                visit(child, qual, qual + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                qual = prefix + child.name
                visit(child, qual, qual + ".")
            else:
                visit(child, scope, prefix)

    tree._simlint_scope = "<module>"  # type: ignore[attr-defined]
    visit(tree, "<module>", "")
    return functions


class Module:
    """One parsed python file."""

    def __init__(self, rel: str, source: str) -> None:
        self.rel = rel.replace("\\", "/")
        self.source = source
        self.tree = ast.parse(source, filename=rel)
        self.functions = _annotate_scopes(self.tree)
        self.classes: dict[str, ast.ClassDef] = {
            node.name: node
            for node in ast.walk(self.tree)
            if isinstance(node, ast.ClassDef)
        }
        # Pragmas come from real COMMENT tokens, not a raw line scan:
        # pragma-shaped text inside a string literal (docstrings, test
        # fixtures) must not register as a waiver.
        self.pragmas: dict[int, Pragma] = {}
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            comments = [
                (tok.start[0], tok.string)
                for tok in tokens
                if tok.type == tokenize.COMMENT
            ]
        except tokenize.TokenError:  # pragma: no cover - ast parsed already
            comments = []
        #: (line, text) of every comment token
        self.comments = comments
        for lineno, text in comments:
            m = PRAGMA_RE.search(text)
            if m:
                rules = tuple(
                    r.strip() for r in m.group(1).split(",") if r.strip()
                )
                just = m.group(2).strip().lstrip("-—–:, ").strip()
                self.pragmas[lineno] = Pragma(lineno, rules, just)

    def scope_of(self, node: ast.AST) -> str:
        return getattr(node, "_simlint_scope", "<module>")


class Project:
    """All modules under the scanned targets, plus the markdown docs."""

    def __init__(
        self,
        modules: Sequence[Module],
        docs: Optional[dict[str, str]] = None,
        *,
        root: Optional[Path] = None,
        full_tree: bool = False,
        errors: Optional[list[Finding]] = None,
    ) -> None:
        self.modules = list(modules)
        self.by_rel = {m.rel: m for m in self.modules}
        self.docs = dict(docs or {})
        self.root = root
        #: True only when loaded from a real repo checkout; rules that
        #: assert the *presence* of files (hot-path manifest) only do so
        #: for full trees, so source-snippet fixtures stay small.
        self.full_tree = full_tree
        #: overridable by tests; None means the built-in manifest
        self.hot_manifest: Optional[dict[str, frozenset[str]]] = None
        self.errors = list(errors or [])

    @classmethod
    def load(
        cls,
        root: Path,
        targets: Iterable[str] = DEFAULT_TARGETS,
    ) -> "Project":
        root = Path(root).resolve()
        files: list[Path] = []
        for target in targets:
            path = (root / target).resolve()
            if path.is_file() and path.suffix == ".py":
                files.append(path)
            elif path.is_dir():
                files.extend(
                    p
                    for p in sorted(path.rglob("*.py"))
                    if not (set(p.relative_to(root).parts[:-1]) & SKIP_DIRS)
                )
        modules, errors = [], []
        for path in files:
            rel = path.relative_to(root).as_posix()
            try:
                modules.append(Module(rel, path.read_text()))
            except SyntaxError as exc:
                errors.append(
                    Finding(
                        rule="parse-error",
                        path=rel,
                        line=exc.lineno or 0,
                        scope="<module>",
                        detail="syntax-error",
                        message=f"could not parse: {exc.msg}",
                    )
                )
        docs: dict[str, str] = {}
        doc_files = sorted(root.glob("*.md")) + sorted(
            (root / "docs").glob("**/*.md")
        )
        for path in doc_files:
            docs[path.relative_to(root).as_posix()] = path.read_text()
        return cls(modules, docs, root=root, full_tree=True, errors=errors)


# ----------------------------------------------------------------------
# running rules + pragma waivers
# ----------------------------------------------------------------------


@dataclass
class RunResult:
    findings: list[Finding]  # effective findings (waived ones removed)
    waived: list[Finding]  # suppressed by a valid same-line pragma


def run(
    project: Project, rules: Optional[Sequence[str]] = None
) -> RunResult:
    """Run ``rules`` (default: all registered) and apply pragma waivers."""
    selected = [RULES[name] for name in (rules or sorted(RULES))]
    raw: list[Finding] = list(project.errors)
    for r in selected:
        raw.extend(r.check(project))
    raw.sort(key=lambda f: (f.path, f.line, f.rule, f.detail))

    kept: list[Finding] = []
    waived: list[Finding] = []
    used_pragmas: set[tuple[str, int]] = set()
    for f in raw:
        mod = project.by_rel.get(f.path)
        prag = mod.pragmas.get(f.line) if mod else None
        if prag is not None and f.rule in prag.rules:
            waived.append(f)
            used_pragmas.add((f.path, f.line))
        else:
            kept.append(f)

    # Pragma hygiene: every pragma must carry a justification and must
    # actually waive something (same line, matching rule).
    for mod in project.modules:
        for prag in mod.pragmas.values():
            if not prag.justification:
                kept.append(
                    Finding(
                        rule="pragma",
                        path=mod.rel,
                        line=prag.line,
                        scope="<module>",
                        detail=f"unjustified:{','.join(prag.rules)}",
                        message=(
                            "simlint pragma needs a justification after "
                            "the rule list: 'simlint: ok(<rule>) — why "
                            "this is safe' (after a # comment marker)"
                        ),
                    )
                )
            unknown = [r for r in prag.rules if r not in RULES]
            if unknown:
                kept.append(
                    Finding(
                        rule="pragma",
                        path=mod.rel,
                        line=prag.line,
                        scope="<module>",
                        detail=f"unknown-rule:{','.join(unknown)}",
                        message=(
                            f"pragma names unknown rule(s) "
                            f"{', '.join(unknown)}; see --list-rules"
                        ),
                    )
                )
            elif (mod.rel, prag.line) not in used_pragmas:
                kept.append(
                    Finding(
                        rule="pragma",
                        path=mod.rel,
                        line=prag.line,
                        scope="<module>",
                        detail=f"unused:{','.join(prag.rules)}",
                        message=(
                            "pragma waives nothing on this line "
                            f"({', '.join(prag.rules)}); remove it or move "
                            "it onto the flagged line"
                        ),
                    )
                )
    kept.sort(key=lambda f: (f.path, f.line, f.rule, f.detail))
    return RunResult(findings=kept, waived=waived)


def analyze_source(
    source: str,
    *,
    rel: str = "src/repro/snippet.py",
    rules: Optional[Sequence[str]] = None,
    docs: Optional[dict[str, str]] = None,
    hot_manifest: Optional[dict[str, frozenset[str]]] = None,
) -> RunResult:
    """Run rules against a single source string (test-fixture entry point).

    ``rel`` controls path-scoped rules: pick a path under the scope you
    want exercised (e.g. ``src/repro/core/engine.py`` for det-wallclock).
    """
    project = Project([Module(rel, source)], docs)
    if hot_manifest is not None:
        project.hot_manifest = hot_manifest
    return run(project, rules=rules)


# ----------------------------------------------------------------------
# baseline
# ----------------------------------------------------------------------


def count_findings(findings: Iterable[Finding]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for f in findings:
        counts[f.identity] = counts.get(f.identity, 0) + 1
    return counts


def load_baseline(path: Path) -> dict[str, int]:
    if not Path(path).exists():
        return {}
    payload = json.loads(Path(path).read_text())
    if payload.get("version") != 1:
        raise ValueError(f"{path}: unsupported baseline version")
    return {str(k): int(v) for k, v in payload["findings"].items()}


def write_baseline(path: Path, findings: Iterable[Finding]) -> None:
    payload = {
        "version": 1,
        "comment": (
            "Grandfathered simlint findings; identity -> occurrence count. "
            "Regenerate with: python -m repro.analysis --write-baseline. "
            "See docs/STATIC_ANALYSIS.md."
        ),
        "findings": dict(sorted(count_findings(findings).items())),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")


@dataclass
class BaselineDiff:
    new: list[Finding]  # findings beyond their baselined count
    stale: dict[str, int]  # identity -> shortfall (baseline count - current)


def diff_baseline(
    findings: Sequence[Finding], baseline: dict[str, int]
) -> BaselineDiff:
    new: list[Finding] = []
    seen: dict[str, int] = {}
    for f in findings:
        seen[f.identity] = seen.get(f.identity, 0) + 1
        if seen[f.identity] > baseline.get(f.identity, 0):
            new.append(f)
    stale = {
        ident: count - seen.get(ident, 0)
        for ident, count in baseline.items()
        if seen.get(ident, 0) < count
    }
    return BaselineDiff(new=new, stale=stale)


# ----------------------------------------------------------------------
# shared AST helpers used by several rules
# ----------------------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """'a.b.c' for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_map(tree: ast.Module) -> dict[str, str]:
    """Local name -> canonical dotted origin, for imports we care about.

    ``import numpy as np`` maps ``np -> numpy``; ``from random import
    Random as R`` maps ``R -> random.Random``; submodule imports keep
    their full path (``from numpy import random as npr`` maps ``npr ->
    numpy.random``).
    """
    mapping: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                mapping[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                mapping[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return mapping


def canonical_call(node: ast.Call, imports: dict[str, str]) -> Optional[str]:
    """Canonical dotted name of a call target, resolving import aliases.

    ``np.random.rand(...)`` -> ``numpy.random.rand`` when ``np`` was
    imported as numpy; ``default_rng()`` -> ``numpy.random.default_rng``
    after a from-import.
    """
    dotted = dotted_name(node.func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    origin = imports.get(head)
    if origin is None:
        return dotted
    return f"{origin}.{rest}" if rest else origin


def compact(node: ast.AST, limit: int = 60) -> str:
    """Short stable source rendering for finding details."""
    try:
        text = ast.unparse(node)
    except Exception:
        text = type(node).__name__
    text = " ".join(text.split())
    return text if len(text) <= limit else text[: limit - 3] + "..."
