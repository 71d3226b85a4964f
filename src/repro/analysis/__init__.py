"""simlint — stdlib-only static analysis for this repo's contracts.

Run it as ``python -m repro.analysis`` (no third-party deps; works
before ``pip install``).  See docs/STATIC_ANALYSIS.md for the rule
catalog and pragma syntax.
"""

from repro.analysis.core import (
    DEFAULT_TARGETS,
    REPO_ROOT,
    RULES,
    Finding,
    Module,
    Pragma,
    Project,
    Rule,
    RunResult,
    analyze_source,
    run,
)

# Importing the rule modules registers their rules.
from repro.analysis import (  # noqa: E402  (registration side effects)
    rules_determinism,
    rules_docs,
    rules_hotpath,
)

__all__ = [
    "DEFAULT_TARGETS",
    "REPO_ROOT",
    "RULES",
    "Finding",
    "Module",
    "Pragma",
    "Project",
    "Rule",
    "RunResult",
    "analyze_source",
    "run",
    "rules_determinism",
    "rules_docs",
    "rules_hotpath",
]
