"""CLI: ``python -m repro.analysis [paths...] [--rules ...] ...``

Exit codes: 0 clean (every finding waived by a pragma), 1 findings,
2 internal/usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis import (
    DEFAULT_TARGETS,
    REPO_ROOT,
    RULES,
    Project,
    run,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "simlint: stdlib-ast checks for the simulator's determinism, "
            "hot-path and doc-drift contracts (docs/STATIC_ANALYSIS.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"files/dirs to scan, relative to --root "
        f"(default: {' '.join(DEFAULT_TARGETS)})",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=REPO_ROOT,
        help="repo root (default: auto-detected from the package location)",
    )
    parser.add_argument(
        "--rules",
        help="comma-separated subset of rules to run",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog"
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for r in sorted(RULES.values(), key=lambda r: r.name):
            first = r.doc.splitlines()[0] if r.doc else ""
            print(f"{r.name:<20} {first}")
        return 0

    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in rules if r not in RULES]
        if unknown:
            print(f"unknown rule(s): {', '.join(unknown)}", file=sys.stderr)
            return 2

    root = args.root.resolve()
    targets = args.paths or list(DEFAULT_TARGETS)
    project = Project.load(root, targets)
    result = run(project, rules=rules)

    if args.json:
        print(
            json.dumps(
                {
                    "findings": [
                        vars(f) | {"identity": f.identity}
                        for f in result.findings
                    ],
                    "waived": len(result.waived),
                },
                indent=2,
            )
        )
    else:
        for f in result.findings:
            print(f.render())
        print(
            f"simlint: {len(project.modules)} file(s), "
            f"{len(result.findings)} finding(s) "
            f"({len(result.waived)} waived by pragma)"
        )
    return 1 if result.findings else 0


if __name__ == "__main__":
    sys.exit(main())
