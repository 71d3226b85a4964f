"""CLI: ``python -m repro.analysis [paths...] [--strict] ...``

Exit codes: 0 clean (modulo baseline), 1 findings (or, with --strict,
stale baseline entries), 2 internal/usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis import (
    DEFAULT_BASELINE,
    DEFAULT_TARGETS,
    REPO_ROOT,
    RULES,
    Project,
    diff_baseline,
    load_baseline,
    run,
    write_baseline,
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
        "--baseline",
        type=Path,
        default=None,
        help=f"baseline file (default: <root>/{DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline to grandfather all current findings",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail on stale baseline entries (CI mode)",
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
            print(f"{r.name:<20} [{r.tier}] {first}")
        return 0

    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = [r for r in rules if r not in RULES]
        if unknown:
            print(f"unknown rule(s): {', '.join(unknown)}", file=sys.stderr)
            return 2

    root = args.root.resolve()
    baseline_path = args.baseline or (root / DEFAULT_BASELINE)
    targets = args.paths or list(DEFAULT_TARGETS)
    project = Project.load(root, targets)
    result = run(project, rules=rules)

    if args.write_baseline:
        write_baseline(baseline_path, result.findings)
        print(
            f"wrote {len(result.findings)} finding(s) to {baseline_path}"
        )
        return 0

    baseline = load_baseline(baseline_path)
    diff = diff_baseline(result.findings, baseline)

    if args.json:
        print(
            json.dumps(
                {
                    "new": [vars(f) | {"identity": f.identity} for f in diff.new],
                    "stale": diff.stale,
                    "baselined": len(result.findings) - len(diff.new),
                    "waived": len(result.waived),
                },
                indent=2,
            )
        )
    else:
        for f in diff.new:
            print(f.render())
        if diff.stale:
            verb = "error" if args.strict else "warning"
            for ident, shortfall in sorted(diff.stale.items()):
                print(
                    f"{verb}: stale baseline entry ({shortfall} fixed): "
                    f"{ident}"
                )
            if args.strict:
                print(
                    "stale entries mean findings were fixed — shrink the "
                    "baseline: python -m repro.analysis --write-baseline"
                )
        print(
            f"simlint: {len(project.modules)} file(s), "
            f"{len(result.findings)} finding(s) "
            f"({len(result.findings) - len(diff.new)} baselined, "
            f"{len(result.waived)} waived by pragma, {len(diff.new)} new)"
        )

    if diff.new:
        return 1
    if args.strict and diff.stale:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
