"""Measure fresh-run process-pool scaling: ``--jobs 1`` vs ``--jobs N``.

Closes the measurement gap ROADMAP has carried since PR 2: the pooled
campaign path claimed ~min(jobs, cores) fresh-run scaling, but the
one-CPU machine it was measured on only ever showed pool *overhead*.
CI runners have 4 vCPUs; the ``jobs-scaling`` job runs this script
there, asserts the speedup floor, and uploads the JSON as an artifact.

Method: the fig12/13 slowdown grid at tiny scale (5 workloads, ~21
cells — the same campaign PR 2 measured), run fresh into a throwaway
cache per rep, interleaved serial/pooled reps, best-of-N per arm.  The
slowdown digests of the two arms are also compared: scaling must not
cost identity.

On a machine with fewer cores than ``--jobs-high`` the measurement is
meaningless (the PR 2 trap); the script then records ``"skipped"`` and
exits 0 rather than manufacturing a number.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "benchmarks"))

from repro.experiments.campaign import run_pooled, slowdown_digest  # noqa: E402

import bench_fig12_fig13_slowdown as bench  # noqa: E402


def fresh_run_seconds(specs, jobs: int) -> tuple[float, dict[str, str]]:
    """One fresh pooled run into a throwaway cache; wall + digests."""
    cache = tempfile.mkdtemp(prefix=f"jobs{jobs}-")
    try:
        t0 = time.perf_counter()
        out = run_pooled(specs, jobs=jobs, fresh=True, cache_dir=cache,
                         quiet=True)
        wall = time.perf_counter() - t0
        digests = {name: slowdown_digest(results)
                   for name, results in out.items()}
        return wall, digests
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--jobs-high", type=int, default=4)
    parser.add_argument("--min-speedup", type=float, default=1.5)
    parser.add_argument("--reps", type=int, default=3,
                        help="fresh runs per arm (best-of)")
    parser.add_argument("--out", default=str(
        REPO / "benchmarks" / "results" / "jobs_scaling.json"))
    args = parser.parse_args()

    assert os.environ.get("REPRO_BENCH_SCALE") == "tiny", \
        "run me with REPRO_BENCH_SCALE=tiny (CI sets this)"
    specs = bench.campaign_specs()
    cells = sum(len(s.cells) for s in specs)
    cores = os.cpu_count() or 1
    report = {
        "campaign": "fig12/fig13 slowdown grid, REPRO_BENCH_SCALE=tiny",
        "cells": cells,
        "cpu_count": cores,
        "jobs_high": args.jobs_high,
        "min_speedup": args.min_speedup,
        "reps": args.reps,
    }
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)

    if cores < args.jobs_high:
        report["skipped"] = (
            f"only {cores} CPU(s): pool scaling cannot be measured here "
            f"(the PR 2 trap); run on >= {args.jobs_high} cores")
        out_path.write_text(json.dumps(report, indent=1) + "\n")
        print(f"[jobs-scaling] SKIPPED: {report['skipped']}")
        return 0

    serial_walls: list[float] = []
    pooled_walls: list[float] = []
    serial_digests = pooled_digests = None
    for rep in range(args.reps):
        wall, serial_digests = fresh_run_seconds(specs, 1)
        serial_walls.append(round(wall, 3))
        print(f"[jobs-scaling] rep {rep + 1}: jobs=1 {wall:.1f}s",
              flush=True)
        wall, pooled_digests = fresh_run_seconds(specs, args.jobs_high)
        pooled_walls.append(round(wall, 3))
        print(f"[jobs-scaling] rep {rep + 1}: jobs={args.jobs_high} "
              f"{wall:.1f}s", flush=True)

    speedup = min(serial_walls) / min(pooled_walls)
    identical = serial_digests == pooled_digests
    report.update({
        "serial_walls_seconds": serial_walls,
        "pooled_walls_seconds": pooled_walls,
        "serial_best_seconds": min(serial_walls),
        "pooled_best_seconds": min(pooled_walls),
        "speedup_best_of": round(speedup, 3),
        "digest_identical": identical,
    })
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"[jobs-scaling] {cells} cells: jobs=1 best "
          f"{min(serial_walls):.1f}s, jobs={args.jobs_high} best "
          f"{min(pooled_walls):.1f}s -> {speedup:.2f}x "
          f"(floor {args.min_speedup}x), digests "
          f"{'identical' if identical else 'DIFFER'}; wrote {out_path}")
    assert identical, "pooled digests differ from serial — identity broken"
    assert speedup >= args.min_speedup, (
        f"fresh-run scaling {speedup:.2f}x is below the "
        f"{args.min_speedup}x floor on {cores} cores")
    return 0


if __name__ == "__main__":
    sys.exit(main())
