"""The repo's benchmark: four workloads, end-to-end and per-layer
metrics, and a traced run.  See README.md beside this file.

    python3 benchmarks/perf/run.py                      # timed set, all four
    python3 benchmarks/perf/run.py --workload homa_w1_small --seed 7
    python3 benchmarks/perf/run.py --workload homa_w4_clean --trace
    python3 benchmarks/perf/run.py --selfcheck

With ``--workload`` the measurement happens in this process, and the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or
with ``--trace`` the per-layer ones).  Without it, each workload runs
in its own subprocess, one after another.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no simulator source under {ROOT / 'src'}; the "
             f"benchmark measures the checkout it sits in")
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

_import_began = time.perf_counter()
import perf_harness as harness  # noqa: E402
import perf_metrics as pm  # noqa: E402
import perf_stack as stack  # noqa: E402
import perf_trace as tracing  # noqa: E402
import perf_workloads as workloads  # noqa: E402
#: one-off import of the simulator and the benchmark (part of setup_s)
IMPORT_S = time.perf_counter() - _import_began

DEFAULT_SEED = 42
GOLDEN_PATH = HERE / "golden.json"
PROBES = ("queues", "priousage", "wasted", "throughput", "delays")


def _golden(name: str, seed: int, smoke: bool) -> dict | None:
    """Recorded digests for the two Homa workloads at the default seed;
    any other seed or size skips only that check."""
    if seed != DEFAULT_SEED or smoke or not GOLDEN_PATH.exists():
        return None
    return json.loads(GOLDEN_PATH.read_text()).get(name)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def import_samples(fresh: int) -> list[float]:
    """Seconds the one-off import of the simulator and the benchmark
    takes: this process's own, and ``fresh`` more interpreters' (a
    process imports once, and one 0.25 s sample swings 20%)."""
    samples = [IMPORT_S]
    for _ in range(fresh):
        done = subprocess.run(
            [sys.executable, "-c", "import run; print(run.IMPORT_S)"],
            cwd=HERE, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout))
    return samples


# -- one workload, in this process ---------------------------------------

def run_timed(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    """Identical repetitions back to back for ``seconds`` (``--smoke``:
    the floor of two and no more)."""
    seconds, min_reps = (0.0, 2) if smoke else (seconds, pm.MIN_REPS)
    spans = harness.Spans()
    # Peak RSS is read at the floor, not after the last repetition: how
    # many fit depends on timing, and every farm.run_farm call keeps
    # ~54 MB (its accept thread never exits).
    peak_rss_mb = []

    def at_floor():
        peak_rss_mb.append(_peak_rss_mb())

    with spans.installed():
        if name == "campaign_stack":
            try:
                reps = harness.repeat(
                    lambda index: stack.run_rep(seed, smoke, spans, index),
                    seconds, min_reps, at_floor)
            finally:
                stack.cleanup()
            accounting = stack.account(reps)
            end_to_end, layer, raw = stack.aggregate(reps)
        else:
            cells = workloads.SIM_WORKLOADS[name](seed, smoke)
            reps = harness.repeat(
                lambda index: workloads.run_rep(cells, spans, f"rep{index}"),
                seconds, min_reps, at_floor)
            accounting = workloads.account(reps, _golden(name, seed, smoke))
            end_to_end, layer, raw = workloads.aggregate(name, cells, reps)
    imports = import_samples(0 if smoke else 4)
    raw["import_s"] = harness.summary(imports)
    layer["runner.import_s"] = raw["import_s"]["median"]
    end_to_end["setup_s"] = (layer["runner.import_s"]
                             + end_to_end.pop("setup_rep_s"))
    end_to_end["peak_rss_mb"], = peak_rss_mb
    return {"metrics": end_to_end, "timed_layers": layer, "raw": raw,
            "spans": spans.records, **accounting}


def run_traced(name: str, seed: int, smoke: bool) -> dict:
    """The traced run: a plain repetition (spans and counts, and the
    wall the overhead ratio is against), the same repetition under
    cProfile, a probed repetition on ``homa_w4_clean``, the per-layer
    call timings, and on ``campaign_stack`` the stack-call timings."""
    layer = dict.fromkeys(pm.LAYER_UNITS, 0.0)
    spans = harness.Spans()
    profiler = tracing.LayerProfiler()
    with spans.installed():
        if name == "campaign_stack":
            plain = stack.run_rep(seed, smoke, spans, 0)
            traced = stack.run_rep(seed, smoke, spans, 1,
                                   body=profiler.runcall)
            reps = [plain, traced]
            accounting = stack.account(reps)
            _, counted, raw = stack.aggregate([plain])
            overhead = traced["wall_s"] / plain["wall_s"]
            size_cdf = "W1"
        else:
            cells = workloads.SIM_WORKLOADS[name](seed, smoke)
            plain = workloads.run_rep(cells, spans, "plain")
            gc.collect()
            traced = {label: harness.measure_run(
                cfg, spans, f"traced/{label}",
                run=lambda cfg: profiler.runcall(harness.run_experiment, cfg))
                for label, cfg in cells}
            reps = [plain, traced]
            if name == "homa_w4_clean":
                gc.collect()
                label, cfg = cells[0]
                probed = harness.measure_run(
                    dataclasses.replace(cfg, collect=PROBES), spans,
                    f"probed/{label}")
                reps.append({label: probed})
                layer["metrics.probe_overhead_frac"] = (
                    probed.wall_s / plain[label].wall_s - 1.0)
            accounting = workloads.account(reps, _golden(name, seed, smoke))
            _, counted, raw = workloads.aggregate(name, cells, [plain])
            overhead = (sum(s.wall_s for s in traced.values())
                        / sum(s.wall_s for s in plain.values()))
            size_cdf = cells[0][1].workload
    layer.update(counted)
    layer.update(profiler.layer_metrics())
    layer["runner.trace_overhead_x"] = overhead
    layer["runner.import_s"] = IMPORT_S
    # Outside installed(): these call Simulator.run thousands of times.
    layer.update(tracing.layer_call_timings(size_cdf, smoke))
    if name == "campaign_stack":
        layer.update(stack.stack_calls(seed, smoke))
    return {"metrics": layer, "raw": raw, "spans": spans.records,
            **accounting}


def run_workload(name: str, seed: int = DEFAULT_SEED,
                 seconds: float = pm.RUN_SECONDS, trace: bool = False,
                 smoke: bool = False) -> dict:
    """Measure one workload here and now; returns the result document."""
    began = time.perf_counter()
    doc = (run_traced(name, seed, smoke) if trace
           else run_timed(name, seed, seconds, smoke))
    units = pm.LAYER_UNITS if trace else pm.E2E_UNITS
    doc["metrics"] = {key: {"value": doc["metrics"][key], "unit": units[key]}
                      for key in units}
    finite = all(isinstance(m["value"], (int, float))
                 and math.isfinite(m["value"])
                 for m in doc["metrics"].values())
    if not finite:
        doc["problems"].append("a metric is missing or not finite")
    doc["correct"] = finite and not doc["problems"]
    doc["spans"] = [list(record) for record in doc["spans"]]
    doc.update(workload=name, seed=seed, trace=trace, smoke=smoke,
               bench_wall_s=time.perf_counter() - began,
               provenance=provenance())
    return doc


def provenance() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"   # the driver's checkout is not a repository
    return {"git_commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "min_reps": pm.MIN_REPS}


def result_line(doc: dict) -> str:
    """The driver's contract: the last line of standard output."""
    return json.dumps({"correct": doc["correct"],
                       "attempted": doc["attempted"],
                       "failed": doc["failed"], "metrics": doc["metrics"]})


def print_report(doc: dict) -> None:
    kind = "traced" if doc["trace"] else "timed"
    print(f"== {doc['workload']} ({kind}, seed {doc['seed']}, "
          f"{doc['raw']['reps']} repetition(s), "
          f"{doc['bench_wall_s']:.1f} s) ==")
    rows = dict(doc["metrics"])
    if not doc["trace"]:
        rows.update({key: {"value": value, "unit": pm.LAYER_UNITS[key]}
                     for key, value in doc["timed_layers"].items()})
    for key, metric in rows.items():
        if doc["trace"] and metric["value"] == 0:
            continue   # a layer this workload does not touch
        note = ""
        if key in ("setup_s", "wall_s") and key in doc["raw"]:
            s = doc["raw"][key]
            note = (f"   (repetitions: median {s['median']:.4f} min "
                    f"{s['min']:.4f} max {s['max']:.4f} n={s['n']})")
            factor = doc["raw"].get("wall_size_factor", 1.0)
            if key == "wall_s" and factor != 1.0:
                note += f" x {factor:.4f} to the mean input size"
        elif key.startswith("sim_p") and "samples" in doc["raw"]:
            note = f"   ({doc['raw']['samples']} samples)"
        elif (key == "homa.short_p99_slowdown"
              and doc["workload"] in workloads.PAPER_REF):
            ref = workloads.PAPER_REF[doc["workload"]]
            note = (f"   (paper Fig. 12: {ref}; error "
                    f"{metric['value'] / ref - 1:+.1%}, stated not gated)")
        print(f"  {key:<34} {metric['value']:>16.6g} {metric['unit']}{note}")
    print(f"  attempted {doc['attempted']}  failed {doc['failed']}  "
          f"failed_frac {doc['failed'] / doc['attempted']:.6f}  "
          f"(one repetition; every repetition: {doc['failed_per_rep']})  "
          f"correct {doc['correct']}")
    for problem in doc["problems"]:
        print(f"  PROBLEM: {problem}")
    for note in doc["notes"]:
        print(f"  FAILED: {note}")


# -- every workload, each in its own subprocess --------------------------

def run_set(args, trace: bool) -> dict[str, dict]:
    """Run the workloads one after another, each in a fresh single
    interpreter, and collect their result documents."""
    # Not stack.WORK_DIR: the campaign_stack child removes that.
    work = HERE / ".work-set"
    work.mkdir(exist_ok=True)
    docs = {}
    try:
        for name, _ in pm.WORKLOADS:
            out = work / f"{name}.json"
            command = [sys.executable, str(HERE / "run.py"),
                       "--workload", name, "--seed", str(args.seed),
                       "--trace", str(int(trace)), "--out", str(out)]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, cwd=ROOT, timeout=900)
            if done.returncode != 0:
                sys.exit(f"run.py: workload {name} exited with "
                         f"{done.returncode}")
            docs[name] = json.loads(out.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return docs


def selfcheck(args) -> int:
    """Two timed sets of one seed back to back: host-time medians within
    ISSUE 11's bounds, simulated values and counts identical."""
    began = time.perf_counter()
    first, second = run_set(args, False), run_set(args, False)
    failures = 0
    print("== selfcheck: set A vs set B ==")
    for name, _ in pm.WORKLOADS:
        a, b = first[name], second[name]
        for key in pm.E2E_UNITS:
            va = a["metrics"][key]["value"]
            vb = b["metrics"][key]["value"]
            diff = (vb - va) / va
            bound = pm.SAME_SEED_BOUNDS.get(key)   # None: simulated, exact
            ok = va == vb if bound is None else abs(diff) <= bound
            failures += not ok
            limit = "exact" if bound is None else f"+-{bound:.0%}"
            print(f"  {name:<22} {key:<18} A {va:<12.6g} B {vb:<12.6g} "
                  f"diff {diff:+.2%}  bound {limit}  "
                  f"{'PASS' if ok else 'FAIL'}")
        same = {
            "failed": (a["failed"], b["failed"]),
            "attempted": (a["attempted"], b["attempted"]),
            "layer counts": tuple(
                {k: v for k, v in doc["timed_layers"].items()
                 if pm.LAYER_UNITS[k] == "count"} for doc in (a, b)),
        }
        for label, (x, y) in same.items():
            ok = x == y
            failures += not ok
            print(f"  {name:<22} {label:<24} identical: "
                  f"{'PASS' if ok else f'FAIL ({x} vs {y})'}")
        if not (a["correct"] and b["correct"]):
            failures += 1
            print(f"  {name:<22} correctness checks: FAIL")
    total = time.perf_counter() - began
    print(f"selfcheck: {'PASS' if not failures else f'{failures} FAIL'} "
          f"({total:.0f} s)")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"set_a": first, "set_b": second, "failures": failures,
             "total_wall_s": total}, indent=1) + "\n")
    return 1 if failures else 0


def record_golden() -> int:
    golden = {}
    for name in ("homa_w4_clean", "homa_w1_small"):
        cells = workloads.SIM_WORKLOADS[name](DEFAULT_SEED, False)
        spans = harness.Spans()
        with spans.installed():
            golden[name] = {
                label: harness.measure_run(cfg, spans, "golden").digest
                for label, cfg in cells}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[n for n, _ in pm.WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=pm.RUN_SECONDS,
                        help="with --workload: seconds the timed run "
                             "measures.  The driver passes BENCHMARK.json's "
                             "run_seconds, which is the default; results "
                             "at another length are not comparable")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1),
                        const=1, default=0,
                        help="the traced run (per-layer metrics) in place "
                             "of the timed one")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: exercises every path in seconds")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the timed set twice and compare")
    parser.add_argument("--out", help="write the full result document "
                                      "(raw timings, spans, provenance)")
    parser.add_argument("--record-golden", action="store_true",
                        help="re-record golden.json from this tree")
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from perf_metrics")
    args = parser.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(pm.manifest(), indent=2) + "\n")
        return 0
    if args.record_golden:
        return record_golden()
    if args.selfcheck:
        return selfcheck(args)
    if args.workload is None:
        began = time.perf_counter()
        docs = run_set(args, bool(args.trace))
        total = time.perf_counter() - began
        print(f"benchmark wall: {total:.1f} s")
        if args.out:
            Path(args.out).write_text(json.dumps(
                {"workloads": docs, "total_wall_s": total}, indent=1) + "\n")
        return 0 if all(doc["correct"] for doc in docs.values()) else 1

    doc = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.smoke)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print_report(doc)
    print(result_line(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
