"""Farm acceptance battery: the CI ``farm-smoke`` job's entry point.

One process plays coordinator (in a thread, via ``run_farm``) while
real ``python -m repro farm-worker`` subprocesses play the fleet, so
every protocol frame crosses an actual loopback socket and every worker
death is an actual SIGKILL.  Four stages, all at tiny scale
(docs/CAMPAIGNS.md, farm section); the first three on the Fig 17
campaign:

1. **Identity** — a 2-worker farmed run must match the serial run:
   byte-identical cache entries (modulo the nondeterministic
   ``wall_seconds`` timing field, which differs between *any* two
   fresh runs) and byte-identical slowdown digests.
2. **Worker death** — one worker is spawned with ``--die-after 1``
   (it SIGKILLs itself upon receiving its first cell); the sweep must
   still complete, via exactly one requeue, with the same digest.
3. **Coordinator death** — a ``--fresh`` sweep is interrupted by the
   deterministic crash hook after one journaled cell; the journal must
   survive, and a restarted coordinator must complete only the missing
   cells and then retire the journal.
4. **Killed local run** — ``python -m repro campaign fig08 --jobs 2
   --fresh`` runs in its own session and is SIGKILLed, process group
   and all, once its first cell is cached and journaled.  The same
   command re-run must compute fewer than all cells, leave no journal,
   and give the serial digest.  (Fig 08's seven cells, not Fig 17's two:
   a two-worker pool finishes Fig 17's two equal cells within
   milliseconds of each other, leaving no moment to kill between them.)

Exit status is the assertion: non-zero on any violated contract.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "benchmarks"))

from repro.experiments import farm  # noqa: E402
from repro.experiments.campaign import (  # noqa: E402
    ResultCache,
    run_pooled,
    slowdown_digest,
)

import bench_fig08_fig09_implementation as bench08  # noqa: E402
import bench_fig17_unsched_prios as bench  # noqa: E402


def log(message: str) -> None:
    print(f"[farm-smoke] {message}", flush=True)


def worker_cmd(port: int, name: str, die_after: int | None = None
               ) -> list[str]:
    cmd = [sys.executable, "-m", "repro",
           "farm-worker", f"127.0.0.1:{port}", "--name", name,
           "--heartbeat", "1"]
    if die_after is not None:
        cmd += ["--die-after", str(die_after)]
    return cmd


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO / "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    return env


def scrubbed_bytes(path: Path) -> bytes:
    """Cache entry bytes with the wall-clock timing field nulled."""
    entry = json.loads(path.read_bytes())
    payload = entry.get("payload")
    if isinstance(payload, dict) and "wall_seconds" in payload:
        payload["wall_seconds"] = None
    return json.dumps(entry, sort_keys=True).encode()


def farm_run(spec, cache_dir, journal_dir, launch, **kw):
    """run_farm in a thread; ``launch(port)`` runs in the main thread."""
    box: dict[str, object] = {}
    ready = threading.Event()

    def on_listening(port: int) -> None:
        box["port"] = port
        ready.set()

    def coordinator() -> None:
        try:
            box["out"] = farm.run_farm(
                [spec], cache_dir=cache_dir, journal_dir=journal_dir,
                on_listening=on_listening, **kw)
        except BaseException as exc:  # surfaced to the main thread
            box["error"] = exc

    thread = threading.Thread(target=coordinator, daemon=True)
    thread.start()
    assert ready.wait(timeout=60), "coordinator never bound its socket"
    launch(box["port"])
    thread.join(timeout=600)
    assert not thread.is_alive(), "coordinator did not finish"
    if "error" in box:
        raise box["error"]  # type: ignore[misc]
    return box["out"]


def main() -> int:
    assert os.environ.get("REPRO_BENCH_SCALE") == "tiny", \
        "run me with REPRO_BENCH_SCALE=tiny (CI sets this)"
    spec = bench.campaign_spec()
    log(f"campaign {spec.name}: {len(spec.cells)} cells at tiny scale")

    tmp = Path(tempfile.mkdtemp(prefix="farm-smoke-"))
    serial_cache, farmed_cache = tmp / "serial", tmp / "farmed"
    resume_cache, journals = tmp / "resume", tmp / "journal"

    # -- stage 0: the serial baseline -----------------------------------
    t0 = time.perf_counter()
    serial = run_pooled([spec], jobs=1, cache_dir=serial_cache, quiet=True)
    serial_digest = slowdown_digest(serial[spec.name])
    log(f"serial baseline: {time.perf_counter() - t0:.1f}s, "
        f"digest {serial_digest[:16]}")

    # -- stage 1: 2-worker farm, byte identity --------------------------
    def launch_pair(port: int) -> None:
        procs = [subprocess.Popen(worker_cmd(port, f"w{i}"),
                                  env=worker_env()) for i in (1, 2)]
        for proc in procs:
            assert proc.wait(timeout=600) == 0, "worker failed"

    farmed = farm_run(spec, farmed_cache, journals, launch_pair,
                      farm_wait_s=60.0, quiet=False)
    results = farmed[spec.name]
    assert results.farm_workers == 2, results.farm_workers
    assert not results.farm_fallback, "workers connected, yet fell back"
    farmed_digest = slowdown_digest(results)
    assert farmed_digest == serial_digest, \
        f"digest mismatch: farmed {farmed_digest} != serial {serial_digest}"
    a, b = ResultCache(farmed_cache), ResultCache(serial_cache)
    for cell in spec.cells:
        fa, fb = a.path_for(spec.name, cell), b.path_for(spec.name, cell)
        assert scrubbed_bytes(fa) == scrubbed_bytes(fb), \
            f"cache entry differs beyond wall_seconds: {fa.name}"
    log(f"stage 1 ok: farmed digest + {len(spec.cells)} cache entries "
        f"identical to serial")

    # -- stage 2: SIGKILLed worker mid-sweep ----------------------------
    def launch_dier_then_healthy(port: int) -> None:
        dier = subprocess.Popen(worker_cmd(port, "dier", die_after=1),
                                env=worker_env())
        code = dier.wait(timeout=600)
        assert code != 0, "the --die-after worker exited cleanly?!"
        log(f"dier exited with {code} (SIGKILL) while holding a cell")
        healthy = subprocess.Popen(worker_cmd(port, "healthy"),
                                   env=worker_env())
        assert healthy.wait(timeout=600) == 0, "healthy worker failed"

    death = farm_run(spec, tmp / "death", journals,
                     launch_dier_then_healthy,
                     farm_wait_s=120.0, quiet=False)
    results = death[spec.name]
    assert results.farm_requeues == 1, \
        f"expected exactly 1 requeue, got {results.farm_requeues}"
    assert slowdown_digest(results) == serial_digest
    log("stage 2 ok: worker SIGKILL absorbed via one requeue, "
        "digest still identical")

    # -- stage 3: coordinator killed, journal resume --------------------
    try:
        farm_run(spec, resume_cache, journals, lambda port: None,
                 fresh=True, farm_wait_s=0.2, crash_after=1, quiet=True)
        raise AssertionError("crash hook did not fire")
    except farm.FarmInterrupted as exc:
        log(f"stage 3: coordinator killed as planned ({exc})")
    journal_path = journals / f"{spec.name}.jsonl"
    assert journal_path.exists(), "journal did not survive the crash"
    resumed = farm_run(spec, resume_cache, journals, lambda port: None,
                       fresh=True, farm_wait_s=0.2, quiet=True)
    results = resumed[spec.name]
    assert results.farm_resumed == 1, results.farm_resumed
    assert results.computed == len(spec.cells) - 1, results.computed
    assert slowdown_digest(results) == serial_digest
    assert not journal_path.exists(), "journal not retired on completion"
    log("stage 3 ok: restart completed only the missing cells from the "
        "journal, digest still identical")

    killed_local_run(tmp)
    log("all stages passed")
    return 0


def killed_local_run(tmp: Path) -> None:
    """Stage 4: a SIGKILLed ``campaign --jobs 2 --fresh`` resumes."""
    (spec,) = bench08.campaign_specs()
    serial = run_pooled([spec], jobs=1, cache_dir=tmp / "serial08",
                        quiet=True)
    serial_digest = slowdown_digest(serial[spec.name])
    cache = tmp / "killed"
    env = dict(worker_env(), REPRO_CACHE_DIR=str(cache))
    cmd = [sys.executable, "-m", "repro", "campaign", "fig08",
           "--jobs", "2", "--fresh"]
    journal_path = cache / "journal" / f"{spec.name}.jsonl"

    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    deadline = time.monotonic() + 600
    while not (journal_path.exists() and "\n" in journal_path.read_text()):
        assert proc.poll() is None, "the run ended before it was killed"
        assert time.monotonic() < deadline, "no cell landed in 600 s"
        time.sleep(0.01)
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait(timeout=60)
    log(f"stage 4: killed the --jobs 2 run after "
        f"{len(list(cache.glob('*.json')))} of {len(spec.cells)} cells")

    rerun = subprocess.run(cmd, env=env, capture_output=True, text=True,
                           timeout=600)
    sys.stdout.write(rerun.stdout + rerun.stderr)
    assert rerun.returncode == 0, "the re-run failed"
    counts = re.search(rf"\[campaign {re.escape(spec.name)}\] (\d+) cells: "
                       r"(\d+) computed", rerun.stderr)
    assert counts, "the re-run printed no campaign summary"
    total, computed = map(int, counts.groups())
    assert computed < total, f"the re-run computed all {total} cells"
    assert not journal_path.exists(), "journal not retired on completion"
    again = run_pooled([spec], jobs=1, cache_dir=cache, quiet=True)
    assert again[spec.name].computed == 0
    assert slowdown_digest(again[spec.name]) == serial_digest
    log(f"stage 4 ok: the re-run computed {computed} of {total} cells, "
        f"retired the journal, digest identical to serial")


if __name__ == "__main__":
    sys.exit(main())
