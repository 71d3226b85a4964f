"""Declarative experiment campaigns: a grid of cells and an on-disk
result cache.

The paper's evaluation is a grid of *independent* simulations over
(protocol x workload x load).  A :class:`CampaignSpec` names that grid
once; :func:`run` / :func:`run_pooled` execute it through the one
campaign executor in :mod:`repro.experiments.farm` — in-process at
``jobs=1``, over a process pool otherwise (worker count from the
``--jobs`` CLI flag or the ``REPRO_JOBS`` environment variable) — and
memoize each cell's result on disk under ``benchmarks/results/cache/``,
journaling the sweep beside it so a killed run resumes.

Three properties the benchmarks rely on:

* **Determinism** — a cell is one seeded simulation; serial and sharded
  runs produce byte-identical slowdown digests because every result
  (computed in-process, in a worker, or loaded from cache) makes the
  same JSON payload round-trip (`ExperimentResult.to_payload`).
* **Cache stability** — the cache key is a stable hash of the cell's
  canonicalized spec plus a fingerprint of the simulator source
  (every ``src/repro/**/*.py`` but the ``analysis/`` linter, and the
  task's own module when it lives outside the package).  Re-running a
  figure after an unrelated edit (docs, tests, other benchmarks, lint
  rules) is a cache hit; touching simulator code invalidates
  everything, which is the conservative direction.
  An entry whose payload will not decode is a miss: the cell is
  recomputed and the entry rewritten.
* **Attribution** — a failing cell surfaces its campaign, key, and
  full config in the raised :class:`CampaignCellError`, so a sweep that
  dies mid-campaign names the exact simulation to reproduce.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import Any, Hashable, Mapping

from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)

#: default cache location (repo checkout layout); override with
#: ``REPRO_CACHE_DIR`` or the ``cache_dir`` argument.
DEFAULT_CACHE_DIR = (Path(__file__).resolve().parents[3]
                     / "benchmarks" / "results" / "cache")

#: the standard cell task: run one ``ExperimentConfig`` to a payload
EXPERIMENT_TASK = "repro.experiments.campaign:experiment_task"
EXPERIMENT_DECODE = "repro.experiments.campaign:experiment_decode"
IDENTITY_DECODE = "repro.experiments.campaign:identity_decode"

#: entry format; 2 = tracker sample columns packed (base64 of int64 /
#: float64).  ``ResultCache.load`` treats any other version as a miss.
_CACHE_VERSION = 2


# -- cell tasks ----------------------------------------------------------

def experiment_task(cfg: ExperimentConfig) -> dict:
    """Run one simulation; return its transportable payload."""
    return run_experiment(cfg).to_payload()


def experiment_decode(payload: dict) -> ExperimentResult:
    return ExperimentResult.from_payload(payload)


def identity_decode(payload: Any) -> Any:
    """For custom tasks whose payload is already the final value."""
    return payload


def _resolve(path: str):
    """Import ``module:attr``; the worker-side task lookup."""
    module, _, attr = path.partition(":")
    if not module or not attr:
        raise ValueError(f"task path must be 'module:function', got {path!r}")
    return getattr(import_module(module), attr)


# -- the spec ------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """One independent unit of work in a campaign.

    ``spec`` must be canonicalizable (dataclasses / dicts / sequences /
    scalars) and picklable; ``task`` and ``decode`` are ``module:attr``
    paths so worker processes can resolve them without sharing state
    with the parent.
    """

    key: Hashable
    spec: Any
    task: str = EXPERIMENT_TASK
    decode: str = EXPERIMENT_DECODE


@dataclass(frozen=True)
class CampaignSpec:
    """A named grid of cells (the declarative form of one figure)."""

    name: str
    cells: tuple[Cell, ...]

    def __post_init__(self):
        keys = [cell.key for cell in self.cells]
        if len(set(keys)) != len(keys):
            dupes = sorted({repr(k) for k in keys if keys.count(k) > 1})
            raise ValueError(
                f"campaign {self.name!r} has duplicate cell keys: {dupes}")


def experiment_grid(name: str,
                    cfgs: Mapping[Hashable, ExperimentConfig]) -> CampaignSpec:
    """The common case: every cell is one ``ExperimentConfig``."""
    return CampaignSpec(name=name, cells=tuple(
        Cell(key=key, spec=cfg) for key, cfg in cfgs.items()))


# -- stable hashing ------------------------------------------------------

def canonical(obj: Any) -> Any:
    """Reduce a spec to a JSON-stable structure (dataclass-aware,
    sorted dict keys, tuples as lists)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"__dataclass__": type(obj).__name__,
                **{f.name: canonical(getattr(obj, f.name))
                   for f in dataclasses.fields(obj)}}
    if isinstance(obj, dict):
        result = {str(k): canonical(v)
                  for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
        if len(result) != len(obj):
            # str() collapsed distinct keys (e.g. 1 vs "1"): two
            # different specs must never share one cache key.
            raise TypeError(f"dict keys collide under str() in campaign "
                            f"spec: {sorted(map(str, obj))}")
        return result
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for a "
                    f"campaign cell spec: {obj!r}")


def spec_json(spec: Any) -> str:
    return json.dumps(canonical(spec), sort_keys=True,
                      separators=(",", ":"))


_fingerprints: dict[str, str] = {}


def code_fingerprint() -> str:
    """Content hash of every ``.py`` file in the ``repro`` package
    except the ``analysis/`` linter, which no simulation imports.

    Any simulator edit invalidates the whole cache; edits outside
    ``src/repro`` (docs, tests, benchmark rendering) and lint edits do
    not.
    """
    cached = _fingerprints.get("")
    if cached is not None:
        return cached
    package_root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        rel = path.relative_to(package_root)
        if rel.parts[0] == "analysis":
            continue
        digest.update(str(rel).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    _fingerprints[""] = digest.hexdigest()
    return _fingerprints[""]


def _task_fingerprint(task: str) -> str:
    """Code fingerprint for one task path: the package hash, extended
    with the task's defining module when it lives outside ``repro``
    (e.g. a benchmark-defined task like the incast cell)."""
    cached = _fingerprints.get(task)
    if cached is not None:
        return cached
    module_name = task.partition(":")[0]
    fingerprint = code_fingerprint()
    if module_name != "repro" and not module_name.startswith("repro."):
        digest = hashlib.sha256(fingerprint.encode())
        source = getattr(import_module(module_name), "__file__", None)
        if source:
            digest.update(Path(source).read_bytes())
        fingerprint = digest.hexdigest()
    _fingerprints[task] = fingerprint
    return fingerprint


def cell_hash(cell: Cell) -> str:
    digest = hashlib.sha256()
    digest.update(cell.task.encode())
    digest.update(b"\0")
    digest.update(spec_json(cell.spec).encode())
    digest.update(b"\0")
    digest.update(_task_fingerprint(cell.task).encode())
    return digest.hexdigest()[:32]


# -- the on-disk cache ---------------------------------------------------

def _sanitize(name: str) -> str:
    """A campaign name as a file-name component."""
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in name)


class ResultCache:
    """JSON payloads keyed by ``cell_hash`` under one directory."""

    def __init__(self, cache_dir: str | os.PathLike | None = None) -> None:
        if cache_dir is None:
            cache_dir = os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
        self.dir = Path(cache_dir)

    def path_for(self, campaign: str, cell: Cell) -> Path:
        return self.entry(campaign, cell_hash(cell))

    def entry(self, campaign: str, chash: str) -> Path:
        """``path_for`` from an already computed ``cell_hash``."""
        return self.dir / f"{_sanitize(campaign)}-{chash}.json"

    def load(self, path: Path) -> Any | None:
        """The payload, or None on miss (or an unreadable/stale file,
        or one whose JSON is not an entry object)."""
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if (not isinstance(entry, dict)
                or entry.get("version") != _CACHE_VERSION):
            return None
        return entry.get("payload")

    def store(self, path: Path, campaign: str, cell: Cell,
              payload: Any) -> None:
        entry = {
            "version": _CACHE_VERSION,
            "campaign": campaign,
            "key": repr(cell.key),
            "task": cell.task,
            "spec": canonical(cell.spec),
            "payload": payload,
        }
        self.dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(entry, separators=(",", ":")) + "\n")
        os.replace(tmp, path)  # atomic: concurrent campaigns never
        #                        observe a half-written entry


# -- execution -----------------------------------------------------------

class CampaignCellError(RuntimeError):
    """A cell failed; the message names the exact simulation."""

    def __init__(self, campaign: str, cell: Cell, cause: BaseException):
        self.campaign = campaign
        self.cell = cell
        super().__init__(
            f"campaign {campaign!r} cell {cell.key!r} failed with "
            f"{type(cause).__name__}: {cause}\n"
            f"  task: {cell.task}\n"
            f"  config: {spec_json(cell.spec)}")


class CampaignResults(dict):
    """``{cell key: decoded result}`` in spec order, plus run stats."""

    name: str = ""
    jobs: int = 1
    computed: int = 0
    cached: int = 0
    wall_seconds: float = 0.0
    # populated by experiments.farm when the sweep ran over a worker farm
    farm_workers: int = 0
    farm_requeues: int = 0
    farm_resumed: int = 0
    farm_fallback: bool = False


def resolve_jobs(jobs: int | None = None) -> int:
    """``jobs`` argument, else ``REPRO_JOBS``, else serial."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        jobs = int(env) if env else 1
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def run(spec: CampaignSpec, *, jobs: int | None = None, fresh: bool = False,
        cache_dir: str | os.PathLike | None = None,
        quiet: bool = False) -> CampaignResults:
    """Execute a campaign; returns decoded results in cell order.

    ``fresh=True`` bypasses cache lookups (results are still stored, so
    a fresh run repopulates the cache) except for cells the journal of
    an interrupted run of this same sweep vouches for.  One campaign is
    simply a single-member pool.
    """
    results = run_pooled([spec], jobs=jobs, fresh=fresh,
                         cache_dir=cache_dir, quiet=True)[spec.name]
    if not quiet:
        print(f"[campaign {spec.name}] {len(spec.cells)} cells: "
              f"{results.computed} computed, {results.cached} cached "
              f"(jobs={results.jobs}, {results.wall_seconds:.1f}s)",
              file=sys.stderr)
    return results


def _cell_cost(cell: Cell) -> float:
    """Scheduling weight for the global queue: an estimate of one
    cell's simulated work.  Exact values do not matter — only that the
    heavy-tailed cells (W5 grids dominate every campaign) start first,
    so the pool does not end with one straggler.  Cells whose spec is
    not an ``ExperimentConfig`` (custom tasks: the incast cell, the
    max-load sweep) are scheduled first: they are the long speculative
    ones."""
    spec = cell.spec
    if isinstance(spec, ExperimentConfig):
        if spec.fabric is not None:
            # Declarative fabrics supersede racks/hosts_per_rack, and
            # lossy cells burn extra events on timeout/RESEND churn.
            hosts = spec.fabric.n_hosts
            loss = spec.fabric.loss
            churn = 1.0 + 10.0 * (loss.tor + loss.aggr + loss.core)
        else:
            hosts = spec.racks * spec.hosts_per_rack
            churn = 1.0
        return (spec.duration_ms + spec.drain_ms) * hosts * spec.load * churn
    return float("inf")


def run_pooled(specs: list[CampaignSpec], *, jobs: int | None = None,
               fresh: bool = False,
               cache_dir: str | os.PathLike | None = None,
               quiet: bool = False) -> dict[str, CampaignResults]:
    """Execute several campaigns as one global work queue.

    ``repro campaign all`` used to run figure modules one after
    another, so a sharded pool drained each figure's skewed grid
    separately and workers idled at every figure boundary.  Here the
    *pending* cells of every campaign are pooled and dispatched
    largest-cell-first over a single executor; results land in each
    campaign's cache exactly as the per-figure path stores them (same
    cache keys, same payloads), so decoded results — and therefore
    slowdown digests — are byte-identical to running each figure
    alone.  Returns ``{campaign name: CampaignResults}``.

    This is ``farm.run_farm``'s sweep without a listening socket: every
    finished cell is also journaled under ``<cache dir>/journal/``, so
    a killed run restarted on the same sweep resumes, even when fresh.
    """
    from repro.experiments.farm import _run_sweep  # farm imports this module
    return _run_sweep(specs, None, jobs=jobs, fresh=fresh,
                      cache_dir=cache_dir, quiet=quiet)


def slowdown_digest(results: Mapping[Hashable, ExperimentResult]) -> str:
    """A byte-stable digest of every cell's slowdown percentiles, for
    asserting that serial and sharded campaigns agree exactly."""
    lines = []
    for key in sorted(results, key=repr):
        result = results[key]
        report = result.tracker.bucket_report(result.bucket_edges())
        p50 = ",".join(repr(b.p50) for b in report)
        p99 = ",".join(repr(b.p99) for b in report)
        lines.append(f"{key!r} p50=[{p50}] p99=[{p99}]")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
