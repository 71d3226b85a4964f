"""The campaign executor: one sweep, run locally or served to a farm.

Every campaign run is one sweep (:func:`_run_sweep`) over one
largest-cell-first queue: ``campaign.run_pooled`` drains it locally —
in-process at ``jobs == 1``, else over one process pool — and
:func:`run_farm` also serves it, in the style of FireSim's
externally-provisioned run farms, over a line-delimited JSON/TCP
protocol (:mod:`repro.experiments.wire`) to any number of worker
processes — ``python -m repro farm-worker <host:port>`` — that pull
cells, execute them through the same ``_run_cell`` task path, and
stream payloads back into the shared on-disk cache.

Identity contract: serial, pooled, and farmed runs of one spec produce
**byte-identical cache entries and slowdown digests**.  This falls out
of transporting only exact representations — ``ExperimentConfig`` rides
its ``to_payload`` round-trip, custom specs ride only if they are
JSON-exact (``json.loads(json.dumps(spec)) == spec``), and anything
else never crosses the wire: the coordinator executes it locally.

Robustness model (docs/CAMPAIGNS.md, farm section):

* **Liveness** — workers heartbeat while computing; a silent or
  disconnected worker has its in-flight cells requeued at the front of
  the queue.  Each requeue burns one unit of the cell's bounded retry
  budget; exhaustion raises :class:`~repro.experiments.campaign.
  CampaignCellError` naming the cell, exactly like a local failure.
* **Hostile peers** — a ``result`` or ``error`` frame naming a cell its
  connection does not hold is a ``ProtocolError``: the peer is dropped,
  its cells are requeued, and nothing reaches the cache or journal.
  A result is decoded before it is cached: one that will not decode
  fails its cell with a ``CampaignCellError`` and is never stored.
* **Resumability** — every completed cell, local or farmed, is appended
  to a per-campaign journal (``<cache dir>/journal/<campaign>.jsonl``)
  tagged with a sweep id.  A killed run restarted on the same spec
  loads the journal and completes only the missing cells, even under
  ``--fresh``.  A completed sweep deletes its journal.
* **Fallback** — if no worker connects within the grace window (or all
  workers die and none return), the coordinator drains the remaining
  cells itself through the local executor, so ``--farm`` never strands
  a campaign.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import sys
import threading
import time
import traceback
from collections import Counter, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable, Hashable

from repro.experiments.campaign import (
    CampaignCellError,
    CampaignResults,
    CampaignSpec,
    Cell,
    ResultCache,
    _cell_cost,
    _resolve,
    _sanitize,
    cell_hash,
    resolve_jobs,
)
from repro.experiments.runner import ExperimentConfig
from repro.experiments.wire import (
    PROTOCOL_VERSION,
    FrameConn,
    ProtocolError,
)

#: how many worker deaths one cell survives before the sweep fails
DEFAULT_RETRY_BUDGET = 2

#: worker-side heartbeat period while a cell is computing
DEFAULT_HEARTBEAT_S = 2.0

#: coordinator-side silence threshold before a worker is declared dead
DEFAULT_LIVENESS_TIMEOUT_S = 30.0

_JOURNAL_VERSION = 1

#: bound on each thread join in ``FarmCoordinator.close``; a thread woken
#: by a socket shutdown exits in microseconds, so this only caps a hang
_JOIN_TIMEOUT_S = 10.0


class FarmInterrupted(RuntimeError):
    """The coordinator stopped mid-sweep (crash hook); journal kept."""


# -- cell execution --------------------------------------------------------

def _run_cell(task: str, spec: Any) -> Any:
    """Worker entry point: resolve and run one cell's task."""
    return _resolve(task)(spec)


def _init_worker(parent_sys_path: list[str]) -> None:
    """Make benchmark-defined tasks importable under any multiprocessing
    start method (fork inherits sys.path; spawn/forkserver do not)."""
    for entry in reversed(parent_sys_path):
        if entry not in sys.path:
            sys.path.insert(0, entry)


# -- spec transport ------------------------------------------------------

def encode_spec(spec: Any) -> dict | None:
    """Wire form of a cell spec, or ``None`` when it cannot cross exactly.

    Only two encodings exist, both byte-exact: an ``ExperimentConfig``
    rides its payload round-trip (``from_payload(to_payload()) == cfg``,
    pinned by tests/test_campaign.py), and a JSON-native value rides
    verbatim — but only if a JSON round-trip reproduces it exactly
    (tuples and int dict keys do not survive JSON, so such specs stay
    local rather than silently mutating).
    """
    if isinstance(spec, ExperimentConfig):
        return {"kind": "experiment", "data": spec.to_payload()}
    try:
        if json.loads(json.dumps(spec)) == spec:
            return {"kind": "json", "data": spec}
    except (TypeError, ValueError):
        pass
    return None


def decode_spec(wire_spec: dict) -> Any:
    kind = wire_spec.get("kind")
    if kind == "experiment":
        return ExperimentConfig.from_payload(wire_spec["data"])
    if kind == "json":
        return wire_spec["data"]
    raise ProtocolError(f"unknown spec encoding {kind!r}")


# -- the resumable journal -----------------------------------------------

def sweep_id(specs: list[CampaignSpec], fresh: bool) -> str:
    """Identity of one sweep: the exact cell set plus the fresh flag.

    A journal is only trusted by a restart running the *same* sweep —
    any edit to the grid (or to simulator code, via ``cell_hash``'s
    fingerprint) changes the id and retires the old journal.
    """
    return _sweep_id(specs, [[cell_hash(cell) for cell in spec.cells]
                             for spec in specs], fresh)


def _sweep_id(specs: list[CampaignSpec], hashes: list[list[str]],
              fresh: bool) -> str:
    """``sweep_id`` over cell hashes the caller already computed."""
    digest = hashlib.sha256()
    digest.update(b"fresh" if fresh else b"cached")
    for spec, chashes in zip(specs, hashes):
        for chash in chashes:
            digest.update(spec.name.encode())
            digest.update(b"\0")
            digest.update(chash.encode())
            digest.update(b"\0")
    return digest.hexdigest()[:16]


class Journal:
    """Append-only per-campaign record of cells one sweep completed.

    One line per completed cell: ``{"v": 1, "sweep": <id>, "cell":
    <cell hash>, "key": <repr of the cell key>}``.  Loading tolerates a
    torn final line (the run died mid-append); any valid record from a
    *different* sweep retires the whole file, which is truncated on the
    next write.  ``complete()`` deletes the files — a journal on disk
    always means an unfinished sweep.
    """

    def __init__(self, sweep: str, campaigns: list[str],
                 journal_dir: str | os.PathLike) -> None:
        self.dir = Path(journal_dir)
        self.sweep = sweep
        self._paths = {name: self.dir / f"{_sanitize(name)}.jsonl"
                       for name in campaigns}
        self._stale = set()
        self.done: dict[str, set[str]] = {name: set() for name in campaigns}
        for name, path in self._paths.items():
            try:
                lines = path.read_text().splitlines()
            except OSError:
                continue
            seen: set[str] | None = set()
            for line in lines:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # torn tail write from a crash
                if (isinstance(record, dict)
                        and record.get("sweep") == sweep
                        and isinstance(record.get("cell"), str)):
                    seen.add(record["cell"])
                else:
                    seen = None  # another sweep's journal: retire it
                    break
            if seen is None:
                self._stale.add(name)
            else:
                self.done[name].update(seen)

    def record(self, campaign: str, cell_id: str, cell: Cell) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        mode = "w" if campaign in self._stale else "a"
        self._stale.discard(campaign)
        line = json.dumps(
            {"v": _JOURNAL_VERSION, "sweep": self.sweep, "cell": cell_id,
             "key": repr(cell.key)},
            separators=(",", ":")) + "\n"
        with open(self._paths[campaign], mode) as fh:
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
        self.done[campaign].add(cell_id)

    def complete(self) -> None:
        for path in self._paths.values():
            try:
                path.unlink()
            except OSError:
                pass


# -- sweep state ---------------------------------------------------------

@dataclass
class _Item:
    """One pending cell with everything every execution path needs."""

    campaign: str
    cell: Cell
    path: Path          # cache entry destination
    chash: str          # cell_hash(cell): the journal record id
    cell_id: str        # f"{campaign}/{chash}": the wire id
    wire_spec: dict | None  # None: not transportable, runs locally
    cost: float


class _WorkerConn:
    """Coordinator-side view of one connected worker."""

    def __init__(self, conn: FrameConn | None, name: str) -> None:
        self.conn = conn
        self.name = name
        self.last_seen = time.monotonic()
        self.holding: set[str] = set()


class _FarmState:
    """Lock-protected sweep state: the one work queue, its results, and
    the run stats, shared by the local executor and every connection
    thread.

    Invariant: a cell id is in ``worker.holding`` exactly when
    ``in_flight`` maps it to that worker."""

    def __init__(self, items: list[_Item], *, retry_budget: int,
                 cache: ResultCache, journal: Journal,
                 crash_after: int | None = None) -> None:
        self.lock = threading.Lock()
        self.items = {item.cell_id: item for item in items}
        self.wire_queue: deque[_Item] = deque(
            it for it in items if it.wire_spec is not None)
        self.local_queue: deque[_Item] = deque(
            it for it in items if it.wire_spec is None)
        self.in_flight: dict[str, _WorkerConn] = {}
        self.attempts: dict[str, int] = {}
        self.results: dict[str, Any] = {}  # decoded, by cell id
        self.workers_ever = 0
        self.requeues = 0
        self.duplicates = 0
        self.retry_budget = retry_budget
        self.cache = cache
        self.journal = journal
        self.crash_after = crash_after
        self.failure: CampaignCellError | None = None
        self.crashed = False
        self.fallback = False
        self.done = threading.Event()

    def stopped(self) -> bool:
        """A cell failed or the crash hook fired: start nothing new."""
        with self.lock:
            return self.failure is not None or self.crashed

    # -- dispatch --------------------------------------------------------

    def checkout(self, worker: _WorkerConn) -> tuple[str, Any]:
        """Next wire-eligible cell for ``worker``: ``("cell", item)``,
        ``("wait", None)``, ``("done", None)``, or ``("abort", reason)``."""
        with self.lock:
            if self.failure is not None:
                return ("abort", str(self.failure))
            if self.crashed:
                return ("abort", "coordinator interrupted (crash hook)")
            if self.wire_queue:
                item = self.wire_queue.popleft()
                self.in_flight[item.cell_id] = worker
                worker.holding.add(item.cell_id)
                return ("cell", item)
            return ("wait", None) if self.in_flight else ("done", None)

    def pop_local(self) -> _Item | None:
        with self.lock:
            return self.local_queue.popleft() if self.local_queue else None

    def adopt_wire_locally(self) -> list[_Item]:
        """Local fallback: take every queued wire cell."""
        with self.lock:
            taken = list(self.wire_queue)
            self.wire_queue.clear()
            return taken

    def wire_work_remains(self) -> bool:
        with self.lock:
            return bool(self.wire_queue) or bool(self.in_flight)

    # -- results ---------------------------------------------------------

    def _named_item(self, cell_id: Any, worker: _WorkerConn | None) -> _Item:
        """The cell a result or error names; a peer may name only a cell
        its connection holds (``worker`` None: the local executor)."""
        item = self.items.get(cell_id) if isinstance(cell_id, str) else None
        if item is None or (worker is not None
                            and cell_id not in worker.holding):
            raise ProtocolError(
                f"frame names cell {cell_id!r}, which this connection "
                f"does not hold")
        return item

    def deliver(self, cell_id: Any, payload: Any,
                worker: _WorkerConn | None) -> bool:
        """Decode, cache and record one result; False (and no effect)
        for duplicates.  A payload that will not decode fails its cell
        and is never cached."""
        with self.lock:
            item = self._named_item(cell_id, worker)
            if worker is not None:
                del self.in_flight[cell_id]
                worker.holding.discard(cell_id)
            if cell_id in self.results:
                self.duplicates += 1
                return False  # idempotent: first delivery won
            try:
                result = _resolve(item.cell.decode)(payload)
            except Exception as exc:
                self._fail(item, exc)
                return False
            self.results[cell_id] = result
            self.cache.store(item.path, item.campaign, item.cell, payload)
            self.journal.record(item.campaign, item.chash, item.cell)
            if (self.crash_after is not None
                    and len(self.results) >= self.crash_after):
                self.crashed = True
                self.done.set()
            if len(self.results) == len(self.items):
                self.done.set()
            return True

    def fail_cell(self, cell_id: Any, cause: BaseException,
                  worker: _WorkerConn | None) -> None:
        """A cell's task raised (deterministic failure: no retry)."""
        with self.lock:
            self._fail(self._named_item(cell_id, worker), cause)

    def _fail(self, item: _Item, cause: BaseException) -> None:
        """The first failure stops the sweep (lock held)."""
        if self.failure is None:
            self.failure = CampaignCellError(item.campaign, item.cell, cause)
            self.failure.__cause__ = cause
        self.done.set()

    def release_worker(self, worker: _WorkerConn) -> None:
        """Worker gone: requeue its in-flight cells, budget permitting."""
        with self.lock:
            for cell_id in sorted(worker.holding):
                del self.in_flight[cell_id]
                item = self.items[cell_id]
                count = self.attempts.get(cell_id, 0) + 1
                self.attempts[cell_id] = count
                if count > self.retry_budget:
                    if self.failure is None:
                        self.failure = CampaignCellError(
                            item.campaign, item.cell,
                            RuntimeError(
                                f"worker died while computing this cell "
                                f"{count} time(s); retry budget "
                                f"{self.retry_budget} exhausted"))
                    self.done.set()
                else:
                    self.wire_queue.appendleft(item)
                    self.requeues += 1
            worker.holding.clear()


# -- the coordinator -----------------------------------------------------

class FarmCoordinator:
    """Accepts workers and serves the queue; one thread per connection."""

    def __init__(self, state: _FarmState, sweep: str, *,
                 host: str, port: int, quiet: bool,
                 liveness_timeout_s: float) -> None:
        self.state = state
        self.sweep = sweep
        self.quiet = quiet
        self.liveness_timeout_s = liveness_timeout_s
        self._server = socket.create_server((host, port))
        self.host, self.port = self._server.getsockname()[:2]
        self._lock = threading.Lock()
        self.workers: list[_WorkerConn] = []
        self.last_departure = time.monotonic()
        self._accept_thread: threading.Thread | None = None
        #: every accepted connection with its thread, hello'd or not, so
        #: ``close`` can unblock and join all of them
        self._conns: list[tuple[FrameConn, threading.Thread]] = []

    def start(self) -> None:
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="farm-accept", daemon=True)
        self._accept_thread.start()

    def _log(self, message: str) -> None:
        if not self.quiet:
            print(f"[farm] {message}", file=sys.stderr)

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, addr = self._server.accept()
            except OSError:
                return  # server closed: coordinator shutting down
            conn = FrameConn(sock)
            thread = threading.Thread(
                target=self._serve_conn, args=(conn, addr),
                name="farm-conn", daemon=True)
            with self._lock:
                self._conns.append((conn, thread))
            thread.start()

    def _serve_conn(self, conn: FrameConn, addr) -> None:
        worker = _WorkerConn(conn, f"{addr[0]}:{addr[1]}")
        try:
            # kill_silent watches registered workers only, so the wait for
            # hello carries the liveness timeout itself.
            conn.sock.settimeout(self.liveness_timeout_s)
            hello = conn.recv()
            conn.sock.settimeout(None)
            if hello is None:
                return
            if hello.get("type") != "hello":
                raise ProtocolError(
                    f"expected hello, got {hello.get('type')!r}")
            if hello.get("protocol") != PROTOCOL_VERSION:
                conn.send({"type": "abort",
                           "reason": f"protocol {PROTOCOL_VERSION} required,"
                                     f" worker speaks "
                                     f"{hello.get('protocol')!r}"})
                return
            worker.name = str(hello.get("worker") or worker.name)
            with self._lock:
                self.workers.append(worker)
                self.state.workers_ever += 1
            self._log(f"worker {worker.name} joined")
            conn.send({"type": "welcome", "protocol": PROTOCOL_VERSION,
                       "sweep": self.sweep})
            self._serve_frames(conn, worker)
        except ProtocolError as exc:
            self._log(f"dropping worker {worker.name}: {exc}")
        except TimeoutError:
            self._log(f"dropping peer {worker.name}: no hello within "
                      f"{self.liveness_timeout_s:g}s")
        except OSError:
            pass  # connection died; release below requeues its cells
        finally:
            with self._lock:
                if worker in self.workers:
                    self.workers.remove(worker)
                    self.last_departure = time.monotonic()
            self.state.release_worker(worker)
            conn.close()

    def _serve_frames(self, conn: FrameConn, worker: _WorkerConn) -> None:
        while True:
            frame = conn.recv()
            if frame is None:
                return  # clean disconnect
            worker.last_seen = time.monotonic()
            kind = frame["type"]
            if kind == "ping":
                continue
            if kind == "next":
                verb, value = self.state.checkout(worker)
                if verb == "cell":
                    conn.send({"type": "cell", "id": value.cell_id,
                               "campaign": value.campaign,
                               "task": value.cell.task,
                               "spec": value.wire_spec})
                elif verb == "wait":
                    conn.send({"type": "wait", "ms": 200})
                elif verb == "abort":
                    conn.send({"type": "abort", "reason": value})
                else:
                    conn.send({"type": "done"})
            elif kind == "result":
                self.state.deliver(frame.get("id"), frame.get("payload"),
                                   worker)
            elif kind == "error":
                detail = frame.get("error", "task failed")
                trace = frame.get("traceback")
                if trace:
                    detail = f"{detail}\n(worker traceback)\n{trace}"
                self.state.fail_cell(frame.get("id"), RuntimeError(detail),
                                     worker)
            else:
                raise ProtocolError(f"unexpected frame type {kind!r}")

    def live_workers(self) -> list[_WorkerConn]:
        with self._lock:
            return list(self.workers)

    def kill_silent(self, timeout_s: float) -> None:
        now = time.monotonic()
        for worker in self.live_workers():
            if now - worker.last_seen > timeout_s:
                self._log(f"worker {worker.name} silent for "
                          f"{now - worker.last_seen:.1f}s: declaring dead")
                worker.conn.kill()

    def close(self) -> None:
        """Stop accepting, hang up on every peer, and join every thread
        this coordinator started, so none outlives the sweep holding its
        state (and that run's payloads) alive."""
        try:
            # close() alone does not wake a thread blocked in accept()
            # on Linux; shutdown() does.
            self._server.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._server.close()
        if self._accept_thread is not None:
            self._accept_thread.join(_JOIN_TIMEOUT_S)
        with self._lock:
            conns, self._conns = self._conns, []
        for conn, _ in conns:
            conn.kill()
        for _, thread in conns:
            thread.join(_JOIN_TIMEOUT_S)


# -- local execution -----------------------------------------------------

def _execute_local(state: _FarmState, items: list[_Item], jobs: int) -> None:
    """The one local executor: in-process at ``jobs == 1`` or for a
    single cell, else the process pool."""
    if jobs == 1 or len(items) == 1:
        _execute_serial(state, items)
    else:
        _execute_pool(state, items, jobs)


def _execute_serial(state: _FarmState, items: list[_Item]) -> None:
    for item in items:
        if state.stopped():
            return
        try:
            payload = _run_cell(item.cell.task, item.cell.spec)
        except Exception as exc:
            state.fail_cell(item.cell_id, exc, None)
            return
        state.deliver(item.cell_id, payload, None)


def _execute_pool(state: _FarmState, items: list[_Item], jobs: int) -> None:
    """Every cell is cached and journaled as it lands, so a killed
    ``--jobs N`` run keeps what it finished; the first failure cancels
    every cell not yet started."""
    with ProcessPoolExecutor(max_workers=min(jobs, len(items)),
                             initializer=_init_worker,
                             initargs=(list(sys.path),)) as pool:
        futures = {pool.submit(_run_cell, it.cell.task, it.cell.spec): it
                   for it in items}
        pending = set(futures)
        while pending:
            finished, pending = wait(pending, return_when=FIRST_COMPLETED)
            for future in finished:
                # popped: the payload it holds dies once decoded
                item = futures.pop(future)
                exc = future.exception()
                if exc is None:
                    state.deliver(item.cell_id, future.result(), None)
                else:
                    state.fail_cell(item.cell_id, exc, None)
            if state.stopped():
                pool.shutdown(cancel_futures=True)
                return


# -- the sweep -----------------------------------------------------------

def _run_sweep(specs: list[CampaignSpec],
               serve: Callable[[_FarmState, str, int], None] | None, *,
               jobs: int | None, fresh: bool,
               cache_dir: str | os.PathLike | None,
               journal_dir: str | os.PathLike | None = None,
               retry_budget: int = DEFAULT_RETRY_BUDGET,
               crash_after: int | None = None,
               quiet: bool) -> dict[str, CampaignResults]:
    """Execute campaigns as one largest-cell-first queue; decoded
    results in cell order.  ``serve(state, sweep, jobs)`` drains the
    queue (the farm coordinator); ``None`` runs it on the local
    executor."""
    jobs = resolve_jobs(jobs)
    cache = ResultCache(cache_dir)
    start = time.monotonic()

    hashes = [[cell_hash(cell) for cell in spec.cells] for spec in specs]
    sweep = _sweep_id(specs, hashes, fresh)
    journal = Journal(sweep, [s.name for s in specs],
                      cache.dir / "journal" if journal_dir is None
                      else journal_dir)

    # Each payload is decoded as it lands; a cache entry that will not
    # decode is a miss, recomputed and rewritten.  The loaded entries
    # are released together once the scan ends: freed one at a time
    # between the decoded columns' allocations, they fragmented the heap
    # (campaign_stack peak RSS 87.5 -> 93.3 MB under some layouts).
    decoded: dict[str, dict[Hashable, Any]] = {s.name: {} for s in specs}
    resumed = dict.fromkeys(decoded, 0)
    items: list[_Item] = []
    loaded = []
    for spec, chashes in zip(specs, hashes):
        journal_done = journal.done[spec.name]
        for cell, chash in zip(spec.cells, chashes):
            path = cache.entry(spec.name, chash)
            # Under --fresh only the journal vouches for an entry: the
            # interrupted run of this same sweep computed it.
            payload = (cache.load(path) if not fresh or chash in journal_done
                       else None)
            if payload is not None:
                loaded.append(payload)
                try:
                    decoded[spec.name][cell.key] = \
                        _resolve(cell.decode)(payload)
                except Exception:
                    # Any failure is a miss: if the decoder itself is at
                    # fault, the recomputed cell's delivery reports it.
                    payload = None
            if payload is None:
                items.append(_Item(
                    campaign=spec.name, cell=cell, path=path, chash=chash,
                    cell_id=f"{spec.name}/{chash}",
                    wire_spec=encode_spec(cell.spec), cost=_cell_cost(cell)))
            elif fresh:
                resumed[spec.name] += 1
    del loaded
    items.sort(key=lambda it: it.cost, reverse=True)

    state = _FarmState(items, retry_budget=retry_budget, cache=cache,
                       journal=journal, crash_after=crash_after)
    if items:
        if serve is None:
            _execute_local(state, items, jobs)
        else:
            serve(state, sweep, jobs)
        if state.failure is not None:
            raise state.failure
        if state.crashed:
            raise FarmInterrupted(
                f"coordinator interrupted after {len(state.results)} "
                f"cell(s); journal retained for resume (sweep {sweep})")
        for item in items:
            decoded[item.campaign][item.cell.key] = \
                state.results[item.cell_id]

    journal.complete()
    wall = time.monotonic() - start

    computed = Counter(item.campaign for item in items)
    out: dict[str, CampaignResults] = {}
    for spec in specs:
        results = out[spec.name] = CampaignResults(
            (cell.key, decoded[spec.name][cell.key]) for cell in spec.cells)
        results.name = spec.name
        results.jobs = jobs
        results.computed = computed[spec.name]
        results.cached = len(spec.cells) - computed[spec.name]
        results.wall_seconds = wall
        results.farm_workers = state.workers_ever
        results.farm_requeues = state.requeues
        results.farm_resumed = resumed[spec.name]
        results.farm_fallback = state.fallback
    if not quiet:
        total = sum(len(s.cells) for s in specs)
        print(f"[campaign] {len(specs)} campaigns, {total} cells: "
              f"{len(items)} computed, {total - len(items)} cached/resumed "
              f"(jobs={jobs}, {state.workers_ever} farm worker(s), "
              f"{state.requeues} requeue(s), {wall:.1f}s)", file=sys.stderr)
    return out


def run_farm(specs: list[CampaignSpec], *, host: str = "127.0.0.1",
             port: int = 0, jobs: int | None = None, fresh: bool = False,
             cache_dir: str | os.PathLike | None = None,
             journal_dir: str | os.PathLike | None = None,
             farm_wait_s: float = 10.0,
             retry_budget: int = DEFAULT_RETRY_BUDGET,
             liveness_timeout_s: float = DEFAULT_LIVENESS_TIMEOUT_S,
             quiet: bool = False, crash_after: int | None = None,
             on_listening: Callable[[int], None] | None = None,
             ) -> dict[str, CampaignResults]:
    """Execute campaigns over a worker farm; same contract as
    ``run_pooled`` (decoded results in cell order, identical cache
    entries and digests), plus the ``farm_*`` stats.

    ``on_listening(port)`` fires once the coordinator socket is bound —
    the hook tests and the smoke harness use to launch workers against
    an ephemeral port.  ``crash_after=N`` is the crash-injection hook:
    the coordinator raises :class:`FarmInterrupted` after journaling N
    cells, leaving the journal for a resume run.  ``farm_wait_s`` is the
    grace window before the local fallback (no worker ever connected,
    or every worker died and none returned).  The journal lives in
    ``<cache dir>/journal/`` unless ``journal_dir`` names another.
    """
    serve = partial(_serve, host=host, port=port, quiet=quiet,
                    on_listening=on_listening, farm_wait_s=farm_wait_s,
                    liveness_timeout_s=liveness_timeout_s)
    return _run_sweep(specs, serve, jobs=jobs, fresh=fresh,
                      cache_dir=cache_dir, journal_dir=journal_dir,
                      retry_budget=retry_budget, crash_after=crash_after,
                      quiet=quiet)


def _serve(state: _FarmState, sweep: str, jobs: int, *, host: str,
           port: int, quiet: bool,
           on_listening: Callable[[int], None] | None,
           farm_wait_s: float, liveness_timeout_s: float) -> None:
    """The coordinator main loop: liveness, local cells, fallback."""
    coordinator = FarmCoordinator(state, sweep, host=host, port=port,
                                  quiet=quiet,
                                  liveness_timeout_s=liveness_timeout_s)
    coordinator.start()
    try:
        coordinator._log(f"coordinator on {coordinator.host}:"
                         f"{coordinator.port}: {len(state.items)} cells, "
                         f"sweep {sweep}")
        if on_listening is not None:
            on_listening(coordinator.port)
        started = time.monotonic()
        while not state.done.wait(0.05):
            coordinator.kill_silent(liveness_timeout_s)

            # Cells that cannot cross the wire run here, alongside workers.
            item = state.pop_local()
            if item is not None:
                _execute_serial(state, [item])
                continue

            # Fallback: nobody is coming (never connected, or all dead
            # past the grace window) — drain the remaining cells locally.
            if not coordinator.live_workers() and state.wire_work_remains():
                now = time.monotonic()
                if state.workers_ever == 0:
                    idle = now - started
                else:
                    idle = now - coordinator.last_departure
                if idle >= farm_wait_s and not state.in_flight:
                    adopted = state.adopt_wire_locally()
                    if adopted:
                        coordinator._log(
                            f"no live workers after {idle:.1f}s: running "
                            f"{len(adopted)} cell(s) locally (jobs={jobs})")
                        state.fallback = True
                        _execute_local(state, adopted, jobs)
    finally:
        coordinator.close()


# -- the worker ----------------------------------------------------------

def parse_address(text: str) -> tuple[str, int]:
    """``HOST:PORT`` (or bare ``PORT`` for loopback) -> address tuple."""
    host, sep, port = text.rpartition(":")
    if not sep:
        host, port = "127.0.0.1", text
    try:
        return (host or "127.0.0.1", int(port))
    except ValueError:
        raise ValueError(
            f"farm address must be HOST:PORT, got {text!r}") from None


def worker_loop(host: str, port: int, *, name: str | None = None,
                heartbeat_s: float = DEFAULT_HEARTBEAT_S,
                connect_timeout_s: float = 10.0,
                die_after: int | None = None,
                on_die: Callable[[], None] | None = None,
                quiet: bool = True) -> int:
    """One farm worker: pull cells until the coordinator says done.

    Returns the number of cells completed.  ``die_after=N`` is the
    chaos hook behind ``farm-worker --die-after``: upon *receiving* the
    Nth cell the worker dies abruptly — via ``on_die`` (the CLI SIGKILLs
    itself) or by hard-closing the socket — before any result ships,
    which is exactly the mid-cell worker death the coordinator's
    requeue path must absorb.
    """
    sock = socket.create_connection((host, port), timeout=connect_timeout_s)
    sock.settimeout(None)
    conn = FrameConn(sock)
    label = name or f"pid{os.getpid()}"
    completed = 0
    received = 0
    try:
        conn.send({"type": "hello", "protocol": PROTOCOL_VERSION,
                   "worker": label})
        welcome = conn.recv()
        if welcome is None:
            return 0
        if welcome.get("type") == "abort":
            raise ProtocolError(str(welcome.get("reason")))
        if (welcome.get("type") != "welcome"
                or welcome.get("protocol") != PROTOCOL_VERSION):
            raise ProtocolError(f"bad welcome: {welcome!r}")
        while True:
            conn.send({"type": "next"})
            frame = conn.recv()
            if frame is None:
                return completed  # coordinator gone: sweep over (or dead)
            kind = frame["type"]
            if kind in ("done", "abort"):
                if kind == "abort" and not quiet:
                    print(f"[farm-worker {label}] aborted: "
                          f"{frame.get('reason', '')}", file=sys.stderr)
                return completed
            if kind == "wait":
                time.sleep(min(int(frame.get("ms", 200)), 2000) / 1000.0)
                continue
            if kind != "cell":
                raise ProtocolError(
                    f"unexpected frame {kind!r} from coordinator")
            received += 1
            if die_after is not None and received >= die_after:
                if on_die is not None:
                    on_die()
                conn.kill()
                return completed
            _run_one(conn, frame, heartbeat_s)
            if frame.get("_completed", True):
                completed += 1
    finally:
        conn.close()


def _run_one(conn: FrameConn, frame: dict, heartbeat_s: float) -> None:
    """Execute one cell frame, heartbeating while it computes."""
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(heartbeat_s):
            try:
                conn.send({"type": "ping"})
            except OSError:
                return

    pinger = threading.Thread(target=beat, name="farm-heartbeat",
                              daemon=True)
    pinger.start()
    try:
        spec = decode_spec(frame["spec"])
        payload = _run_cell(frame["task"], spec)
    except Exception as exc:
        stop.set()
        pinger.join()
        conn.send({"type": "error", "id": frame["id"],
                   "error": f"{type(exc).__name__}: {exc}",
                   "traceback": traceback.format_exc()})
        frame["_completed"] = False
        return
    stop.set()
    pinger.join()
    conn.send({"type": "result", "id": frame["id"], "payload": payload})
    frame["_completed"] = True
