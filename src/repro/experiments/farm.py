"""Distributed campaign farm: the pooled cell queue served over TCP.

``campaign.run_pooled`` is the single-host half of a cluster scheduler:
a global largest-cell-first queue, a content-hash result cache, exact
payload round-trips, and ``CampaignCellError`` attribution.  This module
is the fleet half, in the style of FireSim's externally-provisioned run
farms: a coordinator serves that same queue over a line-delimited
JSON/TCP protocol (:mod:`repro.experiments.wire`), and any number of
worker processes — ``python -m repro farm-worker <host:port>`` — pull
cells, execute them through the existing ``_run_cell`` task path, and
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
* **Idempotence** — results are keyed by cell id; a duplicate delivery
  (a presumed-dead worker that was merely slow) is ignored, so a cell
  lands in the cache and journal exactly once.
* **Resumability** — every completed cell is appended to a per-campaign
  journal (``benchmarks/results/journal/<campaign>.jsonl``) tagged with
  a sweep id.  A killed coordinator restarted on the same spec loads
  the journal and completes only the missing cells, even under
  ``--fresh``.  A completed sweep deletes its journal.
* **Fallback** — if no worker connects within the grace window (or all
  workers die and none return), the coordinator drains the remaining
  cells itself through the local pool, so ``--farm`` never strands a
  campaign.
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
from collections import deque
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Hashable

from repro.experiments.campaign import (
    CampaignCellError,
    CampaignResults,
    CampaignSpec,
    Cell,
    ResultCache,
    _cell_cost,
    _init_worker,
    _resolve,
    _run_cell,
    cell_hash,
    resolve_jobs,
)
from repro.experiments.runner import ExperimentConfig
from repro.experiments.wire import (
    PROTOCOL_VERSION,
    FrameConn,
    ProtocolError,
)

#: default journal location, next to the result cache; override with
#: ``REPRO_JOURNAL_DIR`` or the ``journal_dir`` argument
DEFAULT_JOURNAL_DIR = (Path(__file__).resolve().parents[3]
                       / "benchmarks" / "results" / "journal")

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
    digest = hashlib.sha256()
    digest.update(b"fresh" if fresh else b"cached")
    for spec in specs:
        for cell in spec.cells:
            digest.update(spec.name.encode())
            digest.update(b"\0")
            digest.update(cell_hash(cell).encode())
            digest.update(b"\0")
    return digest.hexdigest()[:16]


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in name)


class Journal:
    """Append-only per-campaign record of cells one sweep completed.

    One line per completed cell: ``{"v": 1, "sweep": <id>, "cell":
    <cell hash>, "key": <repr of the cell key>}``.  Loading tolerates a
    torn final line (the coordinator died mid-append); any valid record
    from a *different* sweep retires the whole file, which is truncated
    on the next write.  ``complete()`` deletes the files — a journal on
    disk always means an unfinished sweep.
    """

    def __init__(self, sweep: str, campaigns: list[str],
                 journal_dir: str | os.PathLike | None = None) -> None:
        if journal_dir is None:
            journal_dir = (os.environ.get("REPRO_JOURNAL_DIR")
                           or DEFAULT_JOURNAL_DIR)
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


# -- coordinator state ---------------------------------------------------

@dataclass
class _Item:
    """One pending cell with everything both execution paths need."""

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
    """Lock-protected sweep state shared by every connection thread."""

    def __init__(self, items: list[_Item], *, retry_budget: int,
                 cache: ResultCache, journal: Journal,
                 crash_after: int | None = None) -> None:
        self.lock = threading.Lock()
        self.items = {item.cell_id: item for item in items}
        ordered = sorted(items, key=lambda it: it.cost, reverse=True)
        self.wire_queue: deque[_Item] = deque(
            it for it in ordered if it.wire_spec is not None)
        self.local_queue: deque[_Item] = deque(
            it for it in ordered if it.wire_spec is None)
        self.in_flight: dict[str, _WorkerConn] = {}
        self.attempts: dict[str, int] = {}
        self.payloads: dict[str, Any] = {}
        self.computed: set[str] = set()
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

    # -- dispatch --------------------------------------------------------

    def checkout(self, worker: _WorkerConn) -> tuple[str, Any]:
        """Next wire-eligible cell for ``worker``: ``("cell", item)``,
        ``("wait", None)``, ``("done", None)``, or ``("abort", reason)``."""
        with self.lock:
            if self.failure is not None:
                return ("abort", str(self.failure))
            if self.crashed:
                return ("abort", "coordinator interrupted (crash hook)")
            while self.wire_queue:
                item = self.wire_queue.popleft()
                if item.cell_id in self.payloads:
                    continue  # completed while requeued (slow twin won)
                self.in_flight[item.cell_id] = worker
                worker.holding.add(item.cell_id)
                return ("cell", item)
            if self.in_flight:
                return ("wait", None)
            return ("done", None)

    def pop_local(self) -> _Item | None:
        with self.lock:
            while self.local_queue:
                item = self.local_queue.popleft()
                if item.cell_id not in self.payloads:
                    return item
            return None

    def adopt_wire_locally(self) -> list[_Item]:
        """Local-pool fallback: take every queued wire cell."""
        with self.lock:
            taken = [it for it in self.wire_queue
                     if it.cell_id not in self.payloads]
            self.wire_queue.clear()
            return taken

    def wire_work_remains(self) -> bool:
        with self.lock:
            return bool(self.wire_queue) or bool(self.in_flight)

    # -- results ---------------------------------------------------------

    def deliver(self, cell_id: Any, payload: Any,
                worker: _WorkerConn | None) -> bool:
        """Record one result; False (and no effect) for duplicates."""
        with self.lock:
            item = self.items.get(cell_id)
            if item is None:
                raise ProtocolError(f"result for unknown cell {cell_id!r}")
            if worker is not None and self.in_flight.get(cell_id) is worker:
                del self.in_flight[cell_id]
                worker.holding.discard(cell_id)
            if item.cell_id in self.payloads:
                self.duplicates += 1
                return False  # idempotent: first delivery won
            self.payloads[item.cell_id] = payload
            self.computed.add(item.cell_id)
            self.cache.store(item.path, item.campaign, item.cell, payload)
            self.journal.record(item.campaign, item.chash, item.cell)
            if (self.crash_after is not None
                    and len(self.computed) >= self.crash_after):
                self.crashed = True
                self.done.set()
            if len(self.payloads) == len(self.items):
                self.done.set()
            return True

    def fail_cell(self, cell_id: Any, cause: BaseException) -> None:
        """A cell's task raised (deterministic failure: no retry)."""
        with self.lock:
            item = self.items.get(cell_id)
            if item is None:
                raise ProtocolError(f"error for unknown cell {cell_id!r}")
            if self.failure is None:
                self.failure = CampaignCellError(item.campaign, item.cell,
                                                 cause)
            self.done.set()

    def release_worker(self, worker: _WorkerConn) -> None:
        """Worker gone: requeue its in-flight cells, budget permitting."""
        with self.lock:
            for cell_id in sorted(worker.holding):
                if self.in_flight.get(cell_id) is not worker:
                    continue
                del self.in_flight[cell_id]
                item = self.items[cell_id]
                if cell_id in self.payloads:
                    continue
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

@dataclass
class _FarmStats:
    workers_ever: int = 0
    fallback: bool = False
    requeues: int = 0
    duplicates: int = 0
    resumed: dict[str, int] = field(default_factory=dict)


class FarmCoordinator:
    """Accepts workers and serves the queue; one thread per connection."""

    def __init__(self, state: _FarmState, sweep: str, *,
                 host: str, port: int, quiet: bool) -> None:
        self.state = state
        self.sweep = sweep
        self.quiet = quiet
        self._server = socket.create_server((host, port))
        self.host, self.port = self._server.getsockname()[:2]
        self._lock = threading.Lock()
        self.workers: list[_WorkerConn] = []
        self.workers_ever = 0
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
            hello = conn.recv()
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
                self.workers_ever += 1
            self._log(f"worker {worker.name} joined")
            conn.send({"type": "welcome", "protocol": PROTOCOL_VERSION,
                       "sweep": self.sweep})
            self._serve_frames(conn, worker)
        except ProtocolError as exc:
            self._log(f"dropping worker {worker.name}: {exc}")
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
                self.state.fail_cell(frame.get("id"), RuntimeError(detail))
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


# -- execution -----------------------------------------------------------

def _execute_serial(state: _FarmState, items: list[_Item]) -> None:
    for item in items:
        with state.lock:
            stop = (state.failure is not None or state.crashed
                    or item.cell_id in state.payloads)
        if stop:
            if state.failure is not None or state.crashed:
                return
            continue
        try:
            payload = _run_cell(item.cell.task, item.cell.spec)
        except Exception as exc:
            state.fail_cell(item.cell_id, exc)
            return
        state.deliver(item.cell_id, payload, None)


def _execute_pool(state: _FarmState, items: list[_Item], jobs: int) -> None:
    with ProcessPoolExecutor(max_workers=min(jobs, len(items)),
                             initializer=_init_worker,
                             initargs=(list(sys.path),)) as pool:
        futures = {pool.submit(_run_cell, it.cell.task, it.cell.spec): it
                   for it in items}
        pending = set(futures)
        while pending:
            finished, pending = wait(pending, return_when=FIRST_EXCEPTION)
            for future in finished:
                item = futures[future]
                exc = future.exception()
                if exc is not None:
                    state.fail_cell(item.cell_id, exc)
                    pool.shutdown(cancel_futures=True)
                    return
                state.deliver(item.cell_id, future.result(), None)
            with state.lock:
                interrupted = state.crashed or state.failure is not None
            if interrupted:
                pool.shutdown(cancel_futures=True)
                return


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
    entries and digests).

    ``on_listening(port)`` fires once the coordinator socket is bound —
    the hook tests and the smoke harness use to launch workers against
    an ephemeral port.  ``crash_after=N`` is the crash-injection hook:
    the coordinator raises :class:`FarmInterrupted` after journaling N
    cells, leaving the journal for a resume run.  ``farm_wait_s`` is the
    grace window before the local-pool fallback (no worker ever
    connected, or every worker died and none returned).
    """
    jobs = resolve_jobs(jobs)
    cache = ResultCache(cache_dir)
    start = time.monotonic()

    sweep = sweep_id(specs, fresh)
    journal = Journal(sweep, [s.name for s in specs], journal_dir)

    payloads: dict[str, dict[Hashable, Any]] = {s.name: {} for s in specs}
    items: list[_Item] = []
    stats = _FarmStats()
    for spec in specs:
        resumed = 0
        journal_done = journal.done.get(spec.name, set())
        for cell in spec.cells:
            path = cache.path_for(spec.name, cell)
            chash = cell_hash(cell)
            payload = None if fresh else cache.load(path)
            if payload is None and chash in journal_done:
                # The interrupted sweep already computed this cell; its
                # payload is in the cache even under --fresh.
                payload = cache.load(path)
                if payload is not None:
                    resumed += 1
            if payload is None:
                items.append(_Item(
                    campaign=spec.name, cell=cell, path=path, chash=chash,
                    cell_id=f"{spec.name}/{chash}",
                    wire_spec=encode_spec(cell.spec),
                    cost=_cell_cost(cell)))
            else:
                payloads[spec.name][cell.key] = payload
        stats.resumed[spec.name] = resumed

    state = _FarmState(items, retry_budget=retry_budget, cache=cache,
                       journal=journal, crash_after=crash_after)

    if items:
        coordinator = FarmCoordinator(state, sweep, host=host, port=port,
                                      quiet=quiet)
        coordinator.start()
        if not quiet:
            print(f"[farm] coordinator on {coordinator.host}:"
                  f"{coordinator.port}: {len(items)} cells, sweep {sweep}",
                  file=sys.stderr)
        if on_listening is not None:
            on_listening(coordinator.port)
        try:
            _serve(state, coordinator, jobs=jobs, farm_wait_s=farm_wait_s,
                   liveness_timeout_s=liveness_timeout_s)
        finally:
            stats.workers_ever = coordinator.workers_ever
            stats.requeues = state.requeues
            stats.duplicates = state.duplicates
            stats.fallback = state.fallback
            coordinator.close()
        if state.failure is not None:
            raise state.failure
        if state.crashed:
            raise FarmInterrupted(
                f"coordinator interrupted after {len(state.computed)} "
                f"cell(s); journal retained for resume (sweep {sweep})")
        for item in items:
            payloads[item.campaign][item.cell.key] = \
                state.payloads[item.cell_id]

    journal.complete()
    wall = time.monotonic() - start

    computed_by: dict[str, int] = {s.name: 0 for s in specs}
    for item in items:
        if item.cell_id in state.computed:
            computed_by[item.campaign] += 1
    out: dict[str, CampaignResults] = {}
    for spec in specs:
        results = CampaignResults(
            (cell.key,
             _resolve(cell.decode)(payloads[spec.name][cell.key]))
            for cell in spec.cells)
        results.name = spec.name
        results.jobs = jobs
        results.computed = computed_by[spec.name]
        results.cached = len(spec.cells) - computed_by[spec.name]
        results.wall_seconds = wall
        results.farm_workers = stats.workers_ever
        results.farm_requeues = stats.requeues
        results.farm_resumed = stats.resumed.get(spec.name, 0)
        results.farm_fallback = stats.fallback
        out[spec.name] = results
    if not quiet:
        total = sum(len(s.cells) for s in specs)
        mode = "fallback pool" if stats.fallback else "farm"
        print(f"[farm] {len(specs)} campaigns, {total} cells: "
              f"{len(state.computed)} computed ({mode}), "
              f"{total - len(state.computed)} cached/resumed, "
              f"{stats.workers_ever} worker(s), {stats.requeues} "
              f"requeue(s), {wall:.1f}s", file=sys.stderr)
    return out


def _serve(state: _FarmState, coordinator: FarmCoordinator, *, jobs: int,
           farm_wait_s: float, liveness_timeout_s: float) -> None:
    """The coordinator main loop: liveness, local cells, fallback."""
    started = time.monotonic()
    while not state.done.wait(0.05):
        coordinator.kill_silent(liveness_timeout_s)

        # Cells that cannot cross the wire run here, alongside workers.
        item = state.pop_local()
        if item is not None:
            _execute_serial(state, [item])
            continue

        # Fallback: nobody is coming (never connected, or all dead past
        # the grace window) — drain the remaining cells locally.
        if not coordinator.live_workers() and state.wire_work_remains():
            now = time.monotonic()
            if coordinator.workers_ever == 0:
                idle = now - started
            else:
                idle = now - coordinator.last_departure
            if idle >= farm_wait_s and not state.in_flight:
                adopted = state.adopt_wire_locally()
                if adopted:
                    coordinator._log(
                        f"no live workers after {idle:.1f}s: running "
                        f"{len(adopted)} cell(s) on the local pool "
                        f"(jobs={jobs})")
                    state.fallback = True
                    if jobs == 1 or len(adopted) == 1:
                        _execute_serial(state, adopted)
                    else:
                        _execute_pool(state, adopted, jobs)


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
