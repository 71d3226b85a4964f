"""Tests for the campaign farm: the wire protocol, spec transport, the
resumable journal, and the coordinator's retry/fallback semantics."""

import json
import socket
import threading
import time

import pytest

from repro.experiments import farm, wire
from repro.experiments.campaign import (
    EXPERIMENT_DECODE,
    IDENTITY_DECODE,
    CampaignCellError,
    CampaignSpec,
    Cell,
    ResultCache,
    cell_hash,
    run_pooled,
    slowdown_digest,
)
from repro.experiments.runner import ExperimentConfig
from repro.experiments.wire import (
    PROTOCOL_VERSION,
    FrameConn,
    FrameReader,
    ProtocolError,
    encode_frame,
)


def square_task(spec):
    """Deterministic payload: farmed and serial runs are byte-identical."""
    return {"value": spec["x"] * spec["x"]}


def boom_task(spec):
    raise ValueError(f"boom on {spec['x']}")


def small_cfg(**kw):
    base = dict(protocol="homa", workload="W1", load=0.5,
                racks=1, hosts_per_rack=4, aggrs=0,
                duration_ms=1.0, warmup_ms=0.0, drain_ms=4.0,
                max_messages=120)
    base.update(kw)
    return ExperimentConfig(**base)


def square_spec(n=6, name="farmtest"):
    return CampaignSpec(name=name, cells=[
        Cell(key=i, spec={"x": i}, task="tests.test_farm:square_task",
             decode=IDENTITY_DECODE)
        for i in range(n)])


def run_farm_with_workers(specs, tmp_path, *, workers=2, die_after=None,
                          stagger=False, **kw):
    """run_farm with in-thread workers launched once the port is known.

    ``die_after`` applies to the first worker only.  ``stagger`` joins
    the dying worker before starting the rest, making the death (and
    its requeue) deterministic."""
    threads = []

    def on_listening(port):
        for i in range(workers):
            kwargs = {"name": f"w{i}"}
            if i == 0 and die_after is not None:
                kwargs["die_after"] = die_after
            t = threading.Thread(target=farm.worker_loop,
                                 args=("127.0.0.1", port), kwargs=kwargs,
                                 daemon=True)
            t.start()
            threads.append(t)
            if stagger and i == 0 and die_after is not None:
                t.join(timeout=30)

    kw.setdefault("cache_dir", tmp_path / "cache")
    kw.setdefault("journal_dir", tmp_path / "journal")
    kw.setdefault("quiet", True)
    try:
        return farm.run_farm(specs, on_listening=on_listening, **kw)
    finally:
        # Also when run_farm raises (FarmInterrupted): callers count
        # threads afterwards, and a worker may still be unwinding.
        for t in threads:
            t.join(timeout=30)


# -- wire protocol -------------------------------------------------------


def frames_from(*payloads):
    """A FrameReader over a socket fed the given raw byte strings."""
    a, b = socket.socketpair()
    for chunk in payloads:
        a.sendall(chunk)
    a.close()
    return FrameReader(b)


def test_frame_round_trip_and_clean_eof():
    reader = frames_from(encode_frame({"type": "ping"}),
                         encode_frame({"type": "result", "id": "x",
                                       "payload": {"v": 1.5}}))
    assert reader.read_frame() == {"type": "ping"}
    assert reader.read_frame() == {"type": "result", "id": "x",
                                   "payload": {"v": 1.5}}
    assert reader.read_frame() is None


def test_frame_split_across_recv_boundaries():
    wire = encode_frame({"type": "cell", "id": "a" * 100})
    a, b = socket.socketpair()
    reader = FrameReader(b)
    got = {}

    def feed():
        for i in range(0, len(wire), 7):
            a.sendall(wire[i:i + 7])
        a.close()

    t = threading.Thread(target=feed)
    t.start()
    got = reader.read_frame()
    t.join()
    assert got == {"type": "cell", "id": "a" * 100}


@pytest.mark.parametrize("garbage", [
    b"not json at all\n",
    b"[1, 2, 3]\n",            # not an object
    b'{"no": "type"}\n',       # missing type
    b'{"type": 7}\n',          # non-string type
])
def test_malformed_frames_raise_protocol_error(garbage):
    reader = frames_from(garbage)
    with pytest.raises(ProtocolError):
        reader.read_frame()


def test_eof_mid_frame_raises_protocol_error():
    reader = frames_from(b'{"type": "truncated"')
    with pytest.raises(ProtocolError):
        reader.read_frame()


class TrickleSocket:
    """A fake socket whose ``recv`` yields ``data`` ``piece`` bytes at a
    time, however much the caller asks for: a slow peer."""

    def __init__(self, data: bytes, piece: int) -> None:
        self._view = memoryview(data)
        self._piece = piece

    def recv(self, _bufsize: int) -> bytes:
        chunk = bytes(self._view[:self._piece])
        self._view = self._view[self._piece:]
        return chunk


def test_trickled_frame_reads_in_linear_time():
    """A 16 MB frame in 1 KB pieces: rescanning the whole buffer after
    every piece made this quadratic (≈5 s); resuming the scan where the
    last one stopped reads it in a small fraction of a second."""
    blob = "x" * (16 * 1024 * 1024)
    reader = FrameReader(TrickleSocket(
        encode_frame({"type": "blob", "data": blob}), 1024))
    start = time.perf_counter()
    frame = reader.read_frame()
    elapsed = time.perf_counter() - start
    assert frame == {"type": "blob", "data": blob}
    assert reader.read_frame() is None
    assert elapsed < 1.0, f"16 MB frame took {elapsed:.2f} s"


def test_trickled_frames_keep_blank_lines_and_following_frames():
    """The resumed scan restarts at each consumed frame: blank lines are
    skipped and a frame sharing a piece with its predecessor is found."""
    data = (b"\n \n" + encode_frame({"type": "a", "v": "y" * 50})
            + encode_frame({"type": "b"}) + b"\n" + encode_frame({"type": "c"}))
    # 64: frame a's tail arrives in the same piece as all of b
    for piece in (1, 7, 64, len(data)):
        reader = FrameReader(TrickleSocket(data, piece))
        assert [reader.read_frame()["type"] for _ in range(3)] \
            == ["a", "b", "c"]
        assert reader.read_frame() is None


def test_trickled_oversized_frame_raises_protocol_error(monkeypatch):
    monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 4096)
    reader = FrameReader(TrickleSocket(b"z" * 10_000, 100))
    with pytest.raises(ProtocolError, match="exceeds 4096 bytes"):
        reader.read_frame()


def test_farm_sockets_disable_nagle(tmp_path, monkeypatch):
    """Both ends of a farm connection set TCP_NODELAY, so a worker's
    small ``next`` frame never waits behind the delayed ACK of its large
    ``result`` frame; a socketpair (no Nagle) still works."""
    seen = []

    class RecordingConn(FrameConn):
        def __init__(self, sock):
            super().__init__(sock)
            seen.append((sock.getsockname(), sock.getpeername(),
                         sock.getsockopt(socket.IPPROTO_TCP,
                                         socket.TCP_NODELAY)))

    monkeypatch.setattr(farm, "FrameConn", RecordingConn)
    spec = square_spec(n=2)
    out = run_farm_with_workers([spec], tmp_path, workers=1)
    assert out[spec.name].farm_workers == 1
    # The coordinator's accepted socket and the worker's socket: the two
    # ends of one connection.
    assert len(seen) == 2
    assert (seen[0][0], seen[0][1]) == (seen[1][1], seen[1][0])
    assert all(nodelay for _, _, nodelay in seen), seen

    a, b = socket.socketpair()
    left, right = FrameConn(a), FrameConn(b)
    try:
        left.send({"type": "ping", "n": 1})
        assert right.recv() == {"type": "ping", "n": 1}
    finally:
        left.close()
        right.close()


# -- spec transport ------------------------------------------------------


def test_encode_spec_experiment_config_round_trips_exactly():
    cfg = small_cfg(load=0.8)
    wire_spec = farm.encode_spec(cfg)
    assert wire_spec["kind"] == "experiment"
    # Through actual wire bytes, like a real farm hop.
    back = farm.decode_spec(json.loads(encode_frame(
        {"type": "cell", "spec": wire_spec}).decode())["spec"])
    assert back == cfg


def test_encode_spec_json_native_passes_and_inexact_stays_local():
    assert farm.decode_spec(farm.encode_spec({"x": 3, "y": [1.5]})) \
        == {"x": 3, "y": [1.5]}
    # int keys and tuples do not survive JSON: never shipped.
    assert farm.encode_spec({1: "a"}) is None
    assert farm.encode_spec((1, 2)) is None
    with pytest.raises(ProtocolError):
        farm.decode_spec({"kind": "pickle", "data": "x"})


def test_parse_address():
    assert farm.parse_address("10.0.0.1:9000") == ("10.0.0.1", 9000)
    assert farm.parse_address("9000") == ("127.0.0.1", 9000)
    assert farm.parse_address(":9000") == ("127.0.0.1", 9000)
    with pytest.raises(ValueError):
        farm.parse_address("nonsense")


def test_sweep_id_tracks_cells_and_fresh_flag():
    spec = square_spec()
    base = farm.sweep_id([spec], False)
    assert base == farm.sweep_id([spec], False)
    assert base != farm.sweep_id([spec], True)
    assert base != farm.sweep_id([square_spec(n=5)], False)


# -- the journal ---------------------------------------------------------


def test_journal_records_resume_and_complete(tmp_path):
    spec = square_spec(n=3)
    sweep = farm.sweep_id([spec], False)
    j = farm.Journal(sweep, [spec.name], tmp_path)
    hashes = [cell_hash(c) for c in spec.cells]
    j.record(spec.name, hashes[0], spec.cells[0])
    j.record(spec.name, hashes[1], spec.cells[1])

    resumed = farm.Journal(sweep, [spec.name], tmp_path)
    assert resumed.done[spec.name] == {hashes[0], hashes[1]}

    j.complete()
    assert not (tmp_path / f"{spec.name}.jsonl").exists()
    assert farm.Journal(sweep, [spec.name], tmp_path).done[spec.name] \
        == set()


def test_journal_tolerates_torn_tail_line(tmp_path):
    spec = square_spec(n=2)
    sweep = farm.sweep_id([spec], False)
    j = farm.Journal(sweep, [spec.name], tmp_path)
    h = cell_hash(spec.cells[0])
    j.record(spec.name, h, spec.cells[0])
    path = tmp_path / f"{spec.name}.jsonl"
    with open(path, "a") as fh:
        fh.write('{"v":1,"sweep":"' + sweep)  # crash mid-append
    resumed = farm.Journal(sweep, [spec.name], tmp_path)
    assert resumed.done[spec.name] == {h}


def test_journal_retires_other_sweeps_records(tmp_path):
    spec = square_spec(n=2)
    old = farm.Journal("feedfacefeedface", [spec.name], tmp_path)
    old.record(spec.name, cell_hash(spec.cells[0]), spec.cells[0])

    sweep = farm.sweep_id([spec], False)
    j = farm.Journal(sweep, [spec.name], tmp_path)
    assert j.done[spec.name] == set()  # stale journal not trusted
    h = cell_hash(spec.cells[1])
    j.record(spec.name, h, spec.cells[1])  # truncates the stale file
    lines = (tmp_path / f"{spec.name}.jsonl").read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["sweep"] == sweep
    assert farm.Journal(sweep, [spec.name], tmp_path).done[spec.name] == {h}


# -- farm runs -----------------------------------------------------------


def test_farm_matches_serial_cache_bytes(tmp_path):
    spec = square_spec()
    out = run_farm_with_workers([spec], tmp_path)
    assert dict(out[spec.name]) == {i: {"value": i * i} for i in range(6)}
    assert out[spec.name].computed == 6
    assert out[spec.name].farm_workers == 2
    assert not out[spec.name].farm_fallback

    serial = run_pooled([spec], jobs=1, cache_dir=tmp_path / "serial",
                        quiet=True)
    assert dict(serial[spec.name]) == dict(out[spec.name])
    # Byte-identical cache entries (deterministic payload).
    farm_cache, serial_cache = ResultCache(tmp_path / "cache"), \
        ResultCache(tmp_path / "serial")
    for cell in spec.cells:
        assert farm_cache.path_for(spec.name, cell).read_bytes() \
            == serial_cache.path_for(spec.name, cell).read_bytes()
    # Journal deleted on completion.
    assert not (tmp_path / "journal" / f"{spec.name}.jsonl").exists()


def test_farm_second_run_is_all_cache_hits(tmp_path):
    spec = square_spec()
    run_farm_with_workers([spec], tmp_path)
    again = farm.run_farm([spec], cache_dir=tmp_path / "cache",
                          journal_dir=tmp_path / "journal",
                          farm_wait_s=0.1, quiet=True)
    assert again[spec.name].computed == 0
    assert again[spec.name].cached == 6


def test_farm_experiment_cells_digest_identical_to_serial(tmp_path):
    grid = {load: small_cfg(load=load) for load in (0.3, 0.5)}
    spec = CampaignSpec(name="farmexp", cells=[
        Cell(key=load, spec=cfg) for load, cfg in grid.items()])
    out = run_farm_with_workers([spec], tmp_path)
    serial = run_pooled([spec], jobs=1, cache_dir=tmp_path / "serial",
                        quiet=True)
    assert slowdown_digest(out[spec.name]) \
        == slowdown_digest(serial[spec.name])


def test_worker_death_mid_cell_requeues_and_completes(tmp_path):
    spec = square_spec()
    out = run_farm_with_workers([spec], tmp_path, workers=2, die_after=1,
                                stagger=True, farm_wait_s=30.0)
    results = out[spec.name]
    assert dict(results) == {i: {"value": i * i} for i in range(6)}
    # The dying worker held exactly one cell: exactly one requeue.
    assert results.farm_requeues == 1
    assert results.farm_workers == 2


def test_retry_budget_exhaustion_names_the_cell(tmp_path):
    spec = square_spec(n=2)
    with pytest.raises(CampaignCellError) as err:
        run_farm_with_workers([spec], tmp_path, workers=1, die_after=1,
                              stagger=True, retry_budget=0,
                              farm_wait_s=30.0)
    assert err.value.campaign == spec.name
    assert "retry budget" in str(err.value)


def test_task_error_fails_immediately_without_retry(tmp_path):
    cells = [Cell(key=0, spec={"x": 0}, task="tests.test_farm:boom_task",
                  decode=IDENTITY_DECODE)]
    spec = CampaignSpec(name="farmboom", cells=cells)
    with pytest.raises(CampaignCellError) as err:
        run_farm_with_workers([spec], tmp_path, workers=1,
                              farm_wait_s=30.0)
    assert err.value.campaign == spec.name
    assert "boom on 0" in str(err.value)


@pytest.mark.parametrize("path", ["farm", "local"])
def test_undecodable_result_fails_its_cell_and_is_never_cached(tmp_path,
                                                               path):
    """A result whose payload will not decode (here a worker's
    ``{"value": 9}`` claimed as an ``ExperimentResult``) fails the cell
    it names; neither the cache nor the journal ever sees it."""
    cell = Cell(key="forged", spec={"x": 3},
                task="tests.test_farm:square_task", decode=EXPERIMENT_DECODE)
    spec = CampaignSpec(name="farmforged", cells=[cell])
    with pytest.raises(CampaignCellError) as err:
        if path == "farm":
            run_farm_with_workers([spec], tmp_path, workers=1,
                                  farm_wait_s=30.0)
        else:
            run_pooled([spec], jobs=1, cache_dir=tmp_path / "cache",
                       quiet=True)
    assert err.value.campaign == spec.name
    assert err.value.cell is cell
    assert "cell 'forged' failed" in str(err.value)
    assert not ResultCache(tmp_path / "cache").path_for(
        spec.name, cell).exists()
    assert not (tmp_path / "cache" / "journal").exists()
    assert not (tmp_path / "journal").exists()


def test_duplicate_delivery_is_idempotent(tmp_path):
    spec = square_spec(n=2)
    sweep = farm.sweep_id([spec], False)
    cache = ResultCache(tmp_path / "cache")
    journal = farm.Journal(sweep, [spec.name], tmp_path / "journal")
    items = [farm._Item(campaign=spec.name, cell=c,
                        path=cache.path_for(spec.name, c),
                        chash=cell_hash(c),
                        cell_id=f"{spec.name}/{cell_hash(c)}",
                        wire_spec=farm.encode_spec(c.spec),
                        cost=1.0)
             for c in spec.cells]
    state = farm._FarmState(items, retry_budget=2, cache=cache,
                            journal=journal)
    cell_id = items[0].cell_id
    assert state.deliver(cell_id, {"value": 0}, None) is True
    first_bytes = items[0].path.read_bytes()
    # A presumed-dead worker delivering late: ignored, cache untouched.
    assert state.deliver(cell_id, {"value": 999}, None) is False
    assert state.duplicates == 1
    assert items[0].path.read_bytes() == first_bytes
    assert len(journal.done[spec.name]) == 1


def test_unknown_cell_delivery_is_a_protocol_error(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    journal = farm.Journal("0" * 16, ["x"], tmp_path / "journal")
    state = farm._FarmState([], retry_budget=2, cache=cache,
                            journal=journal)
    with pytest.raises(ProtocolError):
        state.deliver("x/deadbeef", {}, None)


def test_coordinator_crash_then_journal_resume(tmp_path):
    spec = square_spec()
    with pytest.raises(farm.FarmInterrupted):
        farm.run_farm([spec], cache_dir=tmp_path / "cache",
                      journal_dir=tmp_path / "journal", fresh=True,
                      farm_wait_s=0.1, crash_after=2, quiet=True)
    journal_path = tmp_path / "journal" / f"{spec.name}.jsonl"
    assert journal_path.exists()

    # Restarted coordinator, same sweep (still --fresh): completes only
    # the missing cells, trusting the journal for the two finished ones.
    out = farm.run_farm([spec], cache_dir=tmp_path / "cache",
                        journal_dir=tmp_path / "journal", fresh=True,
                        farm_wait_s=0.1, quiet=True)
    results = out[spec.name]
    assert dict(results) == {i: {"value": i * i} for i in range(6)}
    assert results.computed == 4
    assert results.farm_resumed == 2
    assert not journal_path.exists()


def test_local_fallback_when_no_workers_connect(tmp_path):
    spec = square_spec()
    out = farm.run_farm([spec], cache_dir=tmp_path / "cache",
                        journal_dir=tmp_path / "journal",
                        farm_wait_s=0.2, quiet=True)
    results = out[spec.name]
    assert dict(results) == {i: {"value": i * i} for i in range(6)}
    assert results.farm_fallback
    assert results.farm_workers == 0


def _farm_threads():
    return sorted(t.name for t in threading.enumerate()
                  if t.name in ("farm-accept", "farm-conn"))


@pytest.mark.parametrize("path", ["normal", "crash_after", "fallback"])
def test_run_farm_leaves_no_thread_behind(tmp_path, path):
    """``run_farm`` joins what it starts: a leaked accept thread keeps
    its coordinator, and every payload that sweep decoded, alive."""
    spec = square_spec()
    assert _farm_threads() == []
    before = threading.active_count()
    if path == "normal":
        out = run_farm_with_workers([spec], tmp_path)
        assert out[spec.name].farm_workers == 2
    elif path == "crash_after":
        with pytest.raises(farm.FarmInterrupted):
            run_farm_with_workers([spec], tmp_path, fresh=True,
                                  crash_after=2)
    else:
        out = farm.run_farm([spec], cache_dir=tmp_path / "cache",
                            journal_dir=tmp_path / "journal",
                            farm_wait_s=0.2, quiet=True)
        assert out[spec.name].farm_fallback
    assert _farm_threads() == []
    assert threading.active_count() == before


def test_untransportable_spec_runs_locally_alongside_workers(tmp_path):
    cells = [Cell(key=i, spec={"x": i}, task="tests.test_farm:square_task",
                  decode=IDENTITY_DECODE) for i in range(3)]
    # int-keyed dict: JSON-inexact, must never cross the wire
    cells.append(Cell(key="local", spec={1: 9, "x": 9},
                      task="tests.test_farm:square_task",
                      decode=IDENTITY_DECODE))
    spec = CampaignSpec(name="farmmixed", cells=cells)
    out = run_farm_with_workers([spec], tmp_path, workers=1)
    results = out[spec.name]
    assert results["local"] == {"value": 81}
    assert dict(results) == {0: {"value": 0}, 1: {"value": 1},
                             2: {"value": 4}, "local": {"value": 81}}


def _coordinate_in_thread(spec, tmp_path, **kw):
    """``run_farm`` in a thread that waits 30 s for workers; returns
    (port, thread, box) where ``box["out"]`` is its result."""
    port_box = {}
    port_ready = threading.Event()
    out_box = {}

    def coordinator():
        def on_listening(port):
            port_box["port"] = port
            port_ready.set()
        out_box["out"] = farm.run_farm(
            [spec], cache_dir=tmp_path / "cache",
            journal_dir=tmp_path / "journal", farm_wait_s=30.0,
            on_listening=on_listening, quiet=True, **kw)

    coord = threading.Thread(target=coordinator, daemon=True)
    coord.start()
    assert port_ready.wait(timeout=30)
    return port_box["port"], coord, out_box


def _vandal_holding_a_cell(port):
    """A registered peer that has checked out one cell: (sock, conn,
    the held cell's id)."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    conn = FrameConn(sock)
    conn.send({"type": "hello", "protocol": PROTOCOL_VERSION,
               "worker": "vandal"})
    assert conn.recv()["type"] == "welcome"
    conn.send({"type": "next"})
    cell = conn.recv()
    assert cell["type"] == "cell"  # now holding a cell
    return sock, conn, cell["id"]


def _healthy_worker_completes(spec, port, coord, out_box, requeues=1):
    """A healthy worker completes the whole sweep, including the cell
    a vandal was holding (by default one, requeued exactly once)."""
    farm.worker_loop("127.0.0.1", port, name="healthy")
    coord.join(timeout=60)
    assert not coord.is_alive()
    results = out_box["out"][spec.name]
    assert dict(results) == {i: {"value": i * i} for i in range(4)}
    assert results.farm_requeues == requeues


def test_malformed_frame_disconnects_without_poisoning_queue(tmp_path):
    spec = square_spec(n=4)
    port, coord, out_box = _coordinate_in_thread(spec, tmp_path)
    sock, conn, _ = _vandal_holding_a_cell(port)
    sock.sendall(b"this is not a frame\n")
    assert conn.recv() is None  # coordinator hung up on us
    conn.close()
    _healthy_worker_completes(spec, port, coord, out_box)


def test_peer_that_never_says_hello_is_dropped(tmp_path):
    """A connection that stays silent before ``hello`` is under the
    liveness timeout too: the coordinator hangs up on it mid-sweep
    instead of holding a connection thread until the sweep ends."""
    spec = square_spec(n=4)
    timeout_s = 0.5
    port, coord, out_box = _coordinate_in_thread(
        spec, tmp_path, liveness_timeout_s=timeout_s)
    silent = socket.create_connection(("127.0.0.1", port), timeout=10)
    silent.settimeout(2 * timeout_s)
    try:
        assert silent.recv(1) == b""  # EOF: the coordinator hung up
    finally:
        silent.close()
    assert coord.is_alive()  # no worker yet: the sweep is still running
    _healthy_worker_completes(spec, port, coord, out_box, requeues=0)


@pytest.mark.filterwarnings(  # a connection thread must not crash
    "error::pytest.PytestUnhandledThreadExceptionWarning")
@pytest.mark.parametrize("kind", ["result", "error", "unhashable_id"])
def test_frame_for_a_cell_the_peer_does_not_hold_is_refused(tmp_path, kind):
    """A peer may report only on cells it holds: a forged result would
    poison another cell's cache entry, a forged error would abort the
    sweep.  Either drops the peer and writes nothing."""
    spec = square_spec(n=4)
    port, coord, out_box = _coordinate_in_thread(spec, tmp_path)
    _, conn, held = _vandal_holding_a_cell(port)
    queued = next(f"{spec.name}/{cell_hash(cell)}" for cell in spec.cells
                  if f"{spec.name}/{cell_hash(cell)}" != held)
    conn.send({"result": {"type": "result", "id": queued,
                          "payload": {"value": -1}},
               "error": {"type": "error", "id": queued,
                         "error": "forged failure"},
               "unhashable_id": {"type": "result", "id": [queued],
                                 "payload": {"value": -1}}}[kind])
    assert conn.recv() is None  # coordinator hung up on us
    conn.close()
    cache = ResultCache(tmp_path / "cache")
    assert not any(cache.path_for(spec.name, cell).exists()
                   for cell in spec.cells)
    assert not (tmp_path / "journal" / f"{spec.name}.jsonl").exists()
    _healthy_worker_completes(spec, port, coord, out_box)


def _refuse_skewed_worker(tmp_path, spoken, rescue):
    """A peer saying ``protocol: spoken`` is refused at hello; the sweep
    then completes through ``rescue`` (a current worker, or the local
    fallback when nobody else shows up)."""
    spec = square_spec(n=2)
    port_box = {}
    port_ready = threading.Event()
    out_box = {}

    def coordinator():
        def on_listening(port):
            port_box["port"] = port
            port_ready.set()
        out_box["out"] = farm.run_farm(
            [spec], cache_dir=tmp_path / "cache",
            journal_dir=tmp_path / "journal",
            farm_wait_s=2.0 if rescue == "fallback" else 30.0,
            on_listening=on_listening, quiet=True)

    coord = threading.Thread(target=coordinator, daemon=True)
    coord.start()
    assert port_ready.wait(timeout=30)
    sock = socket.create_connection(("127.0.0.1", port_box["port"]))
    conn = FrameConn(sock)
    conn.send({"type": "hello", "protocol": spoken, "worker": "skewed"})
    reply = conn.recv()
    assert reply["type"] == "abort"
    assert "protocol 2 required" in reply["reason"]
    assert repr(spoken) in reply["reason"]
    assert conn.recv() is None  # refused at hello: never handed a cell
    conn.close()

    if rescue == "worker":
        assert farm.worker_loop("127.0.0.1", port_box["port"]) == 2
    coord.join(timeout=60)
    assert not coord.is_alive()
    results = out_box["out"][spec.name]
    assert dict(results) == {0: {"value": 0}, 1: {"value": 1}}
    assert results.farm_fallback == (rescue == "fallback")
    assert results.farm_workers == (1 if rescue == "worker" else 0)


def test_protocol_version_mismatch_is_rejected(tmp_path):
    _refuse_skewed_worker(tmp_path, 999, "fallback")


@pytest.mark.parametrize("rescue", ["worker", "fallback"])
def test_stale_protocol_1_worker_is_refused_at_hello(tmp_path, rescue):
    """Version 1 workers ship list-form sample columns the coordinator
    can no longer decode: they must never be handed a cell."""
    assert PROTOCOL_VERSION == 2
    _refuse_skewed_worker(tmp_path, 1, rescue)
