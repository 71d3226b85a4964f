"""Hot-path allocation rule.

``HOT_FUNCTIONS`` is a manifest of the functions that run per event /
per packet in the canonical 144-host benches: the event loop and
schedulers, port enqueue/dequeue, the fused switch ingress, the Homa
grant path, the senders' NIC pulls, the baselines' shared receiver,
and per message the generators' draws and sends, Homa's whole-message
receive and the sample recording.  Inside those functions we flag constructs
that allocate or pay per call:

* nested ``def`` / ``lambda``   — a fresh closure object per call;
* comprehensions / genexps      — a fresh list/set/dict/generator + an
                                  implicit function call per evaluation;
* string formatting (f-strings, ``.format``, ``%``) — unless it only
  runs on the raise/assert failure path, which costs nothing when the
  simulation is healthy;
* ``try``/``except`` inside a loop — cheap to *enter* on CPython 3.11,
  but usually marks a polymorphic fast path that reads better (and
  traces better) as an explicit test.

A deliberate instance (e.g. a comprehension outside the per-packet
branch) carries a justified pragma; any other finding fails CI, which
is the point: allocation creep in the hot path should be a conscious
decision (see docs/PERFORMANCE.md).

The manifest itself is checked: entries that no longer resolve to a
function raise a ``hot-alloc`` stale finding, so refactors must keep it
current.

``quadratic-pop`` (blocking, all of ``src/repro/``) lives here too: a
FIFO kept in a ``list`` and served with ``.pop(0)``.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Finding, Module, Project, compact, rule

HOT_FUNCTIONS: dict[str, frozenset[str]] = {
    "src/repro/core/engine.py": frozenset(
        {
            "Simulator.schedule",
            "Simulator.schedule1",
            "Simulator._file_far",
            "Simulator._refill",
            "Simulator.run",
        }
    ),
    "src/repro/core/port.py": frozenset(
        {
            "QueuedPort.enqueue",
            "QueuedPort._next",
            "QueuedPort._tx_done",
            "QueuedPort._transmit",
            "PfabricPort.enqueue",
            "PfabricPort._next",
            "PullPort._tx_done",
            "PullPort._next",
        }
    ),
    "src/repro/core/topology.py": frozenset(
        {
            "Network._make_ingress.<locals>.ingress",
            # once per completed message: the slowdown's denominator
            "Network.min_oneway_between",
        }
    ),
    # Once per delivered packet: files the transport's on_packet.
    "src/repro/core/host.py": frozenset({"Host.ingress"}),
    "src/repro/homa/transport.py": frozenset(
        {
            "HomaTransport._next_data",
            "HomaTransport._make_data_packet",
            "HomaTransport._on_data",
            # Per message: a new message's first packet carries all of
            # it (99% of W1's), and the sender's record.
            "HomaTransport._arrived_whole",
            "HomaTransport._new_outbound",
            # Per-message receiver hooks of the shared receiver.
            "HomaTransport._registered",
            "HomaTransport._forget_inbound",
            "HomaTransport._schedule_grants",
            "HomaTransport._grant_packet",
            "HomaTransport._grant_tick",
            "HomaTransport._on_grant",
        }
    ),
    "src/repro/transport/messages.py": frozenset(
        {
            "Intervals.add",
            "OutboundMessage.next_chunk",
            "InboundMessage.record",
        }
    ),
    "src/repro/transport/base.py": frozenset(
        {
            "Transport.send_ctrl",
            "Transport.next_packet",
            # The shared receiver: once per data packet for the
            # baselines, once per message for Homa.
            "Transport._inbound_for",
            "Transport._record",
            "Transport._complete",
        }
    ),
    # The baseline senders' NIC pulls (docs/PERFORMANCE.md, "Sender pulls").
    "src/repro/transport/rotation.py": frozenset(
        {
            "ReadyRing.mark",
            "ReadyRing.pull",
        }
    ),
    "src/repro/baselines/stream.py": frozenset(
        {
            "_Connection.sendable",
            "StreamTransport._next_data",
        }
    ),
    "src/repro/baselines/pias.py": frozenset(
        {
            "PiasTransport._next_data",
            "PiasTransport._emit",
        }
    ),
    "src/repro/baselines/ndp.py": frozenset(
        {
            "NdpTransport._mark",
            "NdpTransport._next_data",
            "NdpTransport._emit",
        }
    ),
    # Once per completed message: the typed sample columns stay free of
    # per-sample objects only while nothing here builds one.
    "src/repro/metrics/slowdown.py": frozenset(
        {
            "SlowdownTracker.record_oneway",
            "SlowdownTracker.record_rpc",
        }
    ),
    # Once per message: the sizes and destinations the generators
    # draw, and the generators' sends.
    "src/repro/workloads/distributions.py": frozenset(
        {
            "EmpiricalCDF.sample_one",
            "UniformIndex.draw",
        }
    ),
    "src/repro/apps/openloop.py": frozenset(
        {
            "PoissonSource._peer",
            "PoissonSource._schedule_next",
            "OpenLoopSender._send",
        }
    ),
    "src/repro/apps/echo.py": frozenset({"EchoClient._send"}),
}


def _scan_function(mod: Module, qual: str, fn: ast.AST, out: list[Finding]) -> None:
    def add(node: ast.AST, kind: str, msg: str) -> None:
        out.append(
            Finding(
                rule="hot-alloc",
                path=mod.rel,
                line=getattr(node, "lineno", 0),
                scope=qual,
                detail=f"{kind}:{compact(node, 48)}",
                message=f"[hot {qual}] {msg}",
            )
        )

    def walk(node: ast.AST, in_loop: bool, in_fail_path: bool) -> None:
        for child in ast.iter_child_nodes(node):
            child_in_loop = in_loop
            child_in_fail = in_fail_path
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add(child, "closure", "nested def allocates a closure per call")
                continue  # its own body only runs when the closure is called
            if isinstance(child, ast.Lambda):
                add(child, "closure", "lambda allocates a closure per call")
                continue
            if isinstance(child, (ast.For, ast.AsyncFor, ast.While)):
                child_in_loop = True
            if isinstance(child, (ast.Raise, ast.Assert)):
                # Allocation on the failure path is free in healthy runs.
                child_in_fail = True
            if isinstance(child, ast.Try) and in_loop and not in_fail_path:
                add(child, "try-in-loop", "try/except inside an inner loop")
            if not child_in_fail:
                if isinstance(
                    child,
                    (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
                ):
                    add(
                        child,
                        "comprehension",
                        "comprehension allocates per call",
                    )
                elif isinstance(child, ast.JoinedStr):
                    add(child, "format", "f-string formatting per call")
                elif (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "format"
                    and isinstance(child.func.value, ast.Constant)
                    and isinstance(child.func.value.value, str)
                ):
                    add(child, "format", "str.format() per call")
                elif (
                    isinstance(child, ast.BinOp)
                    and isinstance(child.op, ast.Mod)
                    and isinstance(child.left, ast.Constant)
                    and isinstance(child.left.value, str)
                ):
                    add(child, "format", "%-formatting per call")
            walk(child, child_in_loop, child_in_fail)

    walk(fn, in_loop=False, in_fail_path=False)


@rule("hot-alloc")
def check_hot_alloc(project: Project) -> list[Finding]:
    """Per-event allocation in manifest-listed hot functions.

    Flags closures, comprehensions, string formatting and try-in-loop
    inside the hot-function manifest; a deliberate instance carries a
    justified pragma.  Also fails on stale manifest entries so the
    manifest tracks refactors.
    """
    out: list[Finding] = []
    manifest = project.hot_manifest or HOT_FUNCTIONS
    for rel, quals in sorted(manifest.items()):
        mod = project.by_rel.get(rel)
        if mod is None:
            if project.full_tree:
                out.append(
                    Finding(
                        rule="hot-alloc",
                        path=rel,
                        line=0,
                        scope="<module>",
                        detail="stale-file",
                        message=(
                            f"hot-function manifest names missing file "
                            f"{rel}; update HOT_FUNCTIONS in "
                            f"rules_hotpath.py"
                        ),
                    )
                )
            continue
        for qual in sorted(quals):
            fn = mod.functions.get(qual)
            if fn is None:
                out.append(
                    Finding(
                        rule="hot-alloc",
                        path=rel,
                        line=0,
                        scope=qual,
                        detail="stale-entry",
                        message=(
                            f"hot-function manifest entry {qual} not found "
                            f"in {rel}; update HOT_FUNCTIONS in "
                            f"rules_hotpath.py"
                        ),
                    )
                )
                continue
            _scan_function(mod, qual, fn, out)
    return out


def _rooted_at_self(node: ast.AST) -> bool:
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "self"


def _front_shift(call: ast.AST) -> str | None:
    """``"pop"`` for ``x.pop(0)``, ``"insert"`` for ``x.insert(0, y)``."""
    if not (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and not call.keywords
        and (call.func.attr, len(call.args)) in {("pop", 1), ("insert", 2)}
    ):
        return None
    index = call.args[0]
    if isinstance(index, ast.Constant) and type(index.value) is int:
        return call.func.attr if index.value == 0 else None
    return None


@rule("quadratic-pop")
def check_quadratic_pop(project: Project) -> list[Finding]:
    """``.pop(0)`` / ``.insert(0, x)`` on a list held in object state.

    Both shift every remaining element, so a FIFO kept in a list costs
    O(queue length) per packet (the PIAS round-robin, pFabric's rtx
    queue and pHost's token deadlines all once did).  Keep a FIFO that
    can grow long in a ``collections.deque``.  A per-object FIFO that
    stays short is cheaper as a list (an empty deque costs 760 B):
    waive it with a pragma citing its census bound
    (docs/PERFORMANCE.md).  Scope: ``src/repro/``, receivers rooted at
    ``self`` or a local name bound to such an attribute.  A scratch
    list built inside the call is bounded by that call and stays
    silent, as does ``pop(0, default)`` (a dict).
    """
    out: list[Finding] = []
    for mod in project.modules:
        if not mod.rel.startswith("src/repro/"):
            continue
        for qual, fn in mod.functions.items():
            own = [n for n in ast.walk(fn) if mod.scope_of(n) == qual]
            aliases = {
                target.id
                for node in own
                if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Attribute)
                and _rooted_at_self(node.value)
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            for node in own:
                method = _front_shift(node)
                if method is None:
                    continue
                receiver = node.func.value
                if not (
                    _rooted_at_self(receiver)
                    or isinstance(receiver, ast.Name)
                    and receiver.id in aliases
                ):
                    continue
                text = compact(receiver, 48)
                out.append(
                    Finding(
                        rule="quadratic-pop",
                        path=mod.rel,
                        line=node.lineno,
                        scope=qual,
                        detail=f"{method}:{text}",
                        message=(
                            f"{text}.{method}(0{', ...' * (method == 'insert')}) "
                            f"shifts the whole list on every call; use a "
                            f"collections.deque for a FIFO that can grow "
                            f"long, or waive a short per-object FIFO with a "
                            f"pragma citing its census bound "
                            f"(docs/PERFORMANCE.md)"
                        ),
                    )
                )
    return out
