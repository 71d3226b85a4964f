"""Time-unit dimensional hygiene (``units``).

Every duration in the simulator is an integer count of picoseconds
(``core/units.py``), and the repo's naming convention carries the unit
in the identifier suffix: ``_ps``, ``_ns``, ``_us``, ``_ms`` (plus the
bare ``now``, which is always ``Simulator.now`` in picoseconds).  That
convention makes a whole class of bugs statically visible:

* ``deadline_ns + timeout_ps`` — adding or subtracting two
  differently-suffixed quantities silently mixes scales by x1000;
* ``if elapsed_us > budget_ms:`` — same, in a comparison;
* ``sim.schedule(delay_ns, ...)`` — the scheduling API takes
  picoseconds; passing a ``_ns``/``_us``/``_ms`` quantity fires the
  event a thousand-fold (or more) too early.

Inference is deliberately shallow — only identifiers with a unit
suffix, the canonical conversion idioms (``x_ms * MS`` and friends
produce picoseconds, scaling by a plain number keeps the unit), and
unit-preserving ``+``/``-`` chains.  Anything else (calls, subscripts,
unsuffixed names) has no statically known unit and is skipped rather
than guessed.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.core import Finding, Module, Project, rule

#: recognised identifier suffixes (all convert to ps via core/units.py)
_SUFFIXES = ("ps", "ns", "us", "ms")

#: the conversion constants from core/units.py; multiplying by one
#: yields picoseconds, flooring-dividing picoseconds by one converts
#: down to that unit.
_UNIT_CONSTS = {"PS": "ps", "NS": "ns", "US": "us", "MS": "ms"}

#: Simulator scheduling entry points; the first argument is always a
#: picosecond quantity (relative delay or absolute timestamp).
_SCHEDULERS = ("schedule", "schedule1", "schedule_at")


def _ident_unit(name: str) -> Optional[str]:
    if name == "now":  # Simulator.now and its ubiquitous local alias
        return "ps"
    head, _, suffix = name.rpartition("_")
    if head and suffix in _SUFFIXES:
        return suffix
    return None


def _const_name(node: ast.AST) -> Optional[str]:
    """'ps'/'ns'/... if ``node`` is one of the core/units constants."""
    if isinstance(node, ast.Name):
        return _UNIT_CONSTS.get(node.id)
    if isinstance(node, ast.Attribute):
        return _UNIT_CONSTS.get(node.attr)
    return None


def _unit_of(node: ast.AST) -> Optional[str]:
    """The statically known time unit of an expression, or None."""
    if isinstance(node, ast.Name):
        return _ident_unit(node.id)
    if isinstance(node, ast.Attribute):
        return _ident_unit(node.attr)
    if isinstance(node, ast.UnaryOp):
        return _unit_of(node.operand)
    if isinstance(node, ast.BinOp):
        left, right = _unit_of(node.left), _unit_of(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            return left if left is not None and left == right else None
        if isinstance(node.op, ast.Mult):
            # The conversion idiom: ``x_ms * MS`` (or ``MS * x``) is a
            # picosecond quantity; scaling by a literal keeps the unit.
            if _const_name(node.left) or _const_name(node.right):
                return "ps"
            if isinstance(node.left, ast.Constant):
                return right
            if isinstance(node.right, ast.Constant):
                return left
            return None
        if isinstance(node.op, (ast.Div, ast.FloorDiv, ast.Mod)):
            down = _const_name(node.right)
            if down is not None:
                # ``x_ps // MS`` converts picoseconds *down* to ms.
                return down if left in (None, "ps") else None
            if isinstance(node.right, ast.Constant):
                return left
            return None
    return None


def _finding(mod: Module, node: ast.AST, detail: str, msg: str) -> Finding:
    return Finding(rule="units", path=mod.rel, line=node.lineno,
                   scope=mod.scope_of(node), detail=detail, message=msg)


@rule("units")
def check_units(project: Project) -> list[Finding]:
    """ps/ns/us/ms dimensional hygiene on suffixed identifiers.

    Flags ``+``/``-``/comparisons whose two operands carry different
    unit suffixes, and ``sim.schedule*`` calls whose time argument is
    statically a non-picosecond quantity.  Convert first with the
    ``core/units.py`` constants (``x_ms * MS``); only identifiers with
    a known suffix participate, so unsuffixed code is never flagged.
    """
    out: list[Finding] = []
    for mod in project.modules:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.BinOp) and isinstance(
                    node.op, (ast.Add, ast.Sub)):
                left, right = _unit_of(node.left), _unit_of(node.right)
                if left and right and left != right:
                    out.append(_finding(
                        mod, node, f"binop:{left}:{right}",
                        f"adds/subtracts a _{left} quantity and a "
                        f"_{right} quantity; convert via core/units.py "
                        f"constants first"))
            elif isinstance(node, ast.AugAssign) and isinstance(
                    node.op, (ast.Add, ast.Sub)):
                left, right = _unit_of(node.target), _unit_of(node.value)
                if left and right and left != right:
                    out.append(_finding(
                        mod, node, f"augassign:{left}:{right}",
                        f"accumulates a _{right} quantity into a "
                        f"_{left} variable; convert via core/units.py "
                        f"constants first"))
            elif isinstance(node, ast.Compare):
                units = [_unit_of(operand) for operand in
                         [node.left, *node.comparators]]
                known = [u for u in units if u is not None]
                if len(known) >= 2 and len(set(known)) > 1:
                    pair = ":".join(sorted(set(known)))
                    out.append(_finding(
                        mod, node, f"compare:{pair}",
                        f"compares quantities of different time units "
                        f"({', '.join(sorted(set(known)))}); convert "
                        f"via core/units.py constants first"))
            elif isinstance(node, ast.Call):
                func = node.func
                if (not isinstance(func, ast.Attribute)
                        or func.attr not in _SCHEDULERS
                        or not node.args):
                    continue
                unit = _unit_of(node.args[0])
                if unit is not None and unit != "ps":
                    out.append(_finding(
                        mod, node, f"schedule:{unit}",
                        f"{func.attr}() takes picoseconds but this "
                        f"argument is statically a _{unit} quantity; "
                        f"multiply by the core/units.py constant"))
    return out
