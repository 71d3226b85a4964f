"""Event-callback arity rule.

The simulator's scheduling API fixes, per variant, how many positional
arguments the event loop will deliver to the callback when the event
fires (``core/engine.py``):

* ``schedule(delay, fn, *args)`` / ``schedule_at(t, fn, *args)`` — the
  callback receives exactly the trailing ``*args``;
* ``schedule1(delay, fn, arg)`` — the callback receives exactly one
  argument.

A mismatch is a latent ``TypeError`` that only detonates when the event
*fires*, which with timer-wheel horizons can be millions of events after
the bad ``schedule`` call — painful to trace back.  This rule catches
the mismatch statically at the call site.

Scope is deliberately conservative: only callbacks that resolve inside
the same module (a ``self.<method>``, a local or module-level ``def``,
or an inline ``lambda``) are checked.  Bound methods of *other* objects,
prebound-callable attributes, ``partial``s and call results are skipped
— their signatures are not statically knowable from this file alone, so
the rule stays silent rather than guessing.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis.core import Finding, Module, Project, rule

#: schedule variant -> number of fixed leading parameters before *args
#: (None means the variant has an exact trailing-argument count instead)
_VARIADIC = {"schedule": 2, "schedule_at": 2}
_EXACT = {"schedule1": 1}


def _callback_arity(
    fn: ast.AST, *, drop_self: bool
) -> Optional[tuple[int, Optional[int]]]:
    """(min, max) positional args accepted; max None = unbounded (*args)."""
    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        a = fn.args
        pos = len(a.posonlyargs) + len(a.args)
        if drop_self:
            pos -= 1
        lo = pos - len(a.defaults)
        hi = None if a.vararg is not None else pos
        return (max(lo, 0), hi)
    return None


def _resolve(mod: Module, call: ast.Call, cb: ast.AST):
    """Resolve a callback expression to (FunctionDef-ish, drop_self)."""
    if isinstance(cb, ast.Lambda):
        return cb, False
    scope = mod.scope_of(call)
    if isinstance(cb, ast.Name):
        # Local def in the enclosing function, else a module-level def.
        local = mod.functions.get(f"{scope}.<locals>.{cb.id}")
        if local is not None:
            return local, False
        top = mod.functions.get(cb.id)
        if top is not None:
            return top, False
        return None, False
    if (
        isinstance(cb, ast.Attribute)
        and isinstance(cb.value, ast.Name)
        and cb.value.id == "self"
    ):
        # self.<method> inside a class body: the class is the head of
        # the enclosing qualname ("Cls.method" / "Cls.method.<locals>.f").
        head = scope.split(".", 1)[0]
        if head in mod.classes:
            meth = mod.functions.get(f"{head}.{cb.attr}")
            if meth is not None:
                return meth, True
    return None, False


@rule("sched-arity")
def check_sched_arity(project: Project) -> list[Finding]:
    """Callback signature vs the ``Simulator.schedule*`` variant's arity.

    ``schedule``/``schedule_at`` deliver their trailing ``*args``,
    ``schedule1`` delivers one.  Checked only when the callback resolves
    inside the module (self-methods, local/module defs, lambdas);
    everything else is skipped rather than guessed.
    """
    out: list[Finding] = []
    for mod in project.modules:
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            name = func.attr
            if name in _VARIADIC:
                skip = _VARIADIC[name]
            elif name in _EXACT:
                skip = None
            else:
                continue
            if node.keywords or any(
                isinstance(a, ast.Starred) for a in node.args
            ):
                continue  # forwarding wrappers; not statically countable
            if len(node.args) < 2:
                continue
            expected = (
                len(node.args) - 2 if skip is not None else _EXACT[name]
            )
            cb = node.args[1]
            fn, drop_self = _resolve(mod, node, cb)
            if fn is None:
                continue
            arity = _callback_arity(fn, drop_self=drop_self)
            if arity is None:
                continue
            lo, hi = arity
            if lo <= expected and (hi is None or expected <= hi):
                continue
            cb_desc = (
                "<lambda>"
                if isinstance(fn, ast.Lambda)
                else getattr(fn, "name", "<callback>")
            )
            span = str(lo) if hi == lo else f"{lo}..{'*' if hi is None else hi}"
            out.append(
                Finding(
                    rule="sched-arity",
                    path=mod.rel,
                    line=node.lineno,
                    scope=mod.scope_of(node),
                    detail=f"{name}:{cb_desc}:expected={expected}",
                    message=(
                        f"{name}() will call {cb_desc} with {expected} "
                        f"argument(s) when the event fires, but it accepts "
                        f"{span}; this TypeError would only surface at "
                        f"fire time"
                    ),
                )
            )
    return out
