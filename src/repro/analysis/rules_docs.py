"""Config/doc drift.

Every field of the user-facing config classes (``HomaConfig``,
``NetworkConfig``, the declarative-fabric surface ``TopologySpec``
/ ``LossRates`` / ``FaultEvent``, and the loss-recovery policy
``RecoveryConfig``) must be mentioned somewhere in the
repo's markdown (README/docs/**).  The canonical field reference is
docs/CONFIG.md; this rule is what keeps it from rotting when someone
adds a knob.

Bidirectional: table rows in docs/CONFIG.md that name a field which no
longer exists are flagged too (``stale-doc``), so renames cannot leave
ghost documentation behind.

And the pointers themselves must land: a markdown file named in a
Python docstring or comment has to exist (``missing-doc``) — at the repo
root, under docs/, at the path written, or beside the file naming it.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.core import Finding, Module, Project, rule

#: class names whose fields constitute the user-facing config surface
CONFIG_CLASS_NAMES = ("HomaConfig", "NetworkConfig", "TopologySpec",
                      "LossRates", "FaultEvent", "RecoveryConfig")

#: the canonical field-reference document (checked bidirectionally)
CONFIG_DOC = "docs/CONFIG.md"

_TABLE_FIELD_RE = re.compile(r"^\|\s*`([a-z][a-z0-9_]*)`")

#: a markdown file named in prose (globs such as ``*.md`` do not match)
_MD_REF_RE = re.compile(r"[\w./-]*\w\.md\b")


def _prose(mod: Module):
    """``(line, scope, text)`` of every docstring line and comment."""
    for node in ast.walk(mod.tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                for offset, text in enumerate(doc.value.value.splitlines()):
                    yield doc.lineno + offset, mod.scope_of(doc), text
    for lineno, text in mod.comments:
        yield lineno, "<module>", text


def _doc_exists(project: Project, mod: Module, ref: str) -> bool:
    ref = ref.removeprefix("./")
    if ref in project.docs or f"docs/{ref}" in project.docs:
        return True
    if project.root is None:
        return False
    return ((project.root / ref).is_file()
            or (project.root / mod.rel).parent.joinpath(ref).is_file())


def _missing_docs(project: Project) -> list[Finding]:
    """``missing-doc``: markdown pointers in prose that land nowhere."""
    out: list[Finding] = []
    for mod in project.modules:
        for lineno, scope, text in _prose(mod):
            for ref in _MD_REF_RE.findall(text):
                if not _doc_exists(project, mod, ref):
                    out.append(
                        Finding(
                            rule="doc-drift",
                            path=mod.rel,
                            line=lineno,
                            scope=scope,
                            detail=f"missing-doc:{ref}",
                            message=(
                                f"{ref} is not in the tree (repo root, "
                                f"docs/, the path written, or beside this "
                                f"file); point at the doc or docstring "
                                f"that holds the content, or drop the "
                                f"pointer"
                            ),
                        )
                    )
    return out


@rule("doc-drift")
def check_doc_drift(project: Project) -> list[Finding]:
    """HomaConfig/NetworkConfig fields must appear in the markdown docs.

    Forward: each dataclass field name must occur (as a whole word) in
    some ``*.md`` under the repo root or docs/.  Reverse: each
    backticked field in a docs/CONFIG.md table row must still exist on
    one of the config classes.  Pointers: a markdown file named in a
    docstring or comment must exist.
    """
    out = _missing_docs(project)
    all_docs = "\n".join(project.docs.values())
    known_fields: set[str] = set()
    for mod in project.modules:
        for cls_name in CONFIG_CLASS_NAMES:
            cls = mod.classes.get(cls_name)
            if cls is None:
                continue
            for stmt in cls.body:
                # Dataclass-style annotated fields, or a plain class's
                # ``__slots__`` tuple (e.g. RecoveryConfig).
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and not stmt.target.id.startswith("_")
                ):
                    field = stmt.target.id
                elif (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.targets[0].id == "__slots__"
                    and isinstance(stmt.value, (ast.Tuple, ast.List))
                ):
                    for elt in stmt.value.elts:
                        if (isinstance(elt, ast.Constant)
                                and isinstance(elt.value, str)
                                and not elt.value.startswith("_")):
                            known_fields.add(elt.value)
                            if not re.search(
                                    rf"\b{re.escape(elt.value)}\b",
                                    all_docs):
                                out.append(
                                    Finding(
                                        rule="doc-drift",
                                        path=mod.rel,
                                        line=stmt.lineno,
                                        scope=cls_name,
                                        detail=f"undocumented:{elt.value}",
                                        message=(
                                            f"{cls_name}.{elt.value} is not "
                                            f"mentioned in any markdown doc; "
                                            f"add it to {CONFIG_DOC}"
                                        ),
                                    )
                                )
                    continue
                else:
                    continue
                known_fields.add(field)
                if not re.search(rf"\b{re.escape(field)}\b", all_docs):
                    out.append(
                        Finding(
                            rule="doc-drift",
                            path=mod.rel,
                            line=stmt.lineno,
                            scope=cls_name,
                            detail=f"undocumented:{field}",
                            message=(
                                f"{cls_name}.{field} is not mentioned in "
                                f"any markdown doc; add it to {CONFIG_DOC}"
                            ),
                        )
                    )
    config_doc = project.docs.get(CONFIG_DOC)
    if config_doc is not None and known_fields:
        for lineno, line in enumerate(config_doc.splitlines(), start=1):
            m = _TABLE_FIELD_RE.match(line.strip())
            if m and m.group(1) not in known_fields:
                out.append(
                    Finding(
                        rule="doc-drift",
                        path=CONFIG_DOC,
                        line=lineno,
                        scope="<doc>",
                        detail=f"stale-doc:{m.group(1)}",
                        message=(
                            f"{CONFIG_DOC} documents field "
                            f"{m.group(1)!r} which exists on neither "
                            f"{' nor '.join(CONFIG_CLASS_NAMES)}"
                        ),
                    )
                )
    return out
