"""Every function and class in ``src/reservematch`` is reachable from the
package's entry points.

The walk starts at the roots: each module's own top-level code (its
imports aside), the ``cmd_*`` commands that ``cli.main`` finds through
``globals()``, and the names ``__init__`` exports. A definition is reached
when code already reached uses its name, as a name, an attribute or an
imported name; its own code is then walked in turn. Docstrings and
comments do not count. Names match across modules and classes, so a method
is reached while any method of that name is called. Dunder methods are
called by the language, so they are walked with their class. A definition
that only dead code names is dead too. The few definitions that only
something outside the package reaches are listed in ``ALLOWED``, each with
its reason; an entry that is reached again, or gone, must leave the list.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterator

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "reservematch"

_ALTERNATING_PATH = (
    "the alternating-path search: perfbench/spans.TARGETS wraps find_alternating_path,"
    " forward_reach and send_reach by name, and the search goes when the benchmark"
    " stops naming them"
)

ALLOWED = {
    "find_alternating_path": _ALTERNATING_PATH,
    "forward_reach": _ALTERNATING_PATH,
    "send_reach": _ALTERNATING_PATH,
    "AlternatingPath": _ALTERNATING_PATH,
    "ForwardReach": _ALTERNATING_PATH,
    "SendReach": _ALTERNATING_PATH,
    "_build_forward_path": _ALTERNATING_PATH,
    "_build_send_path": _ALTERNATING_PATH,
    "has_edge": _ALTERNATING_PATH + "; send_reach is its only caller",
    "oracle_maxima": "the exhaustive oracle the tests compare the exact engines with",
    "OracleMaxima": "what oracle_maxima returns to the tests",
    "scu_feasibility_check": "the one-shot flow check the tests compare the scu steps with",
    "replay": "MMATrace.replay re-derives mma's output from its log in the tests",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _own_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """``node`` and everything under it but the definitions nested in it,
    which run only when their own name is used."""
    yield node
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, _DEFINITIONS):
            yield from _own_nodes(child)


def _names(nodes: Iterator[ast.AST]) -> Iterator[str]:
    """Every name that ``nodes`` use: names, attributes and imports."""
    for sub in nodes:
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.asname or sub.name.rsplit(".", 1)[-1]


def _exports(tree: ast.Module) -> Iterator[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            yield from ast.literal_eval(node.value)


def _unreached() -> set[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    definitions: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, _DEFINITIONS):
                definitions.setdefault(node.name, []).append(node)

    used = set(_exports(trees["__init__"]))
    used.update(name for name in definitions if name.startswith("cmd_"))
    for tree in trees.values():
        for statement in tree.body:
            if not isinstance(statement, (*_DEFINITIONS, ast.Import, ast.ImportFrom)):
                used.update(_names(_own_nodes(statement)))

    reached: set[str] = set()
    pending = list(used)
    while pending:
        name = pending.pop()
        if name in reached or name not in definitions:
            continue
        reached.add(name)
        for node in definitions[name]:
            nodes = [node]
            if isinstance(node, ast.ClassDef):
                nodes += [child for child in node.body
                          if isinstance(child, _DEFINITIONS) and _is_dunder(child.name)]
            for part in nodes:
                pending.extend(_names(_own_nodes(part)))
    return {name for name in definitions if name not in reached and not _is_dunder(name)}


def test_every_definition_is_referenced_in_the_package():
    dead = _unreached()
    unlisted = sorted(dead - set(ALLOWED))
    assert not unlisted, f"defined but unreachable in src: {unlisted}"


def test_the_allow_list_names_only_unreferenced_definitions():
    stale = sorted(set(ALLOWED) - _unreached())
    assert not stale, f"reached or gone, so no longer allowed: {stale}"
