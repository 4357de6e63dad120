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

A parameter with a default is dead the same way when no call in the package
passes it: every caller gets the default, and the code for other values
runs only in tests. Calls match by name here too: a call to a function's
name, or a class's, may pass each parameter by keyword, by position, or
through ``*`` or ``**``.
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


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _unreached() -> set[str]:
    trees = _trees()
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


ENTRY_PARAMETERS = {("main", "argv")}  # cli.main's argv: the command line's entry point


def _callee(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _functions(tree: ast.Module) -> Iterator[tuple[ast.AST, ast.ClassDef | None]]:
    """Each function of ``tree``, with the class whose method it is."""
    methods = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            methods.update((id(child), node) for child in node.body)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, methods.get(id(node))


def _passes(call: ast.Call, param: str, index: int | None) -> bool:
    """Whether ``call`` may pass ``param``, the callee's ``index``-th
    positional argument (None when it is keyword-only)."""
    if any(kw.arg in (None, param) for kw in call.keywords):
        return True
    return index is not None and (
        len(call.args) > index or any(isinstance(arg, ast.Starred) for arg in call.args)
    )


def _unpassed_parameters() -> list[str]:
    """``function(parameter)`` of each defaulted parameter of a function,
    method or ``__init__`` in the package that no call in the package passes."""
    trees = _trees()
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _callee(node):
                calls.setdefault(_callee(node), []).append(node)

    unpassed = []
    for tree in trees.values():
        for fn, owner in _functions(tree):
            if fn.name in ALLOWED:
                continue
            names = {fn.name}
            if owner and fn.name == "__init__":
                names.add(owner.name)
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            bound = int(owner is not None and not static)  # self or cls, not in the call
            positional = fn.args.posonlyargs + fn.args.args
            defaulted = [(arg.arg, index - bound) for index, arg in enumerate(positional)
                         if index >= len(positional) - len(fn.args.defaults)]
            defaulted += [(arg.arg, None) for arg, default in
                          zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None]
            for param, index in defaulted:
                if (fn.name, param) in ENTRY_PARAMETERS:
                    continue
                if not any(_passes(call, param, index)
                           for name in names for call in calls.get(name, [])):
                    unpassed.append(f"{fn.name}({param})")
    return sorted(unpassed)


def test_every_defaulted_parameter_is_passed_in_the_package():
    unpassed = _unpassed_parameters()
    assert not unpassed, f"defaulted parameters no call in src passes: {unpassed}"
