"""Every function and class in ``src/reservematch`` is referenced somewhere
in the package's own code.

A definition counts as referenced when its name appears, outside its own
body, as a name, an attribute or an imported name in any module of the
package; docstrings and comments do not count. Names match across modules
and classes, so a method is alive while any method of that name is called.
Dunder methods are called by the language and are exempt. The few
definitions that only something outside the package reaches are listed in
``ALLOWED``, each with its reason; an entry that is referenced again, or
gone, must leave the list.
"""

from __future__ import annotations

import ast
import pathlib
from collections import Counter
from typing import Iterator

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "reservematch"

ALLOWED = {
    "cmd_solve": "cli.main looks each command up by name through globals()",
    "cmd_check": "cli.main looks each command up by name through globals()",
    "cmd_gen": "cli.main looks each command up by name through globals()",
    "cmd_verify": "cli.main looks each command up by name through globals()",
    "cmd_bench": "cli.main looks each command up by name through globals()",
    "find_alternating_path": (
        "perfbench/spans.TARGETS wraps it by name; it goes with the rest of the"
        " alternating-path search when the benchmark stops naming it"
    ),
    "oracle_maxima": "the exhaustive oracle the tests compare the exact engines with",
    "scu_feasibility_check": "the one-shot flow check the tests compare the scu steps with",
    "replay": "MMATrace.replay re-derives mma's output from its log in the tests",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node: ast.AST) -> Iterator[str]:
    """Every name that ``node`` uses: names, attributes and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.asname or sub.name.rsplit(".", 1)[-1]


def _unreferenced() -> set[str]:
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))]
    uses = Counter(name for tree in trees for name in _names(tree))
    dead = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, _DEFINITIONS):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = sum(1 for used in _names(node) if used == name)
            if uses[name] == own:
                dead.add(name)
    return dead


def test_every_definition_is_referenced_in_the_package():
    dead = _unreferenced()
    unlisted = sorted(dead - set(ALLOWED))
    assert not unlisted, f"defined but never referenced in src: {unlisted}"


def test_the_allow_list_names_only_unreferenced_definitions():
    stale = sorted(set(ALLOWED) - _unreferenced())
    assert not stale, f"referenced or gone, so no longer allowed: {stale}"
