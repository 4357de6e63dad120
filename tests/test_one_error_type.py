"""``src/reservematch`` defines one exception class, ``InstanceError``.

Every error that comes from bad input is an ``InstanceError`` (the CLI's
exit 2); every other error is a built-in one, a bug or a caller's misuse
(exit 3). A subclass that no caller tells apart from its base only adds
names, so the guard walks the package's syntax trees and fails on any class
whose bases lead, through classes of the package, to a built-in exception,
unless it is ``InstanceError`` itself.
"""

from __future__ import annotations

import ast
import builtins
import pathlib
from typing import Iterable

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "reservematch"


def _base_name(node: ast.expr) -> str:
    """``Error`` for a base written ``Error`` or ``module.Error``."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _exception_classes(sources: Iterable[tuple[str, str]]) -> list[tuple[str, str, list[str]]]:
    """(module, class, base names) of each exception class defined in the
    ``(module, source text)`` pairs, at any depth."""
    classes = [
        (module, node.name, [_base_name(base) for base in node.bases])
        for module, text in sources
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ClassDef)
    ]
    bases_of: dict[str, list[str]] = {}
    for _, name, bases in classes:
        bases_of.setdefault(name, []).extend(bases)

    def is_exception(name: str, seen: frozenset[str]) -> bool:
        value = getattr(builtins, name, None)
        if isinstance(value, type) and issubclass(value, BaseException):
            return True
        return name not in seen and any(
            is_exception(base, seen | {name}) for base in bases_of.get(name, ())
        )

    return [entry for entry in classes if is_exception(entry[1], frozenset())]


def test_instance_error_is_the_only_exception_class():
    sources = [(path.stem, path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")]
    assert _exception_classes(sources) == [("model", "InstanceError", ["ValueError"])]


def test_the_guard_follows_bases_through_the_package():
    """A subclass of a package exception, written plainly or as an
    attribute, is found; a class with no exception among its bases is not."""
    sources = [
        ("a", "class A(ValueError):\n    pass\nclass C:\n    pass\n"),
        ("b", "def f():\n    class B(a.A):\n        pass\nclass D(C):\n    pass\n"),
    ]
    assert _exception_classes(sources) == [("a", "A", ["ValueError"]), ("b", "B", ["A"])]
