"""The library holds only what the tool runs.

Every public function, method and class defined in ``src/holomon`` must be
named in code (not in a comment or docstring) somewhere in
``src/holomon/*.py`` or ``benchmarks/*.py`` outside its own definition.
Tests do not count: a function only a test calls checks nothing when
``holomon`` runs.
"""

import ast
import importlib
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "holomon").glob("*.py"))
BENCH = sorted((ROOT / "benchmarks").glob("*.py"))


def _registered(node) -> bool:
    """Whether a ``@<group>.command(...)`` or ``.group(...)`` decorator
    hands the function to click."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def _definitions():
    """(path, qualified name, first line, last line) of every public
    module-level function or class and every public method.  A click
    command, and a method that overrides one of a class outside holomon
    (click's hooks), is called by the framework, so neither needs a caller
    here."""
    for path in SRC:
        module = importlib.import_module(f"holomon.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") and not _registered(node):
                yield path, node.name, node.lineno, node.end_lineno
            if not isinstance(node, ast.ClassDef):
                continue
            bases = [b for b in getattr(module, node.name).__mro__[1:]
                     if not b.__module__.startswith("holomon")]
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")
                        and not any(hasattr(b, sub.name) for b in bases)):
                    yield path, f"{node.name}.{sub.name}", sub.lineno, sub.end_lineno


def _identifiers():
    """(path, line, name) of every identifier token in the library and the
    benchmark harness, except the names that ``def`` and ``class`` bind."""
    for path in SRC + BENCH:
        prev = None
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if tok.type == tokenize.NAME and prev not in ("def", "class"):
                yield path, tok.start[0], tok.string
            prev = tok.string


def test_every_public_name_has_a_caller():
    uses: dict = {}
    for path, line, name in _identifiers():
        uses.setdefault(name, []).append((path, line))
    unused = []
    for path, qual, first, last in _definitions():
        name = qual.rsplit(".", 1)[-1]
        if not any(p != path or not first <= line <= last for p, line in uses.get(name, ())):
            unused.append(qual)
    assert sorted(set(unused)) == []
