"""The library holds only what the tool runs.

Every function, method and class defined in ``src/holomon``, private ones
included (dunders, click commands and click hooks aside), must be named in
code (not in a comment or docstring) somewhere in ``src/holomon/*.py`` or
``benchmarks/*.py`` outside its own definition,
and every option a function or a dataclass takes must be set by some call
there, and left to its default by another.  Tests do not count: a function or option only a test uses checks
nothing when ``holomon`` runs.  ``blocks.py`` and ``virasoro.py`` hold
one arithmetic, exact rationals, so neither imports mpmath, and the
contraction kernel in ``virasoro.py`` runs in ints, naming no Fraction.  Decimal
arithmetic runs in a local context, so no library call changes the
caller's, and no module reads mpmath's ambient precision: each number
carries its own digits.  Only ``cli._emit`` opens a file to write, so
every output file goes through one writer.  The shift operators take no
square root: their gauge makes every entry rational.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "holomon").glob("*.py"))
BENCH = sorted((ROOT / "benchmarks").glob("*.py"))


def _registered(node) -> bool:
    """Whether a ``@<group>.command(...)`` or ``.group(...)`` decorator
    hands the function to click."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def _hook_override(module, cls: ast.ClassDef, method: ast.FunctionDef) -> bool:
    """Whether a method other than ``__init__`` overrides one of a class
    outside holomon (click's hooks, which click calls)."""
    return method.name != "__init__" and any(
        hasattr(b, method.name) for b in getattr(module, cls.name).__mro__[1:]
        if not b.__module__.startswith("holomon"))


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """(path, qualified name, first line, last line) of every module-level
    function or class and every method, private ones included.  Python
    calls a dunder, and click a command or a hook, so none of them needs
    a caller here."""
    for path in SRC:
        module = importlib.import_module(f"holomon.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not _dunder(node.name) and not _registered(node):
                yield path, node.name, node.lineno, node.end_lineno
            if not isinstance(node, ast.ClassDef):
                continue
            for sub in node.body:
                if (isinstance(sub, ast.FunctionDef) and not _dunder(sub.name)
                        and not _hook_override(module, node, sub)):
                    yield path, f"{node.name}.{sub.name}", sub.lineno, sub.end_lineno


def _identifiers():
    """(path, line, name) of every name that code in the library and the
    benchmark harness reads: a variable, an attribute, or an imported name
    (f-string fields included, which a token scan sees as one string)."""
    for path in SRC + BENCH:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                yield path, node.lineno, node.id
            elif isinstance(node, ast.Attribute):
                yield path, node.lineno, node.attr
            elif isinstance(node, ast.alias):
                for name in {node.name.split(".")[-1], node.asname} - {None}:
                    yield path, node.lineno, name


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


def _functions():
    """(qualified name, called name, node, leading parameters a call does
    not pass) of every module-level function and every method in
    ``src/holomon``, except click commands and click hooks; a class's
    ``__init__`` is called by the class name.  Nested functions are left
    out: their defaults bind loop variables, not options."""
    for path in SRC:
        module = importlib.import_module(f"holomon.{path.stem}")
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not _registered(node):
                yield node.name, node.name, node, 0
            if not isinstance(node, ast.ClassDef):
                continue
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not _hook_override(module, node, sub):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in sub.decorator_list)
                    called = node.name if sub.name == "__init__" else sub.name
                    yield f"{node.name}.{sub.name}", called, sub, 0 if static else 1


def _calls() -> dict:
    """{called name: [call node, ...]} over the library and the benchmark
    harness, by the name a call's function is spelled with."""
    calls: dict = {}
    for path in SRC + BENCH:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, index, name: str) -> bool:
    """Whether ``call`` passes the parameter ``name``, at position
    ``index`` (None when keyword-only); a call that unpacks ``*args`` or
    ``**kwargs`` may pass any."""
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg is None or k.arg == name for k in call.keywords)
            or (index is not None and index < len(call.args)))


def _function_options():
    """(qualified name, called name, [(index, name), ...] of the defaulted
    parameters) of every function from ``_functions``."""
    for qual, called, fn, skip in _functions():
        args = fn.args
        positional = (args.posonlyargs + args.args)[skip:]
        first = len(positional) - len(args.defaults)
        options = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
        options += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None]
        yield qual, called, options


def _is_call_to(node, name: str) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == name


def _dataclass_options():
    """The same for the generated ``__init__`` of every dataclass in
    ``src/holomon``: its fields in order, less those with ``init=False``;
    a field with a default, or a ``field(...)`` that gives one, is an
    option."""
    for path in SRC:
        for node in ast.parse(path.read_text()).body:
            if not (isinstance(node, ast.ClassDef) and any(
                    getattr(d, "id", None) == "dataclass" or _is_call_to(d, "dataclass")
                    for d in node.decorator_list)):
                continue
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)
                      and not (_is_call_to(f.value, "field") and any(
                          k.arg == "init" and not k.value.value for k in f.value.keywords))]
            options = [(i, f.target.id) for i, f in enumerate(fields) if f.value is not None]
            yield node.name, node.name, options


def test_every_option_is_set_by_a_caller():
    calls = _calls()
    unset = []
    for qual, called, options in [*_function_options(), *_dataclass_options()]:
        for index, name in options:
            if not any(_passes(c, index, name) for c in calls.get(called, ())):
                unset.append(f"{qual}({name})")
    assert unset == []


def test_every_field_default_is_read():
    """A default that every call overrides, of a function's or a method's
    parameter or of a dataclass field, is a second value of the option
    that nothing reads."""
    calls = _calls()
    dead = [f"{qual}({name})"
            for qual, called, options in [*_function_options(), *_dataclass_options()]
            for index, name in options
            if all(_passes(c, index, name) for c in calls.get(called, ()))]
    assert dead == []


def _imported_modules(path) -> set:
    """Top-level names of the modules that a file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("name", ["blocks", "virasoro"])
def test_block_arithmetic_imports_no_mpmath(name):
    assert "mpmath" not in _imported_modules(ROOT / "src" / "holomon" / f"{name}.py")


def _names_in(path, function: str) -> set:
    """Every name and attribute that a top-level function of a file reads
    or calls."""
    tree = ast.parse(path.read_text())
    node = next(n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == function)
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


@pytest.mark.parametrize("function", ["contract", "_pivot_column", "_add_index"])
def test_contraction_kernel_names_no_fraction(function):
    assert "Fraction" not in _names_in(ROOT / "src" / "holomon" / "virasoro.py", function)


def _called_name(node) -> str | None:
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) or getattr(node.func, "attr", None)
    return None


def _decimal_context_writes(path) -> list:
    """Lines that swap the decimal context (``setcontext``), bind the
    current one to a name, or assign into it through ``getcontext()``."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if _called_name(node) == "setcontext":
            lines.append(node.lineno)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if _called_name(node.value) == "getcontext" or any(
                    _called_name(sub) == "getcontext"
                    for t in targets for sub in ast.walk(t)):
                lines.append(node.lineno)
    return lines


def test_decimal_context_only_local():
    writes = {path.stem: _decimal_context_writes(path) for path in SRC}
    assert {name: lines for name, lines in writes.items() if lines} == {}


def _dotted(node) -> str | None:
    """``a.b.c`` for a chain of names and attributes, None otherwise."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def _ambient_precision_reads(path) -> list:
    """Lines that name mpmath's global precision, ``mp.mp.dps``,
    ``mp.dps``, their ``prec`` twins, or the same through ``mpmath``."""
    contexts = {"mp", "mp.mp", "mpmath", "mpmath.mp"}
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in ("dps", "prec")
            and _dotted(node.value) in contexts]


def test_no_ambient_precision_read():
    reads = {path.stem: _ambient_precision_reads(path) for path in SRC}
    assert {name: lines for name, lines in reads.items() if lines} == {}


def _mode(call: ast.Call) -> str:
    """The mode an ``open`` call passes, "r" when it passes none, and "w"
    when it is not a literal, so that an unknown mode counts as writing."""
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
    return mode.value if isinstance(mode, ast.Constant) else "w"


def test_only_emit_opens_files_to_write():
    writers = []
    for path in SRC:
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            writers += [f"{path.name}:{node.lineno}" for node in ast.walk(top)
                        if _called_name(node) == "open" and set(_mode(node)) & set("wax")
                        and (path.stem, owner) != ("cli", "_emit")]
    assert writers == []


def test_shift_operators_take_no_square_root():
    # a square root would bring back a branch to choose at every site
    path = ROOT / "src" / "holomon" / "pantsrep.py"
    assert "sqrt" not in {name for p, _, name in _identifiers() if p == path}
    assert [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.right, ast.Constant) and isinstance(node.right.value, float)] == []
    assert not hasattr(importlib.import_module("holomon.decimals").Complex, "sqrt")
