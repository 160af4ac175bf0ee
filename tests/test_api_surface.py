"""Ratchets on the size of the library's surface.

Settable options are found by AST over ``src/gnk``: parameters with
defaults plus fields with defaults of dataclasses.  Defaults of lambdas
inside a body (``k=k`` loop bindings) are not options and are not counted.
They must equal the named set ``OPTIONS``, each with the reason it stays,
so a new option fails and so does a removed one left in the set.
Every public function or method must be named outside its own definition
somewhere in ``src/`` (the package's re-exports in ``__init__.py`` do not
count), ``scripts/`` or ``benchmarks/``, or be on ``TEST_ONLY_API``.  The
lines of ``src/gnk/*.py``, counted as ``wc -l`` counts them, stay at or
below ``MAX_SOURCE_LINES``; a change that adds code raises the number and
says why.  The optional flags of every CLI subcommand must equal
``CLI_DEFAULTS``, named the same way.  Only ``discrete.py`` reads the storage behind ``ops.N`` and
``ops.M``; every other module goes through their products and
``ops.kernel_block``.  One builder makes kernel entries: ``_fill_kernel``
has one caller, ``discrete._kernel_blocks``.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import re
from pathlib import Path

from gnk import cli, discrete

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gnk"
OPTIONS = {
    "cli.main(argv=)": "None reads sys.argv; tests and the benchmark pass a list",
    "geometry.from_curves(hole_points=)": "JSON regions may omit hole_points; "
                                          "centroids then serve",
}
# The CLI's twin of OPTIONS: the flags that may be left out, the same on
# every subcommand, each with the reason it stays.  A value that only the
# tests change is a constant, as the solve and identity tolerances are.
CLI_DEFAULTS = {
    "--coeff": "an input file; omitted means A = 1",
    "--n": "the grid size; the benchmark runs 256 and 512",
    "--out": "a path",
}
MAX_SOURCE_LINES = 2277
# Public functions only tests call, kept as library API: harmonic_eval is
# the documented Dirichlet field.
TEST_ONLY_API = {"harmonic_eval"}


def _modules():
    return [(path, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def settable_options() -> list[str]:
    found = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                with_default = positional[len(positional) - len(args.defaults):]
                with_default += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                                 if d is not None]
                found += [f"{path.stem}.{node.name}({a.arg}=)" for a in with_default]
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                found += [f"{path.stem}.{node.name}.{st.target.id}"
                          for st in node.body
                          if isinstance(st, ast.AnnAssign) and st.value is not None]
    return found


def public_functions() -> list[tuple[str, str]]:
    """(module, name) of module-level functions and class methods."""
    found = []
    for path, tree in _modules():
        scopes = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
        for body in scopes:
            found += [(path.stem, n.name) for n in body
                      if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")]
    return found


def _mentions() -> str:
    """Source text that may call or name a function, with every def line
    removed so that a definition does not count as its own use."""
    files = [p for p in sorted((ROOT / "src").rglob("*.py"))
             if p != PACKAGE / "__init__.py"]
    files += sorted((ROOT / "scripts").glob("*.py"))
    files += sorted((ROOT / "benchmarks").glob("*.py"))
    text = "\n".join(p.read_text() for p in files)
    return re.sub(r"^\s*def \w+", "", text, flags=re.MULTILINE)


def test_settable_options_do_not_grow():
    options = settable_options()
    assert sorted(options) == sorted(OPTIONS), options


def test_cli_flags_with_a_default_are_named():
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for name, parser in commands.items():
        flags = {a.option_strings[-1] for a in parser._actions
                 if a.option_strings and not a.required
                 and not isinstance(a, argparse._HelpAction)}
        assert flags == set(CLI_DEFAULTS), (name, flags)


def test_source_lines_do_not_grow():
    lines = sum(path.read_bytes().count(b"\n") for path in PACKAGE.glob("*.py"))
    assert lines <= MAX_SOURCE_LINES, f"src/gnk has {lines} lines, cap {MAX_SOURCE_LINES}"


def test_every_public_function_has_a_caller():
    text = _mentions()
    orphans = [f"{module}.{name}" for module, name in public_functions()
               if name not in TEST_ONLY_API
               and not re.search(rf"\b{re.escape(name)}\b", text)]
    assert orphans == []


def test_test_only_api_names_public_functions():
    # a deleted or renamed function leaves the allowlist with it
    assert TEST_ONLY_API <= {name for _, name in public_functions()}


def test_only_discrete_reads_the_operator_storage():
    # the fields of the factored kernel and the operators' own attributes
    storage = {f.name for f in dataclasses.fields(discrete._Kernel)}
    storage |= set(vars(discrete.KernelPart(None, None)))
    readers = sorted({f"{path.stem}.{node.attr}" for path, tree in _modules()
                      if path.name != "discrete.py"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr in storage})
    assert storage >= {"store", "part", "band", "banded", "waves", "dense_n", "pairs", "V", "C",
                       "taylor"}
    assert readers == []


def test_one_kernel_builder():
    # assembly (the bands' sub-grids and the dense pairs), the Mobius check
    # and the tests' dense copies all walk _kernel_blocks, the one function
    # that fills entries
    callers = sorted({f"{path.stem}.{scope.name}" for path, tree in _modules()
                      for scope in ast.walk(tree)
                      if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
                      for node in ast.walk(scope)
                      if isinstance(node, ast.Call)
                      and "_fill_kernel" in (getattr(node.func, "id", None),
                                             getattr(node.func, "attr", None))})
    assert callers == ["discrete._kernel_blocks"]
