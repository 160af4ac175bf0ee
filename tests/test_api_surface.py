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
``ops.M`` (``ops.kernel``); every other module goes through their products.
One builder makes kernel entries: ``_fill_kernel``
has one caller, ``discrete._kernel_blocks``.  The private names that one
module of ``src/gnk`` reads from another, by ``from gnk.x import _y`` or
``x._y``, must equal ``PRIVATE_IMPORTS``, grouped by the reason each
group stays, so a new crossing fails and so does a listed one that is gone.
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
MAX_SOURCE_LINES = 2603
# (importer, private name) pairs across modules, by the reason they stay
PRIVATE_IMPORTS = {
    "the coefficient and boundary-data loaders read JSON with geometry's readers": {
        ("coefficient", "geometry._as_complex"), ("coefficient", "geometry._fourier_curve"),
        ("coefficient", "geometry._json_array"), ("coefficient", "geometry._json_number"),
        ("coefficient", "geometry._json_object"), ("coefficient", "geometry._parse_json_source"),
        ("rhp", "geometry._as_complex"), ("rhp", "geometry._fourier_curve"),
        ("rhp", "geometry._json_array"), ("rhp", "geometry._json_number"),
        ("rhp", "geometry._json_object"), ("rhp", "geometry._parse_json_source")},
    "one finiteness check for every input array": {
        ("cli", "geometry._require_finite"), ("coefficient", "geometry._require_finite"),
        ("rhp", "geometry._require_finite")},
    "one winding count about points: validation, the index, the hole mask, the Mobius centre": {
        ("cli", "geometry._turns_about_points"), ("coefficient", "geometry._turns_about_points"),
        ("mobius", "geometry._turns_about_points")},
    "the mapped index counts the coefficient's windings as index_of does": {
        ("mobius", "coefficient._windings")},
    "the Mobius check walks the one kernel builder in its buffer": {
        ("mobius", "discrete._block_buffer"), ("mobius", "discrete._kernel_blocks")},
    "one Laurent frame and truncation for the far pairs and the far field": {
        ("discrete", "kernels._laurent_frame"), ("discrete", "kernels._laurent_terms"),
        ("rhp", "kernels._laurent_frame"), ("rhp", "kernels._laurent_terms")},
}
# Public functions only tests call, kept as library API; none is left (the
# Dirichlet field is cauchy_eval(...).real).
TEST_ONLY_API: set[str] = set()


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
    storage |= set(vars(discrete.KernelPart(None, None))) | {"kernel"}
    readers = sorted({f"{path.stem}.{node.attr}" for path, tree in _modules()
                      if path.name != "discrete.py"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and node.attr in storage})
    assert storage >= {"kernel", "store", "part", "band", "banded", "waves", "dense_n", "pairs",
                       "V", "C", "taylor"}
    assert readers == []


def private_imports() -> set[tuple[str, str]]:
    """(importer, "module._name") of every private name a module of the
    package takes from another, by ``from gnk.module import _name`` or as
    ``module._name`` after ``from gnk import module``."""
    found = set()
    for path, tree in _modules():
        modules = {}  # local name -> gnk module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "gnk":
                modules.update({a.asname or a.name: a.name for a in node.names})
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("gnk."):
                found |= {(path.stem, f"{node.module[4:]}.{a.name}") for a in node.names
                          if a.name.startswith("_")}
        found |= {(path.stem, f"{modules[node.value.id]}.{node.attr}") for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and isinstance(node.value, ast.Name) and node.value.id in modules}
    return found


def test_private_imports_are_named():
    assert private_imports() == set().union(*PRIVATE_IMPORTS.values())


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
