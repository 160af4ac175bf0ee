#!/usr/bin/env python3
"""Compare the CLI outputs of two source trees byte for byte.

    python3 scripts/compare_outputs.py OLD_SRC NEW_SRC [--work DIR]

OLD_SRC and NEW_SRC are directories holding the ``gnk`` package (a
checkout's ``src/``).  All six subcommands run with each tree on the
``make_gallery.py`` inputs: the circles, mixed and close regions, the ``one`` and
``power`` coefficients, n = 64 and 128, with the mixed data set.
``eval-field`` also runs on the circles with its one probe at (4, 0), node
s = 0 of the first circle, for both coefficients and sizes, so the on-node
rule is compared too (``eval-field-node_*`` cases).  Each run
keeps its output files plus its exit code, stdout and stderr (a Python
warning there names a source line, so it shows as a difference).  The
script lists every identical and differing file and exits 1 on any
difference.  For a CSV or JSON file present in both trees it also prints
the largest absolute difference between the numbers at the same place
(CSV row and column, JSON key path), that difference over max(1, |old|),
and how many other entries differ (text, a key on one side only, or a
NaN or infinity against a different value).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from make_gallery import FILES  # noqa: E402

COMMANDS = ("solve-rhp", "solve-dirichlet", "verify", "index-report",
            "mobius-check", "eval-field")
REGIONS = ("circles", "mixed", "close")
COEFFS = ("one", "power")
SIZES = (64, 128)
READS_DATA = ("solve-rhp", "solve-dirichlet", "eval-field")
FIELD_GRID = "--field-grid=-6,6,60,-6,6,60"
NODE_GRID = "--field-grid=4,4,1,0,0,1"  # node s = 0 of the circles' first curve


def cases():
    """(case name, CLI arguments) of every run, paths relative to the gallery."""
    for command, region, coeff, n in itertools.product(COMMANDS, REGIONS, COEFFS, SIZES):
        argv = [command, "--region", f"region_{region}.json",
                "--coeff", f"coeff_{coeff}.json", "--n", str(n)]
        if command in READS_DATA:
            argv += ["--data", "data_mixed.json"]
        if command == "eval-field":
            argv.append(FIELD_GRID)
        yield f"{command}_{region}_{coeff}_{n}", argv
    for coeff, n in itertools.product(COEFFS, SIZES):
        yield f"eval-field-node_circles_{coeff}_{n}", [
            "eval-field", "--region", "region_circles.json", "--coeff", f"coeff_{coeff}.json",
            "--n", str(n), "--data", "data_mixed.json", NODE_GRID]


def run_tree(src: Path, gallery: Path, out: Path) -> None:
    """Run every case with the gnk package under src; outputs go to out/<case>/."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for name, argv in cases():
        case = out / name
        case.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, "-m", "gnk.cli", *argv, "--out", str(case)],
            cwd=gallery, env=env, capture_output=True, text=True)
        (case / "exit_code.txt").write_text(f"{proc.returncode}\n")
        (case / "stdout.txt").write_text(proc.stdout)
        (case / "stderr.txt").write_text(proc.stderr)


def compare(old: Path, new: Path) -> tuple[list[str], list[str]]:
    """Relative paths of identical and of differing (or one-sided) files."""
    names = sorted({p.relative_to(root).as_posix()
                    for root in (old, new) for p in root.rglob("*") if p.is_file()})
    same, differ = [], []
    for name in names:
        a, b = old / name, new / name
        equal = a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()
        (same if equal else differ).append(name)
    return same, differ


def _leaves(node, key=()) -> dict:
    """Leaves of parsed JSON by key path."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return {path: leaf for name, child in items
                for path, leaf in _leaves(child, key + (name,)).items()}
    return {key: node}


def _entries(path: Path) -> dict:
    """CSV cells by (row, column) or JSON leaves by key path."""
    text = path.read_text()
    if path.suffix == ".csv":
        return {(i, j): cell for i, line in enumerate(text.splitlines())
                for j, cell in enumerate(line.split(","))}
    return _leaves(json.loads(text))


def _number(value) -> float | None:
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)
    except ValueError:
        return None


def numeric_difference(a: Path, b: Path) -> str:
    """Largest difference between the numbers two CSV or JSON files hold."""
    try:
        old, new = _entries(a), _entries(b)
    except ValueError as exc:
        return f"not comparable ({exc})"
    largest = scaled = 0.0
    other = 0
    for key in old.keys() | new.keys():
        x, y = _number(old.get(key)), _number(new.get(key))
        if x is None or y is None:
            other += key not in old or key not in new or old[key] != new[key]
        elif not (math.isfinite(x) and math.isfinite(y)):
            # a NaN or an infinity has no distance to the other value
            other += repr(x) != repr(y)
        else:
            largest = max(largest, abs(x - y))
            scaled = max(scaled, abs(x - y) / max(1.0, abs(x)))
    return f"max |diff| {largest:.3e}, scaled {scaled:.3e}, other {other}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--work", type=Path, default=None,
                        help="keep the gallery and outputs here; its old/ and "
                             "new/ must not exist (default: a temporary directory)")
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not (src / "gnk" / "__init__.py").is_file():
            parser.error(f"{src} holds no gnk package")
    for label in ("old", "new"):
        if args.work is not None and (args.work / label).exists():
            parser.error(f"{args.work / label} exists from an earlier run; "
                         "remove it or pick another --work")

    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        gallery = work / "gallery"
        gallery.mkdir(parents=True, exist_ok=True)
        for name, payload in FILES.items():
            (gallery / name).write_text(json.dumps(payload, indent=2) + "\n")
        for label, src in (("old", args.old_src), ("new", args.new_src)):
            run_tree(src.resolve(), gallery, work / label)
        same, differ = compare(work / "old", work / "new")
        notes = {name: numeric_difference(work / "old" / name, work / "new" / name)
                 for name in differ
                 if name.endswith((".csv", ".json"))
                 and (work / "old" / name).is_file() and (work / "new" / name).is_file()}

    for name in same:
        print(f"identical  {name}")
    for name in differ:
        print(f"DIFFERENT  {name}  {notes.get(name, '')}".rstrip())
    print(f"{len(same)} identical, {len(differ)} different")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
