"""The convergence and solve-many scripts and the README quickstart, run as
they are shipped.

Both call the library the way a user does, so a signature change that
breaks them fails here instead of going unnoticed.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _run(argv):
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=300)


def test_convergence_study_converges():
    proc = _run([str(ROOT / "scripts" / "convergence_study.py"),
                 "--n-values", "16", "32", "64"])
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [int(row[0]) for row in rows] == [16, 32, 64]
    mu_err = [float(row[1]) for row in rows]
    assert mu_err[0] > mu_err[1] > mu_err[2], mu_err
    assert mu_err[2] <= 1e-12, mu_err


def test_solve_many_reports_the_build():
    # the paths repeat on every machine: the rule reads no clock
    proc = _run([str(ROOT / "scripts" / "solve_many.py"), "--k", "8", "--repeats", "1"])
    assert proc.returncode == 0, proc.stderr
    cases = ("mixed3", "lattice16", "mixed3-singular", "mixed3-singular-d3")
    paths = {case: [line.split()[3] for line in proc.stdout.splitlines()
                    if line.startswith(f"{case} solve")] for case in cases}
    # the singular path factors too, at the same solve as the regular one
    built = ["gmres"] * 6 + ["factored"] * 2
    assert paths == {"mixed3": built, "lattice16": ["gmres"] * 8, "mixed3-singular": built,
                     "mixed3-singular-d3": built}
    for case in ("mixed3", "mixed3-singular", "mixed3-singular-d3"):
        assert f"{case}: factor built at solve 7, after 6 GMRES solves" in proc.stdout
    assert re.search(r"^lattice16: no factor within 8 solves; median solve [0-9.]+ ms$",
                     proc.stdout, flags=re.M)


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
    proc = _run(["-c", block])
    assert proc.returncode == 0, proc.stderr
    constants = ast.literal_eval(proc.stdout.splitlines()[0])
    assert len(constants) == 3
    for got, expected in zip(constants, (-0.3, 1.2, -2.0)):
        assert abs(got - expected) <= 1e-10, constants
