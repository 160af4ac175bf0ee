#!/usr/bin/env python3
"""Time k solves on one assembly, and where the factor is built.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/solve_many.py [--k 40] [--repeats 3]

Four cases, each with the benchmark's seeded pole data (``benchmarks/inputs.py``),
a new data set per solve: the mixed gallery with A = (eta - z0)^-1, z0 the
last hole's centre, at n = 512 (the regular path of the ``rhp-batch-mixed3``
workload), the 16-circle lattice with A = 1 at n = 256, and the mixed
gallery with A = (eta - z0)^+1 and ^+2 at n = 512, where I - N has a null
space of dimension 1 (the workload's singular path) and 3.  Each case runs
its k solves on ``--repeats`` fresh assemblies and prints, per solve, the
solver that ran (``gmres``, or ``factored``, which reports 0 iterations)
and its median time.  Then a summary line: the solve that built the
factor, the build time (that solve's time less the median factored
solve), break-even (the build time over the time a factored solve saves
against GMRES) and the GMRES solves that ran before the build, which the
ski-rental rule (``discrete.FACTOR_RENT``) keeps between one and two times
break-even; or, where no factor was built, the median solve time.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
import inputs  # noqa: E402

import gnk  # noqa: E402

CASES = (("mixed3", inputs.mixed3(), 512, -1), ("lattice16", inputs.lattice16(), 256, None),
         ("mixed3-singular", inputs.mixed3(), 512, 1),
         ("mixed3-singular-d3", inputs.mixed3(), 512, 2))


def run(holes, n: int, power, k: int):
    """(path, seconds) of k solves on one fresh assembly."""
    problems = [inputs.make_problem(holes, (7, i),
                                    coeff=inputs.shifted_power(holes, power) if power else None)
                for i in range(k)]
    region, grid = gnk.load_region(problems[0].region_json()), gnk.ParamGrid(n)
    coeff = gnk.load_coefficient(problems[0].coeff)
    ops = gnk.assemble_N(region, coeff, grid)
    gammas = [gnk.load_boundary_data(p.data_json(), region, coeff, grid) for p in problems]
    steps = []
    for gamma in gammas:
        start = time.perf_counter()
        solution = gnk.solve_rhp(ops, gamma)
        elapsed = time.perf_counter() - start
        steps.append(("gmres" if solution.diagnostics.iterations else "factored", elapsed))
    return steps


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, default=40)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    for name, holes, n, power in CASES:
        runs = [run(holes, n, power, args.k) for _ in range(args.repeats)]
        paths = [step[0] for step in runs[0]]
        if any([step[0] for step in steps] != paths for steps in runs):
            raise SystemExit(f"{name}: the paths differ between fresh assemblies")
        times = [statistics.median(steps[i][1] for steps in runs) for i in range(args.k)]
        for i, (path, seconds) in enumerate(zip(paths, times), 1):
            print(f"{name} solve {i:3d} {path:8s} {1e3 * seconds:8.2f} ms")
        if "factored" not in paths:
            print(f"{name}: no factor within {args.k} solves; "
                  f"median solve {1e3 * statistics.median(times):.2f} ms")
            continue
        built = paths.index("factored")
        gmres = statistics.median(t for p, t in zip(paths, times) if p == "gmres")
        factored = statistics.median(t for p, t in zip(paths[built + 1:], times[built + 1:])
                                     if p == "factored")
        build = times[built] - factored
        even = build / (gmres - factored)
        print(f"{name}: factor built at solve {built + 1}, after {built} GMRES solves; "
              f"build {1e3 * build:.1f} ms, GMRES solve {1e3 * gmres:.2f} ms, factored solve "
              f"{1e3 * factored:.2f} ms, break-even {even:.1f} solves, "
              f"built at {built / even:.2f} x break-even")
    return 0


if __name__ == "__main__":
    sys.exit(main())
