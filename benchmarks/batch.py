"""rhp-batch-mixed3 worker: repeated ``solve_rhp`` calls on one geometry.

One process, one caller, solves back to back.  Set-up (loading the JSON
inputs, region validation, assembly of both operators and each operator's
first solve, which fills the cached rank decision) is timed as a whole and
repeated ``--setups`` times.  Then rounds of one solve per generated data
set (``inputs.BATCH_KINDS``: eight regular-path, one minimal-norm) run
until ``--seconds`` have passed, at least one round.  A round's time is the
sum of its solve times; every solve is checked against the oracles after
its timer stops.  The last stdout line is a JSON summary; with ``--spans``
the gnk layers are traced and the spans written there.

    PYTHONPATH=src python3 benchmarks/batch.py --inputs DIR --seed 1 --n 512
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

import inputs
import oracles

TOL = 1e-8


def check_solution(problem, n: int, solution, minimal_norm: bool) -> str | None:
    """Return why a solve is wrong, or None."""
    eta, _ = oracles.boundary(problem, n)
    holes = [h.center for h in problem.holes]
    if solution.diagnostics.minimal_norm != minimal_norm:
        return "rhp-wrong-path"
    if not minimal_norm:
        af = oracles.coefficient(problem, eta) * oracles.rational(problem, eta)
        if oracles.sup(solution.mu - af.imag) > TOL:
            return "rhp-mu-mismatch"
        if oracles.sup(solution.h) > TOL:
            return "rhp-h-nonzero"
    if oracles.sup(oracles.exterior_cauchy(problem, n, solution.f_plus, holes)) > TOL:
        return "rhp-cauchy-nonzero"
    return None


def setup(gnk, dirs: dict, n: int):
    """Load, validate and assemble; one first solve per operator."""
    first = dirs["regular"][0]
    region = gnk.load_region(str(first / "region.json"))
    grid = gnk.ParamGrid(n)
    report = gnk.validate_region(region, grid)
    if not report.ok:
        raise ValueError(f"region validation failed:\n{report}")
    state = {}
    for kind, paths in dirs.items():
        coeff = gnk.load_coefficient(str(paths[0] / "coeff.json"))
        ops = gnk.assemble_N(region, coeff, grid)
        gammas = [gnk.load_boundary_data(str(p / "data.json"), region, coeff, grid)
                  for p in paths]
        state[kind] = (ops, gammas, gnk.solve_rhp(ops, gammas[0]))
    return state


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    tracer = None
    if args.spans:
        import spans
        tracer = spans.Tracer()
    import gnk
    if tracer:
        spans.install(tracer)

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    problems = inputs.batch_problems(args.seed)
    root = Path(args.inputs)
    dirs = {kind: [root / f"{kind}-{k}" for k in range(len(ps))]
            for kind, ps in problems.items()}

    setup_s, failures, state = [], [], None
    for _ in range(max(1, args.setups)):
        state = None  # free the previous set-up's operators before the next
        t0 = time.perf_counter()
        with span("batch.setup"):
            state = setup(gnk, dirs, args.n)
        setup_s.append(time.perf_counter() - t0)
    setup_failures = [f"setup-{reason}" for kind, (_, _, sol) in state.items()
                      if (reason := check_solution(problems[kind][0], args.n, sol,
                                                   kind == "minnorm"))]

    times = {"regular": [], "minnorm": []}
    rounds_s, attempted = [], 0
    start = time.perf_counter()
    while True:
        round_s = 0.0
        for kind in ("regular", "minnorm"):
            ops, gammas, _ = state[kind]
            for k, gamma in enumerate(gammas):
                attempted += 1
                t0 = time.perf_counter()
                try:
                    with span(f"batch.{kind}"):
                        solution = gnk.solve_rhp(ops, gamma)
                except gnk.GnkError as exc:
                    failures.append(f"rhp-{type(exc).__name__}")
                    continue
                elapsed = time.perf_counter() - t0
                times[kind].append(elapsed)
                round_s += elapsed
                reason = check_solution(problems[kind][k], args.n, solution,
                                        kind == "minnorm")
                if reason:
                    failures.append(reason)
        rounds_s.append(round_s)
        if time.perf_counter() - start >= args.seconds:
            break

    if tracer:
        tracer.dump(args.spans)
    print(json.dumps({
        "setup_s": setup_s,
        "rounds_s": rounds_s,
        "regular_s": times["regular"],
        "minnorm_s": times["minnorm"],
        "attempted": attempted,
        "failures": failures,
        "setup_failures": setup_failures,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
