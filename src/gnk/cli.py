"""Batch command line front end.

One subcommand per capability: solve-rhp, solve-dirichlet, verify,
index-report, mobius-check, eval-field.  Outputs are CSV and JSON files
written straight from the library's arrays and records, every number
as Python's shortest round-trip repr, so that identical inputs produce
byte identical outputs.  Exit codes: 0 success, 1 input or validation error,
2 solve-quality failure (inconsistent system, constancy violation, or a
verification check out of tolerance).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from gnk import dirichlet, discrete, mobius, rhp
from gnk.coefficient import One, index_of, load_coefficient
from gnk.errors import ConstancyViolation, GnkError, InconsistentSystem
from gnk.geometry import (MIN_DISTANCE, TWO_PI, ParamGrid, _require_finite,
                          _turns_about_points, load_region, validate_region)

# The operator identities hold to TOL_IDENTITY absolute.  Mobius kernel
# differences are roundoff in entries as large as max(1, max|M + iN|), and
# the jump relation, exact in the discrete algebra, leaves roundoff in
# Plemelj values as large as max(1, sup|plemelj(+-1)|): each bound applies
# relative to its scale.
TOL_IDENTITY = 1e-8
TOL_INVARIANCE = 1e-12
TOL_JUMP = 1e-13
# Probes per block of field.csv: about 1 MB of formatted cells.
FIELD_BLOCK = 4096


def _floats(values) -> np.ndarray:
    """Each value as repr(float(x)), the shortest text that reads back exactly,
    in an object array: each distinct bit pattern (-0.0 too) formatted once."""
    bits, inverse = np.unique(np.ascontiguousarray(values, dtype=float).view(np.int64),
                              return_inverse=True)
    return np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)[inverse]


def _write_json(path: Path, payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="\n") as f:
        f.write(text)
    return text


def _write_csv(path: Path, blocks) -> None:
    """One CSV row per position of the equally long columns of strings in
    each block, a dict of column name -> column; the first block's names
    are the header.  Only one block's strings are held at a time."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="\n") as f:
        for i, columns in enumerate(blocks):
            if i == 0:
                f.write(",".join(columns) + "\n")
            f.writelines(",".join(row) + "\n" for row in zip(*columns.values()))


def _finite(value: float) -> float | None:
    """A figure for JSON, which has no NaN: a non-finite one is null."""
    return value if math.isfinite(value) else None


def _fail(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")


def _load_inputs(args, *, need_data: bool):
    region = load_region(args.region)
    grid = ParamGrid(args.n)
    report = validate_region(region, grid)
    if not report.ok:
        failures = "; ".join(f"{c.name} ({c.detail})" for c in report.failures())
        raise ValueError(f"region validation failed: {failures}")
    coeff = load_coefficient(args.coeff) if args.coeff else One()
    gamma = None
    if need_data:
        gamma = rhp.load_boundary_data(args.data, region, coeff, grid)
    return region, grid, coeff, gamma


def run_solve(args, mode: str) -> int:
    region, grid, coeff, gamma = _load_inputs(args, need_data=True)
    out = Path(args.out)
    if mode == "dirichlet" and not isinstance(coeff, One):
        raise ValueError("solve-dirichlet requires the coefficient one")
    ops = discrete.assemble_N(region, coeff, grid)
    index = ops.index
    if mode == "dirichlet":
        solution = dirichlet.solve_modified_dirichlet(ops, gamma)
        h, f_plus = solution.h_raw, solution.f_boundary
        extra = {"h_constants": list(solution.h_constants),
                 "h_deviation": list(solution.h_deviation)}
    else:
        solution = rhp.solve_rhp(ops, gamma)
        h, f_plus = solution.h, solution.f_plus
        extra = {"minimal_norm": solution.diagnostics.minimal_norm,
                 "kappa_per_curve": list(index.kappa_per_curve),
                 "kappa": index.kappa}
    diagnostics = {
        "mode": mode,
        "n": grid.n,
        "ie_residual": solution.diagnostics.ie_residual,
        "s_minus_residuals": [solution.diagnostics.h_plus_residual,
                              solution.diagnostics.h_companion_residual],
        "solver_iterations": solution.diagnostics.iterations,
        # predicted from the indices; verify measures them
        "nullity_I_minus_N": index.dim_null_I_minus_N,
        "nullity_I_plus_N": index.dim_null_I_plus_N,
        **extra,
    }
    _write_csv(out / "boundary.csv", [{
        "curve_index": np.repeat(np.arange(region.m).astype(str), grid.n).tolist(),
        "s": _floats(np.tile(grid.nodes, region.m)),
        "gamma": _floats(gamma), "mu": _floats(solution.mu), "h": _floats(h),
        "re_f": _floats(f_plus.real), "im_f": _floats(f_plus.imag)}])
    _write_json(out / "diagnostics.json", diagnostics)
    return 0


def _band_limited_samples(rng, m: int, n: int, band: int) -> np.ndarray:
    phi = np.zeros(m * n)
    s = np.arange(n) * (TWO_PI / n)
    for k in range(m):
        for p in range(1, band + 1):
            phi[k * n:(k + 1) * n] += (
                rng.normal() * np.cos(p * s) + rng.normal() * np.sin(p * s))
        phi[k * n:(k + 1) * n] += rng.normal()
    return phi


def _mobius_section(ops) -> dict:
    """Kernel invariance on the assembled operators plus the index shift law."""
    invariance = mobius.kernel_invariance_check(ops)
    hat_direct = mobius.mapped_index_of(ops)
    hat_shift = mobius.index_shift(ops.index)
    return {
        # a NaN difference fails the gate and is written as null
        **{k: _finite(v) for k, v in dataclasses.asdict(invariance).items()},
        "tolerance": TOL_INVARIANCE,
        "index_shift": list(hat_shift[0]) + [hat_shift[1]],
        "index_direct": list(hat_direct[0]) + [hat_direct[1]],
        "ok": (invariance.max_diff <= TOL_INVARIANCE * invariance.scale
               and hat_direct == hat_shift),
    }


def _nullity_entry(report, predicted: int) -> dict:
    """Measured against predicted nullity, with the Krylov count's evidence."""
    return {"measured": report.nullity,
            "predicted": predicted,
            "ritz_counted": list(report.ritz_counted),
            "ritz_next": report.ritz_next,
            "ritz_largest": _finite(report.ritz_largest),
            "krylov_depth": report.depth,
            "krylov_stop": report.stop,
            "deflated": report.deflated}


def run_verify(args) -> int:
    region, grid, coeff, _ = _load_inputs(args, need_data=False)
    ops = discrete.assemble_N(region, coeff, grid)
    index = ops.index
    rng = np.random.default_rng(0)
    band = max(1, min(8, grid.n // 4))

    probes = np.column_stack([_band_limited_samples(rng, region.m, grid.n, band)
                              for _ in range(5)])
    r1_max, r2_max = discrete.operator_identity_residuals(ops, probes)
    identity_ok = r1_max <= TOL_IDENTITY and r2_max <= TOL_IDENTITY

    # On the 16-circle lattice at N = 4096, 9.9 MB are held after assembly; the
    # counts trace 8.5 MB (I + N, deflated) and 7.2 MB (I - N) above that,
    # and the Mobius check 2.1 MB (one pair buffer, the mapped jet, the seeded columns).
    mobius_section = _mobius_section(ops)
    plus = ops.nullity_I_plus_N()
    minus = ops.nullity_I_minus_N()
    null_ok = (plus.conclusive and plus.nullity == index.dim_null_I_plus_N
               and minus.conclusive and minus.nullity == index.dim_null_I_minus_N)

    gamma = _band_limited_samples(rng, region.m, grid.n, band)
    mu = _band_limited_samples(rng, region.m, grid.n, band)
    outer = rhp.plemelj_boundary(ops, gamma, mu, +1)
    inner = rhp.plemelj_boundary(ops, gamma, mu, -1)
    jump_scale = float(np.max([1.0, np.abs(outer).max(), np.abs(inner).max()]))  # NaN stays
    jump_residual = float(np.abs(outer - inner - (gamma + 1j * mu)).max()) / jump_scale
    jump_ok = jump_residual <= TOL_JUMP

    report = {
        "n": grid.n,
        # a NaN residual fails its gate and is written as null
        "identity": {"r1_max": _finite(r1_max), "r2_max": _finite(r2_max),
                     "tolerance": TOL_IDENTITY, "ok": identity_ok},
        "nullity": {
            "I_plus_N": _nullity_entry(plus, index.dim_null_I_plus_N),
            "I_minus_N": _nullity_entry(minus, index.dim_null_I_minus_N),
            "ok": null_ok,
        },
        "mobius": mobius_section,
        "jump": {"residual": _finite(jump_residual), "scale": _finite(jump_scale),
                 "tolerance": TOL_JUMP, "ok": jump_ok},
        "kappa_per_curve": list(index.kappa_per_curve),
        "kappa": index.kappa,
    }
    report["ok"] = identity_ok and null_ok and report["mobius"]["ok"] and jump_ok
    _write_json(Path(args.out) / "verify.json", report)

    for name in ("identity", "nullity", "mobius", "jump"):
        status = "ok " if report[name]["ok"] else "FAIL"
        sys.stdout.write(f"[{status}] {name}\n")
    return 0 if report["ok"] else 2


def run_index_report(args) -> int:
    region, grid, coeff, _ = _load_inputs(args, need_data=False)
    index = index_of(coeff, region, grid)
    sys.stdout.write(_write_json(Path(args.out) / "index.json", dataclasses.asdict(index)))
    return 0


def run_mobius_check(args) -> int:
    region, grid, coeff, _ = _load_inputs(args, need_data=False)
    payload = _mobius_section(discrete.assemble_N(region, coeff, grid))
    sys.stdout.write(_write_json(Path(args.out) / "mobius.json", payload))
    return 0 if payload["ok"] else 2


def _probe_points(text: str) -> np.ndarray:
    """Probes of --field-grid x0,x1,nx,y0,y1,ny, row-major by y then x."""
    parts = text.split(",")
    if len(parts) != 6:
        raise ValueError("--field-grid expects x0,x1,nx,y0,y1,ny")
    x0, x1, y0, y1 = _require_finite([float(parts[i]) for i in (0, 1, 3, 4)],
                                     "--field-grid bounds")
    _require_finite([x1 - x0, y1 - y0], "--field-grid probes")  # before linspace overflows
    nx, ny = int(parts[2]), int(parts[5])
    if nx < 1 or ny < 1:
        raise ValueError("field grid needs at least one point per axis")
    xs = np.linspace(x0, x1, nx) if nx > 1 else np.array([x0])
    ys = np.linspace(y0, y1, ny) if ny > 1 else np.array([y0])
    grid_x, grid_y = np.meshgrid(xs, ys)
    return (grid_x + 1j * grid_y).ravel()


def _hole_mask(region, points: np.ndarray, n: int) -> np.ndarray:
    """True where a probe point sits inside some hole (nonzero winding,
    counted from n nodes on); a probe too close to a curve to count is not."""
    return np.any([np.abs(_turns_about_points(lambda s, c=c: c.jet(s)[0], points, n,
                                              MIN_DISTANCE)) > 0
                   for c in region.curves], axis=0)


def _field_blocks(points, u, holes, in_band):
    """field.csv's columns, FIELD_BLOCK probes at a time, so that the
    strings held do not grow with the probe count."""
    # object arrays share their strings: a numpy string array would copy
    # every cell; no hole is in the band
    flags = np.array(["ok", "band", "hole"], dtype=object)
    for first in range(0, points.size, FIELD_BLOCK):
        part = slice(first, first + FIELD_BLOCK)
        values = _floats(u[part])
        values[holes[part]] = ""
        yield {"x": _floats(points[part].real), "y": _floats(points[part].imag),
               "u": values, "in_band_flag": flags[in_band[part] + 2 * holes[part]]}


def run_field(args) -> int:
    region, grid, coeff, gamma = _load_inputs(args, need_data=True)
    points = _probe_points(args.field_grid)
    ops = discrete.assemble_N(region, coeff, grid)
    solution = rhp.solve_rhp(ops, gamma)
    f, dist, turns = rhp.field_values(ops, gamma, solution.mu, points)
    u, near = f.real, dist < rhp.near_boundary_band(ops.jet)
    # the Cauchy sums of 1 count turns exactly off the band; on it the
    # argument steps decide
    holes = (np.rint(turns) != 0).any(axis=1)
    holes[near] = _hole_mask(region, points[near], grid.n)
    in_band = near & ~holes

    if not np.isfinite(u[~holes]).all():  # no NaN goes out with exit 0
        _fail(FloatingPointError("a field value is not finite"))
        return 2
    _write_csv(Path(args.out) / "field.csv", _field_blocks(points, u, holes, in_band))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnk",
        description="Boundary integral solver with the generalized Neumann kernel",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # looked up when the parser is built, so a run_* wrapped after import
    # (benchmarks/spans.py traces them) is the one that runs
    runners = {"solve-rhp": lambda args: run_solve(args, "rhp"),
               "solve-dirichlet": lambda args: run_solve(args, "dirichlet"),
               "verify": run_verify, "index-report": run_index_report,
               "mobius-check": run_mobius_check, "eval-field": run_field}
    for name, run in runners.items():
        p = sub.add_parser(name)
        p.set_defaults(run=run)
        p.add_argument("--region", required=True, help="region JSON file")
        p.add_argument("--coeff", default=None, help="coefficient JSON file (default one)")
        p.add_argument("--n", type=int, default=128, help="grid nodes per curve")
        p.add_argument("--out", default="gnk_out", help="output directory")
        if name in ("solve-rhp", "solve-dirichlet", "eval-field"):
            p.add_argument("--data", required=True, help="boundary data JSON file")
        if name == "eval-field":
            p.add_argument("--field-grid", required=True,
                           help="probe grid as x0,x1,nx,y0,y1,ny")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.run(args)
    except (InconsistentSystem, ConstancyViolation) as exc:
        _fail(exc)
        return 2
    except (GnkError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _fail(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
