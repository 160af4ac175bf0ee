"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not configurable: they are the contract.
"""

import json

import numpy as np
import pytest

from gnk.cli import main as cli_main
from gnk.coefficient import One, ShiftedPower, index_of
from gnk.discrete import apply_M, assemble_N, operator_identity_residuals
from gnk.dirichlet import indicator_basis, solve_modified_dirichlet
from gnk.geometry import Curve, ParamGrid, Region, circle, ellipse
from gnk.mobius import index_shift, kernel_invariance_check, mapped_index_of
from gnk.rhp import cauchy_eval, plemelj_boundary, solve_rhp
from conftest import CENTERS, POLE_AMPLITUDES, RADII, oracle_boundary
from helpers import attainability_residual, band_limited, capacity, lemniscate, with_center

TWO_PI = 2.0 * np.pi


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def gallery_ops(three_circles, grid128):
    return assemble_N(three_circles, One(), grid128)


def test_criterion_01_oracle_recovery(three_circles, grid128, gallery_ops):
    f_plus = oracle_boundary(three_circles, grid128)
    solution = solve_modified_dirichlet(gallery_ops, f_plus.real)
    mu_err = float(np.abs(solution.mu - f_plus.imag).max())
    h_max = max(abs(h) for h in solution.h_constants)
    ok = mu_err <= 1e-8 and h_max <= 1e-8
    _report(1, "oracle-recovery", ok, f"mu_err={mu_err:.3e} h_max={h_max:.3e}")


def test_criterion_02_constant_shift(three_circles, grid128, gallery_ops):
    shifts = (0.3, -1.2, 2.0)
    gamma = oracle_boundary(three_circles, grid128).real + np.repeat(shifts, grid128.n)
    solution = solve_modified_dirichlet(gallery_ops, gamma)
    worst = max(abs(h + c) for h, c in zip(solution.h_constants, shifts))
    _report(2, "constant-shift", worst <= 1e-8, f"max|h_j + c_j|={worst:.3e}")


def test_criterion_03_single_circle_closed_form():
    region = Region.from_curves([circle(0.0, 1.0)])
    grid = ParamGrid(64)
    ops = assemble_N(region, One(), grid)
    s = grid.nodes
    mu = solve_rhp(ops, np.cos(s)).mu
    mu_err = float(np.abs(mu - np.sin(s)).max())
    value = cauchy_eval(ops, np.cos(s), np.sin(s), 3.0)
    eval_err = abs(value - 1.0 / 3.0)
    ok = mu_err <= 1e-10 and eval_err <= 1e-10
    _report(3, "single-circle", ok, f"mu_err={mu_err:.3e} cauchy_err={eval_err:.3e}")


def test_criterion_04_operator_identities(three_circles):
    ops256 = assemble_N(three_circles, One(), ParamGrid(256))
    rng = np.random.default_rng(2024)
    worst_r1 = worst_r2 = 0.0
    for _ in range(5):
        phi = band_limited(rng, 3, 256, band=12)
        r1, r2 = operator_identity_residuals(ops256, phi)
        worst_r1, worst_r2 = max(worst_r1, r1), max(worst_r2, r2)
    level_ok = worst_r1 <= 1e-8 and worst_r2 <= 1e-8

    def phi_for(n: int) -> np.ndarray:
        s = ParamGrid(n).nodes
        return np.concatenate([
            np.cos(3 * s) + 0.5 * np.sin(7 * s),
            np.sin(2 * s) - 0.2 * np.cos(9 * s),
            np.cos(5 * s)])

    residuals = []
    for n in (32, 64, 128, 256):
        ops = assemble_N(three_circles, One(), ParamGrid(n))
        residuals.append(max(operator_identity_residuals(ops, phi_for(n))))
    floor = 1e-12
    decay_ok = all(nxt <= prev / 10.0 or nxt <= floor or prev <= floor
                   for prev, nxt in zip(residuals, residuals[1:]))
    ok = level_ok and decay_ok
    seq = "/".join(f"{r:.1e}" for r in residuals)
    _report(4, "operator-identities", ok,
            f"r1={worst_r1:.3e} r2={worst_r2:.3e} decay={seq}")


def test_criterion_05_null_space_dimensions(three_circles):
    grid = ParamGrid(64)
    ops_one = assemble_N(three_circles, One(), grid)
    ops_pow = assemble_N(three_circles, ShiftedPower(CENTERS[2], 1), grid)
    measured = (
        ops_one.nullity_I_plus_N().nullity,
        ops_one.nullity_I_minus_N().nullity,
        ops_pow.nullity_I_minus_N().nullity,
        ops_pow.nullity_I_plus_N().nullity,
    )
    expected = (3, 0, 1, 2)
    _report(5, "null-space-dimensions", measured == expected,
            f"measured={measured} expected={expected}")


def test_criterion_06_s_minus_basis(three_circles, perturbed_gallery, grid128):
    results = []
    for region, tol in ((three_circles, 1e-10), (perturbed_gallery, 1e-8)):
        ops = assemble_N(region, One(), grid128)
        for chi in indicator_basis(region, grid128):
            r_plus = float(np.abs(chi + ops.N @ chi).max())
            r_m = float(np.abs(apply_M(ops, chi)).max())
            results.append((r_plus <= tol and r_m <= tol, max(r_plus, r_m), tol))
    ok = all(r[0] for r in results)
    worst = max(r[1] for r in results)
    _report(6, "s-minus-basis", ok, f"worst residual={worst:.3e}")


def test_criterion_07_mobius_invariance(three_circles, perturbed_gallery,
                                        mixed_gallery):
    grid = ParamGrid(64)
    worst = 0.0
    shift_ok = True
    for region in (three_circles, perturbed_gallery, mixed_gallery):
        hole = region.hole_points[-1]
        for coeff in (One(), ShiftedPower(region.hole_points[0], 1)):
            for z0 in (hole, hole + 0.3 + 0.2j):
                centered = with_center(region, z0)
                ops = assemble_N(centered, coeff, grid)
                worst = max(worst, kernel_invariance_check(ops).max_diff_N)
                direct = mapped_index_of(ops)
                shift_ok = shift_ok and direct == index_shift(index_of(coeff, region, grid))
    ok = worst <= 1e-12 and shift_ok
    _report(7, "mobius-invariance", ok,
            f"max|N_hat-N|={worst:.3e} index_shift_exact={shift_ok}")


def test_criterion_08_jump_relation(gallery_ops):
    rng = np.random.default_rng(7)
    gamma = rng.normal(size=gallery_ops.size)
    mu = rng.normal(size=gallery_ops.size)
    jump = (plemelj_boundary(gallery_ops, gamma, mu, +1)
            - plemelj_boundary(gallery_ops, gamma, mu, -1)) - (gamma + 1j * mu)
    residual = float(np.abs(jump).max())
    _report(8, "jump-relation", residual <= 1e-13, f"residual={residual:.3e}")


def test_criterion_09_analyticity_discrimination(three_circles, grid128, gallery_ops):
    oracle = attainability_residual(gallery_ops, oracle_boundary(three_circles, grid128))
    chi = indicator_basis(three_circles, grid128)[1].astype(complex)
    hole_side = attainability_residual(gallery_ops, chi)
    ok = oracle <= 1e-10 and hole_side >= 0.1
    _report(9, "analyticity-discrimination", ok,
            f"oracle={oracle:.3e} hole_side={hole_side:.3e}")


def test_criterion_10_winding_index(three_circles):
    ok = index_of(One(), three_circles, ParamGrid(64)).kappa_per_curve == (0, 0, 0)
    details = ["A=1 ok"] if ok else ["A=1 wrong"]
    for power in (1, 2):
        coeff = ShiftedPower(CENTERS[2], power)
        coarse = index_of(coeff, three_circles, ParamGrid(64)).kappa_per_curve
        fine = index_of(coeff, three_circles, ParamGrid(128)).kappa_per_curve
        expected = (0, 0, -power)
        ok = ok and coarse == expected and fine == expected
        details.append(f"k={power}:{coarse}")
    _report(10, "winding-index", ok, " ".join(details))


def test_criterion_11_cli_determinism(tmp_path):
    region = {"curves": [
        {"type": "circle", "center": [c.real, c.imag], "radius": r}
        for c, r in zip(CENTERS, RADII)]}
    data = [{"type": "poles", "terms": [
        {"c": [c.real, c.imag], "a": [a.real, a.imag]}
        for c, a in zip(CENTERS, POLE_AMPLITUDES)]},
        {"type": "constants", "values": [0.3, -1.2, 2.0]}]
    (tmp_path / "region.json").write_text(json.dumps(region))
    (tmp_path / "data.json").write_text(json.dumps(data))

    pairs = []
    for tag in ("a", "b"):
        solve_out = tmp_path / f"solve_{tag}"
        verify_out = tmp_path / f"verify_{tag}"
        rc1 = cli_main(["solve-dirichlet", "--region", str(tmp_path / "region.json"),
                        "--data", str(tmp_path / "data.json"), "--n", "64",
                        "--out", str(solve_out)])
        rc2 = cli_main(["verify", "--region", str(tmp_path / "region.json"),
                        "--n", "64", "--out", str(verify_out)])
        pairs.append((solve_out, verify_out, rc1, rc2))
    (solve_a, verify_a, rc1a, rc2a), (solve_b, verify_b, rc1b, rc2b) = pairs
    codes_ok = rc1a == rc2a == rc1b == rc2b == 0
    identical = all(
        (first / name).read_bytes() == (second / name).read_bytes()
        for first, second, name in (
            (solve_a, solve_b, "boundary.csv"),
            (solve_a, solve_b, "diagnostics.json"),
            (verify_a, verify_b, "verify.json"),
        ))
    _report(11, "cli-determinism", codes_ok and identical,
            f"exit_codes_zero={codes_ok} byte_identical={identical}")


def test_criterion_12_logarithmic_capacity():
    # exp of the combined Dirichlet constants against closed forms: an
    # ellipse (a + b) / 2, a trig curve its e^{-is} coefficient, lemniscates
    # {|z^d - 1| <= r} r^(1/d); every constant h_j enters the result
    trig = Curve([-1, 2, 0], [1.5, 0.2, 0.3j])
    cases = [("ellipse a=3 b=1", Region.from_curves([ellipse(0.0, 3.0, 1.0)]), 128, 2.0),
             ("trig", Region.from_curves([trig]), 64, 1.5)]
    cases += [(f"lemniscate d={d} r={r}", lemniscate(d, r), 64, r ** (1.0 / d))
              for d, r in ((2, 0.5), (3, 0.6), (4, 0.7))]
    errors = {name: abs(capacity(region, n) - exact) for name, region, n, exact in cases}
    worst = max(errors.values())
    _report(12, "logarithmic-capacity", worst <= 1e-12,
            "; ".join(f"{name}: {err:.1e}" for name, err in errors.items()))
