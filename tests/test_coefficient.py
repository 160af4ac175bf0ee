import math

import numpy as np
import pytest

from gnk.coefficient import (
    One,
    ShiftedPower,
    TrigCoefficient,
    coeff_jet,
    index_of,
    load_coefficient,
    predict_dimensions,
    sample,
)
from gnk.errors import NonConvergent, ZeroCoefficient
from gnk.geometry import Curve, ParamGrid, Region, circle
from gnk.rhp import load_boundary_data
from conftest import CENTERS
from helpers import near_zero, point_winding


class TestCoeffJet:
    def test_one(self, three_circles):
        value, deriv = coeff_jet(One(), three_circles, 1, 0.7)
        assert value == 1.0
        assert deriv == 0.0

    def test_shifted_power_equals_curve_jet(self, unit_circle_region):
        # A = eta - 0 on the unit circle reproduces the curve itself
        value, deriv = coeff_jet(ShiftedPower(0.0, 1), unit_circle_region, 0, 0.0)
        assert value == pytest.approx(1.0)
        assert deriv == pytest.approx(-1j)

    def test_shifted_power_square_at_pi(self, unit_circle_region):
        # hand power rule: A = eta^2, A' = 2 eta eta' at s = pi
        value, deriv = coeff_jet(ShiftedPower(0.0, 2), unit_circle_region, 0, math.pi)
        assert value == pytest.approx(1.0)
        assert deriv == pytest.approx(-2j)

    def test_trig_coefficient_term_by_term(self, unit_circle_region):
        coeff = TrigCoefficient((Curve([0, 2], [2.0, 0.5j]),))
        s = 0.9
        value, deriv = coeff_jet(coeff, unit_circle_region, 0, s)
        assert value == pytest.approx(2.0 + 0.5j * np.exp(2j * s))
        assert deriv == pytest.approx(0.5j * 2j * np.exp(2j * s))

    def test_zero_coefficient_raises(self, unit_circle_region):
        # A = eta - 1 vanishes at s = 0
        bad = ShiftedPower(1.0, 1)
        with pytest.raises(ZeroCoefficient):
            coeff_jet(bad, unit_circle_region, 0, 0.0)

    def test_sample_layout(self, three_circles, grid64):
        values, derivs = sample(ShiftedPower(CENTERS[0], 1), three_circles, grid64)
        assert values.shape == (3 * 64,)
        eta, eta_d, _ = three_circles.sample(grid64)
        assert np.allclose(values, eta - CENTERS[0])
        assert np.allclose(derivs, eta_d)


class TestIndex:
    def test_one_has_zero_index(self, three_circles):
        report = index_of(One(), three_circles, ParamGrid(64))
        assert report.kappa_per_curve == (0, 0, 0)
        assert report.kappa == 0

    def test_shifted_power_in_last_hole(self, three_circles):
        report = index_of(ShiftedPower(CENTERS[2], 1), three_circles, ParamGrid(64))
        assert report.kappa_per_curve == (0, 0, -1)

    def test_shifted_power_square(self, three_circles):
        report = index_of(ShiftedPower(CENTERS[2], 2), three_circles, ParamGrid(64))
        assert report.kappa_per_curve == (0, 0, -2)

    def test_index_matches_point_winding(self, three_circles):
        # kappa_j of (eta - z0)^k is k times the winding of curve j about z0
        for power in (1, 2, 3):
            report = index_of(ShiftedPower(CENTERS[1], power), three_circles,
                              ParamGrid(64))
            expected = tuple(
                power * point_winding(c, CENTERS[1], 64)
                for c in three_circles.curves
            )
            assert report.kappa_per_curve == expected

    def test_zero_between_nodes_raises(self, three_circles):
        # A vanishes halfway between the first two nodes of the 64-node
        # grid; the count doubles onto that point and coeff_jet rejects it
        zero = three_circles.curves[0].jet(np.pi / 64)[0]
        with pytest.raises(ZeroCoefficient):
            index_of(ShiftedPower(zero, 1), three_circles, ParamGrid(64))

    def test_zero_just_off_curve_does_not_settle(self, three_circles):
        # A vanishes 1e-10 outside the first circle, between two nodes of
        # the 64-node grid: no halving settles the steps that pass it
        zero = near_zero(three_circles.curves[0])
        with pytest.raises(NonConvergent):
            index_of(ShiftedPower(zero, 1), three_circles, ParamGrid(64))

    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
    @pytest.mark.parametrize("power", [4, 8, 12, 16, 20, 24, 32, 40, 64, 100, 300])
    def test_high_power_does_not_alias(self, n, power):
        # A turns by about power 2 pi / n per node step, past pi once
        # power >= n / 2; the count starts on a grid fine enough not to wrap
        region = Region.from_curves([circle(3.0, 1.0), circle(-3.0, 1.0)])
        report = index_of(ShiftedPower(3.0, power), region, ParamGrid(n))
        assert report.kappa_per_curve == (-power, 0)

    def test_grid_doubling_invariance(self, three_circles):
        coeff = ShiftedPower(CENTERS[2], 2)
        a = index_of(coeff, three_circles, ParamGrid(64))
        b = index_of(coeff, three_circles, ParamGrid(128))
        assert a.kappa_per_curve == b.kappa_per_curve


class TestPredictDimensions:
    def test_all_zero_indices(self):
        report = predict_dimensions((0, 0, 0))
        assert report.dim_S_minus == 3
        assert report.dim_S_plus_bounds == (0, 0)
        assert report.dim_null_I_minus_N == 0
        assert report.codim_R_plus_bounds == (3, 3)

    def test_intermediate_case_bounds(self):
        report = predict_dimensions((-1, 0))
        assert report.dim_null_I_minus_N == 1
        assert report.dim_S_minus == 1
        assert report.dim_S_plus_bounds == (0, 1)

    def test_positive_index(self):
        report = predict_dimensions((1, 0, 0))
        assert report.dim_S_minus == 5
        assert report.dim_S_plus_bounds == (0, 0)
        assert report.codim_R_plus_bounds == (5, 5)

    def test_strongly_negative_index(self):
        report = predict_dimensions((-2, -1, -1))
        assert report.kappa == -4
        assert report.dim_S_plus_bounds == (5, 5)
        assert report.codim_R_plus_bounds == (0, 0)

    def test_totals_are_consistent(self):
        report = predict_dimensions((2, -1, 0, -3))
        assert report.kappa == sum(report.kappa_per_curve)
        assert report.dim_S_minus == report.dim_null_I_plus_N
        assert report.codim_R_minus == report.dim_null_I_minus_N


class TestLoadCoefficient:
    def test_one(self):
        assert isinstance(load_coefficient({"type": "one"}), One)

    def test_shifted_power(self):
        coeff = load_coefficient({"type": "shifted_power", "z0": [1.0, -2.0], "power": 3})
        assert coeff == ShiftedPower(1.0 - 2.0j, 3)

    def test_trig(self, unit_circle_region):
        coeff = load_coefficient({"type": "trig", "per_curve": [[[0, 2.0, 0.0], [1, 0.0, 1.0]]]})
        value, _ = coeff_jet(coeff, unit_circle_region, 0, 0.0)
        assert value == pytest.approx(2.0 + 1j)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            load_coefficient({"type": "rational"})

    def test_shifted_power_rejects_non_integer(self):
        # 1.5 would make A multivalued; the loader truncated it to 1 before
        with pytest.raises(ValueError, match="coefficient power must be an integer"):
            ShiftedPower(0.0, 1.5)
        power = ShiftedPower(0.0, 2.0).power
        assert power == 2 and type(power) is int

    def test_trig_duplicate_powers_rejected(self):
        with pytest.raises(ValueError, match="duplicate Fourier powers"):
            load_coefficient({"type": "trig", "per_curve": [[[2, 1.0, 0.0], [2, 0.0, 1.0]]]})

    @pytest.mark.parametrize("entries", [2, 4])
    def test_trig_needs_one_entry_per_curve(self, three_circles, entries):
        coeff = TrigCoefficient((Curve([0], [1.0]),) * entries)
        for k in range(3):
            with pytest.raises(ValueError, match="one entry per curve"):
                coeff.jet(three_circles, k, 0.0)


def _phase_matrix_series(rows, s):
    """The phase-matrix evaluation that trig coefficients and trig data each
    carried before both became Curve.jet: (value, derivative)."""
    powers = np.array([int(r[0]) for r in rows])
    coeffs = np.array([complex(r[1], r[2]) for r in rows])
    s_arr = np.asarray(s, dtype=float)
    phase = np.exp(1j * np.multiply.outer(s_arr, powers.astype(float)))
    value = phase @ coeffs
    deriv = phase @ (1j * powers * coeffs)
    if s_arr.ndim == 0:
        return complex(value), complex(deriv)
    return value, deriv


class TestOneFourierEvaluator:
    """Curve.jet reproduces the replaced phase-matrix evaluation bit for bit."""

    @pytest.fixture(scope="class")
    def per_curve(self):
        rng = np.random.default_rng(12)
        rows = []
        for _ in range(3):
            powers = rng.choice(np.arange(-9, 10), size=5, replace=False)
            rows.append([[int(p), *rng.normal(size=2)] for p in powers])
        assert any(row[0] < 0 for curve in rows for row in curve)
        return rows

    def test_trig_coefficient(self, three_circles, per_curve):
        coeff = load_coefficient({"type": "trig", "per_curve": per_curve})
        s = np.random.default_rng(13).uniform(0.0, 2 * math.pi, 40)
        for k, rows in enumerate(per_curve):
            for points in (s, ParamGrid(64).nodes):
                value, deriv = coeff.jet(three_circles, k, points)
                old_value, old_deriv = _phase_matrix_series(rows, points)
                assert np.array_equal(value, old_value)
                assert np.array_equal(deriv, old_deriv)
            for point in s[:5]:
                assert coeff.jet(three_circles, k, float(point)) == _phase_matrix_series(
                    rows, float(point))

    def test_trig_data(self, three_circles, coeff_one, per_curve):
        grid = ParamGrid(64)
        gamma = load_boundary_data({"type": "trig", "per_curve": per_curve},
                                   three_circles, coeff_one, grid)
        old = np.concatenate([_phase_matrix_series(rows, grid.nodes)[0].real
                              for rows in per_curve])
        assert np.array_equal(gamma, old)
