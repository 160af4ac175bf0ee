import numpy as np
import pytest

from gnk.coefficient import One, ShiftedPower, index_of, predict_dimensions
from gnk.discrete import assemble_N
from gnk.errors import CenterNotInHole
from gnk.geometry import Region, circle
from gnk.kernels import BoundaryJet, complex_kernel_matrix
from gnk.mobius import (
    index_shift,
    kernel_invariance_check,
    map_jet,
    mapped_index_of,
    transform_solution,
)
from conftest import CENTERS
from helpers import band_limited


@pytest.fixture(scope="module")
def unit_circle():
    return Region.from_curves([circle(0.0, 1.0)])


def _map(region, coeff, grid, z0=None):
    return map_jet(region, BoundaryJet.from_region(region, coeff, grid), z0)


class TestMapRegion:
    def test_unit_circle_center_zero(self, unit_circle, grid64):
        # eta = exp(-is), z0 = 0: zeta = exp(is), zeta' = i exp(is) by hand
        mapped = _map(unit_circle, One(), grid64, 0.0)
        s = grid64.nodes
        assert np.allclose(mapped.eta, np.exp(1j * s), atol=1e-13)
        assert np.allclose(mapped.eta_d, 1j * np.exp(1j * s), atol=1e-13)

    def test_product_identity(self, three_circles, grid64):
        mapped = _map(three_circles, One(), grid64)
        eta, _, _ = three_circles.sample(grid64)
        z0 = three_circles.hole_points[2]
        assert np.allclose(mapped.eta * (eta - z0), 1.0, atol=1e-13)

    def test_hat_coefficient(self, three_circles, grid64):
        coeff = ShiftedPower(CENTERS[0], 1)
        mapped = _map(three_circles, coeff, grid64)
        eta, _, _ = three_circles.sample(grid64)
        expected = (eta - CENTERS[0]) / (eta - three_circles.hole_points[2])
        assert np.allclose(mapped.coeff, expected, atol=1e-13)

    def test_center_outside_hole_rejected(self, three_circles, grid64):
        with pytest.raises(CenterNotInHole):
            _map(three_circles, One(), grid64, 10.0 + 10.0j)

    def test_center_in_wrong_hole_rejected(self, three_circles, grid64):
        # inside a hole, but not the designated center hole
        with pytest.raises(CenterNotInHole):
            _map(three_circles, One(), grid64, CENTERS[0])


class TestKernelInvariance:
    def test_machine_precision_on_galleries(self, three_circles, perturbed_gallery,
                                            mixed_gallery, grid64):
        for region in (three_circles, perturbed_gallery, mixed_gallery):
            for coeff in (One(), ShiftedPower(region.hole_points[2], 1)):
                report = kernel_invariance_check(assemble_N(region, coeff, grid64))
                assert report.max_diff_N <= 1e-12
                assert report.max_diff_M1 <= 1e-12

    def test_single_curve_with_diagonals(self, unit_circle, grid64):
        report = kernel_invariance_check(assemble_N(unit_circle, One(), grid64), 0.0)
        assert report.max_diff <= 1e-12

    def test_independent_of_coefficient_choice(self, three_circles, grid64):
        # the identity holds for any admissible A, not only A = 1
        shifted = ShiftedPower(CENTERS[1] + 0.1, 1)
        report = kernel_invariance_check(assemble_N(three_circles, shifted, grid64))
        assert report.max_diff <= 1e-12

    def test_scale_is_largest_kernel_entry(self, three_circles, grid64):
        # read back off the weighted matrices, the scale matches the largest
        # entry of the complex kernel, singular companion included
        ops = assemble_N(three_circles, ShiftedPower(CENTERS[0], 1), grid64)
        expected = max(1.0, np.abs(complex_kernel_matrix(ops.jet)).max())
        assert kernel_invariance_check(ops).scale == pytest.approx(expected, rel=1e-12)

    def test_discrete_operators_equal(self, three_circles, grid64):
        # assembled Neumann matrices agree entrywise; the companion agrees
        # through its action on test vectors
        from gnk.discrete import DiscreteOperators, apply_M, weighted_kernels

        ops = assemble_N(three_circles, One(), grid64)
        mapped = map_jet(three_circles, ops.jet)
        n_hat, m_hat = weighted_kernels(mapped)
        assert np.abs(n_hat - ops.N).max() <= 1e-12

        mapped_ops = DiscreteOperators(
            region=three_circles, coeff=One(), grid=grid64, jet=mapped,
            N=n_hat, M_smooth=m_hat)
        rng = np.random.default_rng(21)
        phi = band_limited(rng, 3, 64, band=6)
        assert np.abs(apply_M(mapped_ops, phi) - apply_M(ops, phi)).max() <= 1e-12


class TestIndexShift:
    def test_zero_indices(self):
        report = predict_dimensions((0, 0, 0))
        hat, total = index_shift(report)
        assert hat == (1, 0, 0)
        assert total == 1

    def test_minus_one_cancels(self):
        report = predict_dimensions((0, 0, -1))
        hat, total = index_shift(report)
        assert hat == (0, 0, 0)
        assert total == 0

    def test_matches_direct_computation(self, three_circles):
        for coeff in (One(), ShiftedPower(CENTERS[2], 1), ShiftedPower(CENTERS[0], 2)):
            report = index_of(coeff, three_circles)
            assert mapped_index_of(three_circles, coeff) == index_shift(report)

    def test_two_center_choices(self, three_circles):
        # shifting the center inside the same hole changes nothing
        report = index_of(One(), three_circles)
        for offset in (0.0, 0.3 + 0.2j):
            z0 = three_circles.hole_points[2] + offset
            assert mapped_index_of(three_circles, One(), z0) == index_shift(report)


class TestTransformSolution:
    def test_pole_at_center_becomes_one(self, three_circles, grid64):
        z0 = three_circles.hole_points[2]
        eta, _, _ = three_circles.sample(grid64)
        f_values = 1.0 / (eta - z0)
        assert np.allclose(transform_solution(f_values, eta, z0), 1.0)

    def test_boundary_substitution(self, three_circles, grid64):
        z0 = three_circles.hole_points[2]
        c = CENTERS[0]
        eta, _, _ = three_circles.sample(grid64)
        f_values = 1.0 / (eta - c)
        expected = (eta - z0) / (eta - c)
        assert np.allclose(transform_solution(f_values, eta, z0), expected)

    def test_boundary_data_invariance(self, three_circles, grid64):
        # Re[hat A hat f] equals Re[A f] pointwise on the boundary
        coeff = ShiftedPower(CENTERS[1], 1)
        z0 = three_circles.hole_points[2]
        mapped = _map(three_circles, coeff, grid64, z0)
        eta, _, _ = three_circles.sample(grid64)
        f_values = 1.0 / (eta - CENTERS[0]) + 0.5j / (eta - CENTERS[1])
        hat_f = transform_solution(f_values, eta, z0)
        a_values = eta - CENTERS[1]
        assert np.allclose((mapped.coeff * hat_f).real,
                           (a_values * f_values).real, atol=1e-12)
