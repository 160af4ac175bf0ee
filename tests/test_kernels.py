import math

import numpy as np
import pytest

from gnk import discrete
from gnk.coefficient import One, ShiftedPower
from gnk.discrete import assemble_N
from gnk.geometry import ParamGrid, Region, circle, ellipse
from gnk.kernels import BoundaryJet
from gnk.mobius import kernel_invariance_check, map_jet
from conftest import CENTERS
from helpers import (DiagonalSingular, conjugation_matrix, dense_weighted_kernels, kernel_M,
                     kernel_M1, kernel_N, traced_peak, weighted_kernels)

INV_2PI = 1.0 / (2.0 * math.pi)


@pytest.fixture(scope="module")
def unit_circle():
    return Region.from_curves([circle(0.0, 1.0)])


class TestCircleClosedForms:
    """On the clockwise unit circle with A = 1 the kernels collapse:
    N is the constant -1/(2 pi), M is the pure cotangent, M1 vanishes."""

    def test_N_off_diagonal(self, unit_circle):
        for s, t in ((0.5, 1.7), (0.0, 3.0), (4.0, 0.2)):
            assert kernel_N(unit_circle, One(), (0, s), (0, t)) == pytest.approx(-INV_2PI)

    def test_N_diagonal(self, unit_circle):
        assert kernel_N(unit_circle, One(), (0, 1.3), (0, 1.3)) == pytest.approx(-INV_2PI)

    def test_M_is_pure_cotangent(self, unit_circle):
        for s, t in ((0.5, 1.7), (2.0, 0.3)):
            expected = -INV_2PI / math.tan((s - t) / 2.0)
            assert kernel_M(unit_circle, One(), (0, s), (0, t)) == pytest.approx(expected)

    def test_M_antipodal_zero(self, unit_circle):
        s = 0.8
        assert kernel_M(unit_circle, One(), (0, s + math.pi), (0, s)) == pytest.approx(0.0, abs=1e-14)

    def test_M1_vanishes_everywhere(self, unit_circle):
        assert kernel_M1(unit_circle, One(), (0, 0.5), (0, 1.7)) == pytest.approx(0.0, abs=1e-14)
        assert kernel_M1(unit_circle, One(), (0, 2.0), (0, 2.0)) == pytest.approx(0.0, abs=1e-14)


class TestDefinitionRestated:
    def test_cross_curve_matches_direct_formula(self, three_circles):
        coeff = ShiftedPower(-0.5 - 3.0j, 1)
        s_point, t_point = (0, 0.7), (1, 2.1)
        eta_s = three_circles.curves[0].jet(0.7)[0]
        eta_t, eta_d_t, _ = three_circles.curves[1].jet(2.1)
        a_s = eta_s - (-0.5 - 3.0j)
        a_t = eta_t - (-0.5 - 3.0j)
        value = (a_s / a_t) * eta_d_t / (eta_t - eta_s) / math.pi
        assert kernel_N(three_circles, coeff, s_point, t_point) == pytest.approx(value.imag)
        assert kernel_M(three_circles, coeff, s_point, t_point) == pytest.approx(value.real)

    def test_ellipse_diagonal_from_curve_jet(self):
        region = Region.from_curves([ellipse(3.0, 1.0, 0.5)])
        _, eta_d, eta_dd = region.curves[0].jet(0.0)
        expected = (eta_dd / (2.0 * eta_d)).real / math.pi
        assert kernel_M1(region, One(), (0, 0.0), (0, 0.0)) == pytest.approx(expected)


class TestDiagonalBehavior:
    def test_M_raises_on_diagonal(self, unit_circle):
        with pytest.raises(DiagonalSingular):
            kernel_M(unit_circle, One(), (0, 1.0), (0, 1.0))

    def test_near_diagonal_routed_to_closed_form(self, unit_circle):
        t = 2.0
        eps = 1e-10
        assert kernel_N(unit_circle, One(), (0, t + eps), (0, t)) == pytest.approx(-INV_2PI)
        with pytest.raises(DiagonalSingular):
            kernel_M(unit_circle, One(), (0, t + eps), (0, t))

    def test_M1_finite_difference_limit(self):
        # off-diagonal M1 approaches the closed-form diagonal linearly in eps
        # (on a circle the diagonal slope degenerates to zero, so use an
        # ellipse to see the generic first-order approach)
        region = Region.from_curves([ellipse(3.0, 1.2, 0.7)])
        coeff = ShiftedPower(0.0, 1)
        t = 1.1
        diag = kernel_M1(region, coeff, (0, t), (0, t))
        errors = []
        for eps in (1e-2, 1e-3, 1e-4):
            errors.append(abs(kernel_M1(region, coeff, (0, t + eps), (0, t)) - diag))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-3

    def test_N_continuity_at_diagonal(self, three_circles):
        coeff = ShiftedPower(3.0, 2)
        t = 0.4
        diag = kernel_N(three_circles, coeff, (2, t), (2, t))
        errors = [abs(kernel_N(three_circles, coeff, (2, t + eps), (2, t)) - diag)
                  for eps in (1e-2, 1e-3, 1e-4)]
        assert errors[0] > errors[1] > errors[2]


class TestMatrixBuilders:
    def test_matrix_matches_pointwise(self, three_circles, grid64):
        # the assembled matrices and the builder run on the Mobius image of
        # the same jet both reproduce the pointwise kernels; same-curve
        # entries of M, with the conjugation added back, give w M1
        ops = assemble_N(three_circles, One(), grid64)
        w = ops.weight
        n_hat, m_hat = weighted_kernels(map_jet(three_circles, ops.jet))
        nodes = grid64.nodes
        conjugation = conjugation_matrix(64)
        pairs = [(0, 0, 3, 11), (2, 2, 4, 9), (1, 2, 7, 7), (0, 2, 5, 40)]
        for n_matrix, m_matrix in ((np.asarray(ops.N), np.asarray(ops.M)), (n_hat, m_hat)):
            for ks, kt, i, j in pairs:
                row, col = ks * 64 + i, kt * 64 + j
                s_point, t_point = (ks, nodes[i]), (kt, nodes[j])
                assert n_matrix[row, col] / w == pytest.approx(
                    kernel_N(three_circles, One(), s_point, t_point))
                if ks == kt:
                    assert (m_matrix[row, col] + conjugation[i, j]) / w == pytest.approx(
                        kernel_M1(three_circles, One(), s_point, t_point))
                else:
                    assert m_matrix[row, col] / w == pytest.approx(
                        kernel_M(three_circles, One(), s_point, t_point))

    @pytest.mark.parametrize("power", [1, -1], ids=["power+1", "power-1"])
    def test_power_matrix_matches_pointwise_tightly(self, three_circles, grid64, power):
        # A folded into the source column: the entries are still the
        # pointwise kernels to roundoff, on and off the diagonal
        coeff = ShiftedPower(CENTERS[2], power)
        ops = assemble_N(three_circles, coeff, grid64)
        w, nodes = ops.weight, grid64.nodes
        n_matrix, m_matrix = np.asarray(ops.N), np.asarray(ops.M)
        conjugation = conjugation_matrix(64)
        pairs = [(0, 0, 3, 11), (2, 2, 4, 9), (1, 1, 7, 7), (2, 2, 0, 63),
                 (1, 2, 7, 7), (0, 2, 5, 40), (2, 0, 33, 1)]
        for ks, kt, i, j in pairs:
            row, col = ks * 64 + i, kt * 64 + j
            s_point, t_point = (ks, nodes[i]), (kt, nodes[j])
            expected = kernel_N(three_circles, coeff, s_point, t_point)
            assert abs(n_matrix[row, col] / w - expected) <= 1e-13 * max(1.0, abs(expected))
            if ks == kt:
                value = (m_matrix[row, col] + conjugation[i, j]) / w
                expected = kernel_M1(three_circles, coeff, s_point, t_point)
            else:
                value = m_matrix[row, col] / w
                expected = kernel_M(three_circles, coeff, s_point, t_point)
            assert abs(value - expected) <= 1e-13 * max(1.0, abs(expected))

    def test_circle_constants(self, unit_circle, grid64):
        ops = assemble_N(unit_circle, One(), grid64)
        assert np.allclose(np.asarray(ops.N) / ops.weight, -INV_2PI)
        # w M1 vanishes on a circle: M is minus the conjugation
        assert np.abs(np.asarray(ops.M) + conjugation_matrix(64)).max() / ops.weight < 1e-13

    def test_complex_matrix_diagonal_is_smooth_value(self, three_circles, grid64,
                                                     monkeypatch):
        # 24 rows a block: the diagonal runs through full and partial blocks
        monkeypatch.setattr(discrete, "BLOCK_ENTRIES", 64 * 24)
        jet = BoundaryJet.from_region(three_circles, One(), grid64)
        heights = [rows.stop - rows.start for rows, _, _ in discrete._kernel_blocks(jet, 1, 1)]
        assert heights == [24, 24, 16]
        n_matrix, m_matrix = weighted_kernels(jet)
        oracle_n, oracle_m = dense_weighted_kernels(jet)
        assert np.array_equal(np.diag(n_matrix), np.diag(oracle_n))
        assert np.array_equal(np.diag(m_matrix), np.diag(oracle_m))
        expected = (jet.eta_dd / (2.0 * jet.eta_d)) / math.pi
        assert np.allclose((np.diag(m_matrix) + 1j * np.diag(n_matrix)) / jet.weight,
                           expected)

    @pytest.mark.parametrize("coeff", [One(), ShiftedPower(CENTERS[2], 1)],
                             ids=["one", "power"])
    def test_in_place_build_is_bit_identical(self, mixed_gallery, coeff, monkeypatch):
        # 32 rows a block split each 100-node curve into three full blocks
        # and a partial one
        monkeypatch.setattr(discrete, "BLOCK_ENTRIES", 100 * 32)
        jet = BoundaryJet.from_region(mixed_gallery, coeff, ParamGrid(100))
        heights = [rows.stop - rows.start for rows, _, _ in discrete._kernel_blocks(jet, 2, 0)]
        assert heights == [32, 32, 32, 4]
        n_matrix, m_matrix = weighted_kernels(jet)
        oracle_n, oracle_m = dense_weighted_kernels(jet)
        assert np.array_equal(n_matrix, oracle_n)
        assert np.array_equal(m_matrix, oracle_m)

    def test_blocks_stay_inside_one_curve(self, mixed_gallery, monkeypatch):
        # each pair's rows lie in its target curve, its columns are the
        # source curve's, and only a same-curve pair has a cotangent table
        monkeypatch.setattr(discrete, "BLOCK_ENTRIES", 100 * 32)
        jet = BoundaryJet.from_region(mixed_gallery, One(), ParamGrid(100))
        for target in range(3):
            for source in range(3):
                heights = []
                for rows, block, cot in discrete._kernel_blocks(jet, target, source):
                    assert target * 100 <= rows.start < rows.stop <= (target + 1) * 100
                    assert block.shape == (rows.stop - rows.start, 100)
                    if target == source:
                        assert cot.shape == block.shape
                    else:
                        assert cot is None
                    heights.append(rows.stop - rows.start)
                assert heights == [32, 32, 32, 4]


class TestOneBlockLive:
    """The pair blocks are built in place, and each consumer drops a block
    before it asks for the next, as the builder does.  So the dense
    builder peaks at the block being built and its cotangent table, about
    2 blocks, and the Mobius check at about 2.6, with the stored block it
    reads back and subtracts into the block.  A block held over adds one
    more."""

    @pytest.fixture(scope="class")
    def setup(self):
        # N = 1024: each curve pair one 256-row block of 1 MB
        region = Region.from_curves([circle(complex(x, y), 1.0)
                                     for x in (-3.0, 3.0) for y in (-3.0, 3.0)])
        ops = assemble_N(region, ShiftedPower(region.hole_points[0], 1), ParamGrid(256))
        height = max(1, min(ops.n, discrete.BLOCK_ENTRIES // ops.n))
        assert height == ops.n
        return ops, height * ops.n * 16

    def test_weighted_kernels(self, setup):
        ops, block = setup
        peak = traced_peak(lambda: weighted_kernels(ops.jet))
        assert (peak - 2 * 8 * ops.size**2) / block <= 2.5

    def test_kernel_invariance_check(self, setup):
        ops, block = setup
        assert traced_peak(lambda: kernel_invariance_check(ops)) / block <= 3.5
