import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

from gnk import coefficient, discrete, geometry, mobius
from gnk.coefficient import One, ShiftedPower, index_of, predict_dimensions
from gnk.discrete import assemble_N, operator_identity_residuals
from gnk.errors import CenterNotInHole, ZeroCoefficient
from gnk.geometry import MIN_DISTANCE, ParamGrid, Region, circle, load_region
from gnk.kernels import BoundaryJet
from gnk.mobius import (
    index_shift,
    kernel_invariance_check,
    map_jet,
    mapped_index_of,
)
from conftest import CENTERS
from helpers import (
    assert_stored_kernel,
    band_limited,
    band_tolerance,
    block_heights,
    dense_complex_kernel,
    dense_cot_table,
    dense_weighted_kernels,
    factor_tolerance,
    traced_peak,
    transform_solution,
    weighted_kernels,
    with_center,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from make_gallery import FILES  # noqa: E402


@pytest.fixture(scope="module")
def unit_circle():
    return Region.from_curves([circle(0.0, 1.0)])


def _map(region, coeff, grid):
    return map_jet(region, BoundaryJet.from_region(region, coeff, grid))


class TestMapRegion:
    def test_unit_circle_center_zero(self, unit_circle, grid64):
        # eta = exp(-is), z0 = 0: zeta = exp(is), zeta' = i exp(is) by hand
        mapped = _map(unit_circle, One(), grid64)
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
            _map(with_center(three_circles, 10.0 + 10.0j), One(), grid64)

    def test_center_in_wrong_hole_rejected(self, three_circles, grid64):
        # inside a hole, but not the designated center hole
        with pytest.raises(CenterNotInHole):
            _map(with_center(three_circles, CENTERS[0]), One(), grid64)

    def test_center_on_a_curve_rejected(self, three_circles, grid64):
        # eta(0) of the last circle, within MIN_DISTANCE of a sample
        z0 = three_circles.curves[-1].jet(0.0)[0] + MIN_DISTANCE / 2
        with pytest.raises(CenterNotInHole, match="too close to curve 2"):
            _map(with_center(three_circles, z0), One(), grid64)


class TestKernelInvariance:
    def test_machine_precision_on_galleries(self, three_circles, perturbed_gallery,
                                            mixed_gallery, grid64):
        for region in (three_circles, perturbed_gallery, mixed_gallery):
            for coeff in (One(), ShiftedPower(region.hole_points[2], 1)):
                report = kernel_invariance_check(assemble_N(region, coeff, grid64))
                assert report.max_diff_N <= 1e-12
                assert report.max_diff_M1 <= 1e-12

    def test_single_curve_with_diagonals(self, unit_circle, grid64):
        report = kernel_invariance_check(assemble_N(unit_circle, One(), grid64))
        assert report.max_diff <= 1e-12

    def test_independent_of_coefficient_choice(self, three_circles, grid64):
        # the identity holds for any admissible A, not only A = 1
        shifted = ShiftedPower(CENTERS[1] + 0.1, 1)
        report = kernel_invariance_check(assemble_N(three_circles, shifted, grid64))
        assert report.max_diff <= 1e-12

    def test_scale_is_largest_kernel_entry(self, three_circles, grid64, monkeypatch):
        # read back off the weighted matrices, the scale matches the largest
        # entry of the complex kernel, singular companion included; 24 rows
        # a block give full and partial blocks per curve pair
        monkeypatch.setattr(discrete, "BLOCK_ENTRIES", 64 * 24)
        ops = assemble_N(three_circles, ShiftedPower(CENTERS[0], 1), grid64)
        heights = block_heights(ops.jet, 0, 1)
        assert heights == [24, 24, 16]
        assert_stored_kernel(ops)
        expected = max(1.0, np.abs(dense_complex_kernel(ops.jet)).max())
        assert kernel_invariance_check(ops).scale == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("power", [0, 1], ids=["one", "power"])
    @pytest.mark.parametrize("name", ["mixed", "close", "touching"])
    def test_report_matches_whole_matrix_check(self, mixed_gallery, name, power,
                                               monkeypatch):
        # the differences and the scale taken block by block equal those of
        # the whole mapped matrices against the whole stored ones exactly,
        # and those against the exact kernel within the bounds of the
        # translations and the bands; the pairs of the ellipse of
        # region_close.json and of both touching circles are read back from
        # their dense near-pair blocks
        monkeypatch.setattr(discrete, "BLOCK_ENTRIES", 100 * 32)
        region, near = {
            "mixed": (mixed_gallery, ()),
            "close": (load_region(FILES["region_close.json"]), ((0, 1), (0, 2), (1, 0), (2, 0))),
            "touching": (Region.from_curves([circle(3.0 + 1.025j, 1.0),
                                             circle(3.0 - 1.025j, 1.0)]), ((0, 1), (1, 0))),
        }[name]
        coeff = ShiftedPower(region.hole_points[-1], 1) if power else One()
        ops = assemble_N(region, coeff, ParamGrid(100))
        assert tuple(pair for pair in ops.N.store.pairs if pair[0] != pair[1]) == near
        heights = block_heights(ops.jet, 1, 0)
        assert heights == [32, 32, 32, 4]
        n_hat, m_hat = dense_weighted_kernels(map_jet(region, ops.jet))
        w = ops.weight
        report = kernel_invariance_check(ops)
        # each stored entry lies within its own pair's bound of the exact one,
        # so the largest difference moves by at most the largest such bound
        bands = band_tolerance(ops.jet) if ops.N.store.banded else 0.0
        tol = max(factor_tolerance(ops.jet), bands) / w
        for stored_n, stored_m, close in (
                (np.asarray(ops.N), np.asarray(ops.M), 0.0),
                (*dense_weighted_kernels(ops.jet), tol)):
            singular = stored_m.copy()
            for k in range(ops.m):
                block = slice(k * 100, (k + 1) * 100)
                singular[block, block] -= dense_cot_table(100)
            assert abs(report.max_diff_N - np.abs(n_hat - stored_n).max() / w) <= close
            assert abs(report.max_diff_M1 - np.abs(m_hat - stored_m).max() / w) <= close
            assert abs(report.scale - max(1.0, np.hypot(singular, stored_n).max() / w)) <= close

    def test_sees_a_planted_N(self, three_circles, grid64):
        # an ops whose N is replaced is checked on that N, as the solve and
        # the counts use it: one changed entry shows in max_diff_N only
        ops = assemble_N(three_circles, One(), grid64)
        planted = np.asarray(ops.N)
        planted[70, 5] += 1e-6
        report = kernel_invariance_check(dataclasses.replace(ops, N=planted))
        assert report.max_diff_N == pytest.approx(1e-6 / ops.weight, rel=1e-6)
        assert report.max_diff_M1 == kernel_invariance_check(ops).max_diff_M1

    @pytest.mark.parametrize("part", ["N", "M"])
    def test_sees_a_planted_nan(self, part):
        # Python's max keeps its first argument against a NaN, which let a
        # NaN entry of N report the clean operators' figures; the NaN now
        # reaches its difference and max_diff, so every gate on it fails,
        # while a finite error of 1e-3 shows as one
        region = Region.from_curves([circle(-3.0, 1.0), circle(3.0, 1.0)])
        ops = assemble_N(region, One(), ParamGrid(64))
        clean = kernel_invariance_check(ops)
        planted = np.asarray(getattr(ops, part))
        planted[5, 70] = np.nan
        report = kernel_invariance_check(dataclasses.replace(ops, **{part: planted}))
        nan_diff, other = (("max_diff_N", "max_diff_M1") if part == "N"
                           else ("max_diff_M1", "max_diff_N"))
        assert np.isnan(getattr(report, nan_diff)) and np.isnan(report.max_diff)
        assert getattr(report, other) == getattr(clean, other)
        assert not report.max_diff <= 1e-12 * report.scale
        planted[5, 70] = np.asarray(getattr(ops, part))[5, 70] + 1e-3
        report = kernel_invariance_check(dataclasses.replace(ops, **{part: planted}))
        assert getattr(report, nan_diff) == pytest.approx(1e-3 / ops.weight, rel=1e-6)

    def test_planted_nan_fails_each_check(self):
        # the same planted NaN reaches every check that reads N: the Krylov
        # counts stop inconclusive where an SVD would meet it, and the
        # identity residuals stay NaN, so that no gate passes on it
        ops = assemble_N(Region.from_curves([circle(-3.0, 1.0), circle(3.0, 1.0)]), One(),
                         ParamGrid(64))
        planted = np.asarray(ops.N)
        planted[5, 70] = np.nan
        ops = dataclasses.replace(ops, N=planted)
        assert np.isnan(kernel_invariance_check(ops).max_diff_N)
        for report in (ops.nullity_I_plus_N(), ops.nullity_I_minus_N()):
            assert report.stop == "non-finite" and not report.conclusive
            assert report.depth == 1 and np.isnan(report.ritz_largest)
        probes = np.random.default_rng(2).standard_normal((ops.size, 2))
        assert all(np.isnan(operator_identity_residuals(ops, probes)))

    def test_peak_is_a_few_blocks(self, mixed_gallery):
        # N = 1536: the mapped kernel goes by in blocks, so the peak stays a
        # few complex blocks, below one real N x N array (8 N^2 bytes)
        ops = assemble_N(mixed_gallery, ShiftedPower(CENTERS[2], 1), ParamGrid(512))
        kernel_invariance_check(ops)
        peak = traced_peak(lambda: kernel_invariance_check(ops))
        assert peak <= 4 * 16 * discrete.BLOCK_ENTRIES, peak

    def test_discrete_operators_equal(self, three_circles, grid64):
        # assembled Neumann matrices agree entrywise; the companion agrees
        # through its action on test vectors
        from gnk.discrete import DiscreteOperators, apply_M

        ops = assemble_N(three_circles, One(), grid64)
        mapped = map_jet(three_circles, ops.jet)
        n_hat, m_hat = weighted_kernels(mapped)
        assert np.abs(n_hat - np.asarray(ops.N)).max() <= 1e-12

        mapped_ops = DiscreteOperators(
            region=three_circles, coeff=One(), jet=mapped,
            N=n_hat, M=m_hat, index=ops.index)
        rng = np.random.default_rng(21)
        phi = band_limited(rng, 3, 64, band=6)
        assert np.abs(apply_M(mapped_ops, phi) - apply_M(ops, phi)).max() <= 1e-12


class TestIndexShift:
    def test_zero_coefficient_between_nodes(self, three_circles, grid64):
        # a vanishing A is a ZeroCoefficient, not a bad centre
        ops = assemble_N(three_circles, One(), grid64)
        zero = three_circles.curves[0].jet(np.pi / 64)[0]
        with pytest.raises(ZeroCoefficient):
            mapped_index_of(dataclasses.replace(ops, coeff=ShiftedPower(zero, 1)))

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

    def test_matches_direct_computation(self, three_circles, grid64):
        for coeff in (One(), ShiftedPower(CENTERS[2], 1), ShiftedPower(CENTERS[0], 2)):
            report = index_of(coeff, three_circles, grid64)
            ops = assemble_N(three_circles, coeff, grid64)
            assert mapped_index_of(ops) == index_shift(report)

    def test_fast_turning_coefficient(self, three_circles, grid64):
        # hat A turns by about 2 pi per step of the 64 nodes on the first
        # curve; its image keeps the index -64, the outer image gains one
        ops = assemble_N(three_circles, ShiftedPower(CENTERS[0], 64), grid64)
        assert mapped_index_of(ops) == ((1, -64, 0), -63)

    def test_two_center_choices(self, three_circles, grid64):
        # shifting the center inside the same hole changes nothing
        report = index_of(One(), three_circles, grid64)
        for offset in (0.0, 0.3 + 0.2j):
            region = with_center(three_circles, three_circles.hole_points[2] + offset)
            assert mapped_index_of(assemble_N(region, One(), grid64)) == index_shift(report)


class TestWindingsStartOnTheGrid:
    """Every winding count of the Mobius layer starts on the operators' grid
    when A turns by less than pi/2 per step of it."""

    @pytest.fixture
    def starts(self, monkeypatch):
        recorded = []
        original = geometry._turns_about_points

        def recording(loop, points, n, min_modulus):
            recorded.append(n)
            return original(loop, points, n, min_modulus)

        # the centre check reads mobius's name, mapped_index_of coefficient's
        for module in (geometry, coefficient, mobius):
            monkeypatch.setattr(module, "_turns_about_points", recording)
        return recorded

    def test_mapped_index_of(self, three_circles, grid128, starts):
        ops = assemble_N(three_circles, ShiftedPower(CENTERS[0], 1), grid128)
        starts.clear()  # the assembly's index count
        mapped_index_of(ops)
        # three centre checks, then one count per image curve
        assert starts == [128] * 6

    def test_center_check_of_the_invariance_check(self, three_circles, grid128, starts):
        ops = assemble_N(three_circles, One(), grid128)
        starts.clear()
        kernel_invariance_check(ops)
        assert starts == [128] * 3


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
        mapped = _map(three_circles, coeff, grid64)
        eta, _, _ = three_circles.sample(grid64)
        f_values = 1.0 / (eta - CENTERS[0]) + 0.5j / (eta - CENTERS[1])
        hat_f = transform_solution(f_values, eta, z0)
        a_values = eta - CENTERS[1]
        assert np.allclose((mapped.coeff * hat_f).real,
                           (a_values * f_values).real, atol=1e-12)
