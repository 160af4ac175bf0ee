import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnk import coefficient, rhp
from gnk.coefficient import One, ShiftedPower
from gnk.discrete import NULLITY_TOL, apply_M, assemble_N
from gnk.dirichlet import indicator_basis
from gnk.errors import GnkError, InconsistentSystem, TooCloseToBoundary
from gnk.geometry import ParamGrid, Region, circle, ellipse
from gnk.kernels import BoundaryJet
from gnk.rhp import (
    KRYLOV_MAX_ITER,
    PROBE_BLOCK,
    SOLVE_TOL,
    _gmres,
    cauchy_eval,
    compute_h,
    field_pass,
    load_boundary_data,
    near_boundary_band,
    plemelj_boundary,
    solve_rhp,
    verify_Sminus,
)
from conftest import CENTERS, POLE_AMPLITUDES, oracle_boundary, oracle_terms
from helpers import (attainability_residual, band_limited, count_calls, lattice16,
                     rational_values, traced_peak)

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def circle_ops():
    # oracle f(z) = 1/z: boundary data gamma = cos s, mu = sin s
    return assemble_N(Region.from_curves([circle(0.0, 1.0)]), One(), ParamGrid(64))


@pytest.fixture(scope="module")
def gallery_ops(three_circles, grid128):
    return assemble_N(three_circles, One(), grid128)


class TestSolveIE:
    def test_circle_cos_recovers_sin(self, circle_ops):
        s = ParamGrid(64).nodes
        mu = solve_rhp(circle_ops, np.cos(s)).mu
        assert np.abs(mu - np.sin(s)).max() <= 1e-10

    def test_indicator_data_gives_zero_mu(self, gallery_ops, three_circles, grid128):
        chi = indicator_basis(three_circles, grid128)[0]
        mu = solve_rhp(gallery_ops, chi).mu
        assert np.abs(mu).max() <= 1e-10

    def test_zero_data(self, gallery_ops):
        assert np.abs(solve_rhp(gallery_ops, np.zeros(gallery_ops.size)).mu).max() == 0.0

    def test_unattainable_tolerance_raises(self, gallery_ops, monkeypatch):
        rng = np.random.default_rng(3)
        gamma = band_limited(rng, 3, 128, band=6)
        monkeypatch.setattr(rhp, "SOLVE_TOL", 1e-30)
        with pytest.raises(InconsistentSystem):
            solve_rhp(gallery_ops, gamma)

    @pytest.mark.parametrize("scale", [1e5, 1e8])
    def test_gate_is_relative_to_data_scale(self, gallery_ops, three_circles, grid128,
                                            monkeypatch, scale):
        # the problem is linear, so the residual grows with the data past
        # an absolute 1e-10 at these scales
        gamma = scale * oracle_boundary(three_circles, grid128).real
        solution = solve_rhp(gallery_ops, gamma)
        assert solution.diagnostics.ie_residual <= 1e-10 * scale
        monkeypatch.setattr(rhp, "SOLVE_TOL", 1e-30)
        with pytest.raises(InconsistentSystem):
            solve_rhp(gallery_ops, gamma)

    def test_non_finite_residual_raises(self, gallery_ops):
        # a NaN residual fails the gate instead of passing every comparison
        gamma = np.zeros(gallery_ops.size)
        gamma[5] = np.nan
        with pytest.raises(InconsistentSystem):
            solve_rhp(gallery_ops, gamma)

    def test_minimal_norm_for_rank_deficient(self, three_circles, grid64):
        ops = assemble_N(three_circles, ShiftedPower(CENTERS[2], 1), grid64)
        rng = np.random.default_rng(4)
        gamma = band_limited(rng, 3, 64, band=5)
        solution = solve_rhp(ops, gamma)
        assert solution.diagnostics.minimal_norm
        assert ops.index.dim_null_I_minus_N == 1
        assert solution.diagnostics.ie_residual <= 1e-10
        # the range-space solution is orthogonal to the left null vector
        u, _, _ = np.linalg.svd(ops.identity_minus_N())
        assert abs(u[:, -1] @ solution.mu) <= 1e-8 * np.linalg.norm(solution.mu)


def _ellipse_and_circle(aspect: float) -> Region:
    # cond(I - N) grows with the aspect ratio a/b of the ellipse
    return Region.from_curves([ellipse(3.0, 2.0, 2.0 / aspect),
                               circle(-3.0, 1.0)])


def _range_space_solution(system: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """U_r (A U_r)^+ b, U_r the left singular vectors of A above NULLITY_TOL:
    the solution in the range of a singular A, which GMRES reaches from 0."""
    u, s, _ = np.linalg.svd(system)
    basis = u[:, s > NULLITY_TOL * s[0]]
    y, *_ = np.linalg.lstsq(system @ basis, rhs, rcond=None)
    return basis @ y


def _close_circles(gap: float) -> Region:
    # two unit circles gap apart; cond(I - N) grows as the gap closes
    half = 1.0 + gap / 2.0
    return Region.from_curves([circle(3.0 + half * 1j, 1.0),
                               circle(3.0 - half * 1j, 1.0)])


class TestCGLSAgainstDenseOracles:
    """The matrix-free GMRES solve (the class is named after the CGLS solve
    it first checked) against dense oracles: LU where I - N is invertible,
    the range-space solution where the indices predict a null space."""

    @pytest.mark.parametrize("case", [
        "circles-one", "mixed-power-minus-1", "lattice16-one", "circles-power-plus-1",
        "circles-power-plus-2", "circles-power-plus-3", "ellipse3-power-plus-3",
        "ellipse10-one", "ellipse30-one", "gap005-power-minus-1"])
    def test_matches_dense_solve(self, case, three_circles, mixed_gallery):
        # the count grows with cond(I - N): the eccentric ellipse needs more;
        # the bounds are the measured GMRES products
        region, coeff, n, null, most = {
            "circles-one": (three_circles, One(), 128, 0, 10),
            "mixed-power-minus-1": (mixed_gallery, ShiftedPower(CENTERS[2], -1), 128, 0, 11),
            "lattice16-one": (lattice16(), One(), 32, 0, 15),
            "circles-power-plus-1": (three_circles, ShiftedPower(CENTERS[2], 1), 64, 1, 10),
            "circles-power-plus-2": (three_circles, ShiftedPower(CENTERS[2], 2), 64, 3, 10),
            "circles-power-plus-3": (three_circles, ShiftedPower(CENTERS[2], 3), 64, 5, 9),
            "ellipse3-power-plus-3": (_ellipse_and_circle(3.0), ShiftedPower(3.0, 3), 256,
                                      5, 11),
            "ellipse10-one": (_ellipse_and_circle(10.0), One(), 256, 0, 20),
            "ellipse30-one": (_ellipse_and_circle(30.0), One(), 512, 0, 28),
            "gap005-power-minus-1": (_close_circles(0.05), ShiftedPower(3.0 + 1.025j, -1),
                                     256, 0, 22),
        }[case]
        ops = assemble_N(region, coeff, ParamGrid(n))
        gamma = band_limited(np.random.default_rng(21), region.m, n, band=6)
        solution = solve_rhp(ops, gamma)
        rhs = -apply_M(ops, gamma)
        if null == 0:
            oracle = np.linalg.solve(ops.identity_minus_N(), rhs)
        else:
            oracle = _range_space_solution(ops.identity_minus_N(), rhs)
        assert ops.index.dim_null_I_minus_N == null
        assert solution.diagnostics.minimal_norm == (null > 0)
        mu = solution.mu
        assert np.abs(mu - oracle).max() <= 1e-11 * max(1.0, np.abs(mu).max())
        assert 0 < solution.diagnostics.iterations <= most

    @pytest.mark.parametrize("gallery, n, lstsq_solves", [
        ("circles", 16, True), ("circles", 32, True),
        ("mixed", 16, True), ("mixed", 32, False)])
    def test_coarse_grid_keeps_dense_verdict(self, three_circles, mixed_gallery,
                                             gallery, n, lstsq_solves):
        # coarse grids lift the predicted null singular value of I - N to
        # between 1e-18 and 7e-7 of the largest (8e-13 at circles-16 and
        # mixed-32).  lstsq with rcond=NULLITY_TOL drops it and fails the
        # gate on mixed-32; GMRES inverts it, so every grid solves, sup|mu|
        # reaching 94 on circles-16, and mu differs from lstsq's only along
        # the near-null right singular vector v
        region = {"circles": three_circles, "mixed": mixed_gallery}[gallery]
        ops = assemble_N(region, ShiftedPower(CENTERS[2], 1), ParamGrid(n))
        gamma = band_limited(np.random.default_rng(21), region.m, n, band=6)
        system, rhs = ops.identity_minus_N(), -apply_M(ops, gamma)
        oracle, *_ = np.linalg.lstsq(system, rhs, rcond=NULLITY_TOL)
        allowed = SOLVE_TOL * max(1.0, np.abs(gamma).max())
        assert (np.abs(system @ oracle - rhs).max() <= allowed) == lstsq_solves
        solution = solve_rhp(ops, gamma)
        assert solution.diagnostics.minimal_norm
        mu = solution.mu
        v = np.linalg.svd(system)[2][-1]
        off = (mu - oracle) - (v @ (mu - oracle)) * v
        assert np.abs(off).max() <= 1e-11 * max(1.0, np.abs(mu).max())
        assert 0 < solution.diagnostics.iterations <= 19


class TestGMRES:
    """GMRES on I - N, one product with N per step, on every path."""

    def test_every_path_runs_gmres(self, three_circles, grid64, monkeypatch):
        # the indices set the minimal_norm flag and choose no solver
        gamma = band_limited(np.random.default_rng(21), 3, 64, band=6)
        regular, singular = (assemble_N(three_circles, coeff, grid64)
                             for coeff in (One(), ShiftedPower(CENTERS[2], 1)))
        gmres = count_calls(monkeypatch, rhp, "_gmres")
        assert not solve_rhp(regular, gamma).diagnostics.minimal_norm
        assert len(gmres) == 1
        assert solve_rhp(singular, gamma).diagnostics.minimal_norm
        assert len(gmres) == 2

    @pytest.mark.parametrize("rank", [1, 3, 8])
    def test_identity_plus_rank_r_takes_r_plus_1_products(self, rank):
        # b and the range of U V^T span every Krylov space of I + U V^T
        rng = np.random.default_rng(rank)
        size = 300
        U, V = rng.standard_normal((size, rank)), rng.standard_normal((size, rank))
        N = -(U @ V.T) / size
        b = rng.standard_normal(size)
        x, products = _gmres(N, b)
        assert products <= rank + 1
        oracle = np.linalg.solve(np.eye(size) - N, b)
        assert np.abs(x - oracle).max() <= 1e-13 * np.abs(oracle).max()

    def test_no_product_without_finite_data(self, gallery_ops, monkeypatch):
        products = []
        inner = rhp._gmres

        def spy(N, b):
            x, count = inner(N, b)
            products.append(count)
            return x, count

        monkeypatch.setattr(rhp, "_gmres", spy)
        gamma = np.zeros(gallery_ops.size)
        assert np.abs(solve_rhp(gallery_ops, gamma).mu).max() == 0.0
        gamma[5] = np.nan
        with pytest.raises(InconsistentSystem):
            solve_rhp(gallery_ops, gamma)
        assert products == [0, 0]

    def test_basis_grows_with_products_not_the_cap(self):
        # N = 4096: a basis or Hessenberg sized to KRYLOV_MAX_ITER would
        # alone take 16 MB and 2 MB
        ops = assemble_N(lattice16(), One(), ParamGrid(256))
        gamma = band_limited(np.random.default_rng(21), 16, 256, band=6)
        tracemalloc.start()
        try:
            solution = solve_rhp(ops, gamma)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        products = solution.diagnostics.iterations
        assert not solution.diagnostics.minimal_norm
        assert 0 < products < KRYLOV_MAX_ITER
        assert peak < 16 * ops.size * (products + 8)


class TestEccentricHoles:
    """Shifted power +1 about an ellipse beside a circle: the predicted null
    singular value of I - N sits at 1.8e-9 (a/b = 30, n = 512), 6e-17
    (n = 1024) and 1.1e-4 (a/b = 300, n = 1024) of the largest, and each
    solve meets the gate."""

    @pytest.mark.parametrize("aspect, n, most, s_minus", [
        (30, 512, 37, 1e-6), (30, 1024, 27, 1e-10), (300, 1024, 73, 1.0)])
    def test_singular_path_meets_the_gate(self, aspect, n, most, s_minus):
        # the S^- and hole-side residuals are discretization error: 2.2e-7
        # at a/b = 30, n = 512, rounding once n = 1024 resolves that
        # ellipse, and 0.2 at a/b = 300, n = 1024 (0.012 there with A = 1)
        ops = assemble_N(_ellipse_and_circle(aspect), ShiftedPower(3.0, 1), ParamGrid(n))
        gamma = band_limited(np.random.default_rng(21), 2, n, band=6)
        solution = solve_rhp(ops, gamma)
        diagnostics = solution.diagnostics
        assert diagnostics.minimal_norm
        assert diagnostics.ie_residual <= 1e-12 * max(1.0, np.abs(gamma).max())
        assert 0 < diagnostics.iterations <= most
        hole = attainability_residual(ops, ops.jet.coeff * solution.f_plus)
        assert max(diagnostics.h_plus_residual, diagnostics.h_companion_residual,
                   hole) <= s_minus


class TestComputeH:
    def test_attainable_data_needs_no_correction(self, circle_ops):
        s = ParamGrid(64).nodes
        h = compute_h(circle_ops, np.cos(s), np.sin(s))
        assert np.abs(h).max() <= 1e-10

    def test_indicator_data_is_fully_absorbed(self, gallery_ops, three_circles, grid128):
        chi = indicator_basis(three_circles, grid128)[0]
        mu = np.zeros_like(chi)
        h = compute_h(gallery_ops, chi, mu)
        assert np.abs(h + chi).max() <= 1e-10

    def test_zero(self, gallery_ops):
        size = gallery_ops.size
        assert np.abs(compute_h(gallery_ops, np.zeros(size), np.zeros(size))).max() == 0.0

    def test_h_lies_in_S_minus(self, gallery_ops):
        rng = np.random.default_rng(11)
        gamma = band_limited(rng, 3, 128, band=8)
        solution = solve_rhp(gallery_ops, gamma)
        r_plus, r_m = verify_Sminus(gallery_ops, solution.h)
        assert r_plus <= 1e-9
        assert r_m <= 1e-9


class TestBoundaryValues:
    """f+ = (gamma + h + i mu) / A of solve_rhp."""

    def test_circle_oracle(self, circle_ops):
        # f = 1/z on the clockwise unit circle eta = exp(-i s)
        s = ParamGrid(64).nodes
        f_plus = solve_rhp(circle_ops, np.cos(s)).f_plus
        assert np.abs(f_plus - np.exp(1j * s)).max() <= 1e-10

    def test_gamma_plus_h_zero(self, gallery_ops, three_circles, grid128):
        # indicator data is fully absorbed by h = -chi, leaving f+ = 0
        chi = indicator_basis(three_circles, grid128)[0]
        assert np.abs(solve_rhp(gallery_ops, chi).f_plus).max() <= 1e-10

    def test_all_zero(self, gallery_ops):
        f_plus = solve_rhp(gallery_ops, np.zeros(gallery_ops.size)).f_plus
        assert np.abs(f_plus).max() == 0.0


class TestAnalyticityResidual:
    def test_oracle_data_passes(self, circle_ops):
        s = ParamGrid(64).nodes
        af_plus = np.cos(s) + 1j * np.sin(s)
        assert attainability_residual(circle_ops, af_plus) <= 1e-10

    def test_hole_side_data_fails_loudly(self, gallery_ops, three_circles, grid128):
        chi = indicator_basis(three_circles, grid128)[0].astype(complex)
        residual = attainability_residual(gallery_ops, chi)
        assert residual == pytest.approx(2.0, abs=1e-9)

    def test_zero(self, gallery_ops):
        assert attainability_residual(gallery_ops, np.zeros(gallery_ops.size, dtype=complex)) == 0.0


class TestVerifySminus:
    def test_indicators_pass(self, gallery_ops, three_circles, grid128):
        for chi in indicator_basis(three_circles, grid128):
            r_plus, r_m = verify_Sminus(gallery_ops, chi)
            assert r_plus <= 1e-10
            assert r_m <= 1e-10

    def test_zero(self, gallery_ops):
        assert verify_Sminus(gallery_ops, np.zeros(gallery_ops.size)) == (0.0, 0.0)

    def test_attainable_data_is_rejected(self, circle_ops):
        s = ParamGrid(64).nodes
        r_plus, _ = verify_Sminus(circle_ops, np.cos(s))
        assert r_plus > 0.5


class TestCauchyEval:
    def test_circle_oracle_at_3(self, circle_ops):
        s = ParamGrid(64).nodes
        value = cauchy_eval(circle_ops, np.cos(s), np.sin(s), 3.0)
        assert abs(value - 1.0 / 3.0) <= 1e-10

    def test_zero_density(self, circle_ops):
        zeros = np.zeros(circle_ops.size)
        assert cauchy_eval(circle_ops, zeros, zeros, 2.5) == 0.0

    def test_decay_at_infinity(self, circle_ops):
        s = ParamGrid(64).nodes
        value = cauchy_eval(circle_ops, np.cos(s), np.sin(s), 1e6)
        assert abs(value) <= 1e-5

    def test_strict_mode_raises_near_boundary(self, circle_ops):
        # strict mode is the warning filter; the raised warning is a GnkError
        s = ParamGrid(64).nodes
        with warnings.catch_warnings(), pytest.raises(GnkError) as caught:
            warnings.simplefilter("error", TooCloseToBoundary)
            cauchy_eval(circle_ops, np.cos(s), np.sin(s), 1.0 + 1e-4)
        assert isinstance(caught.value, TooCloseToBoundary)

    def test_warns_near_boundary(self, circle_ops):
        s = ParamGrid(64).nodes
        with pytest.warns(UserWarning):
            cauchy_eval(circle_ops, np.cos(s), np.sin(s), 1.0 + 1e-4)
        with pytest.warns(TooCloseToBoundary):
            cauchy_eval(circle_ops, np.cos(s), np.sin(s), 1.0 + 1e-4)

    def test_vectorized_points(self, circle_ops):
        s = ParamGrid(64).nodes
        z = np.array([3.0, 4.0 + 1.0j, -5.0j])
        values = cauchy_eval(circle_ops, np.cos(s), np.sin(s), z)
        assert np.allclose(values, 1.0 / z, atol=1e-10)

    def test_reads_the_assembled_boundary(self, monkeypatch, gallery_ops):
        # the operators' jet is the boundary: nothing is sampled again
        region_samples = count_calls(monkeypatch, Region, "sample")
        coeff_samples = count_calls(monkeypatch, coefficient, "sample")
        zeros = np.zeros(gallery_ops.size)
        cauchy_eval(gallery_ops, zeros, zeros, np.array([5.0 + 5.0j, -6.0]))
        assert (region_samples, coeff_samples) == ([], [])


def _dense_field(jet, gamma, mu, z):
    """field_pass by the all-node sum: every probe against every node."""
    unit = jet.eta_d * (jet.weight / (2j * np.pi))
    diff = jet.eta[None, :] - z[:, None]
    f = ((gamma + 1j * mu) / jet.coeff * unit / diff).sum(axis=1)
    turns = (unit / diff).real.reshape(-1, jet.m, jet.n).sum(axis=2)
    return f, np.abs(diff).min(axis=1), turns


def _reach_probes(jet):
    """Probes 1e-9 inside and outside each curve's reach at 64 angles, and
    half a band off 16 nodes of each curve on both sides."""
    angles = np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
    band = near_boundary_band(jet)
    probes = []
    for k, eta in enumerate(jet.eta.reshape(jet.m, jet.n)):
        centre = eta.mean()
        radius = np.abs(eta - centre).max()
        reach = max((rhp.FAR_RHO - 1.0) * radius, band)
        for side in (1.0 - 1e-9, 1.0 + 1e-9):
            probes.append(centre + (radius + side * reach) * angles)
        nodes = slice(k * jet.n, (k + 1) * jet.n, max(1, jet.n // 16))
        offset = 0.5j * band * jet.eta_d[nodes] / np.abs(jet.eta_d[nodes])
        probes += [jet.eta[nodes] + offset, jet.eta[nodes] - offset]
    return np.concatenate(probes)


class TestFieldPass:
    def test_turns_are_winding_numbers(self, three_circles, grid128):
        jet = BoundaryJet.from_region(three_circles, One(), grid128)
        zeros = np.zeros(jet.size)
        z = np.array(CENTERS + (0.0, 40.0 + 3.0j))
        _, _, turns = field_pass(jet, zeros, zeros, z)
        # clockwise curves wind -1 about their own hole, 0 about the rest
        expected = np.vstack([-np.eye(3), np.zeros((2, 3))])
        assert np.abs(turns - expected).max() <= 1e-12

    @pytest.mark.parametrize("gallery, n", [
        ("circles", 8), ("circles", 256), ("mixed", 8), ("mixed", 256),
        ("ab10", 1024), ("ab100", 1024)])
    def test_far_field_matches_dense_sum(self, three_circles, mixed_gallery, gallery, n):
        # at n = 8 the band exceeds (FAR_RHO - 1) r_k and sets the reach;
        # "ab" places an ellipse of that aspect ratio beside a circle
        if gallery.startswith("ab"):
            region = Region.from_curves([ellipse(0.0, 1.0, 1.0 / float(gallery[2:])),
                                         circle(2.5 + 0.5j, 0.5)])
        else:
            region = {"circles": three_circles, "mixed": mixed_gallery}[gallery]
        jet = BoundaryJet.from_region(region, One(), ParamGrid(n))
        rng = np.random.default_rng(n)
        gamma, mu = rng.normal(size=jet.size), rng.normal(size=jet.size)
        z = _reach_probes(jet)
        f, dist, turns = field_pass(jet, gamma, mu, z)
        f_ref, dist_ref, turns_ref = _dense_field(jet, gamma, mu, z)
        assert np.all(np.abs(f - f_ref) <= 1e-14 * np.maximum(1.0, np.abs(f_ref)))
        assert np.all(np.abs(turns - turns_ref) <= 1e-14 * np.maximum(1.0, np.abs(turns_ref)))
        band = near_boundary_band(jet)
        assert np.array_equal(dist < band, dist_ref < band)
        assert np.array_equal(dist[dist_ref < band], dist_ref[dist_ref < band])

    def test_peak_memory_bounded_in_probe_count(self, three_circles):
        # N = 768: beyond the O(P) outputs f, dist and turns, the peak is one
        # curve's near block, 24 bytes (a difference and its modulus) for
        # each of at most PROBE_BLOCK / m pairs, plus below 1 MiB of block
        # vectors and moments, whatever the probe count (3.0 MB measured);
        # a temporary of 16 bytes per probe breaks that at 450^2 probes
        jet = BoundaryJet.from_region(three_circles, One(), ParamGrid(256))
        rng = np.random.default_rng(5)
        gamma, mu = rng.normal(size=jet.size), rng.normal(size=jet.size)
        for side in (50, 150, 450):
            x = np.linspace(-6.0, 6.0, side)
            z = (x[None, :] + 1j * x[:, None]).ravel()
            outputs = z.size * (16 + 8 + 8 * jet.m)
            peak = traced_peak(lambda: field_pass(jet, gamma, mu, z))
            assert peak <= 3 * 16 * PROBE_BLOCK + outputs
            assert peak - outputs <= 24 * PROBE_BLOCK // jet.m + 2**20


class TestPlemelj:
    def test_jump_relation_is_algebraic(self, gallery_ops):
        rng = np.random.default_rng(12)
        gamma = rng.normal(size=gallery_ops.size)
        mu = rng.normal(size=gallery_ops.size)
        jump = (plemelj_boundary(gallery_ops, gamma, mu, +1)
                - plemelj_boundary(gallery_ops, gamma, mu, -1))
        assert np.abs(jump - (gamma + 1j * mu)).max() <= 1e-13

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_jump_relation_random(self, seed):
        ops = assemble_N(Region.from_curves([circle(3.0, 1.0)]), One(), ParamGrid(32))
        rng = np.random.default_rng(seed)
        gamma, mu = rng.normal(size=32), rng.normal(size=32)
        jump = (plemelj_boundary(ops, gamma, mu, +1)
                - plemelj_boundary(ops, gamma, mu, -1))
        assert np.abs(jump - (gamma + 1j * mu)).max() <= 1e-13

    def test_circle_oracle_sides(self, circle_ops):
        s = ParamGrid(64).nodes
        gamma, mu = np.cos(s), np.sin(s)
        plus = plemelj_boundary(circle_ops, gamma, mu, +1)
        minus = plemelj_boundary(circle_ops, gamma, mu, -1)
        assert np.abs(plus - (gamma + 1j * mu)).max() <= 1e-10
        assert np.abs(minus).max() <= 1e-10

    def test_indicator_sides(self, gallery_ops, three_circles, grid128):
        chi = indicator_basis(three_circles, grid128)[0]
        zeros = np.zeros_like(chi)
        plus = plemelj_boundary(gallery_ops, chi, zeros, +1)
        minus = plemelj_boundary(gallery_ops, chi, zeros, -1)
        assert np.abs(plus).max() <= 1e-10
        assert np.abs(minus + chi).max() <= 1e-10

    def test_invalid_side(self, gallery_ops):
        with pytest.raises(ValueError):
            plemelj_boundary(gallery_ops, np.zeros(gallery_ops.size),
                             np.zeros(gallery_ops.size), 2)


class TestOracleRoundTrip:
    def test_three_circle_pipeline(self, gallery_ops, three_circles, grid128):
        f_plus = oracle_boundary(three_circles, grid128)
        solution = solve_rhp(gallery_ops, f_plus.real)
        assert np.abs(solution.mu - f_plus.imag).max() <= 1e-8
        assert np.abs(solution.h).max() <= 1e-8
        assert np.abs(solution.f_plus - f_plus).max() <= 1e-8

    def test_projection_idempotence(self, gallery_ops):
        # gamma + h lands in the attainable space, so re-solving adds nothing
        rng = np.random.default_rng(13)
        gamma = band_limited(rng, 3, 128, band=8)
        first = solve_rhp(gallery_ops, gamma)
        second = solve_rhp(gallery_ops, first.gamma + first.h)
        assert np.abs(second.h).max() <= 1e-9

    def test_consistency_with_field_and_plemelj(self, gallery_ops, three_circles, grid128):
        # both routes reproduce the same analytic function: the boundary
        # limit at the nodes and the Cauchy integral half a radius out
        f_plus = oracle_boundary(three_circles, grid128)
        gamma, mu = f_plus.real, f_plus.imag
        plus = plemelj_boundary(gallery_ops, gamma, mu, +1)
        assert np.abs(plus - f_plus).max() <= 1e-10
        z = CENTERS[0] + 1.5  # half a radius outside the first circle
        value = cauchy_eval(gallery_ops, gamma, mu, z)
        assert abs(value - rational_values(z, oracle_terms())) <= 1e-6


class TestLoadBoundaryData:
    def test_poles_entry(self, three_circles, grid128, coeff_one):
        entry = {"type": "poles", "terms": [
            {"c": [c.real, c.imag], "a": [a.real, a.imag]}
            for c, a in zip(CENTERS, POLE_AMPLITUDES)]}
        gamma = load_boundary_data(entry, three_circles, coeff_one, grid128)
        assert np.allclose(gamma, oracle_boundary(three_circles, grid128).real)

    def test_constants_entry(self, three_circles, grid128, coeff_one):
        gamma = load_boundary_data({"type": "constants", "values": [1.0, -2.0, 0.5]},
                                   three_circles, coeff_one, grid128)
        assert np.all(gamma[:128] == 1.0)
        assert np.all(gamma[128:256] == -2.0)
        assert np.all(gamma[256:] == 0.5)

    def test_sum_composition(self, three_circles, grid128, coeff_one):
        parts = [
            {"type": "constants", "values": [1.0, 0.0, 0.0]},
            {"type": "constants", "values": [0.5, 0.5, 0.5]},
        ]
        gamma = load_boundary_data(parts, three_circles, coeff_one, grid128)
        assert np.all(gamma[:128] == 1.5)
        assert np.all(gamma[128:] == 0.5)

    def test_trig_entry(self, three_circles, grid128, coeff_one):
        entry = {"type": "trig", "per_curve": [
            [[1, 1.0, 0.0]], [[0, 2.0, 0.0]], [[2, 0.0, 1.0]]]}
        gamma = load_boundary_data(entry, three_circles, coeff_one, grid128)
        s = grid128.nodes
        assert np.allclose(gamma[:128], np.cos(s))
        assert np.allclose(gamma[128:256], 2.0)
        assert np.allclose(gamma[256:], -np.sin(2 * s))

    def test_samples_entry_equals_poles(self, three_circles, grid64):
        # samples of the poles data give the same solve, bit for bit
        coeff = ShiftedPower(CENTERS[0], 1)
        poles = {"type": "poles", "terms": [
            {"c": [c.real, c.imag], "a": [a.real, a.imag]}
            for c, a in zip(CENTERS, POLE_AMPLITUDES)]}
        from_poles = load_boundary_data(poles, three_circles, coeff, grid64)
        samples = {"type": "samples", "values": from_poles.reshape(3, 64).tolist()}
        from_samples = load_boundary_data(samples, three_circles, coeff, grid64)
        assert np.array_equal(from_samples, from_poles)
        ops = assemble_N(three_circles, coeff, grid64)
        a, b = solve_rhp(ops, from_samples), solve_rhp(ops, from_poles)
        assert np.array_equal(a.f_plus, b.f_plus) and np.array_equal(a.h, b.h)

    @pytest.mark.parametrize("entry, message", [
        ({"type": "trig", "per_curve": [[[0, 1.0, 0.0]]] * 2},
         "trig data must supply one entry per curve"),
        ({"type": "constants", "values": [1.0, 2.0, 3.0, 4.0]},
         "constants data must supply one value per curve"),
        ({"type": "trig", "per_curve": [[[1, 1.0, 0.0], [1, 0.0, 1.0]]] * 3},
         "duplicate Fourier powers"),
        ({"type": "trig", "per_curve": [[[0, float("nan"), 0.0]]] * 3},
         "boundary data must be finite"),
        ({"type": "spline", "values": []}, "unknown boundary data type 'spline'"),
    ], ids=["trig-count", "constants-count", "trig-duplicate-powers", "trig-nan",
            "unknown-type"])
    def test_bad_entry_rejected(self, three_circles, grid128, coeff_one, entry, message):
        with pytest.raises(ValueError, match=message):
            load_boundary_data(entry, three_circles, coeff_one, grid128)

    def test_samples_entry_wrong_size_rejected(self, three_circles, grid128, coeff_one):
        with pytest.raises(ValueError):
            load_boundary_data({"type": "samples", "values": [[0.0] * 10] * 3},
                               three_circles, coeff_one, grid128)
