import warnings

import numpy as np
import pytest

from gnk import coefficient, rhp
from gnk.coefficient import One, ShiftedPower
from gnk.discrete import assemble_N
from gnk.dirichlet import indicator_basis, solve_modified_dirichlet
from gnk.errors import ConstancyViolation, GnkError, InconsistentSystem, TooCloseToBoundary
from gnk.geometry import ParamGrid, Region, circle
from gnk.rhp import cauchy_eval
from conftest import CENTERS, oracle_boundary, oracle_terms
from helpers import band_limited, count_calls, perturbed_circle, rational_values


@pytest.fixture(scope="module")
def gallery_ops(three_circles, grid128):
    return assemble_N(three_circles, One(), grid128)


class TestIndicatorBasis:
    def test_shape_and_support(self, three_circles, grid128):
        basis = indicator_basis(three_circles, grid128)
        assert basis.shape == (3, 3 * 128)
        assert np.all(basis[1][128:256] == 1.0)
        assert np.all(basis[1][:128] == 0.0)
        assert np.all(basis[1][256:] == 0.0)

    def test_partition_of_unity(self, three_circles, grid128):
        basis = indicator_basis(three_circles, grid128)
        assert np.all(basis.sum(axis=0) == 1.0)

    def test_annihilated_by_I_plus_N(self, gallery_ops, three_circles, grid128):
        for chi in indicator_basis(three_circles, grid128):
            assert np.abs(chi + gallery_ops.N @ chi).max() <= 1e-10

    def test_annihilated_on_perturbed_gallery(self, perturbed_gallery, grid128):
        ops = assemble_N(perturbed_gallery, One(), grid128)
        for chi in indicator_basis(perturbed_gallery, grid128):
            assert np.abs(chi + ops.N @ chi).max() <= 1e-8


class TestSolve:
    def test_oracle_recovery(self, three_circles, grid128, gallery_ops):
        f_plus = oracle_boundary(three_circles, grid128)
        solution = solve_modified_dirichlet(gallery_ops, f_plus.real)
        assert np.abs(solution.mu - f_plus.imag).max() <= 1e-8
        assert max(abs(h) for h in solution.h_constants) <= 1e-8

    def test_constant_shift_recovered(self, three_circles, grid128, gallery_ops):
        f_plus = oracle_boundary(three_circles, grid128)
        shifts = (0.3, -1.2, 2.0)
        gamma = f_plus.real + np.repeat(shifts, grid128.n)
        solution = solve_modified_dirichlet(gallery_ops, gamma)
        for recovered, applied in zip(solution.h_constants, shifts):
            assert abs(recovered + applied) <= 1e-8

    def test_zero_data(self, three_circles, grid128, gallery_ops):
        solution = solve_modified_dirichlet(gallery_ops, np.zeros(3 * 128))
        assert np.abs(solution.mu).max() == 0.0
        assert all(h == 0.0 for h in solution.h_constants)
        assert np.abs(solution.f_boundary).max() == 0.0

    def test_infinite_data_raise(self):
        # they raise before any pass, so no invalid value is reported
        grid = ParamGrid(32)
        ops = assemble_N(Region.from_curves([circle(0.0, 1.0), circle(4.0, 1.0)]), One(), grid)
        gamma = np.tile(np.cos(grid.nodes), 2)
        gamma[3] = np.inf
        with pytest.raises(InconsistentSystem):
            solve_modified_dirichlet(ops, gamma)

    def test_grid_consistency(self, three_circles):
        # the same data sampled on n and 2n yields matching mu and h_j
        def gamma_fn(s):
            return np.concatenate([np.cos(2 * s), np.sin(s), np.cos(s) + 0.5])

        coarse, fine = ParamGrid(64), ParamGrid(128)
        sol_c = solve_modified_dirichlet(assemble_N(three_circles, One(), coarse),
                                         gamma_fn(coarse.nodes))
        sol_f = solve_modified_dirichlet(assemble_N(three_circles, One(), fine),
                                         gamma_fn(fine.nodes))
        for a, b in zip(sol_c.h_constants, sol_f.h_constants):
            assert abs(a - b) <= 1e-9
        assert np.abs(sol_c.mu - sol_f.mu.reshape(3, 128)[:, ::2].ravel()).max() <= 1e-9

    def test_linearity(self, three_circles, grid128, gallery_ops):
        rng = np.random.default_rng(31)
        g1 = band_limited(rng, 3, 128, band=6)
        g2 = band_limited(rng, 3, 128, band=6)
        a, b = 1.7, -0.4
        s1 = solve_modified_dirichlet(gallery_ops, g1)
        s2 = solve_modified_dirichlet(gallery_ops, g2)
        s12 = solve_modified_dirichlet(gallery_ops, a * g1 + b * g2)
        assert np.abs(s12.mu - (a * s1.mu + b * s2.mu)).max() <= 1e-9
        for h12, h1, h2 in zip(s12.h_constants, s1.h_constants, s2.h_constants):
            assert abs(h12 - (a * h1 + b * h2)) <= 1e-9

    def test_requires_coefficient_one(self, three_circles, grid128):
        ops = assemble_N(three_circles, ShiftedPower(CENTERS[0], 1), grid128)
        with pytest.raises(ValueError):
            solve_modified_dirichlet(ops, np.zeros(3 * 128))

    def test_unresolved_geometry_raises_constancy_violation(self):
        wiggly = perturbed_circle(3.0, 1.0, [(3, 0.35), (7, 0.2)])
        region = Region.from_curves([wiggly])
        grid = ParamGrid(8)
        gamma = np.cos(3 * grid.nodes)
        with pytest.raises(ConstancyViolation):
            solve_modified_dirichlet(assemble_N(region, One(), grid), gamma)

    def test_wiggly_geometry_resolves_at_high_n(self):
        wiggly = perturbed_circle(3.0, 1.0, [(3, 0.35), (7, 0.2)])
        region = Region.from_curves([wiggly])
        grid = ParamGrid(256)
        solution = solve_modified_dirichlet(assemble_N(region, One(), grid),
                                            np.cos(3 * grid.nodes))
        assert max(solution.h_deviation) <= 1e-6


class TestHarmonicEval:
    def test_oracle_field(self, three_circles, grid128, gallery_ops):
        f_plus = oracle_boundary(three_circles, grid128)
        solution = solve_modified_dirichlet(gallery_ops, f_plus.real)
        z = 5.0 + 5.0j
        expected = rational_values(z, oracle_terms()).real
        u = cauchy_eval(gallery_ops, solution.gamma, solution.mu, z).real
        assert abs(u - expected) <= 1e-8

    def test_constant_data_gives_zero_field(self, three_circles, grid128, gallery_ops):
        gamma = np.repeat((1.0, -2.0, 0.7), grid128.n)
        solution = solve_modified_dirichlet(gallery_ops, gamma)
        for z in (5.0 + 5.0j, -6.0, 2.0 - 6.0j):
            assert abs(cauchy_eval(gallery_ops, solution.gamma, solution.mu, z).real) <= 1e-9

    def test_decay_at_infinity(self, three_circles, grid128, gallery_ops):
        f_plus = oracle_boundary(three_circles, grid128)
        solution = solve_modified_dirichlet(gallery_ops, f_plus.real)
        assert abs(cauchy_eval(gallery_ops, solution.gamma, solution.mu, 1e6).real) <= 1e-5

    def test_maximum_principle_smoke(self, three_circles, grid128, gallery_ops):
        # u has boundary data gamma + h; for indicator data that sum is zero
        from gnk.dirichlet import indicator_basis

        chi = indicator_basis(three_circles, grid128)[0]
        solution = solve_modified_dirichlet(gallery_ops, chi)
        bound = np.abs(chi + np.repeat(solution.h_constants, grid128.n)).max()
        probes = [6.0 + 1.0j, -5.0 - 5.0j, 0.0 + 0.1j, 8.0j]
        for z in probes:
            u = cauchy_eval(gallery_ops, solution.gamma, solution.mu, z).real
            assert abs(u) <= bound + 1e-9

    def test_near_boundary_warns_or_raises(self, three_circles, gallery_ops):
        solution = solve_modified_dirichlet(gallery_ops, np.ones(gallery_ops.size))
        z = three_circles.curves[0].jet(0.0)[0] + 1e-4
        with pytest.warns(UserWarning):
            cauchy_eval(gallery_ops, solution.gamma, solution.mu, z)
        with warnings.catch_warnings(), pytest.raises(GnkError) as caught:
            warnings.simplefilter("error", TooCloseToBoundary)
            cauchy_eval(gallery_ops, solution.gamma, solution.mu, z)
        assert isinstance(caught.value, TooCloseToBoundary)

    @pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-15], ids=["on-node", "beside-node"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_probe_on_a_node_takes_the_exterior_value(self, monkeypatch, scale):
        # two unit circles at 0 and 4, n = 64, f = 1/(z - 0.2): on node 5 the
        # Cauchy sum divided by zero (nan), 1.1e-15 from it by nearly zero
        # (1.4e13).  Such a probe takes the exterior Plemelj value at the
        # node, computed only then; it still warns
        ops = assemble_N(Region.from_curves([circle(0.0, 1.0), circle(4.0, 1.0)]), One(),
                         ParamGrid(64))
        solution = solve_modified_dirichlet(ops, (1 / (ops.jet.eta - 0.2)).real)
        plemelj = count_calls(monkeypatch, rhp, "plemelj_boundary")
        cauchy_eval(ops, solution.gamma, solution.mu, 2.0)
        assert plemelj == []
        z = ops.jet.eta[5] * scale
        oracle = 1 / (z - 0.2)
        with pytest.warns(TooCloseToBoundary):
            value = cauchy_eval(ops, solution.gamma, solution.mu, z)
        with pytest.warns(TooCloseToBoundary):
            u = cauchy_eval(ops, solution.gamma, solution.mu, z).real
        assert abs(value - oracle) <= 1e-8 and abs(u - oracle.real) <= 1e-8
        assert len(plemelj) == 2

    def test_reads_the_assembled_boundary(self, monkeypatch, gallery_ops, grid128):
        solution = solve_modified_dirichlet(gallery_ops, np.repeat((1.0, -2.0, 0.7),
                                                                   grid128.n))
        region_samples = count_calls(monkeypatch, Region, "sample")
        coeff_samples = count_calls(monkeypatch, coefficient, "sample")
        cauchy_eval(gallery_ops, solution.gamma, solution.mu, np.array([5.0 + 5.0j, -6.0]))
        assert (region_samples, coeff_samples) == ([], [])
