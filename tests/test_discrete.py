import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnk import coefficient, discrete, rhp
from gnk.coefficient import One, ShiftedPower, index_of
from gnk.discrete import (
    NULLITY_TOL,
    assemble_N,
    nullity,
    operator_identity_residuals,
)
from gnk.dirichlet import indicator_basis
from gnk.errors import OddGridSize
from gnk.geometry import ParamGrid, Region, circle, ellipse, load_region
from gnk.kernels import BoundaryJet
from conftest import CENTERS
from helpers import (
    assemble_M,
    assert_stored_kernel,
    band_limited,
    band_tolerance,
    conjugation_matrix,
    count_calls,
    count_passes,
    dense_nullity,
    dense_weighted_M1,
    dense_weighted_kernels,
    factor_tolerance,
    far_pairs,
    fft_conjugate,
    lattice16,
    planted,
    traced_peak,
    weighted_kernels,
    wittich_apply,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
from make_gallery import FILES  # noqa: E402

TWO_PI = 2.0 * np.pi


@pytest.fixture(scope="module")
def circle_ops():
    region = Region.from_curves([circle(0.0, 1.0)])
    return assemble_N(region, One(), ParamGrid(64))


def folded_conjugations(ops) -> list[np.ndarray]:
    """The conjugation that assembly folded into each curve's block of M:
    the dense w M1 minus that block, one n x n matrix per curve."""
    difference = dense_weighted_M1(ops.jet) - np.asarray(ops.M)
    return [difference[k * ops.n:(k + 1) * ops.n, k * ops.n:(k + 1) * ops.n]
            for k in range(ops.m)]


class TestConjugatePeriodic:
    """The periodic conjugation, stored in the same-curve blocks of M by the
    alternate-point rule, read back as w M1 minus the block."""

    @pytest.fixture(scope="class")
    def conj(self, circle_ops):
        return folded_conjugations(circle_ops)[0]

    def test_cos_to_sin(self, conj):
        s = ParamGrid(64).nodes
        for p in (1, 3, 10, 31):
            assert np.allclose(conj @ np.cos(p * s), np.sin(p * s), atol=1e-12)

    def test_sin_to_minus_cos(self, conj):
        s = ParamGrid(64).nodes
        for p in (2, 7, 31):
            assert np.allclose(conj @ np.sin(p * s), -np.cos(p * s), atol=1e-12)

    def test_constant_to_zero(self, conj):
        assert np.abs(conj @ np.ones(64)).max() <= 1e-13

    def test_nyquist_mode_annihilated(self, conj):
        s = ParamGrid(64).nodes
        assert np.abs(conj @ np.cos(32 * s)).max() <= 1e-13

    def test_odd_grid_rejected(self):
        # ParamGrid rejects an odd grid first; a hand-built jet reaches the table
        n = 33
        s = np.arange(n) * (TWO_PI / n)
        eta = np.exp(-1j * s)
        jet = BoundaryJet(eta, -1j * eta, -eta, np.ones(n, complex), np.zeros(n, complex), 1, n)
        with pytest.raises(OddGridSize):
            weighted_kernels(jet)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_matches_wittich_rule(self, conj, seed):
        # independent oracle: alternate-point trapezoidal quadrature of the
        # principal-value cotangent integral, one row at a time
        rng = np.random.default_rng(seed)
        phi = rng.normal(size=64)
        assert np.allclose(conj @ phi, wittich_apply(phi), atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_involution_on_band_limited(self, conj, seed):
        # K(K phi) = -phi for zero-mean functions without Nyquist content
        rng = np.random.default_rng(seed)
        phi = band_limited(rng, 1, 64, band=31, zero_mean=True)
        assert np.allclose(conj @ (conj @ phi), -phi, atol=1e-12)

    def test_complex_input_componentwise(self, circle_ops, conj):
        # on a circle w M1 vanishes, so M is minus the conjugation
        rng = np.random.default_rng(5)
        u, v = rng.normal(size=64), rng.normal(size=64)
        combined = -(circle_ops.M @ (u + 1j * v))
        assert np.allclose(combined.real, conj @ u, atol=1e-13)
        assert np.allclose(combined.imag, conj @ v, atol=1e-13)

    @pytest.mark.parametrize("m, n", [(3, 64), (16, 256), (3, 1024), (5, 128)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_rows_are_curves(self, m, n, dtype):
        # one product conjugates every curve: on m circles, samples on curve
        # k alone come back on curve k as minus their spectral conjugate, up
        # to roundoff in eta_i - eta_j, which grows with the centre's modulus
        region = Region.from_curves([circle(4.0 * k, 1.0) for k in range(m)])
        ops = assemble_N(region, One(), ParamGrid(n))
        rng = np.random.default_rng(7)
        phi = rng.normal(size=(m, n)).astype(dtype)
        if dtype is complex:
            phi += 1j * rng.normal(size=(m, n))
        stacked = np.zeros((m * n, m), dtype)
        for k in range(m):
            stacked[k * n:(k + 1) * n, k] = phi[k]
        out = ops.M @ stacked
        for k in range(m):
            assert np.abs(out[k * n:(k + 1) * n, k] + fft_conjugate(phi[k])).max() <= 1e-12

    def test_circulant_matrix_agrees(self, mixed_gallery):
        # every same-curve block of M is w M1 minus the spectral conjugation
        # circulant and minus the alternate-point sums, on a circle and on
        # the mixed gallery; a block stored as a band carries its own
        # error, at most band_tolerance an entry
        rng = np.random.default_rng(6)
        circle_region = Region.from_curves([circle(0.0, 1.0)])
        for n in (8, 16, 32, 64, 128, 256):
            for region in (circle_region, mixed_gallery):
                ops = assemble_N(region, One(), ParamGrid(n))
                for k, conj in enumerate(folded_conjugations(ops)):
                    tol = band_tolerance(ops.jet) if k in ops.N.store.banded else 0.0
                    assert np.abs(conj - conjugation_matrix(n)).max() <= 1e-13 + tol
                    phi = rng.normal(size=n)
                    error = np.abs(conj @ phi - wittich_apply(phi)).max()
                    assert error <= 1e-13 + n * tol * np.abs(phi).max()


@pytest.fixture(scope="module")
def gallery_ops(three_circles, grid128):
    return assemble_N(three_circles, One(), grid128)


class TestAssembleN:
    def test_constant_maps_to_minus_one(self, circle_ops):
        # the constant kernel -1/(2 pi) integrates to -1 exactly
        result = circle_ops.N @ np.ones(64)
        assert np.abs(result + 1.0).max() < 1e-13

    def test_indicator_in_null_space_of_I_plus_N(self, gallery_ops, three_circles, grid128):
        basis = indicator_basis(three_circles, grid128)
        for j in range(3):
            residual = basis[j] + gallery_ops.N @ basis[j]
            assert np.abs(residual).max() <= 1e-10

    def test_zero_maps_to_zero(self, gallery_ops):
        assert np.abs(gallery_ops.N @ np.zeros(gallery_ops.size)).max() == 0.0

    def test_peak_is_the_stored_factors(self, mixed_gallery):
        # N = 1536: the dense pair blocks and the far engine, plus the row
        # blocks that build the pair blocks (a complex block and its
        # cotangent gather, under two complex blocks) and O(N m)
        # temporaries of the moments and Taylor powers (the translations
        # are built in place), where the dense w N and M took 2 x 8 N^2 bytes
        grid = ParamGrid(512)
        coeff = ShiftedPower(CENTERS[2], 1)
        assemble_N(mixed_gallery, coeff, grid)
        peak = traced_peak(lambda: assemble_N(mixed_gallery, coeff, grid))
        store = assemble_N(mixed_gallery, coeff, grid).N.store
        stored = sum(a.nbytes for a in _stored_arrays(store))
        size = 3 * grid.n
        assert peak <= stored + 2 * 16 * discrete.BLOCK_ENTRIES + 16 * size * 3, peak


def _stored_arrays(store) -> list:
    return [value for value in vars(store).values() if isinstance(value, np.ndarray)]


def _ellipse_beside_circle(aspect: float) -> Region:
    return Region.from_curves([ellipse(3.0, 2.0, 2.0 / aspect), circle(-3.0, 1.0)])


class TestFactoredOperators:
    """The translated N and M against the dense oracle: products from both
    sides, same-curve and near pair blocks bit for bit, and far pairs
    within the bound of their translation."""

    @pytest.fixture(scope="class",
                    params=["lattice16", "mixed", "ellipse10", "close", "touching", "mixed512"])
    def case(self, request, mixed_gallery):
        region, n = {
            "lattice16": (lattice16(), 64),
            "mixed": (mixed_gallery, 128),
            # every curve banded, the widest band 46 modes a side
            "mixed512": (mixed_gallery, 512),
            "ellipse10": (_ellipse_beside_circle(10.0), 128),
            "close": (load_region(FILES["region_close.json"]), 128),
            # two unit circles 0.05 apart: both pairs near, no far engine
            "touching": (Region.from_curves([circle(3.0 + 1.025j, 1.0),
                                             circle(3.0 - 1.025j, 1.0)]), 64),
        }[request.param]
        ops = assemble_N(region, ShiftedPower(region.hole_points[0], 1), ParamGrid(n))
        return request.param, ops, dense_weighted_kernels(ops.jet)

    @pytest.mark.parametrize("columns", [None, 5, 1, 24], ids=["vector", "stacked", "k1", "k24"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_products_match_dense(self, case, columns, dtype):
        # within 1e-14 of the row sup-norm of the matrix applied, times
        # sup|x|: the dense blocks, the bands by FFTs, and the translations,
        # for one column and for the counts' 24
        _, ops, oracles = case
        rng = np.random.default_rng(9)
        shape = (ops.size,) if columns is None else (ops.size, columns)
        x = rng.standard_normal(shape).astype(dtype)
        if dtype is complex:
            x += 1j * rng.standard_normal(shape)
        for operator, dense in zip((ops.N, ops.M), oracles):
            for got, expected, norm in ((operator @ x, dense @ x, np.abs(dense).sum(axis=1)),
                                        (x.T @ operator, x.T @ dense, np.abs(dense).sum(axis=0))):
                assert got.shape == expected.shape and got.dtype == expected.dtype
                error = np.abs(got - expected).max()
                assert error <= 1e-14 * norm.max() * np.abs(x).max()

    def test_stored_entries(self, case):
        # same-curve and near pair blocks bit for bit, far entries within
        # the bound derived from the Laurent and Taylor truncations
        assert_stored_kernel(case[1])

    def test_slow_series_keeps_the_exact_column(self, case):
        # a pair whose discs meet keeps its exact blocks: the ellipse of
        # region_close.json reaches over both circles, and each touching
        # circle over the other.  They are stored bit for bit, as real
        # arrays beside the same-curve blocks, and the far engine has no
        # terms where no pair is far
        name, ops, (oracle_n, oracle_m) = case
        n, store = ops.n, ops.N.store
        near = {"close": ((0, 1), (0, 2), (1, 0), (2, 0)),
                "touching": ((0, 1), (1, 0))}.get(name, ())
        far, P, Q = far_pairs(ops.jet)
        own = tuple((k, k) for k in range(ops.m) if k not in store.banded)
        assert store.pairs == own + near
        assert [(t, k) for t, k in np.argwhere(~far).tolist() if t != k] == list(near)
        assert store.dense_n.dtype == store.dense_m.dtype == np.float64
        assert store.dense_n.shape == (len(own) + len(near), n, n)
        assert store.V.shape == (ops.m, P, n) and store.taylor.shape == (ops.m, n, Q)
        assert store.C.shape == (ops.m * Q, ops.m * P)
        for t, k in near:
            block = (slice(t * n, (t + 1) * n), slice(k * n, (k + 1) * n))
            assert np.array_equal(np.asarray(ops.N)[block], oracle_n[block])
            assert np.array_equal(np.asarray(ops.M)[block], oracle_m[block])
            assert not store.C[t * Q:(t + 1) * Q, k * P:(k + 1) * P].any()

    def test_pair_blocks_are_the_dense_blocks(self, case):
        # every curve pair, read on a partial row block of the target
        # curve: dense pair blocks bit for bit, banded same-curve blocks and
        # far pairs within the bounds of their band and translation
        _, ops, (oracle_n, oracle_m) = case
        n, (far, _, _) = ops.n, far_pairs(ops.jet)
        banded = {(k, k) for k in ops.N.store.banded}
        tol = factor_tolerance(ops.jet)
        work = discrete._block_buffer(n)
        for target in range(ops.m):
            rows = slice(target * n + n // 2 - 3, (target + 1) * n)
            for source in range(ops.m):
                cols = slice(source * n, (source + 1) * n)
                block = ops.kernel_block(rows, source, work)
                assert block.shape == (n // 2 + 3, n) and np.shares_memory(block, work)
                if (target, source) in banded:
                    bound = band_tolerance(ops.jet)
                elif far[target, source]:
                    bound = tol
                else:
                    assert np.array_equal(block.imag, oracle_n[rows, cols])
                    assert np.array_equal(block.real, oracle_m[rows, cols])
                    continue
                assert np.abs(block.imag - oracle_n[rows, cols]).max() <= bound
                assert np.abs(block.real - oracle_m[rows, cols]).max() <= bound


class TestTranslatedStorage:
    """The far engine stores O(m n Q + m^2 P Q) numbers, not N x sum P_k."""

    def test_lattice_storage(self):
        # lattice16 at n = 256: one-mode bands, the moments, Taylor powers
        # and translations, 9.4 MB in all, where the dense same-curve blocks
        # took 16.8 of 26.2 MB and the N x sum P_k factor U 35.7 of 54.7 MB
        ops = assemble_N(lattice16(), One(), ParamGrid(256))
        arrays = _stored_arrays(ops.N.store)
        assert ops.N.store.banded == tuple(range(16)) and ops.N.store.pairs == ()
        assert sum(a.nbytes for a in arrays) <= 12e6
        assert all(ops.size not in a.shape for a in arrays)

    def test_long_series_stay_finite(self):
        # two unit circles 0.075 apart at n = 1024: the pair is far with
        # P + Q above 1030, where binom(p + q, q) alone would overflow; the
        # running product keeps every translation finite and the block
        # within 1e-14 of the pair's largest entry
        n = 1024
        ops = assemble_N(Region.from_curves([circle(0.0, 1.0), circle(2.075, 1.0)]), One(),
                         ParamGrid(n))
        store, work = ops.N.store, discrete._block_buffer(n)
        assert store.pairs == () and store.banded == (0, 1)
        assert store.V.shape[1] + store.taylor.shape[2] > 1030 and np.isfinite(store.C).all()
        for rows, block, _ in discrete._kernel_blocks(ops.jet, 0, 1, work.copy()):
            expected = block * ops.weight
            got = ops.kernel_block(rows, 1, work)
            assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_one_curve(self, dtype):
        # m = 1: the same-curve block alone, and an empty far engine
        ops = assemble_N(Region.from_curves([ellipse(0.5j, 2.0, 1.0)]), ShiftedPower(0.5j, 1),
                         ParamGrid(64))
        rng = np.random.default_rng(4)
        x = rng.standard_normal((64, 3)).astype(dtype)
        if dtype is complex:
            x += 1j * rng.standard_normal(x.shape)
        store = ops.N.store
        assert store.pairs == ((0, 0),) and store.C.size == 0
        for operator, dense in zip((ops.N, ops.M), dense_weighted_kernels(ops.jet)):
            for got, expected in ((operator @ x, dense @ x), (x.T @ operator, x.T @ dense)):
                assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


class TestFourierBands:
    """Same-curve blocks as Fourier bands: sampled on the even divisors of
    n from 16 up to n / 2 that no earlier walk ruled out, dense where none
    resolves them."""

    @staticmethod
    def _walked_sizes(monkeypatch, region, coeff, n):
        sizes = []
        walk = discrete._kernel_blocks

        def recorded(jet, target, source, work):
            sizes.append((jet.n, target, source))
            return walk(jet, target, source, work)

        monkeypatch.setattr(discrete, "_kernel_blocks", recorded)
        return assemble_N(region, coeff, ParamGrid(n)), sizes

    def test_sub_grids_are_the_even_divisors(self, monkeypatch, mixed_gallery):
        # n = 100: sub-grids of 20 and 50 nodes.  The circle resolves on 20
        # nodes; the ellipses, not resolved on 50, are walked whole
        ops, sizes = self._walked_sizes(monkeypatch, mixed_gallery, One(), 100)
        assert sizes == [(20, 0, 0), (20, 1, 1), (20, 2, 2), (50, 0, 0), (50, 2, 2),
                         (100, 0, 0), (100, 2, 2)]
        assert ops.N.store.banded == (1,) and ops.N.store.pairs == ((0, 0), (2, 2))
        assert_stored_kernel(ops)

    def test_no_sub_grid_keeps_the_block_dense(self, monkeypatch):
        # n = 38 has no even divisor from 16 to 19: the circle stays dense
        ops, sizes = self._walked_sizes(monkeypatch, Region.from_curves([circle(0.0, 1.0)]),
                                        One(), 38)
        assert sizes == [(38, 0, 0)]
        assert ops.N.store.banded == () and ops.N.store.pairs == ((0, 0),)
        assert_stored_kernel(ops)

    def test_eccentric_ellipse_stays_dense(self, monkeypatch):
        # a/b = 100 beside a circle at n = 1024: no sub-grid resolves the
        # ellipse, which keeps its dense block bit for bit; the circle is
        # one band, within band_tolerance of the dense oracle.  The band a
        # walk finds on n' nodes rules out the sub-grids of at most 4 B:
        # 16 rules out 32, 64 rules out 128 and 256 rules out 512
        n = 1024
        ops, sizes = self._walked_sizes(monkeypatch, _ellipse_beside_circle(100.0), One(), n)
        assert sizes == [(16, 0, 0), (16, 1, 1), (64, 0, 0), (256, 0, 0), (n, 0, 0)]
        store, work = ops.N.store, discrete._block_buffer(n)
        assert store.banded == (1,) and store.pairs == ((0, 0),)
        for k in range(2):
            curve = BoundaryJet(*(a[k * n:(k + 1) * n] for a in (
                ops.jet.eta, ops.jet.eta_d, ops.jet.eta_dd, ops.jet.coeff, ops.jet.coeff_d)), 1, n)
            oracle_n, oracle_m = dense_weighted_kernels(curve)
            tol = band_tolerance(curve) if k in store.banded else 0.0
            for first in range(0, n, len(work)):
                rows = slice(k * n + first, k * n + first + len(work))
                block = ops.kernel_block(rows, k, work)
                local = slice(first, first + len(work))
                assert np.abs(block.imag - oracle_n[local]).max() <= tol
                assert np.abs(block.real - oracle_m[local]).max() <= tol


class TestNoDenseArray:
    """Solves and counts hold O(N) per column, never an N x N array."""

    def test_solve_and_count_stay_below_one_matrix(self):
        # lattice16 at n = 128: an N x N float array would take 32 MB
        ops = assemble_N(lattice16(), ShiftedPower(-6 - 6j, 1), ParamGrid(128))
        gamma = band_limited(np.random.default_rng(21), 16, 128, band=6)
        matrix = 8 * ops.size**2
        assert traced_peak(lambda: rhp.solve_rhp(ops, gamma)) < matrix / 16
        assert traced_peak(ops.nullity_I_plus_N) < matrix / 2
        assert traced_peak(ops.nullity_I_minus_N) < matrix / 2

    def test_count_writes_its_bases_in_place(self):
        # lattice16 at n = 256 (N = 4096): the I + N count's traced peak was
        # 20.79 MiB while each depth stacked Q and P into new arrays, and
        # 19.19 MiB with each block written into buffers that double when
        # full (192 columns of Q and of P); with the 16 per-curve constants
        # held out of its basis it takes 80 columns and 12.3 MiB
        ops = assemble_N(lattice16(), One(), ParamGrid(256))
        assert traced_peak(ops.nullity_I_plus_N) <= 14.0 * 2**20

    def test_deflated_count_scales_with_the_holes(self):
        # 64 unit circles on a 4-unit lattice at n = 64 (N = 4096): the plain
        # count takes a start block 72 columns wide to depth 9 and traces
        # 105.8 MiB; held out of the basis, the 64 per-curve constants leave
        # 8 columns a block, and the count traces 24.0 MiB
        axis = [4.0 * i - 14.0 for i in range(8)]
        ops = assemble_N(Region.from_curves([circle(complex(x, y), 1.0)
                                             for y in axis for x in axis]),
                         One(), ParamGrid(64))
        reports = []
        assert traced_peak(lambda: reports.append(ops.nullity_I_plus_N())) <= 40.0 * 2**20
        assert (reports[0].nullity, reports[0].deflated, reports[0].stop) == (64, 64, "settled")


class TestComplexProducts:
    """Complex samples go through real products: no complex copy of N or M."""

    @pytest.fixture(scope="class")
    def large_ops(self, three_circles):
        return assemble_N(three_circles, One(), ParamGrid(512))  # N = 1536

    @staticmethod
    def _samples(size):
        rng = np.random.default_rng(3)
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    def test_complex_products_allocate_order_N(self, large_ops):
        c = self._samples(large_ops.size)
        for apply in (lambda x: large_ops.N @ x, lambda x: large_ops.M @ x):
            apply(c)
            peak = traced_peak(lambda: apply(c))
            # a complex copy of the matrix would be 16 N^2 bytes (37.7 MB)
            assert peak <= 64 * 8 * large_ops.size, peak

    def test_complex_products_are_componentwise(self, large_ops):
        c = self._samples(large_ops.size)
        for apply in (lambda x: large_ops.N @ x, lambda x: large_ops.M @ x):
            expected = apply(c.real) + 1j * apply(c.imag)
            assert np.abs(apply(c) - expected).max() <= 1e-13 * np.abs(expected).max()


class TestJointPass:
    """ops.apply_MN: M x and N x from one pass over the stored kernel, bit
    for bit the one-part products, and M^T and N^T likewise, also over a
    store of dense blocks only (``planted``)."""

    @pytest.fixture(scope="class", params=["mixed", "unbanded", "close", "dense-N"])
    def ops(self, request, mixed_gallery):
        region, n = {
            "mixed": (mixed_gallery, 512),
            "unbanded": (_ellipse_beside_circle(10.0), 128),
            "close": (load_region(FILES["region_close.json"]), 128),
            "dense-N": (mixed_gallery, 64),
        }[request.param]
        ops = assemble_N(region, ShiftedPower(region.hole_points[-1], -1), ParamGrid(n))
        store = ops.N.store
        if request.param == "mixed":  # every curve banded, every pair far
            assert store.banded == (0, 1, 2) and store.pairs == () and store.C.size
        if request.param == "unbanded":  # the ellipse's block is dense
            assert store.banded == (1,) and store.pairs == ((0, 0),)
        if request.param == "close":  # the tall ellipse is near both circles
            assert {(0, 1), (0, 2)} <= set(store.pairs)
        if request.param == "dense-N":  # every pair a dense block
            return planted(ops)
        return ops

    @pytest.mark.parametrize("columns", [None, 1, 5], ids=["vector", "k1", "stacked"])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_the_one_part_products(self, ops, columns, dtype):
        rng = np.random.default_rng(4)
        shape = (ops.size,) if columns is None else (ops.size, columns)
        x = rng.standard_normal(shape).astype(dtype)
        if dtype is complex:
            x += 1j * rng.standard_normal(shape)
        m_x, n_x = ops.apply_MN(x)
        assert m_x.shape == n_x.shape == x.shape and m_x.dtype == n_x.dtype == x.dtype
        assert np.array_equal(m_x, ops.M @ x) and np.array_equal(n_x, ops.N @ x)

    @pytest.mark.parametrize("rows", [None, 1, 5], ids=["vector", "k1", "stacked"])
    def test_transposed_pass_matches_y_at_A(self, ops, rows):
        # the joint pass from the left, against y @ A for each stored part
        store = ops.M.store
        y = np.random.default_rng(6).standard_normal(
            (ops.size,) if rows is None else (rows, ops.size))
        n_y, m_y = store.product(y.T, (np.imag, np.real), True)
        assert np.array_equal(n_y.T, y @ discrete.KernelPart(store, np.imag))
        assert np.array_equal(m_y.T, y @ ops.M)

    def test_one_pass_each(self, ops, monkeypatch):
        passes = count_passes(monkeypatch)
        ops.apply_MN(np.ones(ops.size))
        assert passes == [2]

    def test_one_store_behind_N_and_M(self, ops):
        # N and M are the parts of the one kernel field, never replaced apart
        assert ops.N.store is ops.M.store is ops.kernel
        with pytest.raises(TypeError):
            dataclasses.replace(ops, N=np.zeros(ops.N.shape))

    def test_planted_store_reads_back_the_stored_kernel(self, ops):
        # planted(ops) holds the dense copies of the stored N and M as its
        # blocks: bit for bit through kernel_block, and its products match
        # the dense ones to rounding
        copy, n = planted(ops), ops.n
        dense_n, dense_m = np.asarray(ops.N), np.asarray(ops.M)
        out = np.empty((n, n), dtype=complex)
        for t, k in np.ndindex(ops.m, ops.m):
            rows, cols = slice(t * n, (t + 1) * n), slice(k * n, (k + 1) * n)
            block = copy.kernel_block(rows, k, out)
            assert np.array_equal(block.imag, dense_n[rows, cols])
            assert np.array_equal(block.real, dense_m[rows, cols])
        x = np.random.default_rng(9).standard_normal((ops.size, 3))
        for A, dense in ((copy.N, dense_n), (copy.M, dense_m)):
            for value, expected in ((A @ x, dense @ x), (x.T @ A, x.T @ dense)):
                assert np.abs(value - expected).max() <= 1e-13 * np.abs(expected).max()


class TestApplyM:
    def test_circle_cos_to_minus_sin(self, circle_ops):
        s = ParamGrid(64).nodes
        assert np.allclose(circle_ops.M @ np.cos(s), -np.sin(s), atol=1e-12)

    def test_indicator_in_null_space(self, gallery_ops, three_circles, grid128):
        basis = indicator_basis(three_circles, grid128)
        for j in range(3):
            assert np.abs(gallery_ops.M @ basis[j]).max() <= 1e-10

    def test_zero(self, gallery_ops):
        assert np.abs(gallery_ops.M @ np.zeros(gallery_ops.size)).max() == 0.0

    def test_constant_on_single_curve_region(self, circle_ops):
        assert np.abs(circle_ops.M @ np.ones(64)).max() <= 1e-10

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stacked_columns_match_column_by_column(self, gallery_ops, dtype):
        rng = np.random.default_rng(8)
        stacked = rng.normal(size=(gallery_ops.size, 5)).astype(dtype)
        if dtype is complex:
            stacked += 1j * rng.normal(size=stacked.shape)
        out = gallery_ops.M @ stacked
        assert out.shape == stacked.shape and out.dtype == stacked.dtype
        for j in range(stacked.shape[1]):
            expected = gallery_ops.M @ stacked[:, j]
            assert np.abs(out[:, j] - expected).max() <= 1e-14 * max(1.0, np.abs(expected).max())


class TestAssembleM:
    """The stored M against the split it replaced: the dense w M1 minus the
    spectral conjugation circulant."""

    def test_matrix_agrees_with_apply(self, gallery_ops):
        rng = np.random.default_rng(7)
        phi = band_limited(rng, 3, 128, band=10)
        matrix = assemble_M(gallery_ops)
        assert np.abs(matrix - np.asarray(gallery_ops.M)).max() <= 1e-13
        assert np.abs(matrix @ phi - gallery_ops.M @ phi).max() <= 1e-13

    def test_circle_matrix_on_cos(self, circle_ops):
        s = ParamGrid(64).nodes
        assert np.allclose(assemble_M(circle_ops) @ np.cos(s), -np.sin(s), atol=1e-12)


class TestOperatorIdentities:
    def test_gallery_residuals_small(self, three_circles):
        ops = assemble_N(three_circles, One(), ParamGrid(256))
        s = ParamGrid(256).nodes
        phi = np.concatenate([
            np.cos(3 * s) + 0.5 * np.sin(7 * s),
            np.sin(2 * s) - 0.2 * np.cos(9 * s),
            np.cos(5 * s),
        ])
        r1, r2 = operator_identity_residuals(ops, phi)
        assert r1 <= 1e-8
        assert r2 <= 1e-8

    def test_zero_input(self, gallery_ops):
        assert operator_identity_residuals(gallery_ops, np.zeros(gallery_ops.size)) == (0.0, 0.0)

    def test_two_passes(self, gallery_ops, monkeypatch):
        # M phi with N phi, then M and N of both side by side
        passes = count_passes(monkeypatch)
        operator_identity_residuals(gallery_ops, np.ones((gallery_ops.size, 5)))
        assert passes == [2, 2]

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stacked_probes_match_column_by_column(self, gallery_ops, dtype):
        # one call takes the five probes through N and M as one product
        # each.  A probe alone among zero columns, (N, 5), takes the same
        # products of the same widths, so its residuals are bit for bit
        # those of its column; a probe of shape (N,) takes the
        # matrix-vector ones, which agree only to roundoff.  (A probe given
        # twice, (N, 2), takes matrix-matrix kernels of another width,
        # which sum the same-curve blocks in another order: 1.8e-15 on
        # residuals of 9e-14, as dense N's kernels do on the products.)
        rng = np.random.default_rng(5)
        probes = np.column_stack([band_limited(rng, 3, 128, band=8) for _ in range(5)])
        if dtype is complex:
            probes = probes + 1j * probes[:, ::-1]
        stacked = operator_identity_residuals(gallery_ops, probes)
        alone = [probes * (np.arange(5) == j) for j in range(5)]
        for singles, tol in (([operator_identity_residuals(gallery_ops, x) for x in alone], 0.0),
                             ([operator_identity_residuals(gallery_ops, x) for x in probes.T],
                              1e-13)):
            for value, expected in zip(stacked, map(max, zip(*singles))):
                assert abs(value - expected) <= tol * max(1.0, expected)

    def test_circle_band_limited_exact(self, circle_ops):
        s = ParamGrid(64).nodes
        r1, r2 = operator_identity_residuals(circle_ops, np.cos(s))
        assert r1 <= 1e-10
        assert r2 <= 1e-10

    def test_residual_decays_with_refinement(self, three_circles):
        # spectral accuracy: each doubling gains at least 10x until roundoff
        def phi_for(n):
            s = ParamGrid(n).nodes
            return np.concatenate([
                np.cos(3 * s) + 0.5 * np.sin(7 * s),
                np.sin(2 * s) - 0.2 * np.cos(9 * s),
                np.cos(5 * s),
            ])

        residuals = []
        for n in (32, 64, 128, 256):
            ops = assemble_N(three_circles, One(), ParamGrid(n))
            r1, r2 = operator_identity_residuals(ops, phi_for(n))
            residuals.append(max(r1, r2))
        floor = 1e-12
        for prev, nxt in zip(residuals, residuals[1:]):
            assert nxt <= prev / 10.0 or nxt <= floor or prev <= floor, residuals


class TestIndexDecidedOnce:
    """Assembly computes the indices; solves and nullity counts read them."""

    def test_assembly_computes_the_index_once(self, three_circles, grid64, monkeypatch):
        coeff = ShiftedPower(CENTERS[2], 1)
        calls = count_calls(monkeypatch, coefficient, "index_of")
        ops = assemble_N(three_circles, coeff, grid64)
        assert len(calls) == 1
        assert ops.index == index_of(coeff, three_circles, grid64)

    def test_solves_and_counts_reuse_it(self, three_circles, grid64, monkeypatch):
        ops = assemble_N(three_circles, ShiftedPower(CENTERS[2], 1), grid64)
        calls = count_calls(monkeypatch, coefficient, "index_of")
        gamma = np.cos(np.tile(grid64.nodes, 3))
        for _ in range(3):
            assert rhp.solve_rhp(ops, gamma).diagnostics.minimal_norm
        assert ops.nullity_I_plus_N().nullity == 2
        assert ops.nullity_I_minus_N().nullity == 1
        assert calls == []


class TestNullity:
    def test_I_plus_N_nullity_is_m(self, three_circles, grid64):
        ops = assemble_N(three_circles, One(), grid64)
        assert ops.nullity_I_plus_N().nullity == 3

    def test_I_minus_N_nonsingular_for_one(self, three_circles, grid64):
        ops = assemble_N(three_circles, One(), grid64)
        assert ops.nullity_I_minus_N().nullity == 0

    def test_negative_index_creates_null_space(self, three_circles, grid64):
        ops = assemble_N(three_circles, ShiftedPower(CENTERS[2], 1), grid64)
        assert ops.nullity_I_minus_N().nullity == 1
        assert ops.nullity_I_plus_N().nullity == 2

    def test_matches_predictions_for_square_power(self, three_circles, grid64):
        coeff = ShiftedPower(CENTERS[2], 2)
        report = index_of(coeff, three_circles, grid64)
        ops = assemble_N(three_circles, coeff, grid64)
        assert ops.nullity_I_plus_N().nullity == report.dim_null_I_plus_N
        assert ops.nullity_I_minus_N().nullity == report.dim_null_I_minus_N

    def test_report_shape(self, grid64, three_circles):
        ops = assemble_N(three_circles, One(), grid64)
        report = dense_nullity(ops.identity_plus_N())
        assert len(report.smallest) == 5
        assert np.linalg.norm(ops.identity_plus_N(), 2) >= report.smallest[-1]
        # smallest-first ordering
        assert all(a <= b for a, b in zip(report.smallest, report.smallest[1:]))

    def test_least_singular_value_stable_under_doubling(self, three_circles):
        # the solvable-for-all-data property: I - N stays uniformly invertible
        least = []
        for n in (64, 128):
            ops = assemble_N(three_circles, One(), ParamGrid(n))
            least.append(dense_nullity(ops.identity_minus_N()).smallest[0])
        assert abs(least[1] - least[0]) <= 0.2 * least[0]


_GALLERY_COEFFS = [One(), ShiftedPower(CENTERS[2], 1), ShiftedPower(CENTERS[2], -1),
                   ShiftedPower(CENTERS[2], 2)]


class TestKrylovNullity:
    """The block Krylov count against the dense SVD oracle."""

    @staticmethod
    def _assert_matches_dense(ops):
        depths = []
        for report, matrix in ((ops.nullity_I_plus_N(), ops.identity_plus_N()),
                               (ops.nullity_I_minus_N(), ops.identity_minus_N())):
            dense = dense_nullity(matrix)
            k = dense.nullity
            assert report.conclusive, report.stop
            assert report.nullity == k
            assert len(report.ritz_counted) == k
            assert all(v <= NULLITY_TOL * report.ritz_largest for v in report.ritz_counted)
            # interlacing: Ritz values bound the singular values from above,
            # up to roundoff in the largest
            roundoff = 1e-13 * report.ritz_largest
            assert report.ritz_next >= dense.singular_values[k] - roundoff
            assert report.ritz_largest <= dense.singular_values[-1] + roundoff
            depths.append(report.depth)
        return depths

    @pytest.mark.parametrize("gallery", ["three_circles", "mixed_gallery"])
    @pytest.mark.parametrize("coeff", _GALLERY_COEFFS,
                             ids=["one", "power+1", "power-1", "power2"])
    def test_matches_dense_count(self, request, gallery, coeff, grid64):
        self._assert_matches_dense(
            assemble_N(request.getfixturevalue(gallery), coeff, grid64))

    @pytest.mark.parametrize("coeff", [One(), ShiftedPower(-6 - 6j, 1)],
                             ids=["one", "power+1"])
    def test_matches_dense_count_on_lattice(self, coeff):
        # 16 radius-1 circles on a 4-unit lattice.  With the power, the null
        # Ritz value of I - N is still 8e-6 at depth 8 and is counted only
        # at depth 10, so a count that stopped at a fixed shallow depth
        # would miss it; the settle rule waits for it.
        self._assert_matches_dense(assemble_N(lattice16(), coeff, ParamGrid(16)))

    @pytest.mark.parametrize("coeff", [One(), ShiftedPower(0j, 1)], ids=["one", "power+1"])
    def test_matches_dense_count_on_elongated_hole(self, coeff):
        # an ellipse with a/b = 300 beside a circle: the counts take 30 to
        # 36 blocks (up to 300 of the 512 columns) to settle, where the
        # galleries take 8 to 12, so a fixed cap of 32 blocks would fail them
        region = Region.from_curves([ellipse(0.0, 1.0, 1.0 / 300.0),
                                     circle(3.0, 1.0)])
        depths = self._assert_matches_dense(assemble_N(region, coeff, ParamGrid(256)))
        assert max(depths) > 32

    def test_whole_space_is_exact(self):
        # eight nodes, twelve start columns: one block spans everything
        ops = assemble_N(Region.from_curves([circle(0.0, 1.0)]), One(), ParamGrid(8))
        report = nullity(ops.N, +1, 12, np.empty((ops.size, 0)))
        dense = dense_nullity(ops.identity_plus_N())
        assert report.stop == "exact" and report.depth == 1
        assert report.nullity == dense.nullity == 1

    def test_non_finite_transpose_product_stops(self, gallery_ops):
        # N finite from the right but NaN from the left: the count keeps
        # the first depth's Ritz values and stops inconclusive, where the
        # SVD of the next block would meet the NaN
        class LeftNaN:
            __array_ufunc__ = None
            shape = gallery_ops.N.shape

            def __matmul__(self, x):
                return gallery_ops.N @ x

            def __rmatmul__(self, y):
                return np.full((len(y), self.shape[1]), np.nan)

        report = nullity(LeftNaN(), +1, 11, np.empty((gallery_ops.size, 0)))
        assert report.stop == "non-finite" and not report.conclusive and report.depth == 1
        assert np.isfinite(report.ritz_largest) and report.ritz_largest > 0


class TestDeflatedCount:
    """For A = 1 the I + N count holds the per-curve constants X out of its
    basis, and counts them only if the singular values of (I + N) X pass the
    count's own rule; otherwise it counts plain."""

    @pytest.mark.parametrize("gallery", ["three_circles", "mixed_gallery"])
    def test_one_deflates_the_constants(self, request, gallery, grid64):
        ops = assemble_N(request.getfixturevalue(gallery), One(), grid64)
        report = ops.nullity_I_plus_N()
        assert (report.nullity, report.deflated) == (3, 3)
        assert ops.nullity_I_minus_N().deflated == 0

    def test_other_coefficients_count_plain(self, three_circles, grid64):
        ops = assemble_N(three_circles, ShiftedPower(CENTERS[2], 1), grid64)
        assert ops.nullity_I_plus_N().deflated == 0

    def test_planted_failure_counts_plain(self, three_circles, grid64):
        # nodes 0 and n swapped, which moves the row sums over curves 0 and
        # 1: I + N' = P (I + N) P has the singular values of I + N, but its
        # null vectors are P chi_k, and |(I + N') X| = 0.25 (chi_0 - chi_1
        # moves), so the gate refuses X and the report is the plain count's
        ops = assemble_N(three_circles, One(), grid64)
        swap = np.arange(ops.size)
        swap[[0, ops.n]] = swap[[ops.n, 0]]
        swapped = planted(ops, N=np.asarray(ops.N)[np.ix_(swap, swap)])
        report = swapped.nullity_I_plus_N()
        assert report.deflated == 0
        assert report.nullity == dense_nullity(swapped.identity_plus_N()).nullity == 3
        assert report == nullity(swapped.N, +1, 3 + discrete.NULLITY_MARGIN,
                                 np.empty((ops.size, 0)))


def _elongated_region() -> Region:
    """An ellipse with a/b = 300 beside a circle, as in TestKrylovNullity."""
    return Region.from_curves([ellipse(0.0, 1.0, 1.0 / 300.0), circle(3.0, 1.0)])


# (nullity, depth, stop) of I + N and of I - N on every case of
# TestKrylovNullity, recorded from the count that took the SVD of the whole
# (I +- N) Q at every depth: the R factor must reproduce each of them.
_RECORDED_COUNTS = {
    "three_circles-one": ((3, 4, "settled"), (0, 5, "settled")),  # I + N deflated
    "three_circles-power+1": ((2, 5, "settled"), (1, 5, "settled")),
    "three_circles-power-1": ((5, 5, "settled"), (0, 5, "settled")),
    "three_circles-power2": ((2, 5, "settled"), (3, 5, "settled")),
    "mixed_gallery-one": ((3, 5, "settled"), (0, 5, "settled")),
    "mixed_gallery-power+1": ((2, 5, "settled"), (1, 6, "settled")),
    "mixed_gallery-power-1": ((5, 5, "settled"), (0, 5, "settled")),
    "mixed_gallery-power2": ((2, 6, "settled"), (3, 5, "settled")),
    "lattice-one": ((16, 8, "settled"), (0, 10, "settled")),
    "lattice-power+1": ((15, 8, "settled"), (1, 11, "settled")),
    "elongated-one": ((1, 30, "settled"), (0, 36, "exact")),
    "elongated-power+1": ((1, 33, "settled"), (0, 33, "settled")),
}


class TestKrylovNullityFromR:
    """The Ritz values read off the bordered R factor of (I +- N) Q = P R."""

    @staticmethod
    def _ops(request, case):
        gallery, name = case.split("-", 1)
        if gallery == "lattice":
            coeff = {"one": One(), "power+1": ShiftedPower(-6 - 6j, 1)}[name]
            return assemble_N(lattice16(), coeff, ParamGrid(16))
        if gallery == "elongated":
            coeff = {"one": One(), "power+1": ShiftedPower(0j, 1)}[name]
            return assemble_N(_elongated_region(), coeff, ParamGrid(256))
        coeff = dict(zip(["one", "power+1", "power-1", "power2"], _GALLERY_COEFFS))[name]
        return assemble_N(request.getfixturevalue(gallery), coeff, ParamGrid(64))

    @pytest.mark.parametrize("case", sorted(_RECORDED_COUNTS))
    def test_counts_match_the_recorded_svd_counts(self, request, case):
        ops = self._ops(request, case)
        counts = tuple((r.nullity, r.depth, r.stop)
                       for r in (ops.nullity_I_plus_N(), ops.nullity_I_minus_N()))
        assert counts == _RECORDED_COUNTS[case]

    @pytest.mark.parametrize("sign", [+1, -1], ids=["I+N", "I-N"])
    @pytest.mark.parametrize("case", ["lattice-one", "lattice-power+1",
                                      "elongated-one", "elongated-power+1"])
    def test_ritz_values_are_those_of_the_final_basis(self, request, monkeypatch,
                                                      case, sign):
        ops = self._ops(request, case)
        blocks, new_block = [], discrete._new_block

        def recorded(basis, w):
            blocks.append(new_block(basis, w))
            return blocks[-1]

        monkeypatch.setattr(discrete, "_new_block", recorded)
        predicted = ops.index.dim_null_I_plus_N if sign > 0 else ops.index.dim_null_I_minus_N
        report = nullity(ops.N, sign, predicted + discrete.NULLITY_MARGIN,
                         np.empty((ops.size, 0)))
        basis = np.hstack(blocks[:report.depth])
        ritz = np.linalg.svd(basis + sign * (ops.N @ basis), compute_uv=False)[::-1]
        k = report.nullity
        reported = [*report.ritz_counted, report.ritz_next, report.ritz_largest]
        expected = [*ritz[:k], ritz[k], ritz[-1]]
        assert np.abs(np.subtract(reported, expected)).max() <= 1e-13 * report.ritz_largest
