"""Nystrom discretization of the boundary integral operators.

The Fredholm operator with the generalized Neumann kernel becomes the
matrix of trapezoidal weights w N(s_i, t_j), and the singular companion
operator a matrix too, by the cotangent splitting: the smooth part goes
through the same trapezoidal rule, the periodic conjugation through
Wittich's alternate-point rule (Kress, Linear Integral Equations, 13.5),
weights (2/n) cot((s_i - s_j)/2) at odd offsets i - j, exact on the
resolved band.

Neither matrix is stored whole.  On one curve w N and w M1 sample
analytic periodic kernels, so each same-curve block is kept as the Fourier
band that a sub-grid of the curve's nodes resolves (Trefethen & Weideman,
SIAM Rev. 56, 2014), and M's alternate-point circulant as its symbol.
Dense blocks from the one walk of the kernel by (target curve, source
curve) blocks, :func:`_kernel_blocks`, in a buffer its caller owns, hold
the near pairs, whose holes' discs meet, and unresolved same-curve pairs.
Every other pair is far: a one-level fast multipole method with the holes
as boxes (Greengard & Rokhlin, J. Comput. Phys. 73, 1987) stores it as
T_l C_lk V_k, the Laurent moments V_k of source curve k, their translation
C_lk to Taylor coefficients about target curve l, and the Taylor powers
T_l at l's nodes, each series truncated below 1e-16.  ``ops.kernel`` is
that storage, which only this module reads, and ``ops.N`` and ``ops.M``
are its two real-linear parts: one product applies either or both, and
``ops.apply_MN`` both in one pass.

The nullities of I +- N, which the indices of the coefficient predict, are
measured matrix-free by a block Krylov count (:func:`nullity`); for A = 1
the per-curve constants, null vectors of I + N in theory, are checked and
held out of its basis.  Assembly computes those indices once and the
operators carry them.  ``ops.solve_I_minus_N`` solves I - N: by GMRES
(:func:`_gmres`) from 0, until repeated solves on one set of operators
have spent enough GMRES work to pay for a factor built from the same
storage (:class:`_Factor`, by Woodbury; where the indices predict a null
space, of I - N + U V^T, whose solutions are projected onto the range).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from gnk.coefficient import IndexReport, One, index_of
from gnk.errors import OddGridSize
from gnk.geometry import ParamGrid, Region
from gnk.kernels import LAURENT_TRUNCATION, BoundaryJet, _laurent_frame, _laurent_terms

# Kernel entries per block of one curve pair, at most n rows: 2**18 is a
# 4 MB complex block, a whole pair up to n = 512.
BLOCK_ENTRIES = 2**18
NULLITY_TOL = 1e-8
BAND_NODES = 16  # the smallest sub-grid a same-curve block is sampled on
# Block Krylov nullity count: the start block is NULLITY_MARGIN columns wider
# than the predicted nullity, less the null vectors known in closed form that
# the count holds out, and drawn from a fixed seed, so that verify's
# output is byte-deterministic.  The count stops once the first uncounted
# Ritz value moves by at most NULLITY_SETTLE relative between two depths.
# It fails unsettled once the basis would outgrow NULLITY_MAX_COLUMNS
# columns (or NULLITY_MIN_DEPTH blocks, if that is more); a count whose
# basis may span the whole space never fails that way.  Elongated holes
# need deep bases: beside a circle, an ellipse with a/b = 300 takes 540-670
# columns.  A new block direction whose norm after reorthogonalization
# falls below DEFLATION_TOL of the block's is dropped.
NULLITY_MARGIN = 8
NULLITY_SETTLE = 1e-8
NULLITY_MAX_COLUMNS = 1024
NULLITY_MIN_DEPTH = 32
DEFLATION_TOL = 1e-10
# GMRES starts at mu = 0 and stops when ||r|| falls to KRYLOV_TOL ||b||, or
# after KRYLOV_MAX_ITER products with N.  The count grows with the
# conditioning of I - N on its range, not with n: 9-16 products on
# well-separated holes, 71-112 at a/b = 300 (the README has the table).
KRYLOV_TOL = 1e-15
KRYLOV_MAX_ITER = 500
# The GMRES basis grows by this many vectors, so its memory follows the
# products taken, not the cap.
KRYLOV_BLOCK = 8
# Ski rental for the solve: the factor of I - N is built once
# the GMRES work spent on the operators reaches FACTOR_RENT times the
# factor's own, both in real multiply-adds counted from the stored shapes.
# The build's multiply-adds run in a few dense BLAS and LAPACK calls,
# faster than GMRES's small products and Arnoldi steps, so the rate is
# below 1.  scripts/solve_many.py measures where it places the build:
# after 6 GMRES solves on the mixed gallery (n = 512) and 22 on the
# 16-circle lattice (n = 256), between one and two times break-even on
# both.  0.375 falls between the work of two successive solves on each,
# so a few products more or fewer do not move the build.
FACTOR_RENT = 0.375
# A band system I - n J c or dense group block of B = I - D whose reciprocal
# condition 1 / (|A|_1 |A^-1|_1) is below FACTOR_RCOND is corrected by its
# null vectors, which must count the predicted nullity of I - N; a corrected
# block, S or l^T Z below it leaves no factor.  At n = 512 the mixed gallery
# reads 1.4e-17 on curve 2 with A = (eta - z0)^+1, and 0.33-0.50 on every
# block with (eta - z0)^-1, as do unit circles at +-3 with (eta - 3)^-1,
# (eta - 3)^-2 and (eta + 3)^-1.
FACTOR_RCOND = 1e-8


@dataclass(frozen=True)
class DiscreteOperators:
    """Nystrom operators for one (region, coefficient, grid) triple.

    ``jet`` is the sampled boundary, and it owns the grid: ``n``, ``size``
    and ``weight`` read it.  ``kernel`` stores the weighted complex kernel
    M + iN once, and ``N`` and ``M`` are its parts as :class:`KernelPart`
    operators: ``N`` the weighted generalized Neumann matrix w N(s_i, t_j),
    ``M`` the companion matrix, w M on cross-curve blocks, w M1 minus the
    alternate-point conjugation on same-curve ones.  ``index`` holds the
    indices of the coefficient, which predict the nullities of I +- N.
    Assembled operators are safe to share: their arrays never change, and
    applications are pure.  The one mutable part is the lazily built solve
    factor with the GMRES work it waits on (:meth:`solve_I_minus_N`): two
    threads may both build it, and either factor's results, like GMRES's,
    must meet the solve's gate.
    """

    region: Region
    coeff: object
    jet: BoundaryJet
    kernel: "_Kernel"
    index: IndexReport

    @property
    def m(self) -> int:
        return self.jet.m

    @property
    def n(self) -> int:
        return self.jet.n

    @property
    def size(self) -> int:
        return self.jet.size

    @property
    def weight(self) -> float:
        return self.jet.weight

    @property
    def N(self) -> "KernelPart":
        return KernelPart(self.kernel, np.imag)

    @property
    def M(self) -> "KernelPart":
        return KernelPart(self.kernel, np.real)

    def apply_MN(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(M x, N x) for x of shape (N,) or (N, k): one pass over the stored
        kernel, bit for bit the two products."""
        return tuple(self.kernel.product(np.asarray(x), (np.imag, np.real), False)[::-1])

    # No library code calls these two dense copies; the benchmark's span
    # table (benchmarks/spans.py EXTRA) names them, and its install fails without them.
    def identity_plus_N(self) -> np.ndarray:
        return np.eye(self.size) + np.asarray(self.N)

    def identity_minus_N(self) -> np.ndarray:
        return np.eye(self.size) - np.asarray(self.N)

    def solve_I_minus_N(self, rhs: np.ndarray, allowed: float):
        """(mu, (M mu, N mu), products): mu of (I - N) mu = rhs, real of
        shape (N,), its joint pass and GMRES's products with N, 0 where the
        stored factor solved it.

        Only a finite, nonzero rhs asks for the factor.  It is built at the
        first such solve where the GMRES work spent on these operators
        reaches FACTOR_RENT times its own cost, and a build that refuses
        (:class:`_Factor`) leaves none.  A factored mu is kept only if
        sup|mu - N mu - rhs| <= allowed; otherwise GMRES solves from 0 and
        adds its products, Arnoldi included, to that work.  Where the
        indices predict a null space of I - N, mu is the solution in its
        range either way.  The caller judges GMRES's mu by the same gate."""
        state, finite = self.kernel.factor_state, 0.0 < float(np.abs(rhs).max()) < math.inf
        if finite and "factor" not in state and (
                state["work"] >= FACTOR_RENT * _factor_madds(self.kernel)):
            try:
                state["factor"] = _Factor(self.kernel, self.index.dim_null_I_minus_N)
            except np.linalg.LinAlgError:
                state["factor"] = None
        if finite and state.get("factor"):
            mu = state["factor"].solve(rhs)
            passes = self.apply_MN(mu)
            if np.abs(mu - passes[1] - rhs).max() <= allowed:
                return mu, passes, 0
        mu, products = _gmres(self.N, rhs)
        state["work"] += products * (_product_madds(self.kernel) + 2 * (products + 1) * self.size)
        return mu, self.apply_MN(mu), products

    def nullity_I_minus_N(self) -> "NullityReport":
        return nullity(self.N, -1, self.index.dim_null_I_minus_N + NULLITY_MARGIN,
                       np.empty((self.size, 0)))

    def nullity_I_plus_N(self) -> "NullityReport":
        known = (indicator_basis(self.region, ParamGrid(self.n)).T / math.sqrt(self.n)
                 if isinstance(self.coeff, One) else np.empty((self.size, 0)))
        return nullity(self.N, +1, self.index.dim_null_I_plus_N + NULLITY_MARGIN, known)


@dataclass(frozen=True, eq=False)
class _Kernel:
    """The weighted complex kernel M + iN, stored without an N^2 array.

    Curve ``banded[i]``'s same-curve block is a Fourier band: band[i, 0]
    and band[i, 1] hold c_pq at (p + B, q + B), |p|, |q| <= B, of w N and
    w M1, entry (i, j) = sum c_pq e^(i p s_i) e^(i q s_j) (waves[p + B, j]
    = e^(i p s_j)); M there is w M1 minus the alternate-point circulant, of
    symbol -i sgn(p).  ``dense_n[i]`` and ``dense_m[i]`` are the real n x n
    blocks of w N and M of ``pairs[i]`` = (target, source): unbanded
    same-curve pairs, then near pairs.  Every other pair (l, k) is far:
    T_l C_lk V_k, with V[k] (P x n) the Laurent moments of source curve k,
    C_lk = C[l Q:(l + 1) Q, k P:(k + 1) P] (Q x P) their translation to
    Taylor coefficients about target curve l, zero on dense pairs, and
    T_l = taylor[l] (n x Q) the Taylor powers at l's nodes.  ``factor_state``
    holds the GMRES work spent on these operators ("work") and, once that
    pays for it, the :class:`_Factor` of I - N ("factor"; None if it
    refused): the one mutable part, filled by
    :meth:`DiscreteOperators.solve_I_minus_N`.
    """

    band: np.ndarray
    banded: tuple[int, ...]
    waves: np.ndarray
    dense_n: np.ndarray
    dense_m: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    V: np.ndarray
    C: np.ndarray
    taylor: np.ndarray
    factor_state: dict

    def product(self, x: np.ndarray, parts: tuple, transpose: bool) -> np.ndarray:
        """A x, or A^T x, stacked over the parts A in ``parts`` (np.imag for w N
        before np.real for M, as ``band`` holds them), for x of shape (N,) or
        (N, k), complex x by parts.  The rfft, band moments and far engine run
        once; per part run the band (transposed for A^T) in one batched
        product, M's circulant, one irfft over the parts and the dense pairs."""
        if np.iscomplexobj(x):
            return (self.product(x.real, parts, transpose)
                    + 1j * self.product(x.imag, parts, transpose))
        kinds, (m, n, _) = [int(part is np.real) for part in parts], self.taylor.shape
        cols = x.reshape(len(x), -1).reshape(m, n, -1)
        curves = slice(None) if len(self.banded) == m else list(self.banded)  # all: no copy
        band, B = self.band[:, kinds[0]:kinds[-1] + 1].swapaxes(0, 1), len(self.waves) // 2
        band, out = band.swapaxes(2, 3) if transpose else band, np.zeros((len(kinds),) + cols.shape)
        spectrum, moments = _band_moments(cols[curves], B)
        # minus M's circulant, plus it for M^T; irfft drops imaginary 0 and n / 2 terms
        image = np.multiply.outer([(0, -1j if transpose else 1j)[k] for k in kinds], spectrum)
        image[:, :, :B + 1] += n * (band[:, :, B:] @ moments)
        out[:, curves] = np.fft.irfft(image, n, axis=2)
        for kind, total in zip(kinds, out):
            for (t, k), block in zip(self.pairs, self.dense_m if kind else self.dense_n):
                if transpose:
                    t, k, block = k, t, block.T
                total[t] += block @ cols[k]
        if self.C.size:  # some pair is far
            first, C, last = (self.V, self.C, self.taylor)
            if transpose:
                first, C, last = last.transpose(0, 2, 1), C.T, first.transpose(0, 2, 1)
            moved = C @ np.matmul(first, cols).reshape(-1, cols.shape[2])
            far = np.matmul(last, moved.reshape(m, -1, cols.shape[2]))
            for part, total in zip(parts, out):
                total += part(far)
        return out.reshape((len(kinds),) + x.shape)

    def block(self, rows: slice, k: int, out: np.ndarray) -> np.ndarray:
        """The stored M + iN at the target ``rows``, inside one curve, and
        source curve k's columns (a band's rows, a dense pair block, or
        T_l C_lk V_k) in the first rows of ``out``, which are returned."""
        _, n, Q = self.taylor.shape
        t, out = rows.start // n, out[:rows.stop - rows.start]
        local = slice(rows.start - t * n, rows.stop - t * n)
        if t == k and t in self.banded:  # w M1 + i w N, then M's circulant
            band = self.band[self.banded.index(t)]
            np.matmul(self.waves[:, local].T @ (band[1] + 1j * band[0]), self.waves, out=out)
            alternate = np.where(np.arange(2 * n - 1) % 2, 0.0, 2 * _cot_table(n))  # odd offsets
            out.real += np.lib.stride_tricks.sliding_window_view(alternate, n)[local, ::-1]
        elif (t, k) in self.pairs:
            i = self.pairs.index((t, k))
            out.real, out.imag = self.dense_m[i, local], self.dense_n[i, local]
        else:
            P = self.V.shape[1]
            translated = self.C[t * Q:(t + 1) * Q, k * P:(k + 1) * P] @ self.V[k]
            np.matmul(self.taylor[t, local], translated, out=out)
        return out


class KernelPart:
    """One real part of the stored kernel as an N x N matrix: w N is the
    imaginary part, M the real part.

    It has ``shape``, the products ``A @ x`` and ``y @ A`` on real or
    complex samples of shape (N,) or (N, k) ((k, N) on the left), and the
    dense copy ``np.asarray(A)``, built from the stored blocks, that only
    tests and ``identity_plus_N`` / ``identity_minus_N`` take.
    ``__array_ufunc__ = None`` makes numpy defer to it, so ``y @ A`` calls
    ``__rmatmul__`` instead of copying A into an array.
    """

    __array_ufunc__ = None

    def __init__(self, store: _Kernel, part):
        self.store, self.part = store, part

    @property
    def shape(self) -> tuple[int, int]:
        m, n, _ = self.store.taylor.shape
        return (m * n, m * n)

    def __matmul__(self, x) -> np.ndarray:
        return self.store.product(np.asarray(x), (self.part,), False)[0]

    def __rmatmul__(self, y) -> np.ndarray:
        return self.store.product(np.asarray(y).T, (self.part,), True)[0].T

    def __array__(self, *args, **kwargs) -> np.ndarray:
        (size, _), n = self.shape, self.store.taylor.shape[1]
        dense, work = np.empty(self.shape), np.empty((n, n), dtype=complex)
        for t, k in np.ndindex(size // n, size // n):
            rows = slice(t * n, (t + 1) * n)
            dense[rows, k * n:(k + 1) * n] = self.part(self.store.block(rows, k, work))
        return np.asarray(dense, *args)


class _Factor:
    """(I - N)^-1 for the stored N = D + L G, by Woodbury.

    D holds the same-curve and near-pair blocks, L G the far pairs: G x is
    C V x in real form, Re and Im per target curve, and L is the block
    diagonal of [Im T_l, Re T_l].  B = I - D is inverted by groups of
    curves.  A banded curve in no near pair is inverted on its band modes
    only: with c its band of w N, N_kk = W^T c W and W W^T = n J (J the
    flip p -> -p), so B_k^-1 = I + W^T delta W / n, delta = n c (I - n J c)^-1,
    applied like the band of a product.  The curves that near pairs join,
    and an unbanded curve, take one dense inverse per group.  S = I - G B^-1 L,
    2 m Q square, is kept inverted, and a solve is u = B^-1 b, y = S^-1 G u,
    mu = B^-1 (b + L y).  G B^-1 L takes V_k B_k^-1 L_k = V_k L_k +
    (V_k W^T) delta (W L_k) / n on a banded curve, so no n-row B^-1 L is formed.

    Where I - N has a predicted null space of dimension d, each block of B
    below FACTOR_RCOND adds u v^T, its d_k real left and right null vectors
    (on a band, c - a b^T, a = J W u / n, b = J W v / n), so that the same
    steps factor F = I - N + U V^T (Hager, SIAM Rev. 31, 1989).  Z = F^-1 U
    spans null(I - N), l^T = V^T F^-1 its left null space, and a solve
    projects x = F^-1 b onto the range: mu = x - Z (l^T Z)^-1 V^T F^-1 x,
    GMRES's mu from 0 (Brown & Walker, SIAM J. Matrix Anal. Appl. 18, 1997).
    LinAlgError refuses unless the d_k sum to d, (I - N) Z is below
    DEFLATION_TOL of Z, and every kept inverse is well conditioned.
    """

    def __init__(self, store: _Kernel, nullity: int):
        self.store, (m, n, _), B = store, store.taylor.shape, len(store.waves) // 2
        self.singles, self.groups = _near_groups(store)
        c = n * store.band[[store.banded.index(k) for k in self.singles], 0]
        systems, corrections = np.eye(2 * B + 1) - c[:, ::-1], []
        inverse = _inverse(systems)
        for i in np.flatnonzero(~_well_conditioned(systems, inverse)):
            # u v^T of real band-limited u, v is the band update W^T a b^T W,
            # a = J W u / n and b = J W v / n
            u, v = (_real_basis(store.waves.T @ z[::-1]) for z in _null_space(systems[i]))
            c[i] -= (store.waves @ u)[::-1] @ (store.waves @ v)[::-1].T / n
            inverse[i] = _checked_inverse(np.eye(2 * B + 1) - c[i, ::-1])
            corrections.append(((self.singles[i],), u, v))
        delta = c @ inverse
        del c, systems, inverse
        self.inverses = []
        for g in self.groups:
            block = np.eye(len(g) * n) - _dense_group(store, g)
            inverse = _inverse(block)
            if not _well_conditioned(block, inverse):
                u, v = _null_space(block)
                inverse = _checked_inverse(block + u @ v.T)
                corrections.append((g, u, v))
            self.inverses.append(inverse)
            del block, inverse
        if sum(u.shape[1] for _, u, _ in corrections) != nullity:
            raise np.linalg.LinAlgError("the blocks of B miss the null space of I - N")
        schur = self._schur(delta)
        self.delta = delta[:, B:].copy()  # the rows p = 0..B, which the band pass reads
        del delta
        self.schur = _checked_inverse(schur)
        self.null = None  # (Z, (l^T Z)^-1, V) where I - N is singular
        if nullity:
            U, V, first = np.zeros((m * n, nullity)), np.zeros((m * n, nullity)), 0
            for curves, u, v in corrections:
                rows = np.concatenate([np.arange(k * n, (k + 1) * n) for k in curves])
                U[rows, first:first + u.shape[1]], V[rows, first:first + u.shape[1]] = u, v
                first += u.shape[1]
            Z = np.column_stack([self._solve_F(u) for u in U.T])  # spans null(I - N)
            residual = np.abs(Z - store.product(Z, (np.imag,), False)[0]).max()
            if not residual <= DEFLATION_TOL * np.abs(Z).max():
                raise np.linalg.LinAlgError("the grid does not resolve the null space of I - N")
            lz = V.T @ np.column_stack([self._solve_F(z) for z in Z.T])  # l^T Z = V^T F^-1 Z
            self.null = (Z, _checked_inverse(lz), V)

    def _schur(self, delta: np.ndarray) -> np.ndarray:
        """S = I - G B^-1 L, from each group's V B^-1 L and C."""
        store, P = self.store, self.store.V.shape[1]
        m, n, Q = store.taylor.shape
        schur = np.eye(2 * m * Q)
        if not store.C.size:  # no far pair: S is empty
            return schur
        rows = schur.reshape(m, 2, Q, 2 * m * Q)  # target curve, Re or Im, q

        def subtract(curves, Z):  # Z = V B^-1 L: |curves| P rows, 2 Q columns per curve
            image = store.C.reshape(m * Q, m, P)[:, curves].reshape(m * Q, -1) @ Z
            for i, k in enumerate(curves):
                part = image[:, 2 * Q * i:2 * Q * (i + 1)].reshape(m, Q, 2 * Q)
                rows[:, 0, :, 2 * Q * k:2 * Q * (k + 1)] -= part.real
                rows[:, 1, :, 2 * Q * k:2 * Q * (k + 1)] -= part.imag

        def taylor_parts(XT, XT_conj):  # X L_k = [X Im T_k, X Re T_k] from X T_k, X conj(T_k)
            return np.hstack(((XT - XT_conj) / 2j, (XT + XT_conj) / 2))

        for k, band in zip(self.singles, delta):
            T, V = store.taylor[k], store.V[k]
            WT = store.waves @ T  # W conj(T) = J conj(W T): W's rows run over -B..B
            WL = taylor_parts(WT, WT[::-1].conj())
            VL = taylor_parts(V @ T, (V.conj() @ T).conj())
            subtract([k], VL + (V @ store.waves.T) @ band @ WL / n)
        for g, inverse in zip(self.groups, self.inverses):
            Y = np.hstack([inverse[:, i * n:(i + 1) * n]
                           @ np.hstack((store.taylor[k].imag, store.taylor[k].real))
                           for i, k in enumerate(g)])
            subtract(list(g), np.vstack([store.V[k] @ Y[i * n:(i + 1) * n]
                                         for i, k in enumerate(g)]))
        return schur

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x of (I - N) x = b, for real b of shape (N,), in the range of I - N."""
        x = self._solve_F(b)
        if self.null is None:
            return x
        Z, project, V = self.null
        return x - Z @ (project @ (V.T @ self._solve_F(x)))

    def _solve_F(self, b: np.ndarray) -> np.ndarray:
        """F^-1 b, for real b of shape (N,)."""
        store = self.store
        m, n, Q = store.taylor.shape
        b = b.reshape(m, n)
        moved = (store.C @ np.matmul(store.V, self._inverse_B(b)[..., None]).ravel()).reshape(m, Q)
        y = (self.schur @ np.stack((moved.real, moved.imag), axis=1).ravel()).reshape(m, 2, Q)
        far = np.matmul(store.taylor, (y[:, 0] + 1j * y[:, 1])[..., None])[..., 0].imag
        return self._inverse_B(b + far).ravel()

    def _inverse_B(self, x: np.ndarray) -> np.ndarray:
        """B^-1 x for real x of shape (m, n)."""
        out, n, B = x.copy(), x.shape[1], len(self.store.waves) // 2
        if self.singles:
            _, moments = _band_moments(x[self.singles, :, None], B)
            out[self.singles] += np.fft.irfft(self.delta @ moments, n, axis=1)[..., 0]
        for g, inverse in zip(self.groups, self.inverses):
            out[list(g)] = (inverse @ x[list(g)].ravel()).reshape(len(g), n)
        return out


def _inverse(a: np.ndarray) -> np.ndarray:
    """The inverse of a, or of each matrix of a stack, NaN where one is
    exactly singular."""
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return np.array([_inverse(b) for b in a]) if a.ndim > 2 else np.full_like(a, np.nan)


def _well_conditioned(a: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """Whether the reciprocal 1-norm condition of a, or of each matrix of a
    stack, is at least FACTOR_RCOND, both norms at least 1 (B is the
    identity off each band system)."""
    return _norm1(a) * _norm1(inverse) * FACTOR_RCOND <= 1


def _norm1(x: np.ndarray) -> np.ndarray:
    """max(1, |x|_1) of x, or of each matrix of a stack, summed over blocks
    of BLOCK_ENTRIES: no |x| as large as x is formed."""
    sums = np.zeros(x.shape[:-2] + x.shape[-1:])
    rows = max(1, BLOCK_ENTRIES // max(1, x.shape[-1]))
    for first in range(0, x.shape[-2], rows):
        sums += np.abs(x[..., first:first + rows, :]).sum(axis=-2)
    return np.maximum(1.0, sums.max(axis=-1, initial=0.0))


def _checked_inverse(a: np.ndarray) -> np.ndarray:
    """The inverse of a, or of each matrix of a stack; LinAlgError if one
    is not :func:`_well_conditioned`."""
    inverse = _inverse(a)
    if not _well_conditioned(a, inverse).all():
        raise np.linalg.LinAlgError("numerically singular")
    return inverse


def _null_space(a: np.ndarray):
    """(x, y): orthonormal left and right null vectors of a, to FACTOR_RCOND:
    with s = max(1, |a|_1), y the columns of K = (a + s FACTOR_RCOND^2 I)^-1
    above 1 / (s FACTOR_RCOND) by :func:`_gram_schmidt`, x as many conjugated
    rows.  No SVD, whose LAPACK code alone would raise the peak memory."""
    scale = float(_norm1(a))
    inverse = np.linalg.inv(a + FACTOR_RCOND**2 * scale * np.eye(len(a)))
    right = _gram_schmidt(inverse, 1 / (FACTOR_RCOND * scale), len(a))
    return _gram_schmidt(inverse.conj().T, 0.0, right.shape[1]), right


def _gram_schmidt(X: np.ndarray, limit: float, most: int) -> np.ndarray:
    """Orthonormal columns from those of X: Gram-Schmidt on the column of
    largest norm, projected out of X twice, while that norm exceeds limit,
    at most ``most`` of them."""
    X, basis = X.copy(), []
    norms = np.linalg.norm(X, axis=0)
    while len(basis) < most and norms.max() > limit:
        basis.append(X[:, norms.argmax()] / norms.max())
        for _ in range(2):
            X -= np.outer(basis[-1], basis[-1].conj() @ X)
        norms = np.linalg.norm(X, axis=0)
    return np.array(basis).T.reshape(len(X), len(basis))


def _real_basis(z: np.ndarray) -> np.ndarray:
    """Orthonormal real columns spanning the k columns of z, whose span
    conjugation maps to itself: the real and imaginary parts span it."""
    return _gram_schmidt(np.hstack((z.real, z.imag)), 0.0, z.shape[1])


def _product_madds(store: _Kernel) -> float:
    """Real multiply-adds of one product with the stored N, from its shapes."""
    m, n, Q = store.taylor.shape
    P, r = store.V.shape[1], len(store.waves)
    bands = len(store.banded) * (4 * n * math.log2(n) + 2 * r * (r + 1))
    return bands + len(store.pairs) * n * n + 2 * m * n * P + 4 * m * Q * (m * P + n)


def _factor_madds(store: _Kernel) -> float:
    """Real multiply-adds of building the :class:`_Factor` of the stored N;
    numpy's inverse solves against the identity, 4/3 r^3 for order r."""
    m, n, Q = store.taylor.shape
    P, r = store.V.shape[1], len(store.waves)
    singles, groups = _near_groups(store)
    total = 4 / 3 * (2 * m * Q) ** 3 + len(singles) * (
        16 / 3 * r ** 3 + 4 * n * (r * Q + 2 * P * Q + P * r) + 4 * P * r * (r + 2 * Q)
        + 8 * m * Q * Q * P)
    for g in groups:
        size = len(g) * n
        total += 4 / 3 * size ** 3 + 2 * Q * size ** 2 + 8 * P * Q * len(g) * (size + m * Q * len(g))
    return total


def _near_groups(store: _Kernel):
    """(singles, groups): the banded curves in no near pair, and the other
    curves grouped so that near pairs join them."""
    group = list(range(store.taylor.shape[0]))
    for t, k in store.pairs:
        group = [group[t] if g == group[k] else g for g in group]
    groups = [tuple(k for k, g in enumerate(group) if g == label) for label in sorted(set(group))]
    singles = [g[0] for g in groups if len(g) == 1 and g[0] in store.banded]
    return singles, [g for g in groups if g[0] not in singles]


def _dense_group(store: _Kernel, curves: tuple[int, ...]) -> np.ndarray:
    """The stored same-curve and near-pair blocks of w N among ``curves``,
    zero on their far pairs."""
    n = store.taylor.shape[1]
    D, work = np.zeros((len(curves) * n,) * 2), np.empty((n, n), dtype=complex)
    for (i, t), (j, k) in itertools.product(enumerate(curves), repeat=2):
        if t == k or (t, k) in store.pairs:
            D[i * n:(i + 1) * n, j * n:(j + 1) * n] = store.block(slice(t * n, (t + 1) * n),
                                                                  k, work).imag
    return D


def _band_moments(cols: np.ndarray, B: int):
    """The rfft of real cols (k, n, r) along the nodes, and the moments
    sum_j x_j e^(i q s_j), q = -B..B: the spectrum at -q."""
    spectrum = np.fft.rfft(cols, axis=1)
    return spectrum, np.concatenate((spectrum[:, B::-1], spectrum[:, 1:B + 1].conj()), axis=1)


def _cot_table(n: int) -> np.ndarray:
    """(-1)^(i-j) cot((s_i - s_j)/2) / n at index i - j + n - 1, zero for i = j.

    w M plus this is w M1 (w M plus cot / n) minus the alternate-point rule
    (2 cot / n at odd offsets)."""
    if n % 2 != 0:
        raise OddGridSize(f"the alternate-point rule needs an even grid, got {n}")
    offset = np.arange(1 - n, n)
    half = offset * (math.pi / n)
    half[n - 1] = math.pi / 2  # placeholder, cot = 0 there anyway
    cot = np.cos(half) / np.sin(half) / n
    cot[n - 1] = 0.0
    cot[offset % 2 == 1] *= -1.0
    return cot


def _fill_kernel(block: np.ndarray, source: np.ndarray, coeff: np.ndarray) -> None:
    """Turn the differences eta(t) - eta(s) in ``block`` into the unweighted
    kernel A(s) (eta'(t) / A(t)) / (eta(t) - eta(s)) / pi, in place, with
    ``source`` = eta'(t) / A(t) at the columns and ``coeff`` = A(s) at the
    rows."""
    np.divide(source[None, :], block, out=block)
    np.multiply(coeff[:, None], block, out=block)
    # scale the float view: complex division by pi + 0j is slower
    # and gives the same values up to the sign of zero
    block.view(np.float64)[...] *= 1 / math.pi


def _block_buffer(n: int) -> np.ndarray:
    """Complex work buffer of one kernel block: n columns, BLOCK_ENTRIES."""
    return np.empty((max(1, min(n, BLOCK_ENTRIES // n)), n), dtype=complex)


def _kernel_blocks(jet: BoundaryJet, target: int, source: int, work: np.ndarray):
    """Row blocks of the complex kernel on target curve rows and source
    curve columns: M + iN off the diagonal, M1 + iN on it, entry (i, j) at
    target s_i and source t_j.

    Yields (rows, block, cot) per block of ``len(work)`` rows or fewer,
    ``rows`` the targets.  ``block`` is unweighted, built in place in the
    caller's buffer ``work`` (:func:`_block_buffer`), which the consumer
    may overwrite and the next block reuses; the diagonal, the grid's only
    same-curve coincidence, takes the closed-form smooth values.  ``cot``
    turns w M into the companion matrix on same-curve blocks, as reversed
    read-only windows of the signed cotangent table (row i holds entries
    i + n - 1 down to i), and is None on the others.  A is folded into the
    source column once: each block is A(s) (eta'(t) / A(t)) / (eta(t) - eta(s)).
    """
    n, height = jet.n, len(work)
    cols = slice(source * n, (source + 1) * n)
    column = jet.eta_d[cols] / jet.coeff[cols]
    if target == source:
        cot = np.lib.stride_tricks.sliding_window_view(_cot_table(n), n)[:, ::-1]
        diag = (jet.eta_dd[cols] / (2.0 * jet.eta_d[cols])
                - jet.coeff_d[cols] / jet.coeff[cols]) / math.pi
    for first in range(0, n, height):
        last = min(first + height, n)
        rows = slice(target * n + first, target * n + last)
        block = np.subtract(jet.eta[None, cols], jet.eta[rows, None], out=work[:last - first])
        if target == source:  # the diagonal, entries (i, first + i)
            np.fill_diagonal(block[:, first:], 1.0)
        _fill_kernel(block, column, jet.coeff[rows])
        if target == source:
            np.fill_diagonal(block[:, first:], diag[first:last])
        yield rows, block, cot[first:last] if target == source else None


def _bands(jet: BoundaryJet):
    """(banded, band, waves) of :class:`_Kernel`: the Fourier bands of the
    same-curve blocks that a sub-grid of n' nodes resolves, n' the even
    divisors of n from BAND_NODES up to n / 2.  The 2-D DFT of the samples
    of w N, and of w M plus the sub-grid's alternate-point table scaled by
    n' / n with that table's circulant, -i sgn(p) / n at (p, -p), added
    back (w M1), keeps |p|, |q| <= B, the largest max(|p|, |q|) of a
    coefficient above eps times the stored block's largest entry (next to
    the diagonal: the sub-grid's times n / n').  n' resolves the curve if
    4 B < n', so that what aliases onto the band lies below that too; a
    walk that finds B rules out, for that curve, the sub-grids of at most
    4 B nodes."""
    m, n, w, bands, ruled_out = jet.m, jet.n, jet.weight, {}, [0] * jet.m
    for size in range(BAND_NODES, n // 2 + 1, 2):
        curves = [k for k in range(m) if k not in bands and ruled_out[k] < size]
        if n % size or not curves:
            continue
        coarse = BoundaryJet(*(a.reshape(m, n)[:, ::n // size].ravel() for a in (
            jet.eta, jet.eta_d, jet.eta_dd, jet.coeff, jet.coeff_d)), m, size)
        freq, work = np.abs(np.fft.fftfreq(size, 1 / size)).astype(int), _block_buffer(size)
        shell, p = np.maximum.outer(freq, freq), np.arange(1 - size // 2, size // 2)
        corner = np.arange(-(size // 4), size // 4 + 1)  # holds every band with 4 B < size
        for k in curves:
            sample, largest = np.empty((2, size, size)), 0.0
            for rows, block, cot in _kernel_blocks(coarse, k, k, work):
                local = slice(rows.start - k * size, rows.stop - k * size)
                largest = max(largest, float(np.abs(block).max()))
                np.multiply(block.imag, w, out=sample[0, local])
                np.multiply(block.real, w, out=sample[1, local])
                sample[1, local] += cot * (size / n)
            rounding = np.finfo(float).eps * largest * 2 * math.pi / size
            corners, B = [], 0
            for part in range(2):  # one spectrum at a time: w N, then w M1
                spectrum = np.fft.fft2(sample[part])
                spectrum /= size**2
                if part:
                    spectrum[p, -p] -= 1j * np.sign(p) / n
                B = max(B, int(shell[np.abs(spectrum) > rounding].max(initial=0)))
                corners.append(spectrum[corner[:, None], corner])
                del spectrum
            if 4 * B < size:
                keep = np.arange(-B, B + 1) + size // 4
                bands[k] = np.array(corners)[:, keep[:, None], keep]
            ruled_out[k] = 4 * B
    banded, B = tuple(sorted(bands)), max((len(b[0]) // 2 for b in bands.values()), default=0)
    band = [np.pad(bands[k], [(0, 0)] + [(B - len(bands[k][0]) // 2,) * 2] * 2) for k in banded]
    waves = np.exp(np.outer(np.arange(-B, B + 1), np.arange(n) * (2j * math.pi / n)))
    return banded, np.array(band).reshape(-1, 2, 2 * B + 1, 2 * B + 1), waves


def _factor_kernel(jet: BoundaryJet) -> _Kernel:
    """The weighted complex kernel of a jet as a :class:`_Kernel`.

    Curve k has the Laurent frame a_k, r_k, and a pair of target curve l
    and source curve k sees alpha = r_k / |D| and beta = r_l / |D|, with
    D = a_l - a_k.  Its Laurent series needs P_lk = _laurent_terms(rho)
    terms, rho = min |eta_i - a_k| / r_k over l's nodes, and the Taylor
    translation of those terms Q_lk, with (beta / (1 - alpha))^Q_lk
    <= LAURENT_TRUNCATION (1 - alpha - beta), the bound of its tail.  A pair
    with alpha + beta >= 1, or whose terms reach n, is near, and its blocks
    come from :func:`_kernel_blocks`, in one buffer, bit for bit those of
    the whole matrix, like unbanded same-curve blocks.  The far pairs share P
    and Q, the largest of their terms:
    V_k[p, j] = w eta'_j / A_j ((eta_j - a_k) / r_k)^p,
    T_l[i, q] = -(A_i / pi) ((eta_i - a_l) / r_l)^q and
    C_lk[q, p] = (-1)^q binom(p + q, q) (r_k / D)^p (r_l / D)^q / D, taken
    as a running product over q of the binomial ratios (p + q) / q: each
    partial product is an entry, at most (alpha + beta)^(p + q) / |D|, so
    none overflows where binom(p + q, q) alone would, from p + q = 1030.
    """
    m, n, w = jet.m, jet.n, jet.weight
    eta = jet.eta.reshape(m, n)
    frames = [_laurent_frame(curve) for curve in eta]
    centres = np.array([frame[0] for frame in frames])
    radii = np.array([frame[1] for frame in frames])
    rho = np.array([np.abs(eta - centre).min(axis=1) / radius
                    for centre, radius, _ in frames]).T  # [target, source]
    distance, off = np.abs(centres[:, None] - centres), ~np.eye(m, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):  # the diagonal, and near pairs
        alpha, beta = radii / distance, radii[:, None] / distance
        laurent = _laurent_terms(rho)
        taylor = np.ceil(np.log(LAURENT_TRUNCATION * (1 - alpha - beta))
                         / np.log(beta / (1 - alpha)))
        far = off & (alpha + beta < 1) & (laurent < n) & (taylor < n)
    P, Q = (int(terms[far].max(initial=0)) for terms in (laurent, taylor))
    banded, band, waves = _bands(jet)
    pairs = (tuple((k, k) for k in range(m) if k not in banded)
             + tuple(map(tuple, np.argwhere(off & ~far).tolist())))
    dense_n = np.empty((len(pairs), n, n))
    dense_m = np.empty_like(dense_n)
    work = _block_buffer(n) if pairs else None
    for i, (t, k) in enumerate(pairs):
        for rows, block, cot in _kernel_blocks(jet, t, k, work):
            local = slice(rows.start - t * n, rows.stop - t * n)
            np.multiply(block.imag, w, out=dense_n[i, local])
            np.multiply(block.real, w, out=dense_m[i, local])
            if cot is not None:
                dense_m[i, local] += cot
    work = block = None  # not live while the far engine is built
    V = np.empty((m, P, n), dtype=complex)
    T = np.empty((m, n, Q), dtype=complex)
    source = (w * jet.eta_d / jet.coeff).reshape(m, n)
    coeff = (jet.coeff * (-1 / math.pi)).reshape(m, n)
    for k, (_, _, scaled) in enumerate(frames):
        np.multiply(np.vander(scaled, P, increasing=True).T, source[k], out=V[k])
        np.multiply(np.vander(scaled, Q, increasing=True), coeff[k, :, None], out=T[k])
    C = np.empty((m, Q, m, P), dtype=complex)
    if far.any():  # in place, zero on dense pairs: 1 / D is zero there
        inverse = np.divide(1, centres[:, None] - centres, out=np.zeros((m, m), complex), where=far)
        p, q = np.arange(P), np.arange(1, Q)[:, None]
        np.multiply((radii * inverse)[..., None] ** p, inverse[..., None], out=C[:, 0])
        np.multiply((-radii[:, None] * inverse)[:, None, :, None], ((p + q) / q)[:, None],
                    out=C[:, 1:])
        np.cumprod(C, axis=1, out=C)
    return _Kernel(band, banded, waves, dense_n, dense_m, pairs, V, C.reshape(m * Q, m * P), T,
                   {"work": 0.0})


def assemble_N(region: Region, coeff, grid: ParamGrid) -> DiscreteOperators:
    """Assemble the weighted Neumann operator (and the companion one),
    with the indices of the coefficient: the one index computation for
    these operators."""
    jet = BoundaryJet.from_region(region, coeff, grid)
    index = index_of(coeff, region, grid)
    return DiscreteOperators(region=region, coeff=coeff, jet=jet, kernel=_factor_kernel(jet),
                             index=index)


def indicator_basis(region: Region, grid: ParamGrid) -> np.ndarray:
    """Rows chi_j: one on curve j, zero elsewhere; shape (m, m*n).  With
    A = 1 they are the boundary values of the functions equal to one in
    hole j and zero outside it, which span the corrections h and the null
    space of I + N."""
    return np.repeat(np.eye(region.m), grid.n, axis=1)


def operator_identity_residuals(ops: DiscreteOperators, phi: np.ndarray):
    """Sup-norm residuals of N^2 - M^2 = I and NM + MN = 0 on phi, samples
    of shape (N,) or (N, k): the k columns go through M and N in one pass,
    and N phi and M phi side by side in one more."""
    phi = np.asarray(phi).reshape(ops.size, -1)
    m_phi, n_phi = ops.apply_MN(phi)
    (m_n, m_m), (n_n, n_m) = (np.hsplit(a, 2) for a in ops.apply_MN(np.hstack((n_phi, m_phi))))
    return float(np.abs(n_n - m_m - phi).max()), float(np.abs(n_m + m_n).max())


@dataclass(frozen=True)
class NullityReport:
    """Block Krylov count of the near-null singular values of I + sign N.

    ``nullity`` counts the Ritz values below NULLITY_TOL times the largest
    one, ``ritz_counted``.  They are Ritz values, not singular values: by
    interlacing, k of them below the tolerance prove nullity >= k, and
    ``ritz_next``, the smallest uncounted one (None if there is none),
    bounds the next singular value from above.  ``stop`` says why the count
    ended: "settled" (``ritz_next`` settled), "exact" (the Krylov space
    became invariant, for example by spanning the whole space),
    "saturated" (as many values counted as the block is wide, so the count
    is only a lower bound), "basis cap" (unsettled when the basis reached
    its column cap) or "non-finite" (a product with N held a NaN or an
    infinity; the figures are those of the last finite depth, NaN largest
    if there was none).  Only the first two are conclusive.  ``deflated``
    is the number of known null vectors the count held out of its basis
    and passed, 0 on a plain count (:func:`nullity`).
    """

    nullity: int
    ritz_counted: tuple[float, ...]
    ritz_next: float | None
    ritz_largest: float
    depth: int
    stop: str
    deflated: int

    @property
    def conclusive(self) -> bool:
        return self.stop in ("settled", "exact")


def _project_out(blocks: list, w: np.ndarray):
    """(v, c) with w = [blocks] @ c + v: w projected out of each orthonormal
    block in turn, in two passes; c stacks each block's two coefficients."""
    coords = []
    for block in blocks + blocks:
        coords.append(block.T @ w)
        w = w - block @ coords[-1]
    return w, np.concatenate([w[:0], *map(np.add, coords[:len(blocks)], coords[len(blocks):])])


def _gmres(N, b: np.ndarray):
    """x of (I - N) x = b, and the products with N, of which it takes only
    ``N @ x``: the operator ``ops.N``, or any matrix.

    Arnoldi on I - N from x = 0 (Saad & Schultz 1986) projects each new
    Krylov vector out of the basis twice (:func:`_project_out`); Givens
    rotations keep the Hessenberg matrix triangular, so |g[-1]| is the
    residual norm of the current iterate without a solve.  It stops once
    that falls to KRYLOV_TOL ||b||, at a breakdown (the new vector
    vanishes, so the Krylov space holds x), or after KRYLOV_MAX_ITER
    products.  From x = 0 every iterate lies in the Krylov space of b, so
    for a singular I - N and b in its range, x is the solution in that
    range (Brown & Walker 1997).  A zero or non-finite b returns x = 0
    after 0 products, for the residual gate to decide.
    """
    beta = float(np.linalg.norm(b))
    if not 0.0 < beta < math.inf:
        return np.zeros_like(b), 0
    basis = np.empty((KRYLOV_BLOCK, b.size))
    basis[0] = b / beta
    columns, rotations, g = [], [], [beta]
    for k in range(KRYLOV_MAX_ITER):
        w = basis[k] - N @ basis[k]
        scale = np.linalg.norm(w)
        w, h = _project_out([basis[:k + 1].T], w)
        h = np.append(h, last := np.linalg.norm(w))
        for i, (c, s) in enumerate(rotations):
            h[i], h[i + 1] = c * h[i] + s * h[i + 1], c * h[i + 1] - s * h[i]
        rho = math.hypot(h[k], h[k + 1])
        c, s = h[k] / rho, h[k + 1] / rho
        rotations.append((c, s))
        h[k] = rho
        columns.append(h[:k + 1])
        g[k:] = [c * g[k], -s * g[k]]
        if abs(g[-1]) <= KRYLOV_TOL * beta or not last > KRYLOV_TOL * scale:
            break
        if k + 1 == len(basis):
            basis = np.concatenate((basis, np.empty((KRYLOV_BLOCK, b.size))))
        basis[k + 1] = w / last
    y = np.array(g[:-1])
    for j in reversed(range(y.size)):  # back substitution, column by column
        y[j] /= columns[j][j]
        y[:j] -= y[j] * columns[j][:j]
    return y @ basis[:y.size], y.size


def _new_block(basis: list, w: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning w with the basis blocks projected out, twice;
    directions below DEFLATION_TOL of the norm of w are dropped."""
    u, s, _ = np.linalg.svd(_project_out(basis, w)[0], full_matrices=False)
    return u[:, s > DEFLATION_TOL * np.linalg.norm(w)]


def _border(image_blocks: list, r_factor: np.ndarray, image: np.ndarray) -> np.ndarray:
    """R' with [P R, image] = P' R', for the orthonormal blocks P of
    ``image_blocks`` (R is k x k): the image is projected out of P twice,
    and the rest, factored by QR, borders R and joins the blocks as P'."""
    w, coords = _project_out(image_blocks, image)
    q, r_new = np.linalg.qr(w)
    image_blocks.append(q)
    r_factor = np.pad(r_factor, (0, len(r_new)))
    r_factor[:, -len(r_new):] = np.vstack((coords, r_new))
    return r_factor


def nullity(N, sign: int, width: int, known: np.ndarray) -> NullityReport:
    """Count the singular values of A = I + sign N below NULLITY_TOL times
    the largest, by block Krylov on A^T A from a seeded start of this width,
    less the k orthonormal columns X of ``known`` (N x k, k = 0 for none).

    Each depth adds one block to an orthonormal basis Q of the Krylov space,
    with one product by N and one by N^T and full reorthogonalization.  The
    Ritz values that are counted are the singular values of A Q, read off
    the factor R of A Q = P R: each new image block is projected out of the
    orthonormal P twice and factored by QR, which borders R, so no SVD of
    an N-row array is taken.  Q and P take 8 N bytes per column each, held
    as lists of the blocks that the SVD and QR return, so nothing is
    allocated ahead or copied, and each block is projected out of them
    block by block.  The width must exceed the nullity, since a block finds
    at most as many directions of one repeated singular value as it has
    columns.  X is the first block of Q's list, so every block is projected
    out of X too, and the k singular values of A X join the Ritz values:
    by Weyl's bound they are those of A on [X Q] up to |A X|.  So X is
    checked, not assumed: unless every one of the k is counted, the count
    runs again plain, with no X (``deflated`` 0).
    """
    size, k = N.shape[0], known.shape[1]
    image = known + sign * (N @ known) if k else known  # A X
    held = (np.linalg.svd(image, compute_uv=False) if np.isfinite(image).all()
            else np.full(k, np.nan))  # its singular values, NaN if it is not finite
    cap = min(size, k + max(NULLITY_MAX_COLUMNS, NULLITY_MIN_DEPTH * (width - k)))
    start = np.random.default_rng(0).standard_normal((size, min(width, size) - k))
    basis, image_blocks, r_factor = [known] if k else [], [], np.empty((0, 0))
    block = _new_block(basis, start)
    depth, previous = 0, (None, None)
    ritz, count, following, largest = (), 0, None, math.nan
    while True:
        depth += 1
        image = block + sign * (N @ block)
        if not np.isfinite(image).all():
            stop = "non-finite"
        else:
            basis.append(block)
            r_factor = _border(image_blocks, r_factor, image)
            ritz = np.sort(np.concatenate((held, np.linalg.svd(r_factor, compute_uv=False))))
            largest = float(ritz[-1])
            count = int(np.count_nonzero(ritz < NULLITY_TOL * largest))
            following = float(ritz[count]) if count < ritz.size else None
            if count >= width:
                stop = "saturated"
            elif (previous[0] == count and None not in (following, previous[1])
                  and abs(following - previous[1]) <= NULLITY_SETTLE * following):
                stop = "settled"
            else:
                # N^T image as (image^T N)^T: the operator's transpose product,
                # and for a dense N the row-major form that BLAS runs faster
                normal = image + sign * (image.T @ N).T
                used = k + len(r_factor)  # the columns of X and Q
                block = _new_block(basis, normal) if np.isfinite(normal).all() else None
                stop = ("non-finite" if block is None
                        else "exact" if block.shape[1] == 0
                        else "basis cap" if used + block.shape[1] > cap
                        else None)
        if stop is not None:
            if not (held < NULLITY_TOL * largest).all():  # X fails the gate
                return nullity(N, sign, width, known[:, :0])
            return NullityReport(
                nullity=count,
                ritz_counted=tuple(float(v) for v in ritz[:count]),
                ritz_next=following,
                ritz_largest=largest,
                depth=depth,
                stop=stop,
                deflated=k,
            )
        previous = (count, following)
