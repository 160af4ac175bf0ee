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
T_l at l's nodes, each series truncated below 1e-16.  ``ops.N`` and
``ops.M`` are real-linear operators over that storage, which only this
module reads; ``ops.kernel_block`` reads it back by the same blocks.

The nullities of I +- N, which the indices of the coefficient predict, are
measured matrix-free by a block Krylov count (:func:`nullity`).  Assembly
computes those indices once and the operators carry them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gnk.coefficient import IndexReport, index_of
from gnk.errors import OddGridSize
from gnk.geometry import ParamGrid, Region
from gnk.kernels import LAURENT_TRUNCATION, BoundaryJet, _laurent_frame, _laurent_terms

# Kernel entries per block of one curve pair, at most n rows: 2**18 is a
# 4 MB complex block, a whole pair up to n = 512.
BLOCK_ENTRIES = 2**18
NULLITY_TOL = 1e-8
BAND_NODES = 16  # the smallest sub-grid a same-curve block is sampled on
# Block Krylov nullity count: the start block is NULLITY_MARGIN columns wider
# than the predicted nullity and drawn from a fixed seed, so that verify's
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


@dataclass(frozen=True)
class DiscreteOperators:
    """Nystrom operators for one (region, coefficient, grid) triple.

    ``jet`` is the sampled boundary, and it owns the grid: ``n``, ``size``
    and ``weight`` read it.  ``N`` is the weighted generalized Neumann
    matrix w N(s_i, t_j); ``M`` the companion matrix: w M on cross-curve
    blocks, w M1 minus the alternate-point conjugation on same-curve ones.
    Both are :class:`KernelPart` operators over one factored storage; the
    solve and the count need of ``N`` only ``shape`` and ``@``, which a
    dense array has too.  ``index`` holds the indices of the coefficient,
    which predict the nullities of I +- N.  Assembled operators are
    immutable and safe to share; applications and solves are pure.
    """

    region: Region
    coeff: object
    jet: BoundaryJet
    N: "KernelPart"
    M: "KernelPart"
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

    def kernel_block(self, rows: slice, k: int, out: np.ndarray) -> np.ndarray:
        """M + iN (w N the imaginary part) at the target ``rows``, inside one
        curve, and source curve k's columns, in the first rows of ``out``:
        from the factored storage, or dense copies of a replaced N or M."""
        store = getattr(self.N, "store", None)
        if store is not None and getattr(self.M, "store", None) is store:
            return store.block(rows, k, out)
        cols, out = slice(k * self.n, (k + 1) * self.n), out[:rows.stop - rows.start]
        out.real, out.imag = np.asarray(self.M)[rows, cols], np.asarray(self.N)[rows, cols]
        return out

    def identity_plus_N(self) -> np.ndarray:
        return np.eye(self.size) + np.asarray(self.N)

    def identity_minus_N(self) -> np.ndarray:
        return np.eye(self.size) - np.asarray(self.N)

    def nullity_I_minus_N(self) -> "NullityReport":
        return nullity(self.N, -1, self.index.dim_null_I_minus_N + NULLITY_MARGIN)

    def nullity_I_plus_N(self) -> "NullityReport":
        return nullity(self.N, +1, self.index.dim_null_I_plus_N + NULLITY_MARGIN)


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
    T_l = taylor[l] (n x Q) the Taylor powers at l's nodes.
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

    def product(self, x: np.ndarray, part, transpose: bool) -> np.ndarray:
        """A x, or A^T x, for real x of shape (N, k), A the part (np.imag
        for w N, np.real for M): the bands (transposed for A^T) in one
        batched product between one rfft and one irfft; each dense pair on
        its own; the far pairs by moments, one translation and Taylor sums
        (in reverse)."""
        dense = self.dense_n if part is np.imag else self.dense_m
        m, n, _ = self.taylor.shape
        cols, curves = x.reshape(m, n, x.shape[1]), list(self.banded)
        band, out = self.band[:, int(part is np.real)], np.zeros(cols.shape)
        band, B = band.transpose(0, 2, 1) if transpose else band, len(self.waves) // 2
        # sum_j x_j e^(i q s_j), q = -B..B, is the spectrum at -q
        spectrum = np.fft.rfft(cols[curves], axis=1)
        moments = np.concatenate((spectrum[:, B::-1], spectrum[:, 1:B + 1].conj()), axis=1)
        # minus M's circulant, plus it for M^T; irfft drops imaginary 0 and n / 2 terms
        image = spectrum * ((-1j if transpose else 1j) if part is np.real else 0)
        image[:, :B + 1] += n * (band[:, B:] @ moments)
        out[curves] = np.fft.irfft(image, n, axis=1)
        for (t, k), block in zip(self.pairs, dense):
            if transpose:
                t, k, block = k, t, block.T
            out[t] += block @ cols[k]
        if self.C.size:  # some pair is far
            first, C, last = (self.V, self.C, self.taylor)
            if transpose:
                first, C, last = last.transpose(0, 2, 1), C.T, first.transpose(0, 2, 1)
            moved = C @ np.matmul(first, cols).reshape(-1, x.shape[1])
            out += part(np.matmul(last, moved.reshape(m, -1, x.shape[1])))
        return out.reshape(x.shape)

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
    tests take.  ``__array_ufunc__ = None`` makes numpy defer to it, so
    ``y @ A`` calls ``__rmatmul__`` instead of copying A into an array.
    """

    __array_ufunc__ = None

    def __init__(self, store: _Kernel, part):
        self.store, self.part = store, part

    @property
    def shape(self) -> tuple[int, int]:
        m, n, _ = self.store.taylor.shape
        return (m * n, m * n)

    def __matmul__(self, x) -> np.ndarray:
        return self._product(np.asarray(x), False)

    def __rmatmul__(self, y) -> np.ndarray:
        return self._product(np.asarray(y).T, True).T

    def __array__(self, *args, **kwargs) -> np.ndarray:
        (size, _), n = self.shape, self.store.taylor.shape[1]
        dense, work = np.empty(self.shape), np.empty((n, n), dtype=complex)
        for t, k in np.ndindex(size // n, size // n):
            rows = slice(t * n, (t + 1) * n)
            dense[rows, k * n:(k + 1) * n] = self.part(self.store.block(rows, k, work))
        return np.asarray(dense, *args)

    def _product(self, x: np.ndarray, transpose: bool) -> np.ndarray:
        """A x, or A^T x, for x of shape (N,) or (N, k)."""
        if np.iscomplexobj(x):
            return self._product(x.real, transpose) + 1j * self._product(x.imag, transpose)
        product = self.store.product(x.reshape(len(x), -1), self.part, transpose)
        return product.reshape(x.shape)


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
        for k in curves:
            sample, largest = np.empty((2, size, size)), 0.0
            for rows, block, cot in _kernel_blocks(coarse, k, k, work):
                local = slice(rows.start - k * size, rows.stop - k * size)
                largest = max(largest, float(np.abs(block).max()))
                np.multiply(block.imag, w, out=sample[0, local])
                np.multiply(block.real, w, out=sample[1, local])
                sample[1, local] += cot * (size / n)
            spectra = np.fft.fft2(sample) / size**2
            spectra[1, p, -p] -= 1j * np.sign(p) / n
            rounding = np.finfo(float).eps * largest * 2 * math.pi / size
            B = int(shell[(np.abs(spectra) > rounding).any(axis=0)].max(initial=0))
            if 4 * B < size:
                keep = np.arange(-B, B + 1) % size
                bands[k] = spectra[:, keep[:, None], keep]
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
    return _Kernel(band, banded, waves, dense_n, dense_m, pairs, V, C.reshape(m * Q, m * P), T)


def assemble_N(region: Region, coeff, grid: ParamGrid) -> DiscreteOperators:
    """Assemble the weighted Neumann operator (and the companion one),
    with the indices of the coefficient: the one index computation for
    these operators."""
    jet = BoundaryJet.from_region(region, coeff, grid)
    index = index_of(coeff, region, grid)
    store = _factor_kernel(jet)
    return DiscreteOperators(
        region=region,
        coeff=coeff,
        jet=jet,
        N=KernelPart(store, np.imag),
        M=KernelPart(store, np.real),
        index=index,
    )


def apply_M(ops: DiscreteOperators, phi: np.ndarray) -> np.ndarray:
    """Apply the discrete companion operator to samples of shape (N,) or (N, k)."""
    return ops.M @ phi


def operator_identity_residuals(ops: DiscreteOperators, phi: np.ndarray):
    """Sup-norm residuals of N^2 - M^2 = I and NM + MN = 0 on phi, samples
    of shape (N,) or (N, k): the k columns go through N and M as one
    product each, and N phi and M phi side by side as one more."""
    phi = np.asarray(phi).reshape(ops.size, -1)
    k = phi.shape[1]
    images = np.hstack((ops.N @ phi, apply_M(ops, phi)))
    n_images, m_images = ops.N @ images, apply_M(ops, images)
    r1 = n_images[:, :k] - m_images[:, k:] - phi
    r2 = n_images[:, k:] + m_images[:, :k]
    return float(np.abs(r1).max()), float(np.abs(r2).max())


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
    if there was none).  Only the first two are conclusive.
    """

    nullity: int
    ritz_counted: tuple[float, ...]
    ritz_next: float | None
    ritz_largest: float
    depth: int
    stop: str

    @property
    def conclusive(self) -> bool:
        return self.stop in ("settled", "exact")


def _project_out(basis: np.ndarray, w: np.ndarray):
    """(v, c) with w = basis @ c + v: the orthonormal basis projected out twice."""
    first = basis.T @ w
    w = w - basis @ first
    second = basis.T @ w
    return w - basis @ second, first + second


def _new_block(basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning w with the basis projected out, twice;
    directions below DEFLATION_TOL of the norm of w are dropped."""
    u, s, _ = np.linalg.svd(_project_out(basis, w)[0], full_matrices=False)
    return u[:, s > DEFLATION_TOL * np.linalg.norm(w)]


def _border(image_basis: np.ndarray, r_factor: np.ndarray, image: np.ndarray):
    """(P', R') with [P R, image] = P' R', for orthonormal P: the image is
    projected out of P twice, and the rest factored by QR borders R."""
    w, coords = _project_out(image_basis, image)
    q, r_new = np.linalg.qr(w)
    del w  # one block less live while P grows
    r_factor = np.pad(r_factor, (0, len(r_new)))
    r_factor[:, -len(r_new):] = np.vstack((coords, r_new))
    return np.hstack((image_basis, q)), r_factor


def nullity(N, sign: int, width: int) -> NullityReport:
    """Count the singular values of A = I + sign N below NULLITY_TOL times
    the largest, by block Krylov on A^T A from a seeded start of this width.

    Each depth adds one block to an orthonormal basis Q of the Krylov space,
    with one product by N and one by N^T and full reorthogonalization.  The
    Ritz values that are counted are the singular values of A Q, read off
    the k x k factor R of A Q = P R: each new image block is projected out
    of the orthonormal P twice and factored by QR, which borders R, so no
    SVD of an N-row array is taken.  Q and P take 8 N bytes per column
    each.  The block width must exceed the nullity, since a block finds at
    most as many directions of one repeated singular value as it has
    columns.
    """
    size = N.shape[0]
    cap = min(size, max(NULLITY_MAX_COLUMNS, NULLITY_MIN_DEPTH * width))
    start = np.random.default_rng(0).standard_normal((size, min(width, size)))
    basis = image_basis = np.empty((size, 0))
    r_factor = np.empty((0, 0))
    block = _new_block(basis, start)
    depth, previous = 0, (None, None)
    ritz, count, following, largest = (), 0, None, math.nan
    while True:
        depth += 1
        image = block + sign * (N @ block)
        if not np.isfinite(image).all():
            stop = "non-finite"
        else:
            basis = np.hstack((basis, block))
            del block  # one block less live while P grows
            image_basis, r_factor = _border(image_basis, r_factor, image)
            ritz = np.linalg.svd(r_factor, compute_uv=False)[::-1]
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
                block = _new_block(basis, normal) if np.isfinite(normal).all() else None
                stop = ("non-finite" if block is None
                        else "exact" if block.shape[1] == 0
                        else "basis cap" if basis.shape[1] + block.shape[1] > cap
                        else None)
        if stop is not None:
            return NullityReport(
                nullity=count,
                ritz_counted=tuple(float(v) for v in ritz[:count]),
                ritz_next=following,
                ritz_largest=largest,
                depth=depth,
                stop=stop,
            )
        previous = (count, following)
