"""Nystrom discretization of the boundary integral operators.

The Fredholm operator with the generalized Neumann kernel becomes the
matrix of trapezoidal weights w N(s_i, t_j), and the singular companion
operator a matrix too, by the cotangent splitting: the smooth part goes
through the same trapezoidal rule, the periodic conjugation through
Wittich's alternate-point rule (Kress, Linear Integral Equations, 13.5),
weights (2/n) cot((s_i - s_j)/2) at odd offsets i - j, exact on the
resolved band.

Neither matrix is stored whole.  The same-curve blocks are dense, built by
the one walk of the complex kernel by (target curve, source curve) blocks,
:func:`_kernel_blocks`, in a buffer its caller owns.  Seen from another
curve, source curve k's kernel is a Laurent series about the hole's centre
(Greengard & Rokhlin 1987), so its cross-curve blocks are one complex
factor pair U_k V_k, truncated below 1e-16, with w N = Im(U_k V_k) and
M = Re(U_k V_k) there; a curve whose series would need n terms keeps its
exact block columns, one real array per part, so that a product with N
never reads M's entries.  ``ops.N`` and ``ops.M`` are real-linear
operators over that storage, which only this module reads, and
``ops.kernel_block`` reads it back by the same blocks, as the Mobius check
does.

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
from gnk.kernels import BoundaryJet, _laurent_frame, _laurent_terms

# Kernel entries per block of one curve pair, at most n rows: 2**18 is a
# 4 MB complex block, a whole pair up to n = 512.
BLOCK_ENTRIES = 2**18
NULLITY_TOL = 1e-8
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

    def apply_N(self, phi: np.ndarray) -> np.ndarray:
        return self.N @ phi

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

    The i-th curve k of ``laurent`` has its same-curve blocks of w N and M
    in ``own_n[i]`` and ``own_m[i]``, n x n, and its cross-curve factors
    U_k = U_T[span].T, N x P_k and zero on the curve's own rows, and
    V_k = V[span], P_k x n, with span = splits[i]:splits[i + 1].  U is
    stored transposed, so that its recurrence and both products run on
    rows.  The j-th curve of ``exact`` has its whole block columns of w N
    and M, transposed, in rows j n to (j + 1) n of ``exact_n`` and
    ``exact_m``: real, so that a product with one part reads that part only.
    """

    own_n: np.ndarray
    own_m: np.ndarray
    U_T: np.ndarray
    V: np.ndarray
    splits: tuple[int, ...]
    laurent: tuple[int, ...]
    exact: tuple[int, ...]
    exact_n: np.ndarray
    exact_m: np.ndarray

    def spans(self):
        return zip(self.laurent, self.splits[:-1], self.splits[1:])

    def product(self, x: np.ndarray, part, transpose: bool) -> np.ndarray:
        """A x, or A^T x, for real x of shape (N, k), A the part (np.imag
        for w N, np.real for M) of the kernel: the same-curve blocks in
        one batched product, V_k curve by curve, U for all curves at once,
        and the exact columns in one product."""
        own, exact = (self.own_n, self.exact_n) if part is np.imag else (self.own_m, self.exact_m)
        cols = x.reshape(-1, self.V.shape[1], x.shape[1])
        laurent, curves = list(self.laurent), list(self.exact)
        out = np.empty(cols.shape)
        out[laurent] = np.matmul(own.transpose(0, 2, 1) if transpose else own, cols[laurent])
        if transpose:
            coeffs = self.U_T @ x
            for k, first, last in self.spans():
                out[k] += part(self.V[first:last].T @ coeffs[first:last])
            out[curves] = (exact @ x).reshape(-1, *cols.shape[1:])
            return out.reshape(x.shape)
        coeffs = np.empty((len(self.V), x.shape[1]), dtype=complex)
        for k, first, last in self.spans():
            np.matmul(self.V[first:last], cols[k], out=coeffs[first:last])
        out[curves] = 0.0
        # (c^T U^T)^T and (x_E^T E^T)^T: BLAS runs these row-major forms
        # faster than U c and E x
        out += part((coeffs.T @ self.U_T).T).reshape(cols.shape)
        if curves:
            out += (cols[curves].reshape(-1, x.shape[1]).T @ exact).T.reshape(cols.shape)
        return out.reshape(x.shape)

    def block(self, rows: slice, k: int, out: np.ndarray) -> np.ndarray:
        """The stored M + iN at the target ``rows``, inside one curve, and
        source curve k's columns (the same-curve block, U_k V_k, or the
        exact columns) in the first rows of ``out``, which are returned."""
        n, out = self.V.shape[1], out[:rows.stop - rows.start]
        if k in self.exact:
            span = slice(self.exact.index(k) * n, (self.exact.index(k) + 1) * n)
            out.real, out.imag = self.exact_m[span, rows].T, self.exact_n[span, rows].T
        elif rows.start // n == k:
            i, local = self.laurent.index(k), slice(rows.start - k * n, rows.stop - k * n)
            out.real, out.imag = self.own_m[i, local], self.own_n[i, local]
        else:
            span = slice(*self.splits[self.laurent.index(k):][:2])
            np.matmul(self.U_T[span, rows].T, self.V[span], out=out)
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
        size = self.store.U_T.shape[1]
        return (size, size)

    def __matmul__(self, x) -> np.ndarray:
        return self._product(np.asarray(x), False)

    def __rmatmul__(self, y) -> np.ndarray:
        return self._product(np.asarray(y).T, True).T

    def __array__(self, *args, **kwargs) -> np.ndarray:
        (size, _), n = self.shape, self.store.V.shape[1]
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


def _factor_kernel(jet: BoundaryJet) -> _Kernel:
    """The weighted complex kernel of a jet as a :class:`_Kernel`.

    Each Laurent curve's same-curve block and each exact curve's block
    columns come from :func:`_kernel_blocks`, in one buffer, bit for bit
    those of the whole matrix.  With its Laurent frame a_k, r_k, curve k
    sees the other curves' nodes at ratio rho_k = min |eta_i - a_k| / r_k
    or more, so P_k = _laurent_terms(rho_k) terms truncate its series below
    LAURENT_TRUNCATION on every target of the grid: V_k[p, j] = w eta'_j / A_j ((eta_j - a_k) / r_k)^p and
    U_k[i, p] = -(A_i / pi) (eta_i - a_k)^-1 (r_k / (eta_i - a_k))^p, its
    powers taken by recurrence in U's storage.  A curve with P_k >= n
    keeps its exact block columns, its own block included.
    """
    m, n, w = jet.m, jet.n, jet.weight
    frames = []
    for k in range(m):
        own = slice(k * n, (k + 1) * n)
        centre, radius, scaled = _laurent_frame(jet.eta[own])
        distance = np.abs(jet.eta - centre)
        distance[own] = np.inf
        rho = float(distance.min()) / radius
        frames.append((centre, radius, scaled, _laurent_terms(rho) if rho > 1 else n))
    laurent = tuple(k for k in range(m) if frames[k][3] < n)
    exact = tuple(k for k in range(m) if frames[k][3] >= n)
    own_n = np.empty((len(laurent), n, n))
    own_m = np.empty_like(own_n)
    exact_n = np.empty((len(exact) * n, jet.size))
    exact_m = np.empty_like(exact_n)
    work = _block_buffer(n)
    for k in range(m):
        for t in range(m) if k in exact else (k,):
            if k in exact:
                span = slice(exact.index(k) * n, (exact.index(k) + 1) * n)
                block_n, block_m = (a[span, t * n:(t + 1) * n].T for a in (exact_n, exact_m))
            else:
                block_n, block_m = own_n[laurent.index(k)], own_m[laurent.index(k)]
            for rows, block, cot in _kernel_blocks(jet, t, k, work):
                local = slice(rows.start - t * n, rows.stop - t * n)
                np.multiply(block.imag, w, out=block_n[local])
                np.multiply(block.real, w, out=block_m[local])
                if cot is not None:
                    block_m[local] += cot
    del work, block  # not live while the factors are built
    splits = tuple(int(s) for s in np.cumsum([0] + [frames[k][3] for k in laurent]))
    U_T = np.empty((splits[-1], jet.size), dtype=complex)
    V = np.empty((splits[-1], n), dtype=complex)
    for k, first, last in zip(laurent, splits[:-1], splits[1:]):
        centre, radius, scaled, terms = frames[k]
        own, u, v = slice(k * n, (k + 1) * n), U_T[first:last], V[first:last]
        if terms > 0:
            source = w * jet.eta_d[own] / jet.coeff[own]
            np.multiply(np.vander(scaled, terms, increasing=True).T, source, out=v)
            offset = jet.eta - centre
            offset[own] = radius  # rows zeroed below
            ratio = radius / offset
            np.multiply(jet.coeff * (-1 / (math.pi * radius)), ratio, out=u[0])
            for p in range(1, terms):
                np.multiply(u[p - 1], ratio, out=u[p])
            u[:, own] = 0.0
    return _Kernel(own_n, own_m, U_T, V, splits, laurent, exact, exact_n, exact_m)


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
    images = np.hstack((ops.apply_N(phi), apply_M(ops, phi)))
    n_images, m_images = ops.apply_N(images), apply_M(ops, images)
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
    is only a lower bound) or "basis cap" (unsettled when the basis reached
    its column cap).  Only the first two are conclusive.
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
    while True:
        depth += 1
        image = block + sign * (N @ block)
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
            block = _new_block(basis, image + sign * (image.T @ N).T)
            stop = ("exact" if block.shape[1] == 0
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
