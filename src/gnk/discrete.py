"""Nystrom discretization of the boundary integral operators.

The Fredholm operator with the generalized Neumann kernel becomes the dense
matrix of trapezoidal weights w N(s_i, t_j), and the singular companion
operator one dense matrix too, by the cotangent splitting: the smooth part
goes through the same trapezoidal rule, the periodic conjugation through
Wittich's alternate-point rule (Kress, Linear Integral Equations, 13.5),
weights (2/n) cot((s_i - s_j)/2) at odd offsets i - j, exact on the
resolved band.  Both operators are real-linear; complex inputs are
processed componentwise: the real and imaginary parts go through one real
matrix product each, so no complex copy of a matrix is ever made.

Both matrices are filled from row blocks of the complex kernel, which the
Mobius check walks too, so the stored N and M are the only N^2 arrays.

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
from gnk.kernels import BoundaryJet

# Kernel entries per row block: 2**18 is a 4 MB complex block, 64 rows at
# N = 4096.
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
    """Dense Nystrom operators for one (region, coefficient, grid) triple.

    ``jet`` is the sampled boundary, and it owns the grid: ``n``, ``size``
    and ``weight`` read it.  ``N`` holds the weighted generalized Neumann
    matrix w N(s_i, t_j); ``M`` the companion matrix: w M on cross-curve
    blocks, w M1 minus the alternate-point conjugation on same-curve ones.
    ``index`` holds the indices of the coefficient, which predict the
    nullities of I +- N.  Assembled operators are immutable and safe to
    share; applications and solves are pure.
    """

    region: Region
    coeff: object
    jet: BoundaryJet
    N: np.ndarray
    M: np.ndarray
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
        return _real_matmul(self.N, phi)

    def identity_plus_N(self) -> np.ndarray:
        return np.eye(self.size) + self.N

    def identity_minus_N(self) -> np.ndarray:
        return np.eye(self.size) - self.N

    def nullity_I_minus_N(self) -> "NullityReport":
        return nullity(self.N, -1, self.index.dim_null_I_minus_N + NULLITY_MARGIN)

    def nullity_I_plus_N(self) -> "NullityReport":
        return nullity(self.N, +1, self.index.dim_null_I_plus_N + NULLITY_MARGIN)


def _real_matmul(matrix: np.ndarray, phi) -> np.ndarray:
    """matrix @ phi for a real matrix and real or complex samples.

    A complex phi goes through two real products, one per part; numpy would
    otherwise promote the whole matrix to a complex copy.
    """
    phi = np.asarray(phi)
    if not np.iscomplexobj(phi):
        return matrix @ phi
    return matrix @ phi.real + 1j * (matrix @ phi.imag)


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


def _weighted_blocks(jet: BoundaryJet):
    """Row blocks of the complex kernel: M + iN off the diagonal, M1 + iN on
    it, entry (i, j) at target s_i and source t_j.

    Yields (rows, cols, block, cot) per block of at most BLOCK_ENTRIES
    entries inside one curve, cols.  ``block`` is unweighted; the diagonal,
    the grid's only same-curve coincidence, takes the closed-form smooth
    values.  ``cot`` is the signed cotangent table that turns w M into the
    companion matrix on cols.  A is folded into the source column
    eta'(t) / A(t) once, so each block is the one fresh array
    A(s) (eta'(t) / A(t)) / (eta(t) - eta(s)), built in place, which the
    consumer may overwrite; with A = 1 the fold is exact.  A consumer drops
    it (``del block``) before asking for the next: a block it holds stays
    live while the next one is built, a second block at the peak.
    """
    n = jet.n
    height = max(1, min(n, BLOCK_ENTRIES // jet.size))
    cot = _cot_table(n)
    local = np.arange(n)
    source = jet.eta_d / jet.coeff
    diag = (jet.eta_dd / (2.0 * jet.eta_d) - jet.coeff_d / jet.coeff) / math.pi
    for k in range(jet.m):
        cols = slice(k * n, (k + 1) * n)
        for first in range(0, n, height):
            last = min(first + height, n)
            rows = slice(k * n + first, k * n + last)
            on_diag = (local[:last - first], local[first:last] + k * n)
            block = jet.eta[None, :] - jet.eta[rows, None]
            block[on_diag] = 1.0
            np.divide(source[None, :], block, out=block)
            np.multiply(jet.coeff[rows, None], block, out=block)
            # scale the float view: complex division by pi + 0j is slower
            # and gives the same values up to the sign of zero
            block.view(np.float64)[...] *= 1 / math.pi
            block[on_diag] = diag[rows]
            yield rows, cols, block, cot[local[first:last, None] - local[None, :] + (n - 1)]
            del block  # before the next is built, as the consumer does


def weighted_kernels(jet: BoundaryJet) -> tuple[np.ndarray, np.ndarray]:
    """Nystrom matrices (w N, M) of one sampled boundary.

    Both real matrices fall out of one complex kernel evaluation over the
    grid, row block by row block, with the conjugation folded into the
    same-curve blocks of M, so no complex N^2 array is made.
    """
    n_matrix = np.empty((jet.size, jet.size))
    m_matrix = np.empty_like(n_matrix)
    for rows, cols, block, cot in _weighted_blocks(jet):
        np.multiply(block.imag, jet.weight, out=n_matrix[rows])
        np.multiply(block.real, jet.weight, out=m_matrix[rows])
        del block
        m_matrix[rows, cols] += cot
    return n_matrix, m_matrix


def assemble_N(region: Region, coeff, grid: ParamGrid) -> DiscreteOperators:
    """Assemble the weighted Neumann matrix (and the companion matrix),
    with the indices of the coefficient: the one index computation for
    these operators."""
    jet = BoundaryJet.from_region(region, coeff, grid)
    index = index_of(coeff, region, grid)
    n_matrix, m_matrix = weighted_kernels(jet)
    return DiscreteOperators(
        region=region,
        coeff=coeff,
        jet=jet,
        N=n_matrix,
        M=m_matrix,
        index=index,
    )


def apply_M(ops: DiscreteOperators, phi: np.ndarray) -> np.ndarray:
    """Apply the discrete companion operator to samples of shape (N,) or (N, k)."""
    return _real_matmul(ops.M, phi)


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


def nullity(N: np.ndarray, sign: int, width: int) -> NullityReport:
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
            # N^T image as (image^T N)^T: BLAS runs the row-major form 3x faster
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
