"""Nystrom discretization of the boundary integral operators.

The Fredholm operator with the generalized Neumann kernel becomes the dense
matrix of trapezoidal weights w N(s_i, t_j).  The singular companion
operator is applied through the cotangent splitting: the principal-value
part is the periodic conjugation, realized spectrally as the Fourier
multiplier -i sgn(p) (zero at p = 0 and at the unmatched Nyquist mode),
and the smooth remainder goes through the same trapezoidal rule.  Both
operators are real-linear; complex inputs are processed componentwise:
the real and imaginary parts go through one real matrix product together,
so no complex copy of a matrix is ever made.

The nullities of I +- N, which the indices of the coefficient predict, are
measured matrix-free by a block Krylov count (:func:`nullity`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gnk import kernels
from gnk.coefficient import index_of
from gnk.errors import OddGridSize
from gnk.geometry import ParamGrid, Region
from gnk.kernels import BoundaryJet

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


def conjugate_periodic(samples: np.ndarray) -> np.ndarray:
    """Conjugate the trigonometric interpolant of samples on a uniform grid.

    Realizes the principal-value cotangent convolution
    (1/(2 pi)) PV int cot((s - t)/2) phi(t) dt exactly on the represented
    band: cos(p t) -> sin(p s), sin(p t) -> -cos(p s), constants -> 0.
    The unmatched Nyquist coefficient is sent to zero, which keeps the
    operator real and skew-symmetric on the sample space.
    """
    phi = np.asarray(samples)
    n = phi.shape[0]
    if n % 2 != 0:
        raise OddGridSize(f"conjugation needs an even grid, got {n}")
    freq = np.fft.fftfreq(n, d=1.0 / n)
    mult = -1j * np.sign(freq)
    mult[n // 2] = 0.0
    out = np.fft.ifft(np.fft.fft(phi) * mult)
    return out if np.iscomplexobj(phi) else out.real


def conjugation_matrix(n: int) -> np.ndarray:
    """Dense circulant form of :func:`conjugate_periodic` on n nodes."""
    impulse = np.zeros(n)
    impulse[0] = 1.0
    column = conjugate_periodic(impulse)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return column[idx]


@dataclass(frozen=True)
class DiscreteOperators:
    """Dense Nystrom operators for one (region, coefficient, grid) triple.

    ``N`` holds the weighted generalized Neumann matrix w N(s_i, t_j);
    ``M_smooth`` the weighted smooth companion part (same-curve M1 blocks,
    cross-curve M blocks).  The full companion matrix, which subtracts the
    conjugation circulant on each diagonal block, is materialized on
    demand.  Assembled operators are immutable and safe to share;
    applications and solves are pure.
    """

    region: Region
    coeff: object
    grid: ParamGrid
    jet: BoundaryJet
    N: np.ndarray
    M_smooth: np.ndarray

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
        return self.grid.weight

    def apply_N(self, phi: np.ndarray) -> np.ndarray:
        return _real_matmul(self.N, phi)

    def identity_plus_N(self) -> np.ndarray:
        return np.eye(self.size) + self.N

    def identity_minus_N(self) -> np.ndarray:
        return np.eye(self.size) - self.N

    def nullity_I_minus_N(self, predicted: int | None = None) -> "NullityReport":
        if predicted is None:
            predicted = index_of(self.coeff, self.region, self.grid).dim_null_I_minus_N
        return nullity(self.N, -1, predicted + NULLITY_MARGIN)

    def nullity_I_plus_N(self, predicted: int | None = None) -> "NullityReport":
        if predicted is None:
            predicted = index_of(self.coeff, self.region, self.grid).dim_null_I_plus_N
        return nullity(self.N, +1, predicted + NULLITY_MARGIN)


def _real_matmul(matrix: np.ndarray, phi) -> np.ndarray:
    """matrix @ phi for a real matrix and real or complex samples.

    A complex phi goes through one real product on its stacked (re, im)
    columns; numpy would otherwise promote the whole matrix to a complex copy.
    """
    phi = np.asarray(phi)
    if not np.iscomplexobj(phi):
        return matrix @ phi
    stacked = np.stack((phi.real, phi.imag), axis=-1).reshape(len(phi), -1)
    parts = (matrix @ stacked).reshape(phi.shape + (2,))
    return parts[..., 0] + 1j * parts[..., 1]


def weighted_kernels(jet: BoundaryJet) -> tuple[np.ndarray, np.ndarray]:
    """Weighted Nystrom matrices (w N, w M_smooth) of one sampled boundary.

    Both real matrices fall out of one complex kernel evaluation over the
    grid, so the companion's smooth part is kept rather than recomputed.
    """
    complex_matrix = kernels.complex_kernel_matrix(jet)
    w = jet.weight
    n_matrix = complex_matrix.imag * w
    m_smooth = complex_matrix.real * w
    add = kernels._cot_addition(jet.n) * w
    for k in range(jet.m):
        block = slice(k * jet.n, (k + 1) * jet.n)
        m_smooth[block, block] += add
    return n_matrix, m_smooth


def assemble_N(region: Region, coeff, grid: ParamGrid) -> DiscreteOperators:
    """Assemble the weighted Neumann matrix (and the smooth companion part)."""
    jet = BoundaryJet.from_region(region, coeff, grid)
    n_matrix, m_smooth = weighted_kernels(jet)
    return DiscreteOperators(
        region=region,
        coeff=coeff,
        grid=grid,
        jet=jet,
        N=n_matrix,
        M_smooth=m_smooth,
    )


def apply_M(ops: DiscreteOperators, phi: np.ndarray) -> np.ndarray:
    """Apply the discrete singular companion operator to flat samples.

    Same-curve blocks combine minus the spectral conjugation with the
    trapezoidal sum of the continuous remainder M1; cross-curve blocks are
    plain trapezoidal sums of the smooth kernel.
    """
    phi = np.asarray(phi)
    out = _real_matmul(ops.M_smooth, phi)
    n = ops.n
    for k in range(ops.m):
        block = slice(k * n, (k + 1) * n)
        out[block] -= conjugate_periodic(phi[block])
    return out


def assemble_M(ops: DiscreteOperators) -> np.ndarray:
    """Materialize the dense companion matrix; agrees with apply_M exactly."""
    full = ops.M_smooth.copy()
    circulant = conjugation_matrix(ops.n)
    for k in range(ops.m):
        block = slice(k * ops.n, (k + 1) * ops.n)
        full[block, block] -= circulant
    return full


def operator_identity_residuals(ops: DiscreteOperators, phi: np.ndarray):
    """Sup-norm residuals of N^2 - M^2 = I and NM + MN = 0 on phi."""
    n_phi = ops.apply_N(phi)
    m_phi = apply_M(ops, phi)
    r1 = ops.apply_N(n_phi) - apply_M(ops, m_phi) - phi
    r2 = ops.apply_N(m_phi) + apply_M(ops, n_phi)
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


def _new_block(basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning w with the basis projected out, twice;
    directions below DEFLATION_TOL of the norm of w are dropped."""
    scale = np.linalg.norm(w)
    for _ in range(2):
        w = w - basis @ (basis.T @ w)
    u, s, _ = np.linalg.svd(w, full_matrices=False)
    return u[:, s > DEFLATION_TOL * scale]


def nullity(N: np.ndarray, sign: int, width: int) -> NullityReport:
    """Count the singular values of A = I + sign N below NULLITY_TOL times
    the largest, by block Krylov on A^T A from a seeded start of this width.

    Each depth adds one block to an orthonormal basis Q of the Krylov space,
    with one product by N and one by N^T and full reorthogonalization; the
    thin SVD of A Q gives the Ritz values that are counted.  The block
    width must exceed the nullity, since a block finds at most as many
    directions of one repeated singular value as it has columns.
    """
    size = N.shape[0]
    cap = min(size, max(NULLITY_MAX_COLUMNS, NULLITY_MIN_DEPTH * width))
    start = np.random.default_rng(0).standard_normal((size, min(width, size)))
    basis = images = np.empty((size, 0))
    block = _new_block(basis, start)
    depth, previous = 0, (None, None)
    while True:
        depth += 1
        image = block + sign * (N @ block)
        basis = np.hstack((basis, block))
        images = np.hstack((images, image))
        ritz = np.linalg.svd(images, compute_uv=False)[::-1]
        largest = float(ritz[-1])
        count = int(np.count_nonzero(ritz < NULLITY_TOL * largest))
        following = float(ritz[count]) if count < ritz.size else None
        if count >= width:
            stop = "saturated"
        elif (previous[0] == count and None not in (following, previous[1])
              and abs(following - previous[1]) <= NULLITY_SETTLE * following):
            stop = "settled"
        else:
            block = _new_block(basis, image + sign * (N.T @ image))
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
