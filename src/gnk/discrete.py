"""Nystrom discretization of the boundary integral operators.

The Fredholm operator with the generalized Neumann kernel becomes the dense
matrix of trapezoidal weights w N(s_i, t_j).  The singular companion
operator is applied through the cotangent splitting: the principal-value
part is the periodic conjugation, realized spectrally as the Fourier
multiplier -i sgn(p) (zero at p = 0 and at the unmatched Nyquist mode),
and the smooth remainder goes through the same trapezoidal rule.  Both
operators are real-linear; complex inputs are processed componentwise,
which the real matrices and the real-coefficient multiplier do for free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gnk import kernels
from gnk.errors import OddGridSize
from gnk.geometry import ParamGrid, Region
from gnk.kernels import BoundaryJet

NULLITY_TOL = 1e-8


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
        return self.N @ phi

    def identity_plus_N(self) -> np.ndarray:
        return np.eye(self.size) + self.N

    def identity_minus_N(self) -> np.ndarray:
        return np.eye(self.size) - self.N

    def nullity_I_minus_N(self) -> "NullityReport":
        return nullity(self.identity_minus_N())

    def nullity_I_plus_N(self) -> "NullityReport":
        return nullity(self.identity_plus_N())


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
    out = ops.M_smooth @ phi
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
    """Numerical nullity of a matrix with its smallest singular values."""

    nullity: int
    smallest: tuple[float, ...]


def nullity(matrix: np.ndarray) -> NullityReport:
    """Count singular values below NULLITY_TOL times the largest one."""
    svals = np.linalg.svd(matrix, compute_uv=False)
    largest = float(svals[0]) if svals.size else 0.0
    count = int(np.count_nonzero(svals < NULLITY_TOL * largest))
    bottom = tuple(float(v) for v in svals[-5:][::-1])
    return NullityReport(nullity=count, smallest=bottom)
