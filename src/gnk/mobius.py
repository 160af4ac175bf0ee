"""Mobius reduction of the unbounded region to a bounded one.

The transform w = 1/(z - z0), with z0 the region's last hole point, carries
the unbounded region onto a bounded multiply connected region whose outer
boundary is the image of the last curve; to move the center, set that
point.  Replacing the coefficient A by hat A = zeta A, with zeta the mapped
parametrization, leaves both boundary integral kernels pointwise unchanged;
that identity is what transfers the bounded-region solvability theory, so
it is checked here entrywise to machine precision instead of being trusted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gnk import discrete
from gnk.coefficient import IndexReport, _windings, coeff_jet
from gnk.errors import CenterNotInHole
from gnk.geometry import MIN_DISTANCE, Region, _turns_about_points
from gnk.kernels import BoundaryJet


def _center(region: Region, n: int) -> complex:
    """The last hole's point, checked from n nodes on to lie in the last hole only."""
    z0 = complex(region.hole_points[-1])
    for k, curve in enumerate(region.curves):
        expected = -1 if k == region.m - 1 else 0
        w = _turns_about_points(lambda s: curve.jet(s)[0], [z0], n, MIN_DISTANCE)[0]
        if w != expected:  # NaN too: a node within MIN_DISTANCE, or no settled count
            found = "too close to" if np.isnan(w) else f"has winding {int(w)} about"
            raise CenterNotInHole(f"center {z0} {found} curve {k}, expected {expected}")
    return z0


def map_jet(region: Region, jet: BoundaryJet) -> BoundaryJet:
    """Image jet of zeta = 1/(eta - z0) and hat A = zeta A, by exact arithmetic.

    z0 is the last hole's point, which must lie strictly inside the last
    hole (and outside every other hole).
    """
    u = jet.eta - _center(region, jet.n)
    zeta = 1.0 / u
    zeta_d = -jet.eta_d / u**2
    zeta_dd = -jet.eta_dd / u**2 + 2.0 * jet.eta_d**2 / u**3
    hat = zeta * jet.coeff
    hat_d = zeta_d * jet.coeff + zeta * jet.coeff_d
    return BoundaryJet(zeta, zeta_d, zeta_dd, hat, hat_d, jet.m, jet.n)


@dataclass(frozen=True)
class InvarianceReport:
    """Entrywise agreement of the kernels built before and after the map.

    The differences are roundoff in entries as large as ``scale``.
    """

    max_diff_N: float
    max_diff_M1: float
    scale: float

    @property
    def max_diff(self) -> float:
        return float(np.maximum(self.max_diff_N, self.max_diff_M1))  # NaN stays NaN


def kernel_invariance_check(ops: discrete.DiscreteOperators) -> InvarianceReport:
    """Max |N_hat - N| and |M1_hat - M1| over all grid pairs, diagonals included.

    The mapped jet goes through the assembly's kernel blocks pair by curve
    pair in one work buffer, a dense evaluation apart from the stored
    factors.  Each block is weighted in place, and the same block of
    ``ops``, read by ``ops.kernel_block`` into a second buffer, is
    subtracted from it, so the stored operators are verified entrywise.
    The cotangent table cancels in the weighted differences, reported in
    kernel units (a NaN stays NaN); the stored blocks less the table, the
    singular M + iN, give the scale max(1, max|M + iN|).  The identity is
    algebraic: anything beyond roundoff is a bug, not discretization error.
    """
    diffs, largest = np.zeros(2), 0.0  # max |N_hat - N|, max |M1_hat - M1|
    w, mapped = ops.weight, map_jet(ops.region, ops.jet)
    work, stored = discrete._block_buffer(ops.n), discrete._block_buffer(ops.n)
    for target, source in np.ndindex(ops.m, ops.m):
        for rows, block, cot in discrete._kernel_blocks(mapped, target, source, work):
            parts = block.view(np.float64)
            parts *= w
            if cot is not None:
                block.real += cot
            read = ops.kernel_block(rows, source, stored)
            np.subtract(block, read, out=block)
            np.abs(parts, out=parts)
            np.maximum(diffs, (block.imag.max(), block.real.max()), out=diffs)  # NaN stays
            if cot is not None:
                read.real -= cot
            # |M + iN|^2 in the spent buffer: hypot (1 ulp) only near its top
            np.square(read.view(np.float64), out=parts)
            squares = np.add(parts[:, ::2], parts[:, 1::2], out=parts[:, ::2])
            if np.sqrt(top := float(squares.max())) * (1 + 1e-12) >= largest:
                near = squares >= top * (1 - 1e-12)
                largest = max(largest, float(np.hypot(read.real[near], read.imag[near]).max()))
    return InvarianceReport(*(diffs / w).tolist(), max(1.0, largest / w))


def index_shift(report: IndexReport) -> tuple[tuple[int, ...], int]:
    """Indices of hat A on the image curves, outer image of the center curve first.

    The image of the last curve becomes the outer boundary and its index
    gains one; the remaining curves keep theirs, so the total also gains
    one.
    """
    kj = report.kappa_per_curve
    hat = (kj[-1] + 1,) + tuple(kj[:-1])
    return hat, report.kappa + 1


def mapped_index_of(ops: discrete.DiscreteOperators) -> tuple[tuple[int, ...], int]:
    """Direct argument-accumulation indices of hat A = zeta A on each image curve.

    Returned in image order (outer curve first), for cross-checking
    :func:`index_shift` without the shift law, counting from the grid of ``ops``.
    """
    region, coeff = ops.region, ops.coeff
    z0 = _center(region, ops.n)

    def hat_jet(k: int, s: np.ndarray):
        """(hat A, hat A') = (A / u, (A' - hat A eta') / u), u = eta - z0."""
        value, deriv = coeff_jet(coeff, region, k, s)
        eta, eta_d, _ = region.curves[k].jet(s)
        hat = value / (eta - z0)
        return hat, (deriv - hat * eta_d) / (eta - z0)

    windings = _windings([lambda s, k=k: hat_jet(k, s) for k in range(region.m)], ops.n)
    hat = (windings[-1],) + tuple(windings[:-1])
    return hat, sum(windings)
