"""Mobius reduction of the unbounded region to a bounded one.

The transform w = 1/(z - z0), with z0 the region's last hole point, carries
the unbounded region onto a bounded multiply connected region whose outer
boundary is the image of the last curve; to move the center, set that
point.  Replacing the coefficient A by hat A = zeta A, with zeta the mapped
parametrization, leaves both boundary integral kernels pointwise unchanged;
that identity is what transfers the bounded-region solvability theory, so
it is checked here, by products with seeded columns, to machine precision
instead of being trusted.
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


# The check multiplies both kernels by PROBES Gaussian columns drawn from a
# fixed seed, so that verify's output is byte-deterministic.
PROBES = 4


@dataclass(frozen=True)
class InvarianceReport:
    """Agreement of the kernels built before and after the map, applied to
    the seeded columns X: max|(N_hat - N) X| and max|(M_hat - M) X|.

    The differences are roundoff in products as large as ``scale``.
    """

    max_diff_N: float
    max_diff_M1: float
    scale: float

    @property
    def max_diff(self) -> float:
        return float(np.maximum(self.max_diff_N, self.max_diff_M1))  # NaN stays NaN


def kernel_invariance_check(ops: discrete.DiscreteOperators) -> InvarianceReport:
    """The mapped weighted kernel against the stored one, by their products
    with PROBES seeded Gaussian columns X, diagonals included.

    The mapped jet goes through the assembly's kernel blocks curve pair by
    curve pair in one work buffer, a dense evaluation apart from the stored
    factors.  Each block is weighted in place, the cotangent table added on
    same-curve pairs, and its product with the source curve's rows of X is
    summed into the image (M_hat + i N_hat) X, which is compared with
    ``ops.apply_MN(X)``, one pass over the stored operators: a wrong entry
    (i, j) of either shows in row i as its error times X's row j.  NaN
    stays NaN; the scale is max(1, max|(M + iN) X|).  The identity is
    algebraic: anything beyond roundoff is a bug, not discretization error.
    """
    n, w, mapped = ops.n, ops.weight, map_jet(ops.region, ops.jet)
    X = np.random.default_rng(0).standard_normal((ops.size, PROBES))
    image, work = np.zeros(X.shape, dtype=complex), discrete._block_buffer(n)
    for target, source in np.ndindex(ops.m, ops.m):
        for rows, block, cot in discrete._kernel_blocks(mapped, target, source, work):
            block.view(np.float64)[...] *= w
            if cot is not None:
                block.real += cot
            image[rows] += block @ X[source * n:(source + 1) * n]
    mapped = work = block = None  # not live during the stored pass
    MX, NX = ops.apply_MN(X)
    diffs = (np.abs(image.imag - NX).max(), np.abs(image.real - MX).max())  # NaN stays
    return InvarianceReport(*map(float, diffs), float(np.maximum(1.0, np.hypot(MX, NX).max())))


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
