"""Pointwise kernels of the boundary integral operators.

With boundary parametrization eta and coefficient A, the complex kernel

    (1/pi) (A(s)/A(t)) eta'(t) / (eta(t) - eta(s))

has continuous imaginary part N (the generalized Neumann kernel) and
singular real part M.  On a single curve M splits as

    M(s, t) = -(1/(2 pi)) cot((s - t)/2) + M1(s, t)

with M1 continuous.  The diagonal values come from the closed form

    (1/pi) [ eta''(t) / (2 eta'(t)) - A'(t)/A(t) ]

(imaginary part for N, real part for M1), which is exact here because both
eta and A are trigonometric polynomials with analytic derivatives.

This module holds the sampled boundary (:class:`BoundaryJet`) and the
Laurent frame of a sampled curve that the operators' cross-curve factors
and the field pass share.  The grid operators are built from a jet in
:mod:`gnk.discrete`; the kernels at single (curve, parameter) points,
with the closed-form diagonal, are the tests' pointwise oracle in
``tests/helpers.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gnk import coefficient as coefficient_mod
from gnk.geometry import TWO_PI, ParamGrid, Region

# A curve's Laurent series is truncated once its terms fall below this
# fraction of the first, rho^-P at separation ratio rho.
LAURENT_TRUNCATION = 1e-16


@dataclass(frozen=True)
class BoundaryJet:
    """Sampled boundary data consumed by the kernel and operator builders.

    Holds flat curve-major arrays of length m * n: the parametrization with
    two derivatives and the coefficient with one.  Assembly, field
    evaluation and the Mobius check all read one instance; the Mobius module
    maps it to the image boundary without resampling the region.
    """

    eta: np.ndarray
    eta_d: np.ndarray
    eta_dd: np.ndarray
    coeff: np.ndarray
    coeff_d: np.ndarray
    m: int
    n: int

    @classmethod
    def from_region(cls, region: Region, coeff, grid: ParamGrid) -> "BoundaryJet":
        eta, eta_d, eta_dd = region.sample(grid)
        a, a_d = coefficient_mod.sample(coeff, region, grid)
        return cls(eta, eta_d, eta_dd, a, a_d, region.m, grid.n)

    @property
    def size(self) -> int:
        return self.m * self.n

    @property
    def weight(self) -> float:
        """Trapezoidal weight 2 pi / n."""
        return TWO_PI / self.n


def _laurent_terms(rho):
    """Terms P with rho^-P <= LAURENT_TRUNCATION, as floats, for ratios rho > 1."""
    return np.ceil(math.log(LAURENT_TRUNCATION) / -np.log(rho))


def _laurent_frame(eta: np.ndarray):
    """Centre a (the mean of a curve's nodes), radius r = max|eta - a| and
    the scaled nodes (eta - a) / r, whose powers are the curve's Laurent
    moments without overflow (Greengard & Rokhlin 1987)."""
    centre = eta.mean()
    radius = float(np.abs(eta - centre).max())
    return centre, radius, (eta - centre) / radius
