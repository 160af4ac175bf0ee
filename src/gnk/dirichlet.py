"""The modified Dirichlet problem: the pipeline specialized to A = 1.

With coefficient one the integral equation is uniquely solvable and the
correction h is a real constant on each curve: the data gamma can always
be shifted by per-curve constants so that gamma + h is the real boundary
part of a function analytic in the unbounded region with f(inf) = 0.  The
real part of the Cauchy integral then evaluates the harmonic field with
boundary values gamma + h and zero at infinity.

No special code path exists for A = 1; the general kernels are used with
the derivative terms vanishing identically.  The solve runs the general
pipeline on operators assembled with coefficient One and keeps its
diagnostics; the field evaluation is the general Cauchy integral on the
same operators, so one assembly serves any number of data sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gnk import rhp
from gnk.coefficient import One
from gnk.discrete import DiscreteOperators
from gnk.errors import ConstancyViolation
from gnk.geometry import ParamGrid, Region

CONSTANCY_FACTOR = 1e3
CONSTANCY_FLOOR = 1e-6


def indicator_basis(region: Region, grid: ParamGrid) -> np.ndarray:
    """Rows chi_j: one on curve j, zero elsewhere; shape (m, m*n).

    These are the boundary values (with A = 1) of the functions equal to
    one inside hole j and zero outside its curve, and they span the space
    of admissible corrections h.
    """
    return np.repeat(np.eye(region.m), grid.n, axis=1)


@dataclass(frozen=True)
class DirichletSolution:
    """Unique solution data: mu, per-curve constants h_j with the largest
    deviation of h from each, boundary values f+ and the solve's diagnostics."""

    gamma: np.ndarray
    mu: np.ndarray
    h_raw: np.ndarray
    h_constants: tuple[float, ...]
    h_deviation: tuple[float, ...]
    f_boundary: np.ndarray
    diagnostics: rhp.SolveDiagnostics


def solve_modified_dirichlet(ops: DiscreteOperators, gamma: np.ndarray) -> DirichletSolution:
    """Solve the modified Dirichlet problem for real data gamma.

    The raw correction h comes out of the operator formula and is reduced
    to per-curve means; its deviation from constancy doubles as an error
    indicator.  A deviation beyond both CONSTANCY_FACTOR times the solve
    residual and the absolute CONSTANCY_FLOOR (scaled by the data size)
    raises ConstancyViolation: that means a bug or unresolved geometry,
    not a property of the data.  ``ops`` must carry coefficient One.
    """
    if not isinstance(ops.coeff, One):
        raise ValueError("modified Dirichlet solve requires coefficient One")
    gamma = np.asarray(gamma, dtype=float)
    solution = rhp.solve_rhp(ops, gamma)
    h_blocks = solution.h.reshape(ops.m, ops.n)
    h_means = h_blocks.mean(axis=1)
    deviation = np.abs(h_blocks - h_means[:, None]).max(axis=1)
    scale = max(1.0, float(np.abs(gamma).max()))
    allowed = max(CONSTANCY_FACTOR * solution.diagnostics.ie_residual,
                  CONSTANCY_FLOOR * scale)
    if not deviation.max() <= allowed:
        raise ConstancyViolation(
            f"h deviates from per-curve constancy by {deviation.max():.3e} "
            f"(allowed {allowed:.3e}); refine the grid or check the region")
    h_flat = np.repeat(h_means, ops.n)
    f_boundary = gamma + h_flat + 1j * solution.mu
    return DirichletSolution(
        gamma=gamma,
        mu=solution.mu,
        h_raw=solution.h,
        h_constants=tuple(float(h) for h in h_means),
        h_deviation=tuple(float(d) for d in deviation),
        f_boundary=f_boundary,
        diagnostics=solution.diagnostics,
    )


def harmonic_eval(ops: DiscreteOperators, solution: DirichletSolution, z):
    """Harmonic field u = Re Phi at z; boundary values gamma + h, u(inf) = 0.

    ``ops`` are the operators the solution was computed with.  Inside the
    near-boundary band it warns as :func:`rhp.cauchy_eval` does.
    """
    values = rhp.cauchy_eval(ops, solution.gamma, solution.mu, z)
    return np.real(values) if np.ndim(values) else float(np.real(values))
