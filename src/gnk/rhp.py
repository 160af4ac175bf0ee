"""Solution pipeline for the boundary integral equation mu - N mu = -M gamma.

Solving the equation for mu, forming the real correction

    h = (M mu - (I - N) gamma) / 2,

and dividing, f+ = (gamma + h + i mu) / A, yields boundary values of a
function analytic in the unbounded region with f(inf) = 0; h absorbs
exactly the part of gamma that no such function can attain, and it lies
in the span of boundary values coming from the holes.  The operators
solve I - N (``ops.solve_I_minus_N``): by GMRES, or by their stored
factor once repeated solves pay for it; where the indices predict a null
space of I - N, mu is the solution in its range, the one GMRES reaches
from mu = 0.  The residual gate decides every mu.  Besides GMRES's
products, a solve makes one pass over the stored kernel for each of
gamma, mu and h, which gives both M and N of it (``ops.apply_MN``).  The
solve and everything after it read A, the indices and the boundary from
the operators: the Cauchy integral over ``ops.jet`` extends the solution
off the boundary, and the hole-side Plemelj value tests attainability.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from gnk.discrete import DiscreteOperators
from gnk.errors import InconsistentSystem, TooCloseToBoundary
from gnk.geometry import (MIN_DISTANCE, ParamGrid, Region, _as_complex, _fourier_curve,
                          _json_array, _json_number, _json_object, _parse_json_source,
                          _require_finite)
from gnk.kernels import BoundaryJet, _laurent_frame, _laurent_terms

SOLVE_TOL = 1e-10  # the solve's residual gate, relative to max(1, sup|gamma|)
# Probe-node pairs per block of the field pass, shared by the m curves; a
# few temporaries of PROBE_BLOCK / m entries are all it holds beyond its
# O(probes) outputs.  Beyond FAR_RHO radii a curve's far field is FAR_TERMS
# Laurent terms, truncated below kernels.LAURENT_TRUNCATION relative.
PROBE_BLOCK = 2**19
FAR_RHO = 2.0
FAR_TERMS = int(_laurent_terms(FAR_RHO))


def _sup(x) -> float:
    return float(np.abs(x).max()) if np.size(x) else 0.0


@dataclass(frozen=True)
class SolveDiagnostics:
    """Residuals of the solve; minimal_norm says that the indices predict a
    null space of I - N, where mu is the range-space solution.  iterations
    counts GMRES's products with N, 0 where the stored factor solved it."""

    ie_residual: float
    h_plus_residual: float
    h_companion_residual: float
    minimal_norm: bool
    iterations: int


@dataclass(frozen=True)
class RHSolution:
    """Boundary solution: data gamma, density mu, correction h, values f+."""

    gamma: np.ndarray
    mu: np.ndarray
    h: np.ndarray
    f_plus: np.ndarray
    diagnostics: SolveDiagnostics


def _solve(ops: DiscreteOperators, gamma: np.ndarray):
    """mu of (I - N) mu = -M gamma, its sup-norm residual, the GMRES
    products (0 where the operators' factor solved it) and the correction
    h = (M mu - (I - N) gamma) / 2, from one pass over gamma and one over mu.

    The continuous equation is solvable for every gamma; a residual above
    SOLVE_TOL times max(1, sup|gamma|) therefore signals discretization
    failure, not theory failure, and the remedy is a larger n.  NaN or
    infinite data fail before any pass: no residual could meet the gate.
    """
    if not np.isfinite(gamma).all():
        raise InconsistentSystem("boundary data gamma are not finite")
    (m_gamma, n_gamma), allowed = ops.apply_MN(gamma), SOLVE_TOL * max(1.0, _sup(gamma))
    rhs = -m_gamma
    mu, (m_mu, n_mu), iterations = ops.solve_I_minus_N(rhs, allowed)
    residual = _sup(mu - n_mu - rhs)
    if not residual <= allowed:
        raise InconsistentSystem(
            f"integral equation residual {residual:.3e} exceeds {allowed:.3e}")
    return mu, residual, iterations, (m_mu - gamma + n_gamma) / 2.0


def verify_Sminus(ops: DiscreteOperators, h: np.ndarray):
    """Residuals ((I + N) h, M h); both vanish for h in the hole-side span."""
    h = np.asarray(h, dtype=float)
    m_h, n_h = ops.apply_MN(h)
    return _sup(h + n_h), _sup(m_h)


def solve_rhp(ops: DiscreteOperators, gamma: np.ndarray) -> RHSolution:
    """Full pipeline: solve for mu, form h, f+ = (gamma + h + i mu) / A."""
    gamma = np.asarray(gamma, dtype=float)
    mu, ie_residual, iterations, h = _solve(ops, gamma)
    r_plus, r_m = verify_Sminus(ops, h)
    diagnostics = SolveDiagnostics(
        ie_residual=ie_residual, h_plus_residual=r_plus, h_companion_residual=r_m,
        minimal_norm=ops.index.dim_null_I_minus_N > 0, iterations=iterations)
    return RHSolution(gamma, mu, h, (gamma + h + 1j * mu) / ops.jet.coeff, diagnostics)


def near_boundary_band(jet: BoundaryJet) -> float:
    """Width of the zone where plain trapezoidal field evaluation degrades."""
    return 5.0 * jet.weight * float(np.abs(jet.eta_d).max())


def field_pass(jet: BoundaryJet, gamma: np.ndarray, mu: np.ndarray, z):
    """Cauchy sum f, boundary distance dist and per-curve turns at z.

    f is the trapezoidal Cauchy integral of (gamma + i mu)/A; turns[p, k] is
    the same sum of 1 over curve k, its winding number about z[p] (-1 inside
    the hole), exact to rounding off the near-boundary band.  Curve k lies
    within r_k of a_k, the mean of its nodes.  Where gap = |z - a_k| - r_k
    exceeds max((FAR_RHO - 1) r_k, band), z is outside curve k: turns are 0,
    f takes the Laurent series -sum_p c_p / (z - a_k)^(p+1), c_p = sum_j d_j
    (eta_j - a_k)^p (Greengard & Rokhlin 1987), and gap bounds the distance;
    near probes sum the nodes.  So dist is exact below the band and at least
    the band above it.  Probes go in blocks of PROBE_BLOCK / m pairs per curve.
    """
    unit = jet.eta_d * (jet.weight / (2j * math.pi))
    density = (np.asarray(gamma) + 1j * np.asarray(mu)) / jet.coeff * unit
    sources = np.stack([density, unit], axis=1).reshape(jet.m, jet.n, 2)
    z = np.asarray(z, dtype=complex).ravel()
    f = np.zeros(z.size, dtype=complex)
    dist = np.full(z.size, np.inf)
    turns = np.zeros((z.size, jet.m))
    rows = max(1, PROBE_BLOCK // jet.size)
    for k, eta in enumerate(jet.eta.reshape(jet.m, jet.n)):
        centre, radius, scaled = _laurent_frame(eta)
        reach = max((FAR_RHO - 1.0) * radius, near_boundary_band(jet))
        powers = np.vander(scaled, FAR_TERMS, increasing=True)
        moments = (powers.T @ sources[k])[::-1, 0]  # the (n, 2) gemm; a gemv rounds f otherwise
        for start in range(0, z.size, rows):
            block = slice(start, start + rows)
            offset = z[block] - centre
            gap = np.abs(offset) - radius
            far = gap > reach  # a NaN gap sums the nodes
            near = np.flatnonzero(~far) + start
            diff = eta[None, :] - z[near, None]
            gap[~far] = np.abs(diff).min(axis=1)
            dist[block] = np.minimum(dist[block], gap)
            sums = np.reciprocal(diff, out=diff) @ sources[k]
            f[near] += sums[:, 0]
            turns[near, k] = sums[:, 1].real
            ratio = radius / offset[far]
            series = np.zeros(ratio.size, dtype=complex)
            for c in moments:  # Horner's rule in r_k / (z - a_k)
                series *= ratio
                series += c
            f[block][far] -= series / offset[far]
    return f, dist, turns


def field_values(ops: DiscreteOperators, gamma: np.ndarray, mu: np.ndarray, z):
    """field_pass on ``ops.jet`` with the on-node rule: a probe within
    MIN_DISTANCE of a node, where the Cauchy sum divides by zero or nearly,
    takes the exterior Plemelj value plemelj_boundary(+1) / A at the
    nearest node, computed only when such a probe exists.  The nearest
    nodes are searched in blocks of PROBE_BLOCK / m probe-node pairs, as
    field_pass sums."""
    z = np.asarray(z, dtype=complex).ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        f, dist, turns = field_pass(ops.jet, gamma, mu, z)
    on_node = np.flatnonzero(dist < MIN_DISTANCE)
    if on_node.size:
        exterior = plemelj_boundary(ops, gamma, mu, +1) / ops.jet.coeff
        rows = max(1, PROBE_BLOCK // (ops.m * ops.size))
        for start in range(0, on_node.size, rows):
            block = on_node[start:start + rows]
            f[block] = exterior[np.abs(z[block, None] - ops.jet.eta).argmin(axis=1)]
    return f, dist, turns


def cauchy_eval(ops: DiscreteOperators, gamma: np.ndarray, mu: np.ndarray, z):
    """Cauchy-type integral of (gamma + i mu)/A at points z off the boundary.

    The boundary and A are the ones ``ops`` were assembled on.  For z in
    the unbounded region this is the solution f with f(inf) = 0, and its
    real part, with A = 1, is the modified Dirichlet field.  No
    near-boundary correction is applied; inside the warning band the plain
    trapezoidal rule loses accuracy, so the call warns there with
    TooCloseToBoundary, which a warning filter can turn into an error.  On
    a node it takes the exterior Plemelj value (:func:`field_values`).
    """
    values, dist, _ = field_values(ops, gamma, mu, z)
    band = near_boundary_band(ops.jet)
    if np.any(dist < band):
        warnings.warn(
            f"evaluation point within {float(dist.min()):.3e} of the boundary; "
            f"accuracy degrades inside the {band:.3e} band",
            TooCloseToBoundary, stacklevel=2)
    if np.ndim(z) == 0:
        return complex(values[0])
    return values


def plemelj_boundary(ops: DiscreteOperators, gamma: np.ndarray, mu: np.ndarray,
                     side: int) -> np.ndarray:
    """One-sided boundary values 2 A Phi+- = (+-I + N - iM)(gamma + i mu).

    side +1 gives the limit from the unbounded region, -1 from the holes;
    their difference reproduces gamma + i mu identically in the discrete
    algebra (the jump relation).  The hole side is the attainability test:
    it vanishes (to discretization accuracy) exactly when gamma + i mu
    samples A f+ of a function analytic in the unbounded region with
    f(inf) = 0, and data coming from the holes scores order one.
    """
    if side not in (+1, -1):
        raise ValueError("side must be +1 or -1")
    c = np.asarray(gamma, dtype=float) + 1j * np.asarray(mu, dtype=float)
    m_c, n_c = ops.apply_MN(c)
    return (side * c + n_c - 1j * m_c) / 2.0


def _rational_boundary(eta: np.ndarray, terms) -> np.ndarray:
    f_plus = np.zeros_like(eta)
    for term in _json_array(terms, "pole terms"):
        term = _json_object(term, "pole term")
        a = _as_complex(term["a"], "pole amplitude")
        f_plus = f_plus + a / (eta - _as_complex(term["c"], "pole centre"))
    return f_plus


def _data_from_entry(entry: dict, region: Region, coeff, grid: ParamGrid) -> np.ndarray:
    kind = _json_object(entry, "data entry").get("type")
    if kind == "samples":
        rows = [_json_array(v, "samples row")
                for v in _json_array(entry["values"], "samples values")]
        if len(rows) != region.m or any(len(v) != grid.n for v in rows):
            raise ValueError("samples must supply n values per curve")
        return np.array([float(_json_number(x, "sample")) for v in rows for x in v])
    if kind == "poles":
        jet = BoundaryJet.from_region(region, coeff, grid)
        return (jet.coeff * _rational_boundary(jet.eta, entry["terms"])).real
    if kind == "trig":
        parts = []
        for rows in _json_array(entry["per_curve"], "trig data per_curve"):
            parts.append(_fourier_curve(rows, "boundary data").jet(grid.nodes)[0].real)
        if len(parts) != region.m:
            raise ValueError("trig data must supply one entry per curve")
        return np.concatenate(parts)
    if kind == "constants":
        values = _json_array(entry["values"], "constants values")
        if len(values) != region.m:
            raise ValueError("constants data must supply one value per curve")
        return np.repeat([float(_json_number(v, "constant")) for v in values], grid.n)
    raise ValueError(f"unknown boundary data type {kind!r}")


def load_boundary_data(source, region: Region, coeff, grid: ParamGrid) -> np.ndarray:
    """Real boundary data gamma from a parsed dict or list, or a JSON path.

    A list of entries is summed, so constants or extra pole terms compose
    with a base data set.  "poles" entries describe a rational function
    with poles at the given points and yield gamma = Re[A f+].
    """
    obj = _parse_json_source(source)
    entries = obj if isinstance(obj, list) else [obj]
    gamma = np.zeros(region.m * grid.n)
    for entry in entries:
        gamma = gamma + _data_from_entry(entry, region, coeff, grid)
    return _require_finite(gamma, "boundary data")
