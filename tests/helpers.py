"""Shared independent oracles and sample builders for the test suite.

Everything here deliberately avoids the library's own evaluation paths:
the alternate-point quadrature and the spectral multiplier
(``fft_conjugate``, the split apply that assembly replaced) for the
conjugation folded into M, brute-force argument
accumulation for windings, the kernels at single (curve, parameter)
points (``kernel_N``, ``kernel_M``, ``kernel_M1``, with the closed-form
diagonal and ``DiagonalSingular`` for M's) as the pointwise oracle of
the assembled matrices, rational functions with poles in the holes
as exactly known solutions, the dense SVD count of a nullity, the
whole-matrix kernel builders that the row-block and factored assembly
replaced (``dense_weighted_kernels``, and ``weighted_kernels`` from the
row blocks), the far and near curve pairs (``far_pairs``) and the bound
``factor_tolerance`` that the translated far-pair entries must meet,
derived from the Laurent and Taylor truncations, the bound
``band_tolerance`` that same-curve blocks stored as Fourier bands must
meet, derived from the oracle's own rounding, and the region
validation that samples every winding, which the enclosing-disc
screening replaced.  ``perturbed_circle`` builds the star-like curves of
the galleries.  ``count_calls`` counts the calls of a library function
under every name the package binds it to.  ``attainability_residual`` and
``transform_solution`` restate, in the tests' terms, the hole-side Plemelj
test and the Mobius substitution f_hat(w) = f(z) (z - z0).  ``capacity``
reads the logarithmic capacity of the holes off the Dirichlet constants
h_j, an oracle from potential theory that no planted solution can fit;
``lemniscate`` builds the region whose capacity is known in closed form.
``near_zero`` places a coefficient's zero just off a circle, between grid
nodes, where no winding count settles.
"""

from __future__ import annotations

import math
import sys
import tracemalloc
from dataclasses import dataclass

import numpy as np

from gnk import coefficient as coefficient_mod
from gnk.coefficient import One
from gnk.dirichlet import solve_modified_dirichlet
from gnk.discrete import NULLITY_TOL, _block_buffer, _kernel_blocks, assemble_N
from gnk.errors import GnkError
from gnk.geometry import (MIN_DISTANCE, MIN_SPEED, CheckResult, Curve, ParamGrid, Region,
                          ValidationReport, _turns_about_points, circle)
from gnk.rhp import plemelj_boundary

TWO_PI = 2.0 * np.pi


def wittich_apply(phi: np.ndarray) -> np.ndarray:
    """Alternate-point trapezoidal rule for the cotangent principal value.

    Approximates (1/(2 pi)) PV int cot((s_i - t)/2) phi(t) dt using only
    the nodes of opposite parity, with weight 2 * (2 pi / n) each.  Exact
    on the band resolved by the grid; a loop over rows, written apart from
    the table that assembly folds into M.
    """
    n = len(phi)
    assert n % 2 == 0
    s = np.arange(n) * (TWO_PI / n)
    out = np.zeros(n)
    j = np.arange(n)
    for i in range(n):
        mask = ((i - j) % 2) == 1
        out[i] = (2.0 / n) * np.sum(phi[mask] / np.tan((s[i] - s[mask]) / 2.0))
    return out


def fft_conjugate(samples: np.ndarray) -> np.ndarray:
    """Conjugate the trigonometric interpolant of samples on a uniform grid
    by the Fourier multiplier -i sgn(p), zero at p = 0 and at the unmatched
    Nyquist mode: cos(p t) -> sin(p s), sin(p t) -> -cos(p s).  The grid
    runs along the last axis.  The spectral reference for the
    alternate-point rule that assembly folds into M.
    """
    phi = np.asarray(samples)
    n = phi.shape[-1]
    freq = np.fft.fftfreq(n, d=1.0 / n)
    mult = -1j * np.sign(freq)
    mult[n // 2] = 0.0
    out = np.fft.ifft(np.fft.fft(phi) * mult)
    return out if np.iscomplexobj(phi) else out.real


def brute_force_winding(values: np.ndarray) -> float:
    """Plain argument accumulation over a closed loop of samples (in turns)."""
    steps = np.angle(np.roll(values, -1) / values)
    return float(steps.sum() / TWO_PI)


class DiagonalSingular(GnkError):
    """The singular companion kernel was requested at a same-curve diagonal point."""


# parameter separation below which same-curve evaluation is routed to the
# closed-form diagonal to dodge catastrophic cancellation
NEAR_DIAGONAL = 1e-8


def _wrapped_gap(s: float, t: float) -> float:
    d = math.fmod(s - t, TWO_PI)
    if d > math.pi:
        d -= TWO_PI
    elif d < -math.pi:
        d += TWO_PI
    return abs(d)


def _point_values(region: Region, coeff, point):
    k, s = point
    eta, eta_d, eta_dd = region.curves[k].jet(float(s))
    a, a_d = coefficient_mod.coeff_jet(coeff, region, k, float(s))
    return eta, eta_d, eta_dd, a, a_d


def _offdiag(region: Region, coeff, s_point, t_point) -> complex:
    eta_s, _, _, a_s, _ = _point_values(region, coeff, s_point)
    eta_t, eta_d_t, _, a_t, _ = _point_values(region, coeff, t_point)
    return (a_s / a_t) * eta_d_t / (eta_t - eta_s) / math.pi


def _diagonal(region: Region, coeff, point) -> complex:
    _, eta_d, eta_dd, a, a_d = _point_values(region, coeff, point)
    return (eta_dd / (2.0 * eta_d) - a_d / a) / math.pi


def kernel_N(region: Region, coeff, s_point, t_point) -> float:
    """Generalized Neumann kernel N(s, t); points are (curve, parameter) pairs."""
    (ks, s), (kt, t) = s_point, t_point
    if ks == kt and _wrapped_gap(s, t) < NEAR_DIAGONAL:
        return float(_diagonal(region, coeff, t_point).imag)
    return float(_offdiag(region, coeff, s_point, t_point).imag)


def kernel_M(region: Region, coeff, s_point, t_point) -> float:
    """Companion kernel M(s, t), singular on the same-curve diagonal."""
    (ks, s), (kt, t) = s_point, t_point
    if ks == kt and _wrapped_gap(s, t) < NEAR_DIAGONAL:
        raise DiagonalSingular(
            "M has no finite same-curve diagonal; use kernel_M1 plus the cotangent")
    return float(_offdiag(region, coeff, s_point, t_point).real)


def kernel_M1(region: Region, coeff, s_point, t_point) -> float:
    """Continuous same-curve remainder M1(s, t) = M + cot((s-t)/2)/(2 pi)."""
    (ks, s), (kt, t) = s_point, t_point
    if ks != kt:
        raise ValueError("M1 is defined for points on the same curve")
    if _wrapped_gap(s, t) < NEAR_DIAGONAL:
        return float(_diagonal(region, coeff, t_point).real)
    value = _offdiag(region, coeff, s_point, t_point).real
    return float(value + 1.0 / math.tan((s - t) / 2.0) / TWO_PI)


def point_winding(curve: Curve, z: complex, n: int) -> float:
    """The library's turn count of the curve about the one point z, from n
    nodes on with validation's MIN_DISTANCE: an integer, or NaN too close."""
    return float(_turns_about_points(lambda s: curve.jet(s)[0], [z], n, MIN_DISTANCE)[0])


def near_zero(circle_curve: Curve) -> complex:
    """A point 1e-10 outside a circle, at s = 0.7 pi / 64, between two nodes
    of a 64-node grid: a coefficient that vanishes there keeps the argument
    steps past it from settling."""
    eta = circle_curve.jet(0.7 * math.pi / 64)[0]
    outward = eta - circle_curve.centroid
    return eta + 1e-10 * outward / abs(outward)


def rational_values(z, terms) -> np.ndarray:
    """f(z) = sum a / (z - c) for (c, a) pole terms; analytic off the poles."""
    z = np.asarray(z, dtype=complex)
    total = np.zeros_like(z)
    for c, a in terms:
        total = total + a / (z - c)
    return total


def band_limited(rng: np.random.Generator, m: int, n: int, band: int,
                 *, zero_mean: bool = False) -> np.ndarray:
    """Random real trig polynomial per curve with frequencies up to band."""
    s = np.arange(n) * (TWO_PI / n)
    phi = np.zeros(m * n)
    for k in range(m):
        block = slice(k * n, (k + 1) * n)
        for p in range(1, band + 1):
            phi[block] += rng.normal() * np.cos(p * s) + rng.normal() * np.sin(p * s)
        if not zero_mean:
            phi[block] += rng.normal()
    return phi


def attainability_residual(ops, af_plus) -> float:
    """2 sup|Phi-| of boundary values A f+: the sup-norm of (I - N + iM)(A f+),
    zero (to discretization accuracy) iff they are attainable from the
    unbounded region with f(inf) = 0."""
    c = np.asarray(af_plus, dtype=complex)
    return 2.0 * float(np.abs(plemelj_boundary(ops, c.real, c.imag, -1)).max())


def transform_solution(values, z, z0: complex):
    """Bounded-region solution f_hat(w) = f(z) (z - z0) for w = 1/(z - z0),
    from values of f at points z (boundary samples of f at eta)."""
    return np.asarray(values) * (np.asarray(z) - complex(z0))


def perturbed_circle(center: complex, radius: float, perturbations) -> Curve:
    """Clockwise star-like curve center + radius (1 + sum eps_k cos(k s)) exp(-i s)
    of the test galleries.

    Each (k, eps_k) term, k >= 1, contributes radius*eps_k/2 to the
    exp(i(k-1)s) and exp(-i(k+1)s) coefficients, so the result stays a
    finite trigonometric polynomial.  Large eps_k values can produce
    non-simple curves.
    """
    acc: dict[int, complex] = {0: complex(center), -1: complex(radius)}
    for k, eps in perturbations:
        if k < 1:
            raise ValueError("perturbation frequency must be >= 1")
        half = radius * eps / 2.0
        acc[k - 1] = acc.get(k - 1, 0j) + half
        acc[-(k + 1)] = acc.get(-(k + 1), 0j) + half
    powers = sorted(acc)
    return Curve(powers=powers, coeffs=[acc[p] for p in powers])


def with_center(region: Region, z0: complex) -> Region:
    """The region with its last hole point, the Mobius center, moved to z0."""
    return Region.from_curves(region.curves, region.hole_points[:-1] + (z0,))


def lattice16() -> Region:
    """16 radius-1 circles on a 4-unit lattice; the origin sits between holes."""
    axis = (-6.0, -2.0, 2.0, 6.0)
    return Region.from_curves([circle(complex(x, y), 1.0)
                               for y in axis for x in axis])


def overlap_between_polygon_nodes() -> dict:
    """Region JSON of two circles that overlap by 1e-5.  The second circle's
    node at s = pi lies 1e-5 inside the first circle, midway between two
    nodes of a 512-node polygon of it, whose chord there lies 1.9e-5 inside
    the circle; the curves come no closer than 6e-3 at the nodes of
    n <= 512."""
    centre = 5 + 5j + (1 - 1e-5) * np.exp(1j * np.pi / 512) + 0.5
    return {"curves": [{"type": "circle", "center": [5.0, 5.0], "radius": 1.0},
                       {"type": "circle", "center": [float(centre.real), float(centre.imag)],
                        "radius": 0.5}]}


def lemniscate(d: int, r: float) -> Region:
    """The d holes of the lemniscate {|z^d - 1| <= r}, r < 1, whose capacity
    is r^(1/d) (Ransford, Potential Theory in the Complex Plane, 1995).

    Hole k is bounded by omega_k (1 + r e^{-is})^(1/d), the exact series
    omega_k sum_p binom(1/d, p) r^p e^{-ips}, clockwise about its hole point
    omega_k = exp(2 pi i k / d); the series stops once its terms fall below
    1e-18.
    """
    terms = [1.0]
    while abs(terms[-1]) >= 1e-18:
        p = len(terms) - 1
        terms.append(terms[-1] * (1.0 / d - p) / (p + 1) * r)
    powers = [-p for p in range(len(terms))]
    omegas = [complex(np.exp(2j * np.pi * k / d)) for k in range(d)]
    return Region.from_curves([Curve(powers, [w * a for a in terms]) for w in omegas],
                              omegas)


def capacity(region: Region, n: int) -> float:
    """Logarithmic capacity of the union of the holes, from m modified
    Dirichlet solves on n nodes per curve (Liesen, Sete & Nasser, Comput.
    Methods Funct. Theory 17, 2017).

    Solve i takes gamma = -log|eta - alpha_i|, alpha_i the hole point of
    hole i.  Its field u_i plus log|z - alpha_i| is then log|z| + o(1) at
    infinity and the constant h_ij on curve j.  Weights w with
    sum_i w_i = 1 and sum_i w_i h_ij = c on every curve j make
    sum_i w_i (u_i + log|z - alpha_i|) - c the Green function with pole at
    infinity, so the capacity is exp(c).
    """
    ops = assemble_N(region, One(), ParamGrid(n))
    eta, m = ops.jet.eta, region.m
    h = np.array([solve_modified_dirichlet(ops, -np.log(np.abs(eta - alpha))).h_constants
                  for alpha in region.hole_points])
    system = np.zeros((m + 1, m + 1))
    system[:m, :m] = h.T  # row j: sum_i w_i h_ij - c = 0
    system[:m, m] = -1.0
    system[m, :m] = 1.0  # sum_i w_i = 1
    rhs = np.zeros(m + 1)
    rhs[m] = 1.0
    return math.exp(np.linalg.solve(system, rhs)[m])


def count_calls(monkeypatch, owner, name: str) -> list:
    """Replace owner.name by a wrapper that counts its calls, also where a
    gnk module bound it by ``from ... import``; the returned list grows by
    one per call."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    for key, module in list(sys.modules.items()):
        if key == "gnk" or key.startswith("gnk."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def traced_peak(call) -> int:
    """tracemalloc peak in bytes above the start while call() runs; the
    result is dropped inside the trace, so it counts towards the peak."""
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def central_difference(fn, s: float, step: float):
    """Second-order central difference of a scalar-to-complex function."""
    return (fn(s + step) - fn(s - step)) / (2.0 * step)


@dataclass(frozen=True)
class DenseNullity:
    """Numerical nullity of a matrix with its smallest singular values."""

    nullity: int
    smallest: tuple[float, ...]
    singular_values: np.ndarray  # ascending


def dense_nullity(matrix: np.ndarray) -> DenseNullity:
    """Count singular values below NULLITY_TOL times the largest one, by a
    full dense SVD: the oracle of the block Krylov count."""
    svals = np.linalg.svd(matrix, compute_uv=False)
    largest = float(svals[0]) if svals.size else 0.0
    count = int(np.count_nonzero(svals < NULLITY_TOL * largest))
    bottom = tuple(float(v) for v in svals[-5:][::-1])
    return DenseNullity(nullity=count, smallest=bottom, singular_values=svals[::-1])


def dense_complex_kernel(jet) -> np.ndarray:
    """Whole N x N matrix of M + iN off the diagonal, M1 + iN on it, by the
    per-entry arithmetic of the assembly: the bit-identity oracle of the
    row-block builder.  A is folded into the source column eta' / A, which
    is divided by the differences and multiplied by A at the target."""
    matrix = jet.eta[None, :] - jet.eta[:, None]
    np.fill_diagonal(matrix, 1.0)
    np.divide((jet.eta_d / jet.coeff)[None, :], matrix, out=matrix)
    np.multiply(jet.coeff[:, None], matrix, out=matrix)
    matrix /= math.pi
    diag = (jet.eta_dd / (2.0 * jet.eta_d) - jet.coeff_d / jet.coeff) / math.pi
    np.fill_diagonal(matrix, diag)
    return matrix


def dense_cot_addition(n: int) -> np.ndarray:
    """cot((s_i - s_j)/2) / (2 pi) on n nodes, with zeros on the diagonal:
    M1 - M on a same-curve block."""
    idx = np.arange(n)
    half = (idx[:, None] - idx[None, :]) * (math.pi / n)
    np.fill_diagonal(half, math.pi / 2)  # placeholder, cot = 0 there anyway
    cot = np.cos(half) / np.sin(half)
    np.fill_diagonal(cot, 0.0)
    return cot / TWO_PI


def dense_cot_table(n: int) -> np.ndarray:
    """(-1)^(i-j) cot((s_i - s_j)/2) / n on n nodes, zeros on the diagonal,
    by the per-entry arithmetic of the table assembly adds to w M."""
    idx = np.arange(n)
    offset = idx[:, None] - idx[None, :]
    half = offset * (math.pi / n)
    np.fill_diagonal(half, math.pi / 2)  # placeholder, cot = 0 there anyway
    cot = np.cos(half) / np.sin(half) / n
    np.fill_diagonal(cot, 0.0)
    return np.where(offset % 2 == 1, -cot, cot)


def _add_per_curve(matrix: np.ndarray, table: np.ndarray, m: int) -> np.ndarray:
    """Add an n x n table to each of the m same-curve blocks, in place."""
    n = len(table)
    for k in range(m):
        block = slice(k * n, (k + 1) * n)
        matrix[block, block] += table
    return matrix


def dense_weighted_kernels(jet) -> tuple[np.ndarray, np.ndarray]:
    """(w N, M) from the whole complex kernel matrix, the signed cotangent
    table added to each same-curve block."""
    complex_matrix = dense_complex_kernel(jet)
    n_matrix = complex_matrix.imag * jet.weight
    m_matrix = complex_matrix.real * jet.weight
    return n_matrix, _add_per_curve(m_matrix, dense_cot_table(jet.n), jet.m)


def weighted_kernels(jet) -> tuple[np.ndarray, np.ndarray]:
    """Dense (w N, M) of a jet from the assembly's kernel blocks, curve
    pair by curve pair: the entries that the dense matrices had, for the
    tests of the block builder and of the factored operators."""
    n_matrix = np.empty((jet.size, jet.size))
    m_matrix = np.empty_like(n_matrix)
    work = _block_buffer(jet.n)
    for target, source in np.ndindex(jet.m, jet.m):
        cols = slice(source * jet.n, (source + 1) * jet.n)
        for rows, block, cot in _kernel_blocks(jet, target, source, work):
            np.multiply(block.imag, jet.weight, out=n_matrix[rows, cols])
            np.multiply(block.real, jet.weight, out=m_matrix[rows, cols])
            if cot is not None:
                m_matrix[rows, cols] += cot
    return n_matrix, m_matrix


def block_heights(jet, target: int, source: int) -> list[int]:
    """Row counts of the kernel blocks that one curve pair is walked in."""
    return [rows.stop - rows.start for rows, _, _
            in _kernel_blocks(jet, target, source, _block_buffer(jet.n))]


def _pair_ratios(eta: np.ndarray, l: int, k: int):
    """|D|, alpha, beta and rho of target curve l and source curve k, the
    rows l and k of the (m, n) nodes: see :func:`far_pairs`."""
    centre, radius = eta[k].mean(), np.abs(eta[k] - eta[k].mean()).max()
    distance = abs(eta[l].mean() - centre)
    beta = np.abs(eta[l] - eta[l].mean()).max() / distance
    return distance, radius / distance, beta, np.abs(eta[l] - centre).min() / radius


def far_pairs(jet):
    """(far, P, Q) as the translated storage must choose them, derived apart
    from it: far[l, k] for target curve l and source curve k, and the
    Laurent and Taylor terms that the far pairs share.

    Curve k has centre a_k (the mean of its nodes) and radius r_k =
    max |eta_j - a_k|; with D = a_l - a_k, alpha = r_k / |D| and
    beta = r_l / |D|, the pair's discs are apart when alpha + beta < 1.  Its
    Laurent series needs ceil(16 ln 10 / ln rho) terms, rho = min |eta_i - a_k| / r_k
    over curve l's nodes, and its Taylor translation
    ceil(ln(1e-16 (1 - alpha - beta)) / ln(beta / (1 - alpha))).  A pair
    whose discs meet, or whose terms reach n, is near.
    """
    m, n = jet.m, jet.n
    eta = jet.eta.reshape(m, n)
    far, P, Q = np.zeros((m, m), dtype=bool), 0, 0
    for l, k in np.ndindex(m, m):
        if l == k:
            continue
        _, alpha, beta, rho = _pair_ratios(eta, l, k)
        if alpha + beta >= 1:
            continue
        laurent = math.ceil(16 * math.log(10) / math.log(rho))
        taylor = math.ceil(math.log(1e-16 * (1 - alpha - beta)) / math.log(beta / (1 - alpha)))
        if max(laurent, taylor) < n:
            far[l, k], P, Q = True, max(P, laurent), max(Q, taylor)
    return far, P, Q


def factor_tolerance(jet) -> float:
    """Largest |stored - exact| that a far-pair entry of the weighted kernel
    M + iN may show in the translated storage, derived apart from it.

    With the frames of :func:`far_pairs`, z = eta_i - a_k, zeta = eta_j - a_k
    and y = eta_i - a_l, the entry is c_ij g, with
    c_ij = -(A_i / pi) w eta'_j / A_j and
    g = 1 / (z - zeta) = sum_p zeta^p / z^(p+1)
      = sum_p sum_q binom(p + q, q) zeta^p (-y)^q / D^(p+q+1),
    of which the storage keeps p < P and q < Q; the kept term (p, q) is at
    most binom(p + q, q) alpha^p beta^q in units of |c_ij| / |D|.  In
    those units the error is at most
    - the Laurent tail sum_(p >= P) |zeta|^p / |z|^(p+1), times |D|:
      rho^-P / (alpha (rho - 1));
    - the Taylor tail sum_p sum_(q >= Q) binom(p + q, q) alpha^p beta^q =
      (beta / (1 - alpha))^Q / (1 - alpha - beta);
    - the roundoff of the kept terms: term (p, q) takes at most
      6 p + 9 q + 14 + P + Q rounded operations (its moment 3 p + 4, its
      translation 3 p + 6 q + 4 with D's error raised to the power
      p + q + 1, its Taylor power 3 q + 4, two products and the P + Q
      additions of the two sums), each within 2 eps, real or complex;
    - the oracle's own 8 rounded operations on an entry of at most
      1 / (1 - alpha - beta).
    """
    far, P, Q = far_pairs(jet)
    m, n = jet.m, jet.n
    eta = jet.eta.reshape(m, n)
    target = np.abs(jet.coeff).reshape(m, n).max(axis=1) / math.pi
    source = (np.abs(jet.eta_d / jet.coeff) * jet.weight).reshape(m, n).max(axis=1)
    p, q = np.arange(P), np.arange(Q)[:, None]
    binom = np.array([[float(math.comb(i + j, j)) for i in range(P)] for j in range(Q)])
    eps = np.finfo(float).eps
    worst = 0.0
    for l, k in zip(*np.nonzero(far)):
        distance, alpha, beta, rho = _pair_ratios(eta, l, k)
        terms = binom * alpha**p * beta**q
        error = (rho**-P / (alpha * (rho - 1))
                 + (beta / (1 - alpha))**Q / (1 - alpha - beta)
                 + 2 * eps * float((terms * (6 * p + 9 * q + 14 + P + Q)).sum())
                 + 2 * eps * 8 / (1 - alpha - beta))
        worst = max(worst, target[l] * source[k] * error / distance)
    return worst


def band_tolerance(jet) -> float:
    """Largest |stored - oracle| that an entry of a same-curve block stored
    as a Fourier band may show against the dense oracle, derived apart from
    the storage.

    The oracle's entry w K_ij divides by eta_j - eta_i, the difference of two
    rounded samples, so beyond the few eps of its other operations it
    carries a relative error of eps (|eta_i| + |eta_j|) / |eta_i - eta_j|;
    next to the diagonal of a unit circle about 3 at n = 256 that is 160
    eps.  The band samples the same kernel on a sub-grid, whose nodes lie
    farther apart, so its samples round less, and it drops only
    coefficients below eps times the block's largest entry.  The bound is
    twice the oracle's rounding, the largest over every same-curve block;
    the band's error measured 0.3-0.7 of it on circles, the mixed gallery
    and lattice16.
    """
    n, eps = jet.n, np.finfo(float).eps
    worst, whole = 0.0, np.abs(dense_complex_kernel(jet))
    for k in range(jet.m):
        curve = slice(k * n, (k + 1) * n)
        eta, kernel = jet.eta[curve], whole[curve, curve]
        gap = np.abs(eta[:, None] - eta[None, :])
        np.fill_diagonal(gap, np.inf)
        rounding = kernel * jet.weight * (np.abs(eta[:, None]) + np.abs(eta[None, :])) / gap
        worst = max(worst, 2 * eps * float(rounding.max()))
    return worst


def assert_stored_kernel(ops) -> float:
    """The stored w N and M against the dense oracle: dense pair blocks
    (near pairs, and same-curve blocks that no sub-grid resolved) bit for
    bit, banded same-curve blocks within band_tolerance and far-pair
    entries within factor_tolerance.  Returns the largest far-pair error."""
    n, (far, _, _) = ops.n, far_pairs(ops.jet)
    banded = ops.N.store.banded
    worst = band = 0.0
    for stored, oracle in zip((np.asarray(ops.N), np.asarray(ops.M)),
                              dense_weighted_kernels(ops.jet)):
        for t, k in np.ndindex(ops.m, ops.m):
            block = (slice(t * n, (t + 1) * n), slice(k * n, (k + 1) * n))
            error = float(np.abs(stored[block] - oracle[block]).max())
            if t == k and t in banded:
                band = max(band, error)
            elif far[t, k]:
                worst = max(worst, error)
            else:
                assert np.array_equal(stored[block], oracle[block])
    assert band <= band_tolerance(ops.jet), band
    assert worst <= factor_tolerance(ops.jet), worst
    return worst


def dense_weighted_M1(jet) -> np.ndarray:
    """The smooth companion matrix: w M1 on same-curve blocks, w M off them."""
    m1 = dense_complex_kernel(jet).real * jet.weight
    return _add_per_curve(m1, dense_cot_addition(jet.n) * jet.weight, jet.m)


def conjugation_matrix(n: int) -> np.ndarray:
    """Dense circulant form of the spectral conjugation on n nodes."""
    impulse = np.zeros(n)
    impulse[0] = 1.0
    column = fft_conjugate(impulse)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return column[idx]


def assemble_M(ops) -> np.ndarray:
    """Dense companion matrix by the cotangent splitting, apart from the
    assembly: w M1 from the whole kernel minus the spectral conjugation
    circulant on each same-curve block.  It must agree with ``ops.M``."""
    return _add_per_curve(dense_weighted_M1(ops.jet), -conjugation_matrix(ops.n), ops.m)


def sampled_validate_region(region: Region, grid: ParamGrid) -> ValidationReport:
    """validate_region with every winding sampled, the reference for the
    screened checks: each curve pair runs _turns_about_points both ways and
    each point check runs it on its one point."""
    def winding_check(name, curve, z, expected):
        w = point_winding(curve, z, grid.n)
        got = "nan, too close to count" if math.isnan(w) else int(w)
        return CheckResult(name, w == expected, w, f"expected {expected}, got {got}")

    checks: list[CheckResult] = []
    samples = []
    for k, curve in enumerate(region.curves):
        eta, eta_d, _ = curve.jet(grid.nodes)
        samples.append(eta)
        speed = float(np.abs(eta_d).min())
        checks.append(CheckResult(
            f"speed[{k}]", speed >= MIN_SPEED, speed,
            f"min |eta'| vs {MIN_SPEED:g}"))
        diff = np.abs(eta[:, None] - eta[None, :])
        np.fill_diagonal(diff, np.inf)
        gap = float(diff.min())
        checks.append(CheckResult(
            f"simple[{k}]", gap >= MIN_DISTANCE, gap,
            f"min pairwise sample distance vs {MIN_DISTANCE:g}"))
    for j in range(region.m):
        for k in range(j + 1, region.m):
            gap = float(np.abs(samples[j][:, None] - samples[k][None, :]).min())
            # np.max, not max: a NaN count must win whichever side it is on
            turns = float(np.max([np.abs(_turns_about_points(
                lambda s: c.jet(s)[0], z, grid.n, MIN_DISTANCE)).max()
                for c, z in ((region.curves[j], samples[k]), (region.curves[k], samples[j]))]))
            separated = gap >= MIN_DISTANCE and turns == 0
            checks.append(CheckResult(
                f"disjoint[{j},{k}]", separated, gap,
                f"min cross-curve distance vs {MIN_DISTANCE:g}; "
                f"max mutual winding {turns:.3f}"))
    for k, curve in enumerate(region.curves):
        checks.append(winding_check(f"orientation[{k}]", curve, region.hole_points[k], -1))
        for j, other in enumerate(region.curves):
            if j != k:
                checks.append(winding_check(
                    f"hole_point[{k}] outside curve[{j}]", other, region.hole_points[k], 0))
        checks.append(winding_check(f"zero_in_region[{k}]", curve, 0j, 0))
    return ValidationReport(tuple(checks))
