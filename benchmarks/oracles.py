"""Independent oracles for checking gnk outputs; numpy only, no gnk calls.

Everything here is computed from the generator's ground truth (hole
shapes, poles, amplitudes, constants) by closed-form formulas, never from
the program's own code paths or from stored outputs.
"""

from __future__ import annotations

import json
import math

import numpy as np

from inputs import Problem

TWO_PI = 2.0 * math.pi


def nodes(n: int) -> np.ndarray:
    return np.arange(n) * (TWO_PI / n)


def boundary(problem: Problem, n: int):
    """Clockwise boundary nodes eta and derivatives eta', curve-major.

    Circle: c + r exp(-i s).  Ellipse: c + a cos s - i b sin s.
    """
    s = nodes(n)
    eta, eta_d = [], []
    for hole in problem.holes:
        eta.append(hole.center + hole.a * np.cos(s) - 1j * hole.b * np.sin(s))
        eta_d.append(-hole.a * np.sin(s) - 1j * hole.b * np.cos(s))
    return np.concatenate(eta), np.concatenate(eta_d)


def rational(problem: Problem, z) -> np.ndarray:
    """f(z) = sum_k a_k / (z - p_k): analytic outside the holes, f(inf) = 0."""
    z = np.asarray(z, dtype=complex)
    return sum(a / (z - p) for p, a in zip(problem.poles, problem.amplitudes))


def coefficient(problem: Problem, eta: np.ndarray) -> np.ndarray:
    """Boundary values of A for the coefficient types the generator writes."""
    spec = problem.coeff
    if spec["type"] == "one":
        return np.ones_like(eta)
    z0 = complex(*spec["z0"])
    return (eta - z0) ** spec["power"]


def in_hole(problem: Problem, z) -> np.ndarray:
    """Exact membership in the open holes: |z - c| < r, or inside the ellipse."""
    z = np.asarray(z, dtype=complex)
    inside = np.zeros(z.shape, dtype=bool)
    for hole in problem.holes:
        w = z - hole.center
        inside |= (w.real / hole.a) ** 2 + (w.imag / hole.b) ** 2 < 1.0
    return inside


def exterior_cauchy(problem: Problem, n: int, f_plus: np.ndarray, z) -> np.ndarray:
    """Trapezoidal (1/2 pi i) sum of f+(eta) eta' / (eta - z) over all curves.

    The clockwise curves bound the unbounded region positively, so for any
    f analytic there with f(inf) = 0 this vanishes at every hole point.
    """
    eta, eta_d = boundary(problem, n)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    weights = f_plus * eta_d * (TWO_PI / n) / (2j * math.pi)
    return (weights[None, :] / (eta[None, :] - z[:, None])).sum(axis=1)


def predicted_nullities(kappa_per_curve) -> tuple[int, int]:
    """(dim null(I - N), dim null(I + N)) from the indices kappa_j.

    dim null(I + N) = sum max(0, 2 kappa_j + 1) and
    dim null(I - N) = sum max(0, -2 kappa_j - 1); for A = 1 (all kappa_j = 0)
    that is 0 and m.
    """
    minus = sum(max(0, -2 * k - 1) for k in kappa_per_curve)
    plus = sum(max(0, 2 * k + 1) for k in kappa_per_curve)
    return minus, plus


def strict_json(text: str):
    """Parse JSON, rejecting the NaN and Infinity tokens json.dumps can emit."""
    def refuse(token):
        raise ValueError(f"non-finite token {token} in JSON output")
    return json.loads(text, parse_constant=refuse)


def sup(x) -> float:
    x = np.asarray(x)
    return float(np.abs(x).max()) if x.size else 0.0
