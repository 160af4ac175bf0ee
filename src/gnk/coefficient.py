"""Coefficient functions for the boundary condition Re[A f+] = gamma.

The coefficient A is a nonvanishing, continuously differentiable complex
function on the boundary, available here with an exact derivative.  Its
winding number about the origin on each curve (the index kappa_j) is the
single combinatorial input to the solvability theory; the dimension
formulas evaluated in :func:`predict_dimensions` depend on nothing else.
A vanishing A is rejected by :func:`coeff_jet` alone: on the samples that
the operators are assembled from and at every node an index count samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from gnk.errors import NonConvergent, ZeroCoefficient
from gnk.geometry import (MAX_DOUBLINGS, TURN_BLOCK, TWO_PI, Curve, ParamGrid, Region,
                          _as_complex, _fourier_curve, _json_array, _json_number,
                          _json_object, _parse_json_source, _require_finite,
                          _turns_about_points)

MIN_MODULUS = 1e-12


@dataclass(frozen=True)
class One:
    """A identically one (the modified Dirichlet problem)."""

    def jet(self, region: Region, k: int, s):
        s_arr = np.asarray(s, dtype=float)
        if s_arr.ndim == 0:
            return 1 + 0j, 0j
        return np.ones_like(s_arr, dtype=complex), np.zeros_like(s_arr, dtype=complex)


@dataclass(frozen=True)
class ShiftedPower:
    """A(t) = (eta(t) - z0)**power, power an integer, with its exact derivative."""

    z0: complex
    power: int

    def __post_init__(self):
        if not float(self.power).is_integer():
            raise ValueError(f"coefficient power must be an integer, got {self.power!r}")
        object.__setattr__(self, "power", int(self.power))

    def jet(self, region: Region, k: int, s):
        eta, eta_d, _ = region.curves[k].jet(s)
        u = eta - self.z0
        value = u ** self.power
        deriv = self.power * u ** (self.power - 1) * eta_d
        return value, deriv


@dataclass(frozen=True)
class TrigCoefficient:
    """Per-curve trigonometric polynomials: A on curve k is the Fourier series
    ``per_curve[k]``, a :class:`Curve`, so duplicate powers are rejected."""

    per_curve: tuple[Curve, ...]

    def jet(self, region: Region, k: int, s):
        if len(self.per_curve) != region.m:
            raise ValueError("trig coefficient must supply one entry per curve")
        return self.per_curve[k].jet(s)[:2]


Coefficient = Union[One, ShiftedPower, TrigCoefficient]


def coeff_jet(coeff: Coefficient, region: Region, k: int, s):
    """Exact (A, A') at parameter s on curve k; raises on a non-finite or
    vanishing A."""
    with np.errstate(over="ignore", invalid="ignore"):
        value, deriv = coeff.jet(region, k, s)
    _require_finite((value, deriv), f"the coefficient on curve {k}")
    if np.abs(value).min() < MIN_MODULUS:
        raise ZeroCoefficient(f"|A| < {MIN_MODULUS:g} on curve {k}")
    return value, deriv


def sample(coeff: Coefficient, region: Region, grid: ParamGrid):
    """Flat (A, A') arrays on the grid, curve-major, length m * n."""
    values, derivs = [], []
    for k in range(region.m):
        v, d = coeff_jet(coeff, region, k, grid.nodes)
        values.append(v)
        derivs.append(d)
    return np.concatenate(values), np.concatenate(derivs)


@dataclass(frozen=True)
class IndexReport:
    """Per-curve and total winding of A plus the derived dimension counts.

    ``dim_S_plus_bounds`` / ``codim_R_plus_bounds`` are closed intervals;
    they collapse to a point except when the total index sits in the
    intermediate range -m+1 .. -1, where only bounds are known.
    """

    kappa_per_curve: tuple[int, ...]
    kappa: int
    dim_S_minus: int
    codim_R_minus: int
    dim_null_I_plus_N: int
    dim_null_I_minus_N: int
    dim_S_plus_bounds: tuple[int, int]
    codim_R_plus_bounds: tuple[int, int]


def predict_dimensions(kappa_per_curve) -> IndexReport:
    """Solvability dimensions as functions of the per-curve indices."""
    kj = tuple(int(k) for k in kappa_per_curve)
    m = len(kj)
    kappa = sum(kj)
    dim_s_minus = sum(max(0, 2 * k + 1) for k in kj)
    codim_r_minus = sum(max(0, -2 * k - 1) for k in kj)
    if kappa >= 0:
        s_plus = (0, 0)
        r_plus = (2 * kappa + m, 2 * kappa + m)
    elif kappa <= -m:
        s_plus = (-2 * kappa - m, -2 * kappa - m)
        r_plus = (0, 0)
    else:
        # intermediate range: only an interval is known; dimensions cannot
        # be negative so the lower ends are clamped at zero
        s_plus = (max(0, -2 * kappa - m), -kappa)
        r_plus = (max(0, 2 * kappa + m), m + kappa)
    return IndexReport(
        kappa_per_curve=kj,
        kappa=kappa,
        dim_S_minus=dim_s_minus,
        codim_R_minus=codim_r_minus,
        dim_null_I_plus_N=dim_s_minus,
        dim_null_I_minus_N=codim_r_minus,
        dim_S_plus_bounds=s_plus,
        codim_R_plus_bounds=r_plus,
    )


def _windings(loops, n: int) -> list[int]:
    """Winding of each loop s -> (A, A') about 0.  A count starts on the
    first grid of n 2^j nodes, j >= 0, with more than 4 max|A'/A| nodes (the
    max over the n nodes), whose steps turn A by less than pi/2 and so
    cannot alias, or on the n nodes when that grid would pass TURN_BLOCK
    nodes.  The loops read A through :func:`coeff_jet`, which rejects a
    vanishing A, so a NaN count is one that did not settle."""
    turns = []
    for loop in loops:
        value, deriv = loop(np.arange(n) * (TWO_PI / n))
        fewest, start = 4 * np.abs(deriv / value).max(), n
        while start <= fewest and start <= TURN_BLOCK:
            start *= 2
        turns.append(_turns_about_points(lambda s: loop(s)[0], [0j],
                                         n if start > TURN_BLOCK else start, 0.0)[0])
    if np.isnan(turns).any():
        raise NonConvergent(f"a winding did not settle after {MAX_DOUBLINGS} halvings")
    return [int(w) for w in turns]


def index_of(coeff: Coefficient, region: Region, grid: ParamGrid) -> IndexReport:
    """Winding of A about 0 along each curve, counted by argument steps from
    the grid's nodes on, refined as :func:`_windings` sets out."""
    return predict_dimensions(_windings(
        [lambda s, k=k: coeff_jet(coeff, region, k, s) for k in range(region.m)], grid.n))


def load_coefficient(source) -> Coefficient:
    """Build a coefficient from a parsed dict or the path of its JSON file."""
    obj = _json_object(_parse_json_source(source), "coefficient")
    kind = obj.get("type")
    if kind == "one":
        return One()
    if kind == "shifted_power":
        z0 = _require_finite(_as_complex(obj["z0"], "coefficient z0"), "coefficient z0")
        return ShiftedPower(z0=z0, power=_json_number(obj["power"], "coefficient power"))
    if kind == "trig":
        return TrigCoefficient(tuple(
            _fourier_curve(rows, "coefficient values")
            for rows in _json_array(obj["per_curve"], "coefficient per_curve")))
    raise ValueError(f"unknown coefficient type {kind!r}")
