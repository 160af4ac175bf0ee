"""Geometry of unbounded multiply connected regions with smooth boundaries.

A region is the unbounded complement of m disjoint closed holes.  Each hole
boundary is a finite trigonometric polynomial

    eta(s) = sum_p a_p exp(i p s),    0 <= s < 2 pi,

traversed clockwise, so the first two derivatives are available in closed
form and the diagonal kernel values downstream are exact.  Parameters live
on the disjoint union of m copies of [0, 2 pi); sampled boundary data is
stored curve-major as flat arrays of length m * n.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from gnk.errors import OddGridSize

TWO_PI = 2.0 * math.pi
# degeneracy thresholds of validate_region and of its turn counts
MIN_SPEED = 1e-6
MIN_DISTANCE = 1e-6
# levels of segment halving before a turn count gives up: a step that still
# reaches pi/2 puts its point within a 2^-20 piece of the curve
MAX_DOUBLINGS = 20
# point-node pairs per block of a turn count, and the most nodes that an
# index count refines its grid to
TURN_BLOCK = 2**16
# relative allowance for the rounding of sampled eta when two enclosing discs
# decide a pair; it only sends near-tangent pairs to the sampled test
DISC_SLACK = 1e-9


def _require_finite(values, what: str):
    """Return values unchanged; raise ValueError if any entry is NaN or infinite."""
    if not np.isfinite(values).all():
        raise ValueError(f"{what} must be finite")
    return values


@dataclass(frozen=True)
class Curve:
    """A closed curve given by complex Fourier coefficients.

    ``powers`` and ``coeffs`` define eta(s) = sum a_p exp(i p s).  Instances
    are treated as immutable; orientation and smoothness are checked by
    :func:`validate_region`, never silently corrected.  :meth:`jet` is the
    one Fourier-series evaluator: trig coefficients and trig data use it too.
    """

    powers: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.powers, dtype=float).ravel()
        if not (np.isfinite(raw) & (raw == np.trunc(raw))).all():
            raise ValueError(f"Fourier powers must be integers, got {raw}")
        powers = raw.astype(int)
        coeffs = np.asarray(self.coeffs, dtype=complex).ravel()
        if powers.shape != coeffs.shape:
            raise ValueError("powers and coeffs must have equal length")
        if len(set(powers.tolist())) != len(powers):
            raise ValueError("duplicate Fourier powers")
        _require_finite(coeffs, "curve coefficients")
        object.__setattr__(self, "powers", powers)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def centroid(self) -> complex:
        """Mean of eta over one period (the p = 0 coefficient)."""
        mask = self.powers == 0
        return complex(self.coeffs[mask].sum()) if mask.any() else 0j

    @property
    def radius(self) -> float:
        """sum_{p != 0} |a_p|: no point of the curve lies farther from the
        centroid, so the curve stays inside that enclosing disc."""
        return float(np.abs(self.coeffs[self.powers != 0]).sum())

    def jet(self, s):
        """Evaluate (eta, eta', eta'') at scalar or array parameter s."""
        s_arr = np.asarray(s, dtype=float)
        phase = np.exp(1j * np.multiply.outer(s_arr, self.powers.astype(float)))
        ip = 1j * self.powers
        eta = phase @ self.coeffs
        eta_d = phase @ (ip * self.coeffs)
        eta_dd = phase @ (ip * ip * self.coeffs)
        if s_arr.ndim == 0:
            return complex(eta), complex(eta_d), complex(eta_dd)
        return eta, eta_d, eta_dd


def circle(center: complex, radius: float) -> Curve:
    """Clockwise circle: eta(s) = center + radius exp(-i s)."""
    return Curve(powers=[0, -1], coeffs=[complex(center), complex(radius)])


def ellipse(center: complex, a: float, b: float) -> Curve:
    """Clockwise ellipse eta(s) = center + a cos(s) - i b sin(s)."""
    return Curve(powers=[0, 1, -1],
                 coeffs=[complex(center), (a - b) / 2.0, (a + b) / 2.0])


@dataclass(frozen=True)
class ParamGrid:
    """Uniform periodic grid with n nodes s_i = 2 pi i / n on every curve."""

    n: int

    def __post_init__(self):
        if self.n % 2 != 0:
            raise OddGridSize(f"grid size must be even, got {self.n}")
        if self.n < 8:
            raise ValueError(f"grid size must be >= 8, got {self.n}")

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n) * (TWO_PI / self.n)


@dataclass(frozen=True)
class Region:
    """Unbounded region bounded by m disjoint clockwise curves.

    ``hole_points[k]`` is a reference point inside the k-th hole; the last
    hole's point is the Mobius center.
    """

    curves: tuple[Curve, ...]
    hole_points: tuple[complex, ...]

    @classmethod
    def from_curves(
        cls,
        curves: Sequence[Curve],
        hole_points: Sequence[complex] | None = None,
    ) -> "Region":
        curves = tuple(curves)
        if not curves:
            raise ValueError("a region needs at least one boundary curve")
        if hole_points is None:
            hole_points = tuple(c.centroid for c in curves)
        else:
            hole_points = tuple(complex(z) for z in hole_points)
        if len(hole_points) != len(curves):
            raise ValueError("need exactly one hole point per curve")
        _require_finite(hole_points, "hole points")
        return cls(curves, hole_points)

    @property
    def m(self) -> int:
        return len(self.curves)

    def sample(self, grid: ParamGrid):
        """Flat (eta, eta', eta'') arrays of length m * n, curve-major."""
        jets = [c.jet(grid.nodes) for c in self.curves]
        return tuple(np.concatenate(parts) for parts in zip(*jets))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            flag = "ok " if c.passed else "FAIL"
            lines.append(f"[{flag}] {c.name}: margin={c.margin:.3e} {c.detail}".rstrip())
        return "\n".join(lines)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")  # a node on a point gives NaN
def _turns_about_points(loop: Callable[[np.ndarray], np.ndarray], points,
                        n: int, min_modulus: float) -> np.ndarray:
    """Winding numbers of the closed loop s -> loop(s), s in [0, 2 pi), about
    each point, as floats: the argument steps between n equally spaced
    samples, TURN_BLOCK point-node pairs at a time, where each segment whose
    step reaches pi/2 is halved, for at most MAX_DOUBLINGS levels.  NaN
    where a sampled node comes within min_modulus of the point, or where a
    step still reaches pi/2 after the last level."""
    points = np.asarray(points, dtype=complex).ravel()
    h = TWO_PI / n
    values = np.asarray(loop(np.arange(n) * h), dtype=complex)
    turns = np.empty(points.size)
    wide_at = [np.zeros(0, dtype=int)]  # point * n + segment, where a step reaches pi/2
    rows = max(1, TURN_BLOCK // n)
    for start in range(0, points.size, rows):
        z = points[start:start + rows, None]
        w = values - z
        steps = np.angle((np.roll(values, -1) - z) / w)
        wide = np.abs(steps) >= math.pi / 2
        steps[wide] = 0.0
        turns[start:start + rows] = np.where(
            np.abs(w).min(axis=1) > min_modulus, steps.sum(axis=1), np.nan)
        wide_at.append(np.flatnonzero(wide) + start * n)
    p, i = np.divmod(np.concatenate(wide_at), n)
    s, left, right = i * h, values[i] - points[p], values[(i + 1) % n] - points[p]
    for _ in range(MAX_DOUBLINGS):
        if not p.size:
            break
        h /= 2
        mid = np.asarray(loop(s + h), dtype=complex) - points[p]
        turns[p[~(np.abs(mid) > min_modulus)]] = np.nan
        p, s = np.concatenate((p, p)), np.concatenate((s, s + h))
        left, right = np.concatenate((left, mid)), np.concatenate((mid, right))
        steps = np.angle(right / left)
        wide = np.abs(steps) >= math.pi / 2
        np.add.at(turns, p[~wide], steps[~wide])
        p, s, left, right = p[wide], s[wide], left[wide], right[wide]
    turns[p] = np.nan
    turns /= TWO_PI
    return np.add(np.rint(turns, out=turns), 0.0, out=turns)  # + 0.0: no -0.0 counts


def _discs_apart(a: tuple[complex, float], b: tuple[complex, float]) -> bool:
    """True when two curves' enclosing discs a and b, (centre, radius), are
    disjoint, with DISC_SLACK of their scale to spare for rounding.

    The curves are then disjoint, so each winds 0 about the other's
    samples; _turns_about_points counts that 0 both ways unless a sample
    lies so near the other curve that its count is NaN.
    """
    (ca, ra), (cb, rb) = a, b
    return abs(ca - cb) > ra + rb + DISC_SLACK * (abs(ca) + abs(cb) + ra + rb)


def validate_region(region: Region, grid: ParamGrid) -> ValidationReport:
    """Check all region invariants on the given grid.

    Failures are reported as data, not raised: orientation, smoothness and
    disjointness problems in user input should surface side by side, and
    some workflows legitimately run with individual checks failing (for
    example a gallery region that encloses the origin).  The mutual
    windings of a pair whose enclosing discs are apart are 0 and not
    sampled; the reported checks are the same as with every winding sampled.
    """
    checks: list[CheckResult] = []
    samples = []
    # every squared-distance table is a view of one n x n buffer, so no
    # table faults in freshly mapped pages
    buffer = np.empty((grid.n, grid.n))

    def gap(a, b, same):
        """min |a_i - b_j| (i != j if same), bit for bit the complex abs.

        One product of n x 4 and 4 x n factors gives every |a_i|^2 + |b_j|^2
        - 2 Re(a_i conj b_j), within about 7 eps (max|a| + max|b|)^2 of
        dx^2 + dy^2.  Only pairs within 32 eps scale of its minimum can hold
        the smallest complex abs, and only those are taken exactly.  scale
        is twice that square, so the product cannot overflow while it is
        finite; a non-finite scale or table takes every pair exactly.
        einsum, not matmul: a first BLAS matrix product adds 0.35 MB to a
        CLI run's peak RSS, einsum 0.15 MB.
        """
        scale = 2.0 * (float(np.abs(a).max()) + float(np.abs(b).max()))**2
        table = buffer[:a.size, :b.size]
        np.einsum("ik,kj->ij",
                  np.stack((a.real, a.imag, a.real**2 + a.imag**2, np.ones(a.size)), 1),
                  np.stack((-2.0 * b.real, -2.0 * b.imag, np.ones(b.size),
                            b.real**2 + b.imag**2)), out=table)
        if same:
            np.fill_diagonal(table, np.inf)
        least = table.min(axis=1)
        bound = least.min() + 32 * sys.float_info.epsilon * scale + sys.float_info.min
        rows = np.flatnonzero(~(least > bound))  # NaN-safe, like the mask below
        i, j = np.nonzero(~(table[rows] > bound))
        i = rows[i]
        if same:
            i, j = i[i != j], j[i != j]
        return float(np.abs(a[i] - b[j]).min())

    for k, curve in enumerate(region.curves):
        eta, eta_d, _ = curve.jet(grid.nodes)
        samples.append(eta)
        speed = float(np.abs(eta_d).min())
        checks.append(CheckResult(
            f"speed[{k}]", speed >= MIN_SPEED, speed,
            f"min |eta'| vs {MIN_SPEED:g}"))
        self_gap = gap(eta, eta, True)
        checks.append(CheckResult(
            f"simple[{k}]", self_gap >= MIN_DISTANCE, self_gap,
            f"min pairwise sample distance vs {MIN_DISTANCE:g}"))
    curves = region.curves
    discs = [(curve.centroid, curve.radius) for curve in curves]
    for j in range(region.m):
        for k in range(j + 1, region.m):
            # a node is in the nearest pair only if its distance to the other
            # curve's disc is within an attained distance; a NaN or inf reach keeps all
            (a, (ca, ra)), (b, (cb, rb)) = (samples[j], discs[j]), (samples[k], discs[k])
            to_b, to_a = np.abs(a - cb) - rb, np.abs(b - ca) - ra
            reach = np.abs(a[to_b.argmin()] - b).min() + DISC_SLACK * (abs(ca) + abs(cb) + ra + rb)
            cross = gap(a[~(to_b > reach)], b[~(to_a > reach)], False)
            # sample distance alone misses interpenetration, so also require
            # each curve's samples to wind exactly zero about the other
            turns = 0.0 if _discs_apart(discs[j], discs[k]) else float(np.abs(
                np.concatenate([_turns_about_points(lambda s: c.jet(s)[0], z, grid.n,
                                                    MIN_DISTANCE)
                                for c, z in ((curves[j], samples[k]),
                                             (curves[k], samples[j]))])).max())
            checks.append(CheckResult(
                f"disjoint[{j},{k}]", cross >= MIN_DISTANCE and turns == 0, cross,
                f"min cross-curve distance vs {MIN_DISTANCE:g}; "
                f"max mutual winding {turns:.3f}"))
    # windings[j, k]: curve j about hole point k, and in the last column
    # about the origin
    points = region.hole_points + (0j,)
    windings = np.array([_turns_about_points(lambda s: curve.jet(s)[0], points, grid.n,
                                             MIN_DISTANCE) for curve in curves])
    for k in range(region.m):
        for name, j, i, expected in (
                [(f"orientation[{k}]", k, k, -1)]
                + [(f"hole_point[{k}] outside curve[{j}]", j, k, 0)
                   for j in range(region.m) if j != k]
                + [(f"zero_in_region[{k}]", k, region.m, 0)]):
            w = float(windings[j, i])
            got = "nan, too close to count" if math.isnan(w) else int(w)
            checks.append(CheckResult(name, w == expected, w, f"expected {expected}, got {got}"))
    return ValidationReport(tuple(checks))


def _parse_json_source(source):
    """Accept a parsed object or the path of a JSON file holding one."""
    obj = source
    if not isinstance(obj, (dict, list)):
        obj = json.loads(Path(source).read_text())
    if not isinstance(obj, (dict, list)):
        raise ValueError("JSON input must be an object or a list")
    return obj


def _json_object(obj, what: str) -> dict:
    """Return obj unchanged; raise ValueError unless it is a JSON object."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    return obj


def _json_array(obj, what: str):
    """Return obj unchanged; raise ValueError if it is null, a boolean or a
    number, the JSON values that have no items to iterate."""
    if obj is None or isinstance(obj, (bool, int, float)):
        raise ValueError(f"{what} must be a JSON array, got {obj!r}")
    return obj


def _json_number(obj, what: str):
    """Return obj unchanged; raise ValueError unless it is a JSON number
    (a boolean is not one, and a string is not parsed) that a float holds."""
    if obj is None or isinstance(obj, (bool, str, list, tuple, dict)):
        raise ValueError(f"{what} must be a number, got {obj!r}")
    if isinstance(obj, int) and abs(obj) > sys.float_info.max:
        raise ValueError(f"{what} is an integer beyond the float range")
    return obj


def _fourier_curve(rows, what: str) -> Curve:
    """The Curve of [p, re, im] rows; ``what`` names the coefficients in the
    error raised when one is not finite."""
    powers, coeffs = [], []
    for row in _json_array(rows, "Fourier rows"):
        if not isinstance(row, (list, tuple)) or len(row) != 3:
            raise ValueError(f"Fourier rows must be [p, re, im], got {row!r}")
        p, re, im = (_json_number(x, "Fourier row entry") for x in row)
        powers.append(p)
        coeffs.append(complex(float(re), float(im)))
    return Curve(powers, _require_finite(np.asarray(coeffs, dtype=complex), what))


def _as_complex(pair, what: str) -> complex:
    """complex(x, y) of an [x, y] pair."""
    x, y = _json_array(pair, what)
    return complex(float(_json_number(x, what)), float(_json_number(y, what)))


def _curve_from_dict(entry: dict) -> Curve:
    kind = _json_object(entry, "curve entry").get("type")
    if kind == "circle":
        return circle(_as_complex(entry["center"], "circle center"),
                      float(_json_number(entry["radius"], "circle radius")))
    if kind == "ellipse":
        a, b = (float(_json_number(entry[key], f"ellipse {key}")) for key in ("a", "b"))
        return ellipse(_as_complex(entry["center"], "ellipse center"), a, b)
    if kind == "trig":
        return _fourier_curve(entry["coeffs"], "curve coefficients")
    raise ValueError(f"unknown curve type {kind!r}")


def load_region(source) -> Region:
    """Build a Region from a parsed dict or the path of its JSON file.

    Circles and ellipses are emitted clockwise by construction; "trig"
    curves are taken as given and must describe clockwise traversal
    (validation rejects the opposite orientation, it is never fixed up).
    """
    obj = _json_object(_parse_json_source(source), "region")
    curves = [_curve_from_dict(entry) for entry in _json_array(obj["curves"], "curves")]
    hole_points = None
    if obj.get("hole_points") is not None:
        hole_points = [_as_complex(p, "hole point")
                       for p in _json_array(obj["hole_points"], "hole_points")]
    return Region.from_curves(curves, hole_points)
