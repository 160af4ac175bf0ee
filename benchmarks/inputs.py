"""Seeded input generator for the gnk benchmark.

Each workload gets a region, a coefficient and (where the operation reads
it) a boundary-data JSON file, written in the formats the ``gnk`` CLI and
``gnk.load_*`` readers accept.  The geometry of every workload is fixed (the
16-circle lattice, the three-circle and the mixed test galleries), so the
problem size and the verify fault stay those the workloads are named for;
the seed draws the pole positions inside the holes, the pole amplitudes and
the per-curve constants.  The same seed gives byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The three-circle and mixed galleries of the test suite.
GALLERY_CENTERS = ((3.0, 0.0), (-2.0, 2.5), (-0.5, -3.0))
GALLERY_RADII = (1.0, 0.8, 1.2)
MIXED_SHAPES = (("ellipse", 1.2, 0.7), ("circle", 0.8, 0.8), ("ellipse", 0.9, 1.3))

# 16 radius-1 circles on a 4-unit lattice; the origin sits between holes.
LATTICE_AXIS = (-6.0, -2.0, 2.0, 6.0)
LATTICE_RADIUS = 1.0

# Poles sit within this share of the smaller semi-axis from the hole centre,
# far enough inside that n = 256 resolves the data to roundoff.
POLE_REACH = 0.4


@dataclass(frozen=True)
class Hole:
    """One boundary curve: a clockwise circle (a == b) or ellipse."""

    kind: str
    center: complex
    a: float
    b: float

    def to_json(self) -> dict:
        c = [self.center.real, self.center.imag]
        if self.kind == "circle":
            return {"type": "circle", "center": c, "radius": self.a}
        return {"type": "ellipse", "center": c, "a": self.a, "b": self.b}


@dataclass(frozen=True)
class Problem:
    """Generated inputs with the ground truth the oracles need."""

    holes: tuple[Hole, ...]
    poles: tuple[complex, ...]
    amplitudes: tuple[complex, ...]
    constants: tuple[float, ...]
    coeff: dict

    @property
    def m(self) -> int:
        return len(self.holes)

    def region_json(self) -> dict:
        return {"curves": [h.to_json() for h in self.holes],
                "hole_points": [[h.center.real, h.center.imag] for h in self.holes]}

    def data_json(self) -> list:
        terms = [{"c": [p.real, p.imag], "a": [a.real, a.imag]}
                 for p, a in zip(self.poles, self.amplitudes)]
        entries = [{"type": "poles", "terms": terms}]
        if any(self.constants):
            entries.append({"type": "constants", "values": list(self.constants)})
        return entries


def lattice16() -> tuple[Hole, ...]:
    return tuple(Hole("circle", complex(x, y), LATTICE_RADIUS, LATTICE_RADIUS)
                 for y in LATTICE_AXIS for x in LATTICE_AXIS)


def circles3() -> tuple[Hole, ...]:
    return tuple(Hole("circle", complex(*c), r, r)
                 for c, r in zip(GALLERY_CENTERS, GALLERY_RADII))


def mixed3() -> tuple[Hole, ...]:
    return tuple(Hole(kind, complex(*c), a, b)
                 for c, (kind, a, b) in zip(GALLERY_CENTERS, MIXED_SHAPES))


def _seeded_poles(rng: np.random.Generator, holes) -> tuple[tuple, tuple]:
    poles, amplitudes = [], []
    for hole in holes:
        reach = POLE_REACH * min(hole.a, hole.b) * np.sqrt(rng.uniform())
        poles.append(hole.center + reach * np.exp(2j * np.pi * rng.uniform()))
        amplitudes.append(complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)))
    return tuple(complex(p) for p in poles), tuple(amplitudes)


def make_problem(holes, seed, *, coeff: dict | None = None,
                 constants: bool = False) -> Problem:
    rng = np.random.default_rng(seed)
    poles, amplitudes = _seeded_poles(rng, holes)
    shifts = (tuple(float(c) for c in rng.uniform(-2.0, 2.0, len(holes)))
              if constants else (0.0,) * len(holes))
    return Problem(tuple(holes), poles, amplitudes, shifts, coeff or {"type": "one"})


def shifted_power(holes, power: int) -> dict:
    """A = (eta - z0)^power with z0 the centre of the last hole."""
    z0 = holes[-1].center
    return {"type": "shifted_power", "z0": [z0.real, z0.imag], "power": power}


def write_problem(problem: Problem, out: Path, *, with_data: bool = True) -> dict:
    """Write region/coeff(/data) JSON files; return their paths by role."""
    out.mkdir(parents=True, exist_ok=True)
    paths = {"region": out / "region.json", "coeff": out / "coeff.json"}
    paths["region"].write_text(json.dumps(problem.region_json(), indent=1) + "\n")
    paths["coeff"].write_text(json.dumps(problem.coeff) + "\n")
    if with_data:
        paths["data"] = out / "data.json"
        paths["data"].write_text(json.dumps(problem.data_json(), indent=1) + "\n")
    return paths



# rhp-batch-mixed3: A = (eta - z0)^-1 has indices (0, 0, 1), so I - N is
# nonsingular; A = (eta - z0)^+1 has total index -1 and a one-dimensional
# null space, which sends solve_rhp down the minimal-norm path.
BATCH_KINDS = (("regular", -1, 8), ("minnorm", 1, 1))


def batch_problems(seed: int) -> dict[str, list[Problem]]:
    """Seeded pole data sets on the mixed gallery, per coefficient kind."""
    holes = mixed3()
    return {kind: [make_problem(holes, (seed, i, k),
                                coeff=shifted_power(holes, power))
                   for k in range(count)]
            for i, (kind, power, count) in enumerate(BATCH_KINDS)}
