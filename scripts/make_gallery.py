#!/usr/bin/env python3
"""Write a ready-to-run gallery of region, coefficient, and data files.

Creates JSON inputs for the CLI in the target directory and prints a few
commands to try against them.
"""

import argparse
import json
from pathlib import Path

CENTERS = ((3.0, 0.0), (-2.0, 2.5), (-0.5, -3.0))
RADII = (1.0, 0.8, 1.2)
AMPLITUDES = ((1.0, 0.5), (-0.7, 0.2), (0.4, -1.1))

FILES = {
    "region_circles.json": {
        "curves": [{"type": "circle", "center": list(c), "radius": r}
                   for c, r in zip(CENTERS, RADII)],
    },
    "region_mixed.json": {
        "curves": [
            {"type": "ellipse", "center": list(CENTERS[0]), "a": 1.2, "b": 0.7},
            {"type": "circle", "center": list(CENTERS[1]), "radius": RADII[1]},
            {"type": "ellipse", "center": list(CENTERS[2]), "a": 0.9, "b": 1.3},
        ],
    },
    # the ellipse's enclosing disc (radius 3.5) holds the origin and the
    # second hole point, both outside the ellipse, and overlaps the other
    # two discs, so validation samples those windings
    "region_close.json": {
        "curves": [
            {"type": "ellipse", "center": list(CENTERS[0]), "a": 1.0, "b": 3.5},
            {"type": "circle", "center": [0.5, 2.0], "radius": 0.6},
            {"type": "circle", "center": list(CENTERS[2]), "radius": RADII[2]},
        ],
    },
    "coeff_one.json": {"type": "one"},
    "coeff_power.json": {"type": "shifted_power", "z0": list(CENTERS[2]), "power": 1},
    "data_poles.json": {
        "type": "poles",
        "terms": [{"c": list(c), "a": list(a)} for c, a in zip(CENTERS, AMPLITUDES)],
    },
    "data_mixed.json": [
        {"type": "poles",
         "terms": [{"c": list(c), "a": list(a)} for c, a in zip(CENTERS, AMPLITUDES)]},
        {"type": "constants", "values": [0.3, -1.2, 2.0]},
    ],
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="gallery", help="target directory")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, payload in FILES.items():
        (out / name).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {out / name}")
    print()
    print("try:")
    print(f"  gnk solve-dirichlet --region {out}/region_circles.json "
          f"--data {out}/data_mixed.json --n 128 --out runs/dirichlet")
    print(f"  gnk verify --region {out}/region_circles.json --n 128 --out runs/verify")
    print(f"  gnk index-report --region {out}/region_circles.json "
          f"--coeff {out}/coeff_power.json --out runs/index")
    print(f"  gnk eval-field --region {out}/region_circles.json "
          f"--data {out}/data_poles.json --n 128 --out runs/field "
          f"--field-grid=-6,6,60,-6,6,60")


if __name__ == "__main__":
    main()
