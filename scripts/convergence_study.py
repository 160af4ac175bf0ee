#!/usr/bin/env python3
"""Grid-refinement study on the three-circle gallery.

For each grid size this solves the modified Dirichlet problem against a
rational reference solution with poles at the hole centers (plus known
per-curve constant shifts), and measures:

  mu_err    sup error of the recovered imaginary boundary part
  h_err     worst error of the recovered per-curve constants
  r1, r2    residuals of the operator identities N^2 - M^2 = I, NM + MN = 0
  chi_res   worst residual of (I + N) chi over the indicator basis

All quantities decay spectrally until they hit roundoff.
"""

import argparse

import numpy as np

from gnk.coefficient import One
from gnk.discrete import assemble_N, indicator_basis, operator_identity_residuals
from gnk.geometry import ParamGrid, Region, circle
from gnk.rhp import solve_rhp

CENTERS = (3.0 + 0.0j, -2.0 + 2.5j, -0.5 - 3.0j)
RADII = (1.0, 0.8, 1.2)
AMPLITUDES = (1.0 + 0.5j, -0.7 + 0.2j, 0.4 - 1.1j)
SHIFTS = (0.3, -1.2, 2.0)


def run(n_values):
    region = Region.from_curves(
        [circle(c, r) for c, r in zip(CENTERS, RADII)])
    print(f"{'n':>5} {'mu_err':>10} {'h_err':>10} {'r1':>10} {'r2':>10} {'chi_res':>10}")
    for n in n_values:
        grid = ParamGrid(n)
        ops = assemble_N(region, One(), grid)
        eta, _, _ = region.sample(grid)
        f_plus = sum(a / (eta - c) for a, c in zip(AMPLITUDES, CENTERS))
        gamma = f_plus.real + np.repeat(SHIFTS, n)

        # the general solve has no constancy gate, so coarse grids print too;
        # the per-curve means of h are the Dirichlet constants
        solution = solve_rhp(ops, gamma)
        mu_err = np.abs(solution.mu - f_plus.imag).max()
        h_means = solution.h.reshape(region.m, n).mean(axis=1)
        h_err = max(abs(h + c) for h, c in zip(h_means, SHIFTS))

        s = grid.nodes
        phi = np.concatenate([np.cos(3 * s) + 0.5 * np.sin(7 * s),
                              np.sin(2 * s), np.cos(5 * s)])
        r1, r2 = operator_identity_residuals(ops, phi)

        chi_res = max(np.abs(chi + ops.N @ chi).max()
                      for chi in indicator_basis(region, grid))
        print(f"{n:>5} {mu_err:>10.2e} {h_err:>10.2e} {r1:>10.2e} "
              f"{r2:>10.2e} {chi_res:>10.2e}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-values", type=int, nargs="+",
                        default=[16, 32, 64, 128, 256])
    args = parser.parse_args()
    run(args.n_values)


if __name__ == "__main__":
    main()
