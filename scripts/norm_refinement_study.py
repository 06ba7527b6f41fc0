#!/usr/bin/env python3
"""Birman-Schwinger norm refinement and resolvent domination.

For the inverse-square potential a/|x|^2 the z = 0 operator norm equals the
subordination constant a exactly (the Hardy constant is sharp but not
attained, so every finite grid undershoots).  This script refines the grid,
extrapolates with Aitken's delta-squared, and then scans resolvent points z
to display the domination ||K_z|| <= ||K_0|| that makes z = 0 the only norm
worth certifying.
"""

from __future__ import annotations

import argparse
import time

from spectra_cert.birman_schwinger import assemble_bs, default_bs_grid
from spectra_cert.numerics import aitken_extrapolate
from spectra_cert.potentials import catalog

Z_POINTS = (-10.0, -1.0, -0.1, 1j, -1j, -1 + 1j, -1 - 1j)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a", type=float, default=0.5, help="inverse-square coupling")
    ap.add_argument(
        "--grids", type=int, nargs="+", default=[200, 400, 800],
        help="grid sizes for the refinement study (need >= 3 for Aitken)",
    )
    ap.add_argument("--ell-max", type=int, default=4, help="sectors for the z scan")
    args = ap.parse_args()

    pot = catalog("hardy", a=args.a)

    print(f"inverse-square coupling a = {args.a}")
    print(f"{'n':>6} {'||K_0||':>12} {'time (s)':>9}")
    norms = []
    for n in args.grids:
        t0 = time.perf_counter()
        norms.append(assemble_bs(pot, 0.0, default_bs_grid(n), ell_max=0).norm)
        print(f"{n:6d} {norms[-1]:12.8f} {time.perf_counter() - t0:9.2f}")
    if len(norms) >= 3:
        limit = aitken_extrapolate(norms)
        print(f"Aitken limit {limit:.8f}  (target {args.a}, "
              f"off by {abs(limit - args.a) / args.a:.2e})")

    grid = default_bs_grid(256)
    base = assemble_bs(pot, 0.0, grid, ell_max=args.ell_max)
    print(f"\nz scan at n = 256, ell <= {args.ell_max}; base ||K_0|| = {base.norm:.6f}")
    print(f"{'z':>12} {'||K_z||':>12} {'dominated':>10}")
    ok = True
    for z in Z_POINTS:
        bs = assemble_bs(pot, z, grid, ell_max=args.ell_max)
        dominated = bs.dominated_by(base)
        ok = ok and dominated
        print(f"{str(z):>12} {bs.norm:12.8f} {str(dominated):>10}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
