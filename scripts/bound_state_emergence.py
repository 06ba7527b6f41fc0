#!/usr/bin/env python3
"""Sweep the square-well depth across the critical coupling.

The radial well V = -v0 on [0, r0] in d = 3 binds its first state exactly
when v0 r0^2 exceeds pi^2/4.  This script sweeps v0 through the threshold,
reports the lowest discrete eigenvalue and the outlier count at each depth,
and at the deepest point compares the ground state against the
transcendental matching equation

    k cot(k r0) = -sqrt(|E|),   k = sqrt(v0 - |E|),

which is solvable to machine precision independently of any grid.

Near the threshold the lowest-eigenvalue column flips sign before the
outlier count does: a shallow bound state can sit inside the
resolution-calibrated outlier tolerance until it binds more deeply.
"""

from __future__ import annotations

import argparse
import math

import numpy as np
from scipy.optimize import brentq

from spectra_cert.potentials import catalog
from spectra_cert.spectral import discretize_radial, spectrum


def matching_ground_state(v0: float, r0: float = 1.0) -> float:
    """Ground-state energy from the log-derivative matching condition."""
    if v0 * r0**2 <= math.pi**2 / 4.0:
        raise ValueError("well too shallow to bind")
    k = brentq(
        lambda kk: kk / math.tan(kk * r0) + math.sqrt(v0 - kk * kk),
        math.pi / (2 * r0) + 1e-9,
        min(math.pi / r0, math.sqrt(v0)) - 1e-9,
    )
    return k * k - v0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--radius", type=float, default=60.0, help="domain radius")
    ap.add_argument("--grid-n", type=int, default=600, help="radial grid points")
    ap.add_argument("--steps", type=int, default=9, help="depths across the sweep")
    args = ap.parse_args()

    v_crit = math.pi**2 / 4.0
    factors = np.linspace(0.6, 2.4, args.steps)

    print(f"critical depth v0* = pi^2/4 = {v_crit:.6f}  (r0 = 1)")
    print(f"{'v0/v0*':>8} {'lowest eig':>14} {'outliers':>9}")
    for fac in factors:
        well = catalog("square_well", v0=fac * v_crit, r0=1.0)
        op = discretize_radial(well, 0, args.radius, args.grid_n)
        rep = spectrum(op)
        low = float(np.min(rep.eigenvalues.real))
        print(f"{fac:8.3f} {low:14.6f} {len(rep.outlier_indices):9d}")

    v_deep = 5.0 * v_crit
    e_star = matching_ground_state(v_deep)
    op = discretize_radial(catalog("square_well", v0=v_deep, r0=1.0), 0, 20.0, 500)
    rep = spectrum(op)
    if not rep.outlier_indices:
        print("deep well produced no outlier; increase the resolution")
        return 1
    e_fd = rep.outliers[0].real
    rel = abs(e_fd - e_star) / abs(e_star)
    print(f"\ndeep well v0 = 5 pi^2/4: grid {e_fd:.6f}  matching {e_star:.6f}"
          f"  rel err {rel:.2e}")
    return 0 if rel < 0.01 else 1


if __name__ == "__main__":
    raise SystemExit(main())
