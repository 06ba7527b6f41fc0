"""Seeded job mixes for the benchmark.

Each workload is a function ``(rng, out_dir, tiny) -> list[Job]``.  The seed
draws potential parameters, spectral points and windows; grid sizes are fixed
per job slot so that the work stays comparable across seeds.  ``tiny`` shrinks
every size for the benchmark's own tests and is never used for timing.

Why these three mixes:

* ``bs-norm-scan`` -- Birman-Schwinger norms at z != 0: per-sector sigma_max by
  power iteration plus the angular-quadrature sector assembly.  No spectral
  work.  Sizes stop at n = 256 because one n = 512, ell_max = 4 assembly takes
  longer than a whole pass of the other slots.
* ``hs-conditions`` -- the same sector assembly at z = 0 only (closed-form
  kernels, Frobenius sums, no sigma_max), every condition quadrature and sup
  scan, the multiplier identities, and many small jobs, so per-job CLI
  overhead is a visible share.
* ``fd-spectra`` -- dense finite-difference numerics: thousands of shifted
  LU + inverse-iteration solves (pseudospectra) against a few large dense
  eigendecompositions (spectra).  No Birman-Schwinger work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

# The four z regions of the bs-norm scan.  Power iteration for sigma_max needs
# about 6000 steps per sector on the negative axis, 400 at arg z = 35 degrees
# and 7000 on the imaginary axis, nearly independent of |z|.  So each slot
# scans a fixed set of regions, and each region is a narrow band in arg z,
# which keeps the work of a pass within a few percent across seeds.
_Z_REGIONS = ("negative-axis", "upper-half", "lower-half", "near-cut")


@dataclass(frozen=True)
class Job:
    """One ``spectra-cert run`` config plus what the oracle needs to know."""

    job_id: str
    config: dict

    @property
    def record(self) -> dict:
        """Problem size of the job, as the run record lists it."""
        cfg = self.config
        exp = cfg["experiment"]
        n = cfg.get("grid_n")
        grid = {
            "bs-norm": "geometric-panels",
            "hs-identity": "log-uniform",
            "spectrum": "fd-cell-centered",
            "pseudospectrum": "fd-cell-centered",
        }.get(exp, "fixed-quadrature")
        if exp == "pseudospectrum":
            z_count = 40 * 40
        else:
            z_count = len(cfg.get("z_list", ()))
        return {
            "job": self.job_id,
            "experiment": exp,
            "n": n,
            "ell_max": cfg.get("ell_max"),
            "grid": grid,
            "z_count": z_count,
        }


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _z_point(rng: random.Random, region: str) -> list[float]:
    if region == "near-cut":  # Re z in [1, 16], 0 < |Im z| <= 0.05
        return [_u(rng, 1.0, 16.0), _u(rng, 0.001, 0.05) * rng.choice((-1.0, 1.0))]
    if region == "negative-axis":
        return [-_u(rng, 2.0, 8.0), 0.0]
    radius = _u(rng, 1.0, 8.0)
    angle = math.radians(_u(rng, 30.0, 40.0))
    sign = 1.0 if region == "upper-half" else -1.0
    return [round(radius * math.cos(angle), 6), round(sign * radius * math.sin(angle), 6)]


def _job(job_id: str, out_dir: str, formats: tuple[str, ...], **cfg) -> Job:
    cfg["output"] = {"path": f"{out_dir}/{job_id}", "formats": list(formats)}
    return Job(job_id, cfg)


def bs_norm_scan(rng: random.Random, out_dir: str, tiny: bool = False) -> list[Job]:
    def n(size: int) -> int:
        return 40 if tiny else size

    def ell(size: int) -> int:
        return 1 if tiny else size

    slots = [
        ("bs-hardy", {"name": "hardy", "params": {"a": _u(rng, 0.3, 0.8)}}, 128, 8, _Z_REGIONS),
        (
            "bs-gaussian",
            {"name": "gaussian", "params": {"v0": _u(rng, 0.5, 3.0), "c_im": _u(rng, 0.0, 2.0)}},
            192,
            4,
            ("negative-axis", "upper-half", "near-cut"),
        ),
        (
            "bs-imaginary-hardy",
            {"name": "imaginary_hardy", "params": {"beta": _u(rng, 0.1, 0.5)}},
            256,
            4,
            ("negative-axis", "lower-half"),
        ),
        (
            "bs-yukawa",
            {"name": "yukawa", "params": {"g": _u(rng, 0.5, 2.0), "mu": _u(rng, 0.5, 2.0)}},
            128,
            8,
            ("lower-half", "near-cut"),
        ),
    ]
    return [
        _job(
            job_id,
            out_dir,
            ("json",),
            experiment="bs-norm",
            potential=pot,
            grid_n=n(size),
            ell_max=ell(ell_max),
            z_list=[_z_point(rng, region) for region in regions],
        )
        for job_id, pot, size, ell_max, regions in slots
    ]


def _catalog_draws(rng: random.Random) -> list[tuple[str, dict]]:
    return [
        ("hardy", {"a": _u(rng, 0.3, 0.9)}),
        ("coulomb_repulsive", {"c": _u(rng, 0.5, 2.0)}),
        ("imaginary_hardy", {"beta": _u(rng, 0.05, 0.5)}),
        ("gaussian", {"v0": _u(rng, 0.5, 3.0), "c_im": _u(rng, 0.0, 2.0)}),
        ("yukawa", {"g": _u(rng, 0.5, 2.0), "mu": _u(rng, 0.5, 2.0)}),
        ("square_well", {"v0": _u(rng, 0.5, 5.0), "r0": _u(rng, 0.5, 2.0)}),
    ]


def hs_conditions(rng: random.Random, out_dir: str, tiny: bool = False) -> list[Job]:
    jobs = [
        _job(
            f"cc-{name.replace('_', '-')}",
            out_dir,
            ("json",),
            experiment="check-conditions",
            potential={"name": name, "params": params},
        )
        for name, params in _catalog_draws(rng)
    ]
    jobs.append(
        _job(
            "hs-gaussian",
            out_dir,
            ("json",),
            experiment="hs-identity",
            potential={
                "name": "gaussian",
                "params": {"v0": _u(rng, 0.5, 3.0), "c_im": _u(rng, 0.0, 2.0)},
            },
            grid_n=200 if tiny else 1600,
            ell_max=4 if tiny else 48,
            r_max=16.0,
        )
    )
    jobs.append(
        _job(
            "hs-yukawa",
            out_dir,
            ("json",),
            experiment="hs-identity",
            potential={"name": "yukawa", "params": {"g": _u(rng, 0.5, 2.0), "mu": _u(rng, 0.5, 2.0)}},
            grid_n=200 if tiny else 800,
            ell_max=4 if tiny else 16,
            r_max=40.0,
        )
    )
    for job_id, pot in (
        ("id-gaussian", {"name": "gaussian", "params": {"v0": _u(rng, 0.5, 3.0), "c_im": _u(rng, 0.0, 2.0)}}),
        ("id-yukawa", {"name": "yukawa", "params": {"g": _u(rng, 0.5, 2.0), "mu": _u(rng, 0.5, 2.0)}}),
    ):
        jobs.append(
            _job(
                job_id,
                out_dir,
                ("json", "csv"),
                experiment="identity-check",
                potential=pot,
                **{"lambda": [_u(rng, 0.5, 4.0), _u(rng, -2.0, 2.0)]},
            )
        )
    # the fitted residual slope tends to -1 as 1/|k|; from lambda = 5e3
    # (|k| > 70) the finite-n bias stays well inside the oracle's 0.01
    jobs.append(
        _job(
            "singular-sequence",
            out_dir,
            ("json", "csv"),
            experiment="singular-sequence",
            n_list=[2, 4, 8, 16, 32, 64],
            **{"lambda": _u(rng, 5.0e3, 2.0e4)},
        )
    )
    jobs.append(
        _job(
            "magnetic-uniform-z",
            out_dir,
            ("json",),
            experiment="magnetic-smoke",
            potential={"name": "uniform_z", "params": {"b": _u(rng, 0.5, 2.0)}},
            **{"lambda": [_u(rng, 0.5, 4.0), _u(rng, -2.0, 2.0)]},
        )
    )
    jobs.append(
        _job(
            "magnetic-azimuthal",
            out_dir,
            ("json",),
            experiment="magnetic-smoke",
            potential={"name": "azimuthal_inverse_square", "params": {}},
            **{"lambda": [_u(rng, 0.5, 4.0), _u(rng, -2.0, 2.0)]},
        )
    )
    return jobs


# the square well binds an l = 0 state once v0 r0^2 exceeds pi^2 / 4
_SQUARE_WELL_CRITICAL = math.pi**2 / 4.0


def fd_spectra(rng: random.Random, out_dir: str, tiny: bool = False) -> list[Job]:
    def n(size: int, tiny_size: int) -> int:
        # the square-well oracle needs h small enough that a well of radius
        # r0 - h still binds, hence its larger tiny size
        return tiny_size if tiny else size

    # Inverse iteration needs more steps per grid point the closer the
    # operator is to self-adjoint (about 95 at c_im = 0.5, 65 at c_im = 2 for
    # the gaussian), so the window keeps its shape and the imaginary
    # parts of the potentials stay in narrow bands.
    jobs = []
    for job_id, size, pot in (
        ("pseudo-small", 64, {"name": "imaginary_hardy", "params": {"beta": _u(rng, 0.35, 0.45)}}),
        (
            "pseudo-large",
            128,
            {"name": "gaussian", "params": {"v0": _u(rng, 1.0, 2.0), "c_im": _u(rng, 1.0, 1.5)}},
        ),
    ):
        # the grid row nearest the real axis dominates the step count, so only
        # the real range of the window moves
        window = [_u(rng, -2.25, -1.75), _u(rng, 5.75, 6.25), -2.0, 2.0]
        jobs.append(
            _job(
                job_id,
                out_dir,
                ("json", "csv"),
                experiment="pseudospectrum",
                potential=pot,
                grid_n=n(size, 16),
                r_max=14.0,
                z_window=window,
            )
        )
    jobs.append(
        _job(
            "spectrum-free",
            out_dir,
            ("json", "csv"),
            experiment="spectrum",
            grid_n=n(512, 32),
            r_max=_u(rng, 10.0, 30.0),
            ell_max=1,
        )
    )
    jobs.append(
        _job(
            "spectrum-square-well",
            out_dir,
            ("json", "csv"),
            experiment="spectrum",
            potential={
                "name": "square_well",
                "params": {"v0": _u(rng, 1.5 * _SQUARE_WELL_CRITICAL, 5.0), "r0": 1.0},
            },
            grid_n=n(384, 128),
            r_max=_u(rng, 12.0, 20.0),
            ell_max=2,
        )
    )
    jobs.append(
        _job(
            "spectrum-hardy",
            out_dir,
            ("json", "csv"),
            experiment="spectrum",
            potential={"name": "hardy", "params": {"a": _u(rng, 0.3, 0.9)}},
            grid_n=n(256, 32),
            r_max=_u(rng, 10.0, 30.0),
            ell_max=2,
        )
    )
    return jobs


WORKLOADS: dict[str, Callable[..., list[Job]]] = {
    "bs-norm-scan": bs_norm_scan,
    "hs-conditions": hs_conditions,
    "fd-spectra": fd_spectra,
}


def generate(workload: str, seed: int, out_dir: str, tiny: bool = False) -> list[Job]:
    """The job list of one workload; the same seed gives the same jobs."""
    return WORKLOADS[workload](random.Random(seed), out_dir, tiny)
