"""Oracles for every report the benchmark's jobs write.

Each check reads the JSON (and CSV) a job wrote and compares its witness
numbers with a value that does not come from the code path that produced
them: closed-form constants, exact discrete laws, a transcendental matching
equation, or a dense LAPACK decomposition of an independently rebuilt matrix.
``check_job`` returns the list of misses; an empty list means the job passed.

Tolerances are fixed from the decision each witness supports, never from the
errors observed on some seed:

* ``REL_CONST`` -- hypothesis constants are compared with thresholds the
  acceptance gate pins to 1e-4 (sqrt(b3) max) and 5e-4 (lambda star), so a
  constant good to 1e-4 cannot decide a verdict more loosely than the
  threshold it meets.
* ``NORM_SLACK`` -- the CLI's 2 % discretization slack for Nystroem norms; it
  bounds the matrix route of the HS identity, which is such a norm.
* ``SIGMA_TOL`` -- a twentieth of that slack for each sector sigma_max, so a
  sigma error moves a domination decision by at most a tenth of the slack.
* ``EIG_TOL`` -- the eigensolver contract |M v - lam v| <= 1e-10 |M|_F; for
  a real symmetric matrix the eigenvalue error is at most that residual.
* ``PSEUDO_TOL`` -- pseudospectra are read as log10 sigma_min contours a
  decade apart; 1e-3 relative shifts a contour by under 5e-4 decades.
* ``IDENTITY_TOL`` -- the multiplier identities' own settle tolerance, 1e-6.
* ``SLOPE_TOL`` -- the Weyl-sequence decay slopes -1 and -2 within 0.01.
* ``ZERO_TOL`` -- quantities that vanish identically by antisymmetry, as the
  acceptance gate checks them (1e-10).
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

import numpy as np
from scipy.linalg import eigvals, eigvalsh_tridiagonal, svdvals
from scipy.optimize import brentq

REL_CONST = 1e-4
NORM_SLACK = 0.02
SIGMA_TOL = NORM_SLACK / 20.0
EIG_TOL = 1e-10
PSEUDO_TOL = 1e-3
IDENTITY_TOL = 1e-6
SLOPE_TOL = 0.01
ZERO_TOL = 1e-10
PSEUDO_SAMPLES = 40

INF = math.inf


# --------------------------------------------------------------------------
# closed forms
# --------------------------------------------------------------------------


def condition_constants(name: str, p: dict) -> dict:
    """Exact constants of ``check-conditions`` in d = 3 ((d-2)/2)^2 = 1/4.

    a = 4 sup r^2 |V|, Lambda = 2 sup r^2 |V|, b1^2 = 4 sup r^2 (Re V)_-,
    b2^2 = 4 sup r^2 [d_r(r Re V)]_+, b3 = 2 sup r^2 |Im V|.  Keys absent from
    the table are not checked.
    """
    e = math.e
    if name == "hardy":  # |V| r^2 = a/4 everywhere
        a = p["a"]
        return dict(a=a, Λ=a / 2, b1=math.sqrt(a), b2=math.sqrt(a), b3=0.0,
                    rollnik=INF, frank_l32=INF, sobolev_chain_a=INF)
    if name == "imaginary_hardy":  # |V| r^2 = |Im V| r^2 = beta
        beta = p["beta"]
        return dict(a=4 * beta, Λ=2 * beta, b1=0.0, b2=0.0, b3=2 * beta,
                    rollnik=INF, frank_l32=INF, sobolev_chain_a=INF)
    if name == "coulomb_repulsive":  # r^2 c/r grows without bound
        return dict(a=INF, Λ=INF, b1=0.0, b2=0.0, b3=0.0,
                    rollnik=INF, frank_l32=INF, sobolev_chain_a=INF)
    if name == "gaussian":
        v0, c_im = p["v0"], p.get("c_im", 0.0)
        amp = abs(complex(v0, c_im))
        # r^2 e^{-r^2} peaks at r = 1 with 1/e.  For b2, with t = r^2,
        # (2t - 1) t e^{-t} peaks where 2t^2 - 5t + 1 = 0.
        t = (5.0 + math.sqrt(17.0)) / 4.0
        b2_sup = v0 * (2 * t * t - t) * math.exp(-t)
        # |V|_R^2 = A^2 int int e^{-|x|^2-|y|^2} / |x-y|^2 = A^2 pi^3 (u = x-y)
        frank = (math.pi / 1.5) ** 1.5 * amp**1.5
        return dict(a=4 * amp / e, Λ=2 * amp / e, b1=2 * math.sqrt(v0 / e),
                    b2=2 * math.sqrt(b2_sup), b3=2 * c_im / e,
                    rollnik=math.pi**1.5 * amp, frank_l32=frank,
                    sobolev_chain_a=_sobolev_chain(frank))
    if name == "yukawa":
        g, mu = p["g"], p["mu"]
        # g r e^{-mu r} peaks at r = 1/mu; g mu r^2 e^{-mu r} at r = 2/mu.
        # |V|_R^2 = 8 pi^2 (g/mu)^2 int int e^{-r-p} log((r+p)/|r-p|),
        # and with s = r+p the inner integral is s, so |V|_R^2 = 8 pi^2 g^2/mu^2.
        frank = 4 * math.pi * g**1.5 * math.gamma(1.5) / (1.5 * mu) ** 1.5
        return dict(a=4 * g / (e * mu), Λ=2 * g / (e * mu), b1=2 * math.sqrt(g / (e * mu)),
                    b2=4 * math.sqrt(g / mu) / e, b3=0.0,
                    rollnik=2 * math.sqrt(2) * math.pi * g / mu, frank_l32=frank,
                    sobolev_chain_a=_sobolev_chain(frank))
    if name == "square_well":  # v0 r^2 rises to v0 r0^2 at the edge
        v0, r0 = p["v0"], p["r0"]
        return dict(a=4 * v0 * r0**2, Λ=2 * v0 * r0**2, b1=2 * r0 * math.sqrt(v0),
                    b2=0.0, b3=0.0)
    raise KeyError(name)


def _sobolev_chain(frank: float) -> float:
    return frank ** (2.0 / 3.0) * 2.0 ** (4.0 / 3.0) / (3.0 * math.pi ** (4.0 / 3.0))


def hs_norm_exact(name: str, p: dict) -> float:
    """|K_0|_HS = |V|_R / (4 pi)."""
    return condition_constants(name, p)["rollnik"] / (4.0 * math.pi)


def radial_profile(name: str, p: dict, r: np.ndarray) -> np.ndarray:
    """V(r) of the catalog, written out again from its definition."""
    if name == "hardy":
        return -p["a"] / (4.0 * r**2) + 0j
    if name == "imaginary_hardy":
        return 1j * p["beta"] / r**2
    if name == "gaussian":
        return complex(-p["v0"], p.get("c_im", 0.0)) * np.exp(-(r**2))
    if name == "yukawa":
        return -p["g"] * np.exp(-p["mu"] * r) / r + 0j
    if name == "square_well":
        return np.where(r < p["r0"], -p["v0"], 0.0) + 0j
    raise KeyError(name)


def fd_matrix(cfg: dict, ell: int) -> np.ndarray:
    """Cell-centred -u'' + [l(l+1)/r^2 + V] u with Dirichlet ghost walls."""
    n, radius = cfg["grid_n"], cfg["r_max"]
    h = radius / n
    r = h * (np.arange(n) + 0.5)
    diag = np.full(n, 2.0 / h**2) + ell * (ell + 1) / r**2 + 0j
    diag[0] += 1.0 / h**2
    diag[-1] += 1.0 / h**2
    pot = cfg.get("potential")
    if pot is not None:
        diag = diag + radial_profile(pot["name"], pot["params"], r)
    m = np.diag(diag)
    idx = np.arange(n - 1)
    m[idx, idx + 1] = m[idx + 1, idx] = -1.0 / h**2
    return m


def square_well_ground_state(v0: float, radius: float) -> float:
    """E = -kappa^2 from q cot(q R) = -kappa, q^2 = v0 - kappa^2 (l = 0)."""

    def f(kappa: float) -> float:
        q = math.sqrt(v0 - kappa * kappa)
        return q / math.tan(q * radius) + kappa

    lo = math.sqrt(max(v0 - (math.pi / radius) ** 2, 0.0)) + 1e-12
    hi = math.sqrt(v0 - (math.pi / (2.0 * radius)) ** 2) - 1e-12
    return -brentq(f, lo, hi, xtol=1e-14) ** 2


# --------------------------------------------------------------------------
# per-experiment checks
# --------------------------------------------------------------------------


def _num(value) -> float:
    return INF if value == "inf" else float(value)


def _close(got: float, want: float, rel: float, abs_tol: float = ZERO_TOL) -> bool:
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= max(rel * abs(want), abs_tol)


def _check_conditions(cfg: dict, report: dict, misses: list[str], **_) -> None:
    pot = cfg["potential"]
    for key, want in condition_constants(pot["name"], pot["params"]).items():
        got = _num(report[key])
        if not _close(got, want, REL_CONST):
            misses.append(f"{key} = {got!r}, closed form {want!r}")


def _check_hs_identity(cfg: dict, report: dict, misses: list[str], **_) -> None:
    pot = cfg["potential"]
    want = hs_norm_exact(pot["name"], pot["params"])
    for key, tol in (("rollnik_route", REL_CONST), ("matrix_route", NORM_SLACK)):
        got = _num(report[key])
        if not _close(got, want, tol):
            misses.append(f"{key} = {got!r}, closed form {want!r}")


def _check_bs_norm(cfg: dict, report: dict, misses: list[str], **_) -> None:
    from spectra_cert.birman_schwinger import default_bs_grid, sector_matrices
    from spectra_cert.potentials import catalog

    pot = cfg["potential"]
    potential = catalog(pot["name"], **pot["params"])
    grid = default_bs_grid(cfg["grid_n"], cfg.get("r_max", 40.0))

    def sigmas(z: complex) -> list[float]:
        return [
            float(svdvals(m)[0])
            for _, m in sector_matrices(potential, z, grid, ell_max=cfg["ell_max"])
        ]

    base = max(sigmas(0.0))
    if not _close(report["base_norm"], base, SIGMA_TOL):
        misses.append(f"base_norm = {report['base_norm']!r}, svdvals {base!r}")
    if pot["name"] == "hardy" and report["base_norm"] > pot["params"]["a"] * (1 + 1e-12):
        misses.append(f"z=0 norm {report['base_norm']!r} exceeds the Hardy bound a")
    if len(report["points"]) != len(cfg["z_list"]):
        misses.append("one point per z expected")
    for (z_re, z_im), point in zip(cfg["z_list"], report["points"]):
        exact = sigmas(complex(z_re, z_im))
        got = point["per_ell_norms"]
        if len(got) != len(exact) or not all(
            _close(g, e, SIGMA_TOL) for g, e in zip(got, exact)
        ):
            misses.append(f"z={z_re}{z_im:+}j: sector norms {got} vs svdvals {exact}")
        if point["norm"] != max(got) or point["norm"] > report["base_norm"] * (1 + NORM_SLACK):
            misses.append(f"z={z_re}{z_im:+}j: norm {point['norm']!r} not dominated")


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _csv_matches(rows: list[dict], csv_rows: list[dict]) -> bool:
    if len(rows) != len(csv_rows):
        return False
    for row, text in zip(rows, csv_rows):
        for key, value in row.items():
            if isinstance(value, float):
                if float(text[key]) != value:
                    return False
            elif str(value) != text[key]:
                return False
    return True


def _check_spectrum(cfg: dict, report: dict, misses: list[str], base: str, **_) -> None:
    pot = cfg.get("potential")
    all_rows = []
    for sector in report["sectors"]:
        ell = sector["ell"]
        rows = sector["rows"]
        all_rows.extend(rows)
        m = fd_matrix(cfg, ell)
        tol = EIG_TOL * float(np.linalg.norm(m))
        got = np.array([complex(r["re"], r["im"]) for r in rows])
        if any(r["residual"] > tol for r in rows):
            misses.append(f"ell={ell}: residual above the eigensolver contract")
        # every catalog potential used here is real: the matrix is symmetric
        exact = eigvalsh_tridiagonal(np.diag(m).real, np.diag(m, 1).real)
        if ell == 0 and pot is None:
            n, h = cfg["grid_n"], cfg["r_max"] / cfg["grid_n"]
            p = np.arange(1, n + 1)
            exact = np.sort((2.0 - 2.0 * np.cos(p * math.pi * h / cfg["r_max"])) / h**2)
        if got.size != exact.size or np.max(np.abs(np.sort(got.real) - exact)) > tol:
            misses.append(f"ell={ell}: eigenvalues differ from the exact spectrum")
        if got.size and np.max(np.abs(got.imag)) > tol:
            misses.append(f"ell={ell}: real symmetric matrix gave complex eigenvalues")
        if pot is not None and pot["name"] == "hardy" and sector["outlier_count"] != 0:
            misses.append(f"ell={ell}: subcritical Hardy potential shows outliers")
        if pot is not None and pot["name"] == "square_well" and ell == 0:
            # the cell-centred well ends on a cell face within h/2 of r0;
            # the ground state must lie between those of wells r0 -/+ h
            v0, r0, h = pot["params"]["v0"], pot["params"]["r0"], cfg["r_max"] / cfg["grid_n"]
            lo = square_well_ground_state(v0, r0 + h)
            hi = square_well_ground_state(v0, r0 - h)
            e_fd = float(np.min(got.real))
            if not lo <= e_fd <= hi:
                misses.append(f"ground state {e_fd!r} outside [{lo!r}, {hi!r}]")
    if not _csv_matches(all_rows, _read_csv(Path(f"{base}.csv"))):
        misses.append("csv rows differ from json rows")


def _check_pseudospectrum(cfg: dict, report: dict, misses: list[str], base: str, seed: int) -> None:
    re_lo, re_hi, im_lo, im_hi = cfg["z_window"]
    res, ims = np.array(report["re_values"]), np.array(report["im_values"])
    sig = np.array(report["sigma_min"])
    if not (
        np.allclose(res, np.linspace(re_lo, re_hi, res.size), rtol=0, atol=1e-12)
        and np.allclose(ims, np.linspace(im_lo, im_hi, ims.size), rtol=0, atol=1e-12)
        and sig.shape == (ims.size, res.size)
    ):
        misses.append("z grid does not match the window")
        return
    m = fd_matrix(cfg, 0)
    lam = eigvals(m)
    # sigma_min(M - z) <= |lam - z| for every eigenvalue; a computed eigenvalue
    # is exact for M + E with |E| ~ n eps |M|_F
    slack = m.shape[0] * np.finfo(float).eps * float(np.linalg.norm(m))
    z = res[np.newaxis, :] + 1j * ims[:, np.newaxis]
    dist = np.min(np.abs(z[..., np.newaxis] - lam), axis=-1)
    bad = int(np.sum(sig > (dist + slack) * (1 + PSEUDO_TOL)))
    if bad:
        misses.append(f"{bad} grid points have sigma_min above the eigenvalue distance")
    rng = random.Random(seed)
    eye = np.eye(m.shape[0])
    for _ in range(PSEUDO_SAMPLES):
        i, j = rng.randrange(ims.size), rng.randrange(res.size)
        exact = float(svdvals(m - z[i, j] * eye)[-1])
        if not _close(float(sig[i, j]), exact, PSEUDO_TOL, 0.0):
            misses.append(f"sigma_min at z={z[i, j]}: {sig[i, j]!r} vs svdvals {exact!r}")
    csv_rows = _read_csv(Path(f"{base}.csv"))
    flat = [float(v) for row in sig for v in row]
    if [float(r["sigma_min"]) for r in csv_rows] != flat:
        misses.append("csv rows differ from json grid")


def _check_identity(cfg: dict, report: dict, misses: list[str], base: str, **_) -> None:
    rows = report["rows"]
    lam = complex(*cfg["lambda"])
    # three pairing identities, the key identity for Re lambda > 0, and the
    # radial-key table when a potential is given: two rows each, four radial
    expected = 2 * (3 + (lam.real > 0)) + 4 * ("potential" in cfg and lam.real > 0)
    if len(rows) != expected:
        misses.append(f"{len(rows)} rows, expected {expected}")
    worst = max((r["residual"] for r in rows), default=INF)
    if not worst <= IDENTITY_TOL:
        misses.append(f"identity residual {worst!r} above {IDENTITY_TOL}")
    if not _csv_matches(rows, _read_csv(Path(f"{base}.csv"))):
        misses.append("csv rows differ from json rows")


def _check_singular_sequence(cfg: dict, report: dict, misses: list[str], **_) -> None:
    expected_residual = -1.0 if cfg["lambda"] > 0 else -2.0
    for key, want in (("residual_slope", expected_residual), ("form_slope", -2.0)):
        if not abs(report[key] - want) <= SLOPE_TOL:
            misses.append(f"{key} = {report[key]!r}, expected {want} +- {SLOPE_TOL}")
    if report["n_values"] != cfg["n_list"]:
        misses.append("n_values differ from n_list")


def _check_magnetic(cfg: dict, report: dict, misses: list[str], **_) -> None:
    field = cfg["potential"]
    # |B_tau| = b |x_perp| / |x| <= b for the uniform field; the azimuthal
    # field's tangential trace vanishes identically
    b_max = field["params"].get("b", 1.0) if field["name"] == "uniform_z" else 0.0
    checks = (
        ("b_tau_sup", report["b_tau_sup"] <= b_max * (1 + 1e-12) + ZERO_TOL),
        ("b_tau_dot_x_sup", report["b_tau_dot_x_sup"] <= ZERO_TOL * (1 + b_max)),
        ("tangential_residual", report["tangential_residual"] <= IDENTITY_TOL),
        ("identity_residual", report["identity_residual"] <= IDENTITY_TOL),
    )
    misses.extend(f"{key} = {report[key]!r}" for key, ok in checks if not ok)


CHECKS = {
    "check-conditions": _check_conditions,
    "hs-identity": _check_hs_identity,
    "bs-norm": _check_bs_norm,
    "spectrum": _check_spectrum,
    "pseudospectrum": _check_pseudospectrum,
    "identity-check": _check_identity,
    "singular-sequence": _check_singular_sequence,
    "magnetic-smoke": _check_magnetic,
}


def check_job(config: dict, seed: int) -> list[str]:
    """Misses of one job's written reports against their oracles."""
    base = config["output"]["path"]
    path = Path(f"{base}.json")
    if not path.exists():
        return ["no json report written"]
    report = json.loads(path.read_text())
    misses: list[str] = []
    try:
        CHECKS[config["experiment"]](config, report, misses, base=base, seed=seed)
    except (KeyError, TypeError, ValueError, OSError) as exc:
        misses.append(f"report unreadable: {type(exc).__name__}: {exc}")
    return misses
