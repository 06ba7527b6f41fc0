"""Finite-difference spectra for -Delta + V: outliers, residuals, decay laws.

The discretization acts on the reduced wave u(r) = r psi(r) in one
angular-momentum sector, so the operator is -u'' plus the diagonal
l(l+1)/r^2 + V(r): a tridiagonal matrix with a complex diagonal and the
constant off-diagonal -1/h^2, stored as its diagonal.  The grid is
cell-centered: no node sits at the origin or the domain wall, singular
potentials are only evaluated where they are finite, and the Dirichlet wall
enters through an antisymmetric ghost value, which bumps the wall-adjacent
diagonal from 2/h^2 to 3/h^2.  On this grid the free s-wave operator
diagonalizes exactly: the modes are sin(m r_j) with m = p pi / R and
eigenvalues (2 - 2 cos(m h)) / h^2, which the tests use as a closed-form
oracle.

Eigenvalues of a complex-potential discretization split into the clustered
approximation of the essential spectrum [0, inf) and isolated outliers;
``spectrum`` separates them by distance to the half-axis measured against
the finite-size gap of the free operator at the same resolution.

The solvers follow the band structure.  A real diagonal (real V) is a real
symmetric tridiagonal matrix and goes to LAPACK's tridiagonal eigensolver
(``eigh_tridiagonal``); a complex diagonal goes to the dense zgeev, since
LAPACK has no complex-symmetric tridiagonal eigensolver.  Pseudospectra take
sigma_min(M - z) below n = 240 from one LAPACK band eigenvalue of the real
pentadiagonal embedding of M - z, accurate to about eps |M| from either side,
and from n = 240 up, where the O(n^2) band reduction loses, as
1 / sigma_max((M - z)^-1) from the package's one ARPACK driver on the solves
of a tridiagonal LU, with the driver's stop, Ritz residual check and
power-of-two rescaling, so no |z| that fits in a float leaves its range; that
value approaches sigma_min from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .numerics import (
    EigenvalueError,
    NumericsError,
    _tridiagonal_frobenius,
    band_smallest_singular_value,
    eig_complex,
    fit_loglog_slope,
    smallest_singular_value,
    tridiagonal_smallest_singular_value,
)
from .potentials import Potential

__all__ = [
    "SpectralError",
    "DiscretizedOperator",
    "discretize_radial",
    "free_floor",
    "SpectrumReport",
    "spectrum",
    "PseudospectrumField",
    "pseudospectrum",
    "DecayReport",
    "singular_sequence_decay",
]


class SpectralError(ValueError):
    """Bad grid, domain, or spectral parameter for a discretization."""


# every eigenpair must satisfy |M v - lam v| <= _EIG_RESIDUAL_TOL |M|_F
_EIG_RESIDUAL_TOL = 1e-10
# points per axis of the pseudospectrum grid
_PSEUDO_GRID_N = 40
# from this size up, pseudospectra take sigma_min from the tridiagonal LU and
# the ARPACK driver (O(n) per product); below it the band eigenvalue (O(n^2)
# reduction) is faster.  Measured on a 2-vCPU Xeon with one BLAS thread, 160
# points of the imaginary-Hardy window, band vs ARPACK per point in three runs:
# 0.87-0.91 vs 0.92-1.07 ms at n = 192, 1.06-1.16 vs 0.95-1.21 ms at 224,
# 1.21-1.27 vs 0.93-1.14 ms at 240, 1.44-1.45 vs 1.05-1.17 ms at 256; the
# crossing moves between runs within 192-240.
_ARPACK_MIN_N = 240


@dataclass(frozen=True)
class DiscretizedOperator:
    """-u'' + [l(l+1)/r^2 + V(r)] u on (0, R), stored as its bands.

    ``diag`` is the complex diagonal on the cell centers r_j = (j + 1/2) h,
    j = 0 .. n-1, with ``h = domain_radius / n``; the off-diagonal is the
    constant -1/h^2.  ``matrix`` builds the dense n x n matrix on each
    access for the dense LAPACK routines.
    """

    diag: np.ndarray
    h: float
    domain_radius: float
    ell: int = 0

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """Dense complex tridiagonal matrix (a fresh array on every call)."""
        i = np.arange(self.n)
        m = np.zeros((self.n, self.n), dtype=np.complex128)
        m[i, i] = self.diag
        m[i[:-1], i[1:]] = m[i[1:], i[:-1]] = -1.0 / self.h**2
        return m


def _sector_diagonal(
    ell: int, radius: float, n: int, potential: Optional[Potential] = None
) -> np.ndarray:
    """Diagonal of the sector operator on the cell-centered grid.

    2/h^2 from -u'' (3/h^2 next to the Dirichlet walls, which sit half a
    cell outside the end nodes) plus l(l+1)/r^2 + V(r); without a potential
    the result is real.
    """
    h = radius / n
    r = h * (np.arange(n) + 0.5)
    second = np.full(n, 2.0)
    second[0] = second[-1] = 3.0
    second /= h**2
    local = ell * (ell + 1) / r**2
    if potential is not None:
        local = local + potential.radial_profile(r)
    return second + local


def discretize_radial(
    potential: Optional[Potential],
    ell: int,
    radius: float,
    n: int,
) -> DiscretizedOperator:
    """Sector operator -u'' + [l(l+1)/r^2 + V(r)] u on the reduced wave.

    ``potential=None`` builds the free operator.  Grid nodes are the cell
    centers r_j = (j + 1/2) h, j = 0 .. n-1, with h = radius / n, so the
    centrifugal and potential diagonals never see r = 0.  A radius too
    small for n cells raises: one where the diagonal is not finite, or
    where |M|_F, which scales the checks of ``spectrum`` and
    ``pseudospectrum``, overflows.
    """
    if n < 8:
        raise SpectralError("radial grids need n >= 8 to resolve anything")
    if ell < 0:
        raise SpectralError("ell must be a nonnegative integer")
    if not radius > 0:
        raise SpectralError("radius must be positive")
    if potential is not None and potential.dimension != 3:
        raise SpectralError("radial sectors need a d=3 potential")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        diag = _sector_diagonal(ell, radius, n, potential).astype(np.complex128)
        # a numpy scalar overflows to inf where a Python float would raise
        frobenius_sq = np.sum(np.abs(diag) ** 2) + 2 * (n - 1) * np.float64(radius / n) ** -4
    if not np.isfinite(frobenius_sq):
        raise SpectralError(f"the sector operator overflows at radius {radius:g} on {n} cells")
    return DiscretizedOperator(diag=diag, h=radius / n, domain_radius=radius, ell=ell)


def _radial_free_floor(ell: int, radius: float, n: int) -> float:
    """Smallest eigenvalue of the free sector operator (real symmetric)."""
    h = radius / n
    if ell == 0:
        # exact discrete law: modes sin(p pi r / R)
        return (2.0 - 2.0 * math.cos(math.pi * h / radius)) / h**2
    from scipy.linalg import eigvalsh_tridiagonal

    off = np.full(n - 1, -1.0 / h**2)
    vals = eigvalsh_tridiagonal(
        _sector_diagonal(ell, radius, n), off, select="i", select_range=(0, 0)
    )
    return float(vals[0])


def free_floor(op: DiscretizedOperator) -> float:
    """Finite-size gap: smallest eigenvalue of the free operator on
    the same grid.  Everything below ~this scale is size effect, not
    spectrum."""
    return _radial_free_floor(op.ell, op.domain_radius, op.n)


def _half_axis_distance(lam: complex) -> float:
    if lam.real >= 0:
        return abs(lam.imag)
    return abs(lam)


@dataclass(frozen=True)
class SpectrumReport:
    """Full spectrum of a discretized operator, split at the half-axis.

    ``eigenvalues`` are sorted by real then imaginary part; ``residuals``
    are |M v - lam v| per unit eigenvector, each checked against
    1e-10 |M|_F when the report is built.  Outliers are the eigenvalues
    farther from [0, inf) than ``outlier_tol``; their eigenvectors ride
    along for downstream cross-checks.
    """

    eigenvalues: np.ndarray
    residuals: np.ndarray
    outlier_indices: tuple[int, ...]
    outlier_tol: float
    continuum_floor: float
    outlier_vectors: np.ndarray = field(repr=False)

    @property
    def outliers(self) -> np.ndarray:
        return self.eigenvalues[list(self.outlier_indices)]

    def to_rows(self) -> list[dict]:
        flagged = set(self.outlier_indices)
        return [
            {
                "re": float(lam.real),
                "im": float(lam.imag),
                "residual": float(res),
                "is_outlier": i in flagged,
            }
            for i, (lam, res) in enumerate(zip(self.eigenvalues, self.residuals))
        ]


def spectrum(op: DiscretizedOperator, outlier_tol: Optional[float] = None) -> SpectrumReport:
    """Full spectrum with outlier classification.

    A real diagonal takes its eigenpairs from ``eigh_tridiagonal``, a
    complex one from the dense zgeev (``eig_complex``); both hand back the
    eigenvalue array and the matching columns of unit eigenvectors, which
    are used as they come.  Either way each eigenpair's residual is taken
    from an O(n) banded product and must stay within 1e-10 |M|_F (BLAS nrm2
    of the bands), otherwise :class:`EigenvalueError` is raised.
    ``outlier_tol`` defaults to 10x the finite-size gap of the free
    operator at the same resolution: genuine continuum approximants hug
    [0, inf) at that scale, discrete eigenvalues sit beyond it.
    """
    floor = free_floor(op)
    if outlier_tol is None:
        outlier_tol = 10.0 * floor
    if outlier_tol <= 0:
        raise SpectralError("outlier_tol must be positive")
    off = -1.0 / op.h**2
    offs = np.full(op.n - 1, off)
    norm = _tridiagonal_frobenius(op.diag, offs)
    if op.diag.imag.any():
        vals, vecs = eig_complex(op.matrix)
        diag = op.diag
    else:
        from scipy.linalg import eigh_tridiagonal

        # real symmetric tridiagonal: ascending eigenvalues are already in
        # (re, im) order, and the pairs stay real until they are reported
        vals, vecs = eigh_tridiagonal(op.diag.real, offs)
        diag = op.diag.real
    # banded M V - V diag(vals) for every pair at once: O(n) per pair
    res = (diag[:, np.newaxis] - vals) * vecs
    res[:-1] += off * vecs[1:]
    res[1:] += off * vecs[:-1]
    residuals = np.linalg.norm(res, axis=0)
    missed = np.flatnonzero(residuals > _EIG_RESIDUAL_TOL * norm)
    if missed.size:
        k = int(missed[0])
        raise EigenvalueError(
            f"eigenpair {k} residual {residuals[k]:.3e} exceeds "
            f"{_EIG_RESIDUAL_TOL:.0e} * |M|"
        )
    vals = vals.astype(np.complex128)
    outlier_idx = tuple(
        i for i, lam in enumerate(vals) if _half_axis_distance(lam) > outlier_tol
    )
    return SpectrumReport(
        eigenvalues=vals,
        residuals=residuals,
        outlier_indices=outlier_idx,
        outlier_tol=float(outlier_tol),
        continuum_floor=floor,
        outlier_vectors=vecs[:, list(outlier_idx)].astype(np.complex128),
    )


@dataclass(frozen=True)
class PseudospectrumField:
    """sigma_min(M - z) sampled on a rectangular grid of spectral points."""

    re_values: np.ndarray
    im_values: np.ndarray
    sigma_min: np.ndarray  # shape (n_im, n_re)

    def to_rows(self) -> list[dict]:
        out = []
        for i, zi in enumerate(self.im_values):
            for j, zr in enumerate(self.re_values):
                out.append(
                    {
                        "z_re": float(zr),
                        "z_im": float(zi),
                        "sigma_min": float(self.sigma_min[i, j]),
                    }
                )
        return out


def pseudospectrum(
    op: DiscretizedOperator,
    re_range: tuple[float, float],
    im_range: tuple[float, float],
) -> PseudospectrumField:
    """Resolve sigma_min(M - z) on a 40 x 40 grid; low values flag pseudospectrum.

    For a self-adjoint discretization sigma_min equals the distance to the
    spectrum; non-normal complex-potential operators can dip far below it.
    Below n = 240 each point is ``band_smallest_singular_value``, accurate to
    about eps |M - z| from either side, and the map's lowest point is checked
    against a dense SVD of M - z (under 1 % of the map's time); a
    disagreement beyond 1e-10 relative plus n eps |M - z|_F raises
    :class:`NumericsError`.  From n = 240 up each point is
    ``tridiagonal_smallest_singular_value``, one call of the ARPACK driver
    on the solves of one LU of M - z, scale-free and checked by its Ritz
    residual; its value approaches sigma_min from above.  The map is a field
    estimate, not a pass verdict.
    """
    if re_range[0] >= re_range[1] or im_range[0] >= im_range[1]:
        raise SpectralError("pseudospectrum ranges must be increasing intervals")
    res = np.linspace(re_range[0], re_range[1], _PSEUDO_GRID_N)
    ims = np.linspace(im_range[0], im_range[1], _PSEUDO_GRID_N)
    off = np.full(op.n - 1, -1.0 / op.h**2)
    banded = op.n < _ARPACK_MIN_N
    sigma_min = band_smallest_singular_value if banded else tridiagonal_smallest_singular_value
    sig = np.array([[sigma_min(op.diag - (zr + 1j * zi), off) for zr in res] for zi in ims])
    if banded:
        i, j = np.unravel_index(np.argmin(sig), sig.shape)
        z = res[j] + 1j * ims[i]
        dense = smallest_singular_value(op.matrix - z * np.eye(op.n))
        fro = _tridiagonal_frobenius(op.diag - z, off)
        tol = 1e-10 * dense + op.n * np.finfo(float).eps * fro
        if abs(sig[i, j] - dense) > tol:
            raise NumericsError(
                f"band sigma_min {sig[i, j]:.6e} at z = {res[j]:g}{ims[i]:+g}j "
                f"misses the dense SVD {dense:.6e}"
            )
    return PseudospectrumField(res, ims, sig)


@dataclass(frozen=True)
class DecayReport:
    """Weyl-sequence decay table for phi_n(x) = e^(ikx) n^(-3/2) phi1(x/n).

    ``equation_residuals`` lists the (H0 - |k|^2) phi_n residual bound
    |Delta phi1|/n^2 + 2|k| |grad phi1|/n and ``form_terms`` the
    subordination term |grad phi_n|^2 = |grad phi1|^2 / n^2 (weight a = 1); the
    fitted log-log slopes should approach -1 (k != 0), -2 (k = 0), and
    -2 respectively.
    """

    n_values: tuple[int, ...]
    equation_residuals: tuple[float, ...]
    form_terms: tuple[float, ...]
    residual_slope: float
    form_slope: float

    def to_rows(self) -> list[dict]:
        return [
            {"n": n, "equation_residual": r, "form_term": p}
            for n, r, p in zip(self.n_values, self.equation_residuals, self.form_terms)
        ]


def singular_sequence_decay(
    phi1,
    k: Sequence[float],
    n_list: Sequence[int],
) -> DecayReport:
    """Decay of the Weyl sequence built from a probe profile.

    ``phi1`` is a probe exposing ``radial_terms`` and
    ``angular_weight`` (a multiplier-lab test function); its norms scale
    exactly under dilation, so the table is analytic in n given three
    quadratures of phi1.  If phi1 is not L^2-normalized it is rescaled.
    """
    if len(n_list) < 2:
        raise SpectralError("need at least two scales to fit a decay slope")
    if any(n <= 0 for n in n_list):
        raise SpectralError("scales must be positive integers")
    k_norm = float(np.linalg.norm(np.atleast_1d(np.asarray(k, dtype=float))))

    from .multipliers import _probe_on  # shared probe quadrature

    # at lambda = 0 the probe's f is the Laplacian profile itself
    p = _probe_on(phi1, 0.0, 480, "gauss")
    norm_sq = p.norm_sq
    grad_sq = p.integral(p.grad_density).real
    lap_sq = p.integral(np.abs(p.f) ** 2).real
    if abs(norm_sq - 1.0) > 1e-12:
        grad_sq /= norm_sq
        lap_sq /= norm_sq

    ns = tuple(int(n) for n in n_list)
    resid = tuple(
        math.sqrt(lap_sq) / n**2 + 2.0 * k_norm * math.sqrt(grad_sq) / n for n in ns
    )
    form = tuple(grad_sq / n**2 for n in ns)
    return DecayReport(
        n_values=ns,
        equation_residuals=resid,
        form_terms=form,
        residual_slope=fit_loglog_slope(np.asarray(ns, float), np.asarray(resid)),
        form_slope=fit_loglog_slope(np.asarray(ns, float), np.asarray(form)),
    )
