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
LAPACK has no complex-symmetric tridiagonal eigensolver.  A pseudospectrum
map takes sigma_min(M - z) at all its grid points from one vectorised
bisection on Sturm counts of the real embedding of M - z, numpy only, each
point rescaled on its own, every value accurate to about eps |M - z| from
either side (``numerics.tridiagonal_smallest_singular_values``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .numerics import (
    EigenvalueError,
    _check_against_svd,
    _scale_exponent,
    _tridiagonal_frobenius,
    eig_complex,
    fit_loglog_slope,
    smallest_singular_value,
    tridiagonal_smallest_singular_values,
)
from .potentials import Potential, _check_dimension

__all__ = [
    "SpectralError",
    "DiscretizedOperator",
    "discretize_radial",
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
# below this size the lowest point of a pseudospectrum map is checked against a
# dense SVD of M - z, whose O(n^3) cost stays under a few percent of the map's
_DENSE_CHECK_BELOW_N = 240
# the largest sector l of a discretization, as for the Birman-Schwinger
# Bessel factors: the spectrum experiment scans every sector l = 0 .. ell_max
_ELL_MAX = 128


@dataclass(frozen=True)
class DiscretizedOperator:
    """-u'' + [l(l+1)/r^2 + V(r)] u on (0, R), stored as its bands.

    ``diag`` is the complex diagonal on the cell centers r_j = (j + 1/2) h,
    j = 0 .. n-1, with ``h = domain_radius / n``; ``off`` is the constant
    off-diagonal -1/h^2 on both sides.  ``matrix`` builds the dense n x n
    matrix on each access for the dense LAPACK routines.
    """

    diag: np.ndarray
    domain_radius: float
    ell: int

    @property
    def n(self) -> int:
        return self.diag.shape[0]

    @property
    def h(self) -> float:
        return self.domain_radius / self.n

    @property
    def off(self) -> np.ndarray:
        """The off-diagonal band, n - 1 entries -1/h^2 (a fresh array)."""
        return np.full(self.n - 1, -1.0 / self.h**2)

    @property
    def matrix(self) -> np.ndarray:
        """Dense complex tridiagonal matrix (a fresh array on every call)."""
        i = np.arange(self.n)
        m = np.zeros((self.n, self.n), dtype=np.complex128)
        m[i, i] = self.diag
        m[i[:-1], i[1:]] = m[i[1:], i[:-1]] = self.off
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
    with np.errstate(over="ignore"):  # r^2 past the float range: l(l+1)/inf = 0
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
    centrifugal and potential diagonals never see r = 0.  l runs from 0 to
    128 (``_ELL_MAX``).  A grid past the float range raises: one where h^2
    overflows, the diagonal is not finite, or |M|_F, which scales the
    checks of ``spectrum`` and ``pseudospectrum``, overflows.
    """
    if n < 8:
        raise SpectralError("radial grids need n >= 8 to resolve anything")
    if not 0 <= ell <= _ELL_MAX:
        raise SpectralError(f"ell must be an integer in [0, {_ELL_MAX}]")
    if not 0 < radius < math.inf:
        raise SpectralError("radius must be positive and finite")
    if potential is not None:
        _check_dimension(potential.dimension, SpectralError, 3)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # numpy scalars overflow to inf where Python floats raise
        if not np.float64(radius / n) ** 2 < np.inf:
            raise SpectralError("h^2 overflows a float")
        diag = _sector_diagonal(ell, radius, n, potential).astype(np.complex128)
        frobenius_sq = np.sum(np.abs(diag) ** 2) + 2 * (n - 1) * np.float64(radius / n) ** -4
    if not np.isfinite(frobenius_sq):
        raise SpectralError(f"the sector operator overflows at radius {radius:g} on {n} cells")
    return DiscretizedOperator(diag=diag, domain_radius=radius, ell=ell)


def _free_floor(op: DiscretizedOperator) -> float:
    """Finite-size gap: smallest eigenvalue of the free operator on
    the same grid (real symmetric).  Everything below ~this scale is size
    effect, not spectrum.  For l >= 1 LAPACK, whose stopping tolerance is
    absolute near the safe minimum, bisects the bands divided by 2^j ~ h^-2
    (``numerics._scale_exponent``: j = 0 on ordinary grids)."""
    h, radius = op.h, op.domain_radius
    if op.ell == 0:
        # exact discrete law: modes sin(p pi r / R)
        return (2.0 - 2.0 * math.cos(math.pi * h / radius)) / h**2
    from scipy.linalg import eigvalsh_tridiagonal

    j = _scale_exponent(h**-2)
    diag = np.ldexp(_sector_diagonal(op.ell, radius, op.n), -j)
    vals = eigvalsh_tridiagonal(diag, np.ldexp(op.off, -j), select="i", select_range=(0, 0))
    return math.ldexp(float(vals[0]), j)


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


def _check_outlier_tol(outlier_tol: Optional[float]) -> None:
    if outlier_tol is not None and not outlier_tol > 0:
        raise SpectralError("outlier_tol must be positive")


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
    _check_outlier_tol(outlier_tol)
    floor = _free_floor(op)
    if outlier_tol is None:
        outlier_tol = 10.0 * floor
    off = op.off
    norm = _tridiagonal_frobenius(op.diag, off)
    if op.diag.imag.any():
        vals, vecs = eig_complex(op.matrix)
        diag = op.diag
    else:
        from scipy.linalg import eigh_tridiagonal

        # real symmetric tridiagonal: ascending eigenvalues are already in
        # (re, im) order, and the pairs stay real until they are reported
        vals, vecs = eigh_tridiagonal(op.diag.real, off)
        diag = op.diag.real
    # banded M V - V diag(vals) for every pair at once: O(n) per pair
    res = (diag[:, np.newaxis] - vals) * vecs
    res[:-1] += off[:, np.newaxis] * vecs[1:]
    res[1:] += off[:, np.newaxis] * vecs[:-1]
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


def _check_window(re_range: tuple[float, float], im_range: tuple[float, float]) -> None:
    # a NaN end fails lo < hi; an infinite end or width fails the second test
    if not all(lo < hi and hi - lo < math.inf for lo, hi in (re_range, im_range)):
        raise SpectralError("pseudospectrum ranges must be finite increasing intervals")


def pseudospectrum(
    op: DiscretizedOperator,
    re_range: tuple[float, float],
    im_range: tuple[float, float],
) -> PseudospectrumField:
    """Resolve sigma_min(M - z) on a 40 x 40 grid; low values flag pseudospectrum.

    For a self-adjoint discretization sigma_min equals the distance to the
    spectrum; non-normal complex-potential operators can dip far below it.
    The whole grid is one bisection on Sturm counts
    (``numerics.tridiagonal_smallest_singular_values``), every value
    accurate to about eps |M - z| from either side, with no stopping test
    that can fail.  Below n = 240 the map's lowest point is also checked
    against a dense SVD of M - z: a miss beyond 1e-10 relative plus
    n eps |M - z|_F (numerics._check_against_svd) raises
    :class:`NumericsError`.  The map is a field estimate, not a pass verdict.
    """
    _check_window(re_range, im_range)
    res = np.linspace(re_range[0], re_range[1], _PSEUDO_GRID_N)
    ims = np.linspace(im_range[0], im_range[1], _PSEUDO_GRID_N)
    off = op.off
    sig = tridiagonal_smallest_singular_values(op.diag, off, res + 1j * ims[:, np.newaxis])
    if op.n < _DENSE_CHECK_BELOW_N:
        i, j = np.unravel_index(np.argmin(sig), sig.shape)
        z = res[j] + 1j * ims[i]
        dense = smallest_singular_value(op.matrix - z * np.eye(op.n))
        fro = _tridiagonal_frobenius(op.diag - z, off)
        what = f"Sturm sigma_min {sig[i, j]:.6e} at z = {res[j]:g}{ims[i]:+g}j"
        _check_against_svd(sig[i, j], dense, op.n, fro, what)
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


def _check_scales(n_list: Sequence[int]) -> None:
    if len(n_list) < 2 or any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise SpectralError("a decay slope needs two scales or more, strictly increasing")
    # the table divides floats by n^2; increasing scales bound it at both ends
    if not (n_list[0] >= 1 and n_list[-1] * n_list[-1] <= sys.float_info.max):
        raise SpectralError("scales must be positive integers with n^2 a finite float")


def singular_sequence_decay(
    phi1,
    k: Sequence[float],
    n_list: Sequence[int],
) -> DecayReport:
    """Decay of the Weyl sequence built from a probe profile.

    ``phi1`` is a multiplier-lab test function; its norms scale exactly
    under dilation, so the table is analytic in n given three quadratures
    of phi1, at 480 nodes settled against 240 (multipliers._settle).  If
    phi1 is not L^2-normalized it is rescaled.
    """
    _check_scales(n_list)
    k_norm = float(np.linalg.norm(np.atleast_1d(np.asarray(k, dtype=float))))

    from .multipliers import _probe_on, _settle  # shared probe quadrature

    def norms(n: int) -> tuple[float, float, float]:
        # at lambda = 0 the probe's f is the Laplacian profile itself
        p = _probe_on(phi1, 0.0, n, "gauss")
        grad_sq = p.integral(p.grad_density(p.dq)).real
        return p.norm_sq, grad_sq, p.integral(np.abs(p.f) ** 2).real

    fine = norms(480)
    norm_sq, grad_sq, lap_sq = _settle(norms(240), fine, sum(fine), "Weyl-sequence probe", 240)
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
