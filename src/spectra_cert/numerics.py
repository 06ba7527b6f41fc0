"""Shared numerical substrate: quadrature grids, dense and tridiagonal
linear algebra, and scalar root finding.

Everything in this module is physics-agnostic plumbing.  The quadrature side
provides Gauss-Legendre rules, plain and composite over panels, and the
:class:`RadialGrid` container for radial rules on (0, r_max].  The linear
algebra side wraps the dense complex
eigendecomposition (its callers check the residuals) and reads either
extremal singular value off one dense LAPACK SVD.  An operator known only
by its products with M and M^H gets sigma_max from ARPACK on M^H M, stopped
at a Ritz estimate of 1e-12 theta, checked by the residual of its Ritz pair
and returned with its Ritz vector, which can start the next operator of a
family.  A real symmetric positive definite
tridiagonal T gets |T^-1| = 1 / lambda_min(T) from one LAPACK dpttrf
factorization and one bisection for sigma_min of the bidiagonal factor, with
no n x n matrix and to high relative accuracy.  A complex-symmetric
tridiagonal T = X + iY has two sigma_min routines: one LAPACK band eigenvalue
of the real symmetric pentadiagonal embedding [[X, Y], [Y, -X]], whose
eigenvalues are +-sigma_k(T) (O(n^2) band reduction, no iteration), and, for
large n, one LAPACK zgttrf factorization with ARPACK on (T^H T)^-1 in O(n)
work per product.  Root finding is plain bisection for strictly increasing
scalar functions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "NumericsError",
    "EigenvalueError",
    "RadialGrid",
    "gauss_legendre",
    "panel_gauss",
    "eig_complex",
    "largest_singular_value",
    "operator_largest_singular_value",
    "smallest_singular_value",
    "spd_tridiagonal_inverse_norm",
    "band_smallest_singular_value",
    "tridiagonal_smallest_singular_value",
    "solve_linear",
    "find_root_increasing",
    "aitken_extrapolate",
    "fit_loglog_slope",
]

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
# Arnoldi basis size and start-vector seed of the ARPACK sigma_min and sigma_max
_ARPACK_NCV = 8
_ARPACK_START_SEED = 0


class NumericsError(ValueError):
    """Raised when a numerical routine cannot meet its contract."""


class EigenvalueError(NumericsError):
    """Raised when the dense eigensolver fails or an eigenpair misses its residual bound."""


def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        _GL_CACHE[n] = leggauss(n)
    return _GL_CACHE[n]


def gauss_legendre(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [a, b].

    The rule integrates polynomials of degree <= 2n - 1 exactly (up to
    roundoff).  Nodes are strictly increasing and lie in the open interval.

    Parameters
    ----------
    n : int
        Number of nodes, n >= 1.
    a, b : float
        Interval endpoints, a < b.

    Returns
    -------
    nodes, weights : ndarray
        Arrays of shape (n,); ``weights.sum() == b - a`` up to roundoff.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got n={n}")
    if not a < b:
        raise ValueError(f"empty interval [{a}, {b}]")
    x, w = _gl_nodes(n)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * x, half * w


def panel_gauss(
    breakpoints: Sequence[float], n_per_panel: int
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule over consecutive panels.

    ``breakpoints`` must be strictly increasing; each panel
    ``[b_k, b_{k+1}]`` receives an ``n_per_panel``-point rule.  Useful for
    integrands with known kinks or endpoint singularities: placing panel
    edges at the bad points restores fast convergence.
    """
    bp = np.asarray(breakpoints, dtype=float)
    if bp.ndim != 1 or bp.size < 2:
        raise ValueError("need at least two breakpoints")
    if not np.all(np.diff(bp) > 0):
        raise ValueError("breakpoints must be strictly increasing")
    x, w = gauss_legendre(n_per_panel, -1.0, 1.0)
    mid = 0.5 * (bp[:-1] + bp[1:])[:, np.newaxis]
    half = 0.5 * (bp[1:] - bp[:-1])[:, np.newaxis]
    return (mid + half * x).ravel(), (half * w).ravel()


@dataclass(frozen=True)
class RadialGrid:
    """Quadrature grid for integrals over (0, r_max].

    ``nodes`` are strictly increasing and never touch 0; ``weights`` are the
    matching quadrature weights for ``dr`` (no Jacobian factors baked in).
    The grids in use are composite Gauss rules over geometric panels:
    ``default_bs_grid`` shrinks them toward the origin at a fixed ratio and
    ``log_uniform_grid`` spreads them log-uniformly over [r_min, r_max].
    Each panel is a rescaled copy of the same Gauss rule, which keeps
    w_j / r_j uniformly small, as Nystroem matrices of scale-invariant
    kernels like 1 / max(r, r') need.
    """

    nodes: np.ndarray
    weights: np.ndarray
    r_max: float

    def __post_init__(self) -> None:
        if self.nodes.ndim != 1 or self.nodes.shape != self.weights.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if not np.all(np.diff(self.nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if self.nodes[0] <= 0 or self.nodes[-1] > self.r_max:
            raise ValueError("nodes must lie in (0, r_max]")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")

    @property
    def n(self) -> int:
        return self.nodes.size


def _as_complex_matrix(m: np.ndarray) -> np.ndarray:
    """Validate and return a square complex128 matrix (row-major copy if needed)."""
    a = np.ascontiguousarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise ValueError("matrix contains non-finite entries")
    return a


def eig_complex(m: np.ndarray) -> list[tuple[complex, np.ndarray]]:
    """Dense complex eigendecomposition by LAPACK zgeev.

    Uses the Hessenberg + shifted-QR driver.  If the driver fails to
    converge, :class:`EigenvalueError` names the failing index as reported
    by LAPACK.  The pairs are not checked here: callers that know the
    structure of M (a banded operator, say) check |M v - lam v| themselves
    at O(n) per pair instead of one dense O(n^3) product.

    Returns a list of (eigenvalue, unit eigenvector) pairs sorted by real
    part, then imaginary part (a fixed, reproducible order).
    """
    from scipy.linalg import get_lapack_funcs

    a = _as_complex_matrix(m)
    (geev,) = get_lapack_funcs(("geev",), (a,))
    res = geev(a, compute_vl=0, compute_vr=1, overwrite_a=0)
    # zgeev returns (w, vl, vr, info)
    w, vr, info = res[0], res[-2], res[-1]
    if info < 0:
        raise EigenvalueError(f"illegal value in argument {-info} of the eigensolver")
    if info > 0:
        raise EigenvalueError(
            f"QR iteration failed to converge; eigenvalues 0..{info - 1} unresolved"
        )
    vec_norms = np.linalg.norm(vr, axis=0)
    return [
        (complex(w[idx]), vr[:, idx] / vec_norms[idx])
        for idx in np.lexsort((w.imag, w.real))
    ]


def largest_singular_value(m: np.ndarray) -> float:
    """Largest singular value from a dense LAPACK SVD.

    Accurate to machine precision; raises ``LinAlgError`` if the SVD does
    not converge.
    """
    from scipy.linalg import svdvals

    a = _as_complex_matrix(m)
    if a.shape[0] == 0:
        return 0.0
    return float(svdvals(a, check_finite=False)[0])


def _arpack_largest(
    apply: Callable, n: int, what: str, tol: float, start=None, return_eigenvectors=True
):
    """scipy's eigs for the largest-modulus eigenpair (k = 1) of the n x n
    complex operator ``apply``: ARPACK's Arnoldi driver znaupd, which eigsh
    would forward a complex operator to, with ncv = min(n, _ARPACK_NCV), from
    ``start`` or a fixed seeded vector.  An ArpackError, non-convergence
    included, raises :class:`NumericsError` naming ``what``.
    """
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigs

    if start is None:
        start = np.random.default_rng(_ARPACK_START_SEED).standard_normal(n)
    op = LinearOperator((n, n), matvec=apply, dtype=np.complex128)
    try:
        return eigs(
            op, k=1, which="LM", tol=tol, v0=start, ncv=min(n, _ARPACK_NCV),
            return_eigenvectors=return_eigenvectors,
        )
    except ArpackError as exc:
        raise NumericsError(f"ARPACK {what}: {exc}") from exc


def operator_largest_singular_value(
    matvec: Callable[[np.ndarray], np.ndarray],
    rmatvec: Callable[[np.ndarray], np.ndarray],
    n: int,
    start: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Largest singular value of an n x n complex operator M given by its
    products x -> M x (``matvec``) and y -> M^H y (``rmatvec``), with its
    right singular vector.

    ARPACK finds the largest eigenvalue theta of the Hermitian M^H M, one
    matvec and one rmatvec per product, from ``start`` or, without one, from
    a fixed seeded vector, so the value depends on M and the start alone.
    The result is (sqrt(theta), v) with v the unit Ritz vector; a caller with
    a family of similar operators passes each one's v as the next start.
    tol=1e-12 stops ARPACK once the Ritz estimate is below 1e-12 theta, a
    hundred times inside the residual check below; by Kato-Temple the error
    of theta is then at most residual^2 / gap.  The Ritz value approaches
    theta from below, so the result approaches sigma_max from below: an
    estimate, not a certified upper bound.  For n <= 2, where ARPACK's
    complex solver needs k < n - 1, theta is read off the Gram matrix built
    from n products.

    The empty operator yields (0.0, empty v).  Raises
    :class:`NumericsError` when ARPACK fails or when the Ritz pair misses
    |M^H M v - theta v| <= 1e-10 theta |v|.
    """

    def gram(x: np.ndarray) -> np.ndarray:
        return rmatvec(matvec(x))

    if n == 0:
        return 0.0, np.zeros(0, dtype=np.complex128)
    if n <= 2:
        columns = np.column_stack([gram(e) for e in np.eye(n, dtype=np.complex128)])
        thetas, vectors = np.linalg.eigh(columns)
        return float(np.sqrt(max(thetas[-1], 0.0))), vectors[:, -1]
    thetas, vectors = _arpack_largest(gram, n, "sigma_max", 1e-12, start)
    theta, v = float(thetas[0].real), vectors[:, 0]
    residual = float(np.linalg.norm(gram(v) - theta * v))
    if not residual <= 1e-10 * theta * np.linalg.norm(v):
        raise NumericsError(
            f"ARPACK sigma_max: Ritz residual {residual:.3e} exceeds 1e-10 theta |v|"
            f" at theta = {theta:.6e}"
        )
    return float(np.sqrt(theta)), v


def smallest_singular_value(m: np.ndarray) -> float:
    """Smallest singular value from a dense LAPACK SVD.

    A matrix that is singular to working precision (sigma_min <=
    n * eps * sigma_max), the empty matrix included, yields exactly 0.0.
    Raises ``LinAlgError`` if the SVD does not converge.
    """
    from scipy.linalg import svdvals

    a = _as_complex_matrix(m)
    n = a.shape[0]
    if n == 0:
        return 0.0
    s = svdvals(a, check_finite=False)
    if s[-1] <= n * np.finfo(float).eps * s[0]:
        return 0.0
    return float(s[-1])


def spd_tridiagonal_inverse_norm(diag: np.ndarray, off: np.ndarray) -> float:
    """|T^-1| = 1 / lambda_min(T) of a real symmetric positive definite
    tridiagonal matrix, by one factorization and one bisection.

    T has diagonal ``diag`` (n,) and ``off`` (n - 1,) on both off-diagonals.
    LAPACK dpttrf factors T = U^T D U with U unit upper bidiagonal, so
    B = D^(1/2) U is upper bidiagonal with T = B^T B and
    lambda_min(T) = sigma_min(B)^2.  The 2n x 2n Golub-Kahan tridiagonal with
    zero diagonal and off-diagonal (b_0, f_0, b_1, ..., f_(n-2), b_(n-1)),
    the diagonal b and superdiagonal f of B interleaved, has the eigenvalues
    +-sigma_k(B).  LAPACK dstebz bisects for eigenvalue n + 1 alone, which is
    sigma_min(B), with absolute tolerance 2 * tiny: the bidiagonal fixes its
    singular values to high relative accuracy and bisection on that form
    attains it (Demmel and Kahan, 1990), also on strongly graded T where
    bisecting T itself fails.

    The empty matrix yields 0.0.  Raises :class:`NumericsError` on a
    non-finite entry, when dpttrf finds T not positive definite, when the
    bisection fails or when 1 / sigma_min^2 is not a finite positive number.
    """
    from scipy.linalg.lapack import dpttrf, dstebz

    d = np.asarray(diag, dtype=float)
    e = np.asarray(off, dtype=float)
    n = d.shape[0]
    if e.shape != (max(n - 1, 0),):
        raise ValueError(f"off-diagonal needs shape ({n - 1},), got {e.shape}")
    if n == 0:
        return 0.0
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise NumericsError("SPD tridiagonal: non-finite entry")
    if n == 1:  # scipy's dpttrf wrapper rejects the empty off-diagonal
        pivots, upper, info = d, e, int(d[0] <= 0.0)
    else:
        pivots, upper, info = dpttrf(d, e)
    if info != 0:
        raise NumericsError(f"SPD tridiagonal: LAPACK dpttrf info={info}, not positive definite")
    b = np.sqrt(pivots)
    golub_kahan = np.empty(2 * n - 1)
    golub_kahan[0::2] = b
    golub_kahan[1::2] = b[:-1] * upper
    tol = 2.0 * np.finfo(float).tiny
    # range 2 selects eigenvalues il..iu by their 1-based index
    m, w, _, _, info = dstebz(np.zeros(2 * n), golub_kahan, 2, 0.0, 0.0, n + 1, n + 1, tol, "E")
    if info != 0 or m != 1:
        raise NumericsError(f"SPD tridiagonal: LAPACK dstebz info={info}, {m} eigenvalues")
    sigma = w[0]
    with np.errstate(divide="ignore", over="ignore"):
        norm = np.reciprocal(sigma) ** 2
    if not (sigma > 0.0 and np.isfinite(norm)):
        raise NumericsError(f"SPD tridiagonal: factor sigma_min {sigma!r} has no finite inverse")
    return float(norm)


def band_smallest_singular_value(diag: np.ndarray, off: np.ndarray) -> float:
    """Smallest singular value of a complex tridiagonal matrix with a real
    off-diagonal, as one LAPACK band eigenvalue.

    T has diagonal ``diag`` (n,) and the real ``off`` (n - 1,) on both
    off-diagonals, so T = X + iY with X real symmetric tridiagonal and Y
    diagonal.  The real symmetric embedding [[X, Y], [Y, -X]] has the
    eigenvalues +-sigma_k(T) (Bunse-Gerstner and Gragg, 1988); perfectly
    shuffled, it is pentadiagonal of order 2n.  LAPACK dsbevx reduces it to
    tridiagonal form (dsbtrd) and bisects for eigenvalue n + 1 alone, which is
    sigma_min.  The value is accurate to about eps * |T| from either side.

    A shift singular to working precision (sigma_min <= n * eps * |T|_F)
    yields exactly 0.0.  Raises :class:`NumericsError` when LAPACK reports a
    failure or does not return exactly one eigenvalue.
    """
    from scipy.linalg.lapack import dsbevx

    d = np.asarray(diag, dtype=np.complex128)
    e = np.asarray(off)
    n = d.shape[0]
    if e.shape != (n - 1,) or np.iscomplexobj(e):
        raise ValueError(f"off-diagonal must be real with shape ({n - 1},)")
    # upper band storage, kd = 2: row 2 the diagonal, row 1 the first
    # superdiagonal (Y couples 2k and 2k + 1), row 0 the second (X couples
    # 2k and 2k + 2, -X couples 2k + 1 and 2k + 3)
    ab = np.zeros((3, 2 * n), order="F")
    ab[2, 0::2] = d.real
    ab[2, 1::2] = -d.real
    ab[1, 1::2] = d.imag
    ab[0, 2::2] = e
    ab[0, 3::2] = -e
    w, _, m, _, info = dsbevx(ab, 0.0, 0.0, n + 1, n + 1, compute_v=0, range=2)
    if info != 0 or m != 1:
        raise NumericsError(f"band sigma_min: LAPACK dsbevx info={info}, {m} eigenvalues")
    sigma = float(w[0])
    if sigma <= n * np.finfo(float).eps * _tridiagonal_frobenius(d, e):
        return 0.0
    return sigma


def _tridiagonal_frobenius(d: np.ndarray, e: np.ndarray) -> float:
    """|T|_F of the tridiagonal with diagonal d and e on both off-diagonals."""
    return float(np.sqrt(np.sum(np.abs(d) ** 2) + 2.0 * np.sum(np.abs(e) ** 2)))


def tridiagonal_smallest_singular_value(diag: np.ndarray, off: np.ndarray) -> float:
    """Smallest singular value of a complex tridiagonal matrix by ARPACK.

    T has diagonal ``diag`` (n,) and ``off`` (n - 1,) on both off-diagonals.
    T is factored once by LAPACK zgttrf; ARPACK then finds the largest
    eigenvalue mu of (T^H T)^-1, two zgttrs solves per product, and the
    result is 1 / sqrt(mu).  The start vector is a fixed seeded draw, so the
    value depends on T alone.  tol=0 asks ARPACK for machine precision: no
    residual check follows here, unlike operator_largest_singular_value, so
    nothing would catch a looser stop.  The Ritz value approaches mu from
    below, so the result approaches sigma_min from above: a field estimate,
    not a certified lower bound.

    A shift that is exactly singular (a zero pivot) or singular to working
    precision (sigma_min <= n * eps * |T|_F) yields exactly 0.0.  Raises
    :class:`NumericsError` when ARPACK does not converge.
    """
    from scipy.linalg.lapack import zgttrf, zgttrs

    d = np.asarray(diag, dtype=np.complex128)
    e = np.asarray(off, dtype=np.complex128)
    n = d.shape[0]
    if e.shape != (n - 1,):
        raise ValueError(f"off-diagonal needs shape ({n - 1},), got {e.shape}")
    dl, dd, du, du2, ipiv, info = zgttrf(e, d, e)
    if info > 0:
        return 0.0

    def inverse_gram(b: np.ndarray) -> np.ndarray:
        y, _ = zgttrs(dl, dd, du, du2, ipiv, b, trans="C")
        x, _ = zgttrs(dl, dd, du, du2, ipiv, y)
        return x

    mu = _arpack_largest(inverse_gram, n, "sigma_min", 0, return_eigenvectors=False)[0].real
    sigma = 1.0 / np.sqrt(mu)
    if sigma <= n * np.finfo(float).eps * _tridiagonal_frobenius(d, e):
        return 0.0
    return float(sigma)


def solve_linear(m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = b for dense complex M by LU with partial pivoting.

    Raises :class:`NumericsError` when M is singular to working precision.
    """
    from scipy.linalg import lu_factor, lu_solve

    a = _as_complex_matrix(m)
    b = np.asarray(rhs, dtype=np.complex128)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lu, piv = lu_factor(a, check_finite=False)
    diag = np.abs(np.diag(lu))
    if a.shape[0] and diag.min() == 0.0:
        raise NumericsError("linear solve: matrix is singular to working precision")
    x = lu_solve((lu, piv), b, check_finite=False)
    if not np.all(np.isfinite(x)):
        raise NumericsError("linear solve: non-finite solution (matrix near-singular)")
    return x


_ROOT_F_TOL = 1e-12


def find_root_increasing(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Bisection root of a strictly increasing scalar function.

    Requires f(lo) < 0 < f(hi); returns x with |f(x)| <= 1e-12 (or the best
    midpoint once the bracket has collapsed to machine width, if roundoff in
    f prevents reaching that tolerance).
    """
    f_tol = _ROOT_F_TOL
    flo, fhi = f(lo), f(hi)
    if abs(flo) <= f_tol:
        return lo
    if abs(fhi) <= f_tol:
        return hi
    if flo > 0 or fhi < 0:
        raise ValueError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo:.3e}, f(hi)={fhi:.3e}"
        )
    a, b = float(lo), float(hi)
    best_x, best_f = a, abs(flo)
    for _ in range(400):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if abs(fm) < best_f:
            best_x, best_f = mid, abs(fm)
        if abs(fm) <= f_tol:
            return mid
        if fm < 0:
            a = mid
        else:
            b = mid
        if b - a <= np.finfo(float).eps * max(1.0, abs(a), abs(b)):
            break
    if best_f <= f_tol:
        return best_x
    raise NumericsError(
        f"bisection stalled at |f|={best_f:.3e} > f_tol={f_tol:.0e} "
        "(function too noisy at the root?)"
    )


def aitken_extrapolate(values: Sequence[float]) -> float:
    """Aitken delta-squared limit of the last three of a convergent sequence.

    Assumes approximately geometric error decay; falls back to the last
    value when the denominator degenerates.
    """
    if len(values) < 3:
        raise ValueError("need at least three values to extrapolate")
    a0, a1, a2 = values[-3], values[-2], values[-1]
    denom = (a2 - a1) - (a1 - a0)
    if denom == 0.0:
        return float(a2)
    return float(a2 - (a2 - a1) ** 2 / denom)


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    x = np.log(np.asarray(xs, dtype=float))
    y = np.log(np.asarray(ys, dtype=float))
    if x.size != y.size or x.size < 2:
        raise ValueError("need two or more (x, y) pairs")
    return float(np.polyfit(x, y, 1)[0])
