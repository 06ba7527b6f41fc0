"""Shared numerical substrate: quadrature grids, dense complex linear
algebra, and scalar root finding.

Everything in this module is physics-agnostic plumbing.  The quadrature side
provides Gauss-Legendre rules, plain and composite over panels, the
:class:`RadialGrid` container for radial rules on (0, r_max], and a tensor
Gauss box in three dimensions whose points exclude the coordinate origin by
construction.  The linear algebra side wraps the dense complex
eigendecomposition (its callers check the residuals) and reads both extremal
singular values off one dense LAPACK SVD.  Root finding is plain bisection
for strictly increasing scalar functions.
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
    "box_grid",
    "eig_complex",
    "largest_singular_value",
    "smallest_singular_value",
    "solve_linear",
    "find_root_increasing",
    "aitken_extrapolate",
    "fit_loglog_slope",
]

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


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


def box_grid(n: int, half_width: float) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss grid on the box [-L, L]^3: points (n^3, 3) and weights.

    Only even per-axis orders are accepted: Gauss nodes of even order on a
    symmetric interval never include the midpoint, so no tensor node ever
    sits at the coordinate origin.  Guarded at 80 points per axis; dense
    work beyond that is out of scope (80^3 is already half a million nodes).
    """
    if n % 2 != 0:
        raise ValueError(f"per-axis order must be even, got {n}")
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    if n > 80:
        raise NumericsError(f"box grid {n}^3 exceeds the dense guard (80 per axis)")
    nodes, weights = gauss_legendre(n, -half_width, half_width)
    mesh = np.meshgrid(nodes, nodes, nodes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    return pts, np.multiply.outer(np.multiply.outer(weights, weights), weights).ravel()


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
