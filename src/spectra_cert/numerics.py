"""Shared numerical substrate: quadrature grids, dense complex linear
algebra, and scalar root finding.

Everything in this module is physics-agnostic plumbing.  The quadrature side
provides Gauss-Legendre rules (plain, composite over panels, and graded
toward the origin for integrands with power-type singularities) plus tensor
box grids that exclude the coordinate origin by construction.  The linear
algebra side wraps a dense complex eigendecomposition with a per-pair
residual guarantee and reads both extremal singular values off one dense
LAPACK SVD.  Root finding is plain bisection for strictly increasing scalar
functions.
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
    "BoxGrid",
    "gauss_legendre",
    "panel_gauss",
    "radial_grid",
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
    """Raised when the dense eigensolver fails to converge."""


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
    ``grading`` records how the nodes were placed: ``"uniform"`` is a plain
    Gauss rule on [0, r_max], ``"graded-to-origin"`` maps Gauss points
    through r = r_max * t**gamma so nodes cluster at the origin, resolving
    |x|^-2-type singular weights, and ``"geometric-panels"`` is a composite
    Gauss rule over panels shrinking geometrically toward the origin.

    The geometric-panel rule exists for Nystroem eigenvalue work on
    scale-invariant kernels: it keeps w_j / r_j uniformly small (each panel
    is a rescaled copy of the same Gauss rule), whereas the power-map
    grading has w_1 / r_1 = gamma * O(1) at its deepest node, which plants a
    spurious large diagonal entry in matrices of kernels behaving like
    1 / max(r, r').
    """

    nodes: np.ndarray
    weights: np.ndarray
    r_max: float
    grading: str

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


_PANEL_NODES = 10
_PANEL_RATIO = 10.0**0.5


def radial_grid(
    n: int, r_max: float, grading: str = "uniform", gamma: float = 2.0
) -> RadialGrid:
    """Build a :class:`RadialGrid`.

    ``grading="uniform"`` places an n-point Gauss-Legendre rule on
    [0, r_max].  ``grading="graded-to-origin"`` places Gauss points t on
    [0, 1] and maps them through r = r_max * t**gamma (gamma = 2 by
    default), with weights carrying the Jacobian gamma * r_max * t**(gamma-1),
    so the grid doubles as a quadrature rule for ∫ f dr while clustering
    nodes near the origin.  ``grading="geometric-panels"`` tiles
    [r_max * ratio^-K, r_max] with K = n // 10 panels of fixed ratio
    sqrt(10) carrying 10 Gauss nodes each (two panels per decade), so
    refining by a factor deepens the covered range; the untiled remainder
    near the origin is left to the integrand's decay there.
    """
    if r_max <= 0:
        raise ValueError(f"r_max must be positive, got {r_max}")
    if grading == "uniform":
        nodes, weights = gauss_legendre(n, 0.0, r_max)
    elif grading == "graded-to-origin":
        if gamma < 1.0:
            raise ValueError(f"grading exponent must be >= 1, got {gamma}")
        t, wt = gauss_legendre(n, 0.0, 1.0)
        nodes = r_max * t**gamma
        weights = gamma * r_max * t ** (gamma - 1.0) * wt
    elif grading == "geometric-panels":
        panels = max(2, n // _PANEL_NODES)
        edges = [r_max * _PANEL_RATIO ** (k - panels) for k in range(panels + 1)]
        nodes, weights = panel_gauss(edges, _PANEL_NODES)
    else:
        raise ValueError(f"unknown grading {grading!r}")
    return RadialGrid(nodes, weights, float(r_max), grading)


@dataclass(frozen=True)
class BoxGrid:
    """Tensor Gauss grid on the symmetric box [-L, L]^d.

    Only even per-axis orders are accepted: Gauss nodes of even order on a
    symmetric interval never include the midpoint, so no tensor node ever
    sits at the coordinate origin.
    """

    dimension: int
    axis_nodes: np.ndarray
    axis_weights: np.ndarray
    half_width: float

    def __post_init__(self) -> None:
        if self.dimension < 3:
            raise ValueError(f"dimension must be >= 3, got {self.dimension}")
        if self.axis_nodes.size % 2 != 0:
            raise ValueError("per-axis order must be even (origin exclusion)")

    @property
    def n_axis(self) -> int:
        return self.axis_nodes.size

    def points_and_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """All tensor points (N, d) with their product weights (N,).

        Guarded at 80 points per axis; dense work beyond that is out of
        scope (80^3 is already half a million tensor nodes).
        """
        n = self.n_axis
        if n > 80:
            raise NumericsError(
                f"box grid {n}^{self.dimension} exceeds the dense guard (80 per axis)"
            )
        axes = [self.axis_nodes] * self.dimension
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        w = self.axis_weights
        wt = w
        for _ in range(self.dimension - 1):
            wt = np.multiply.outer(wt, w)
        return pts, wt.ravel()


def box_grid(n: int, half_width: float, dimension: int = 3) -> BoxGrid:
    """Build a :class:`BoxGrid` with an even n-point Gauss rule per axis."""
    if n % 2 != 0:
        raise ValueError(f"per-axis order must be even, got {n}")
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    nodes, weights = gauss_legendre(n, -half_width, half_width)
    return BoxGrid(dimension, nodes, weights, float(half_width))


def _as_complex_matrix(m: np.ndarray) -> np.ndarray:
    """Validate and return a square complex128 matrix (row-major copy if needed)."""
    a = np.ascontiguousarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise ValueError("matrix contains non-finite entries")
    return a


_EIG_RESIDUAL_TOL = 1e-10


def eig_complex(m: np.ndarray) -> list[tuple[complex, np.ndarray]]:
    """Dense complex eigendecomposition with a residual guarantee.

    Uses the LAPACK Hessenberg + shifted-QR driver (zgeev).  Every returned
    pair (lam, v) satisfies ``|M v - lam v| <= 1e-10 * |M|_F * |v|``; if the
    driver fails to converge, :class:`EigenvalueError` names the failing
    index as reported by LAPACK.

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
    norm_m = np.linalg.norm(a)
    order = np.lexsort((w.imag, w.real))
    pairs: list[tuple[complex, np.ndarray]] = []
    resid = a @ vr - vr * w[np.newaxis, :]
    resid_norms = np.linalg.norm(resid, axis=0)
    vec_norms = np.linalg.norm(vr, axis=0)
    for idx in order:
        if resid_norms[idx] > _EIG_RESIDUAL_TOL * norm_m * vec_norms[idx]:
            raise EigenvalueError(
                f"eigenpair {idx} residual {resid_norms[idx]:.3e} exceeds "
                f"{_EIG_RESIDUAL_TOL:.0e} * |M| * |v|"
            )
        pairs.append((complex(w[idx]), vr[:, idx] / vec_norms[idx]))
    return pairs


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


def smallest_singular_value(m: np.ndarray, return_flag: bool = False):
    """Smallest singular value from a dense LAPACK SVD.

    A matrix that is singular to working precision (sigma_min <=
    n * eps * sigma_max) yields 0.0; pass ``return_flag=True`` to receive
    ``(value, is_singular)`` instead of the bare value.  Raises
    ``LinAlgError`` if the SVD does not converge.
    """
    from scipy.linalg import svdvals

    a = _as_complex_matrix(m)
    n = a.shape[0]
    if n == 0:
        return (0.0, True) if return_flag else 0.0
    s = svdvals(a, check_finite=False)
    if s[-1] <= n * np.finfo(float).eps * s[0]:
        return (0.0, True) if return_flag else 0.0
    sigma = float(s[-1])
    return (sigma, False) if return_flag else sigma


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


def find_root_increasing(
    f: Callable[[float], float], lo: float, hi: float, f_tol: float = 1e-12
) -> float:
    """Bisection root of a strictly increasing scalar function.

    Requires f(lo) < 0 < f(hi); returns x with |f(x)| <= f_tol (or the best
    midpoint once the bracket has collapsed to machine width, if roundoff in
    f prevents reaching f_tol).
    """
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
