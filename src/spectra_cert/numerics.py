"""Shared numerical substrate: quadrature grids and dense and tridiagonal
linear algebra.

Everything in this module is physics-agnostic plumbing.  The quadrature side
provides one Gauss-Legendre rule, composite over panels, and the
:class:`RadialGrid` container for radial rules.  The linear
algebra side wraps the dense complex
eigendecomposition, returned as LAPACK's sorted value and vector arrays
(its callers check the residuals), and reads either
extremal singular value off one dense LAPACK SVD.  A fast route is checked
against that SVD by one rule, ``_check_against_svd``: the value may miss
sigma_dense by at most 1e-10 sigma_dense + n eps |M|_F.  Every Krylov one
goes through one ARPACK driver: a complex symmetric operator known only by
its products x -> M x gets sigma_max from ARPACK on M^H M, whose product is
conj(M conj(M x)) since M^H = conj(M), at any scale of M, stopped at a Ritz
estimate of 1e-12 theta, checked by the residual of its Ritz pair and
returned with its Ritz vector, which can start the next operator of a
family.  A real symmetric positive definite
tridiagonal T given by its bidiagonal factor, T = B^T B, gets
|T^-1| = 1 / sigma_min(B)^2 from one bisection, with no n x n matrix and to
high relative accuracy.  A complex-symmetric
tridiagonal T = X + iY gets sigma_min(T - z) at a whole grid of shifts z from
one vectorised bisection on Sturm counts of the real block tridiagonal
embedding [[X, Y], [Y, -X]], whose eigenvalues are +-sigma_k, in numpy
alone.  Apart from that bisection no routine here iterates by hand: each
other factorization, eigenvalue and singular value comes from LAPACK or
ARPACK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "NumericsError",
    "EigenvalueError",
    "RadialGrid",
    "panel_gauss",
    "eig_complex",
    "largest_singular_value",
    "operator_largest_singular_value",
    "smallest_singular_value",
    "bidiagonal_gram_inverse_norm",
    "tridiagonal_smallest_singular_values",
    "aitken_extrapolate",
    "fit_loglog_slope",
]

# Arnoldi basis size and start-vector seed of the ARPACK driver
_ARPACK_NCV = 8
_ARPACK_START_SEED = 0
# halvings of a Sturm bisection bracket: 2^-52 = eps of its top
_STURM_SWEEPS = 52
# each Sturm block determinant moves this far from zero, on entries rescaled
# to at most 1: far below eps^2, and e^2 / 2^-400 keeps products in range
_STURM_PIVMIN = 2.0**-400


class NumericsError(ValueError):
    """Raised when a numerical routine cannot meet its contract."""


class EigenvalueError(NumericsError):
    """Raised when the dense eigensolver fails or an eigenpair misses its residual bound."""


_gl_nodes = cache(leggauss)


def panel_gauss(
    breakpoints: Sequence[float], n_per_panel: int
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule over consecutive panels.

    ``breakpoints`` must be strictly increasing; each panel
    ``[b_k, b_{k+1}]`` receives an ``n_per_panel``-point rule (n >= 1, exact
    to degree 2n - 1), and ``[a, b]`` is the plain rule.  Useful for
    integrands with known kinks or endpoint singularities: placing panel
    edges at the bad points restores fast convergence.
    """
    bp = np.asarray(breakpoints, dtype=float)
    if bp.ndim != 1 or bp.size < 2:
        raise ValueError("need at least two breakpoints")
    if not np.all(np.diff(bp) > 0):
        raise ValueError("breakpoints must be strictly increasing")
    x, w = _gl_nodes(n_per_panel)
    mid = 0.5 * (bp[:-1] + bp[1:])[:, np.newaxis]
    half = 0.5 * (bp[1:] - bp[:-1])[:, np.newaxis]
    return (mid + half * x).ravel(), (half * w).ravel()


@dataclass(frozen=True)
class RadialGrid:
    """Quadrature grid for radial integrals.

    ``nodes`` are positive and strictly increasing; ``weights`` are the
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

    def __post_init__(self) -> None:
        if self.nodes.ndim != 1 or self.nodes.shape != self.weights.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if not np.all(np.diff(self.nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if self.nodes[0] <= 0:
            raise ValueError("nodes must be positive")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")


def _as_complex_matrix(m: np.ndarray) -> np.ndarray:
    """Validate and return a square complex128 matrix (row-major copy if needed)."""
    a = np.ascontiguousarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(np.float64))):
        raise ValueError("matrix contains non-finite entries")
    return a


def eig_complex(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense complex eigendecomposition by LAPACK zgeev.

    Uses the Hessenberg + shifted-QR driver.  If the driver fails to
    converge, :class:`EigenvalueError` names the failing index as reported
    by LAPACK.  The pairs are not checked here: callers that know the
    structure of M (a banded operator, say) check |M v - lam v| themselves
    at O(n) per pair instead of one dense O(n^3) product.

    Returns LAPACK's arrays (values, vectors): the eigenvalues sorted by
    real part, then imaginary part (a fixed, reproducible order), and the
    unit eigenvectors as the matching columns of ``vectors``.
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
    order = np.lexsort((w.imag, w.real))
    return w[order], vr[:, order] / np.linalg.norm(vr, axis=0)[order]


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


def operator_largest_singular_value(
    matvec: Callable[[np.ndarray], np.ndarray],
    n: int,
    start: np.ndarray | None,
) -> tuple[float, np.ndarray]:
    """Largest singular value of an n x n complex symmetric operator M
    (M^T = M) given by its product x -> M x, with its right singular vector.
    This is the package's one ARPACK driver.

    ARPACK (scipy's eigs, k = 1, ncv = min(n, _ARPACK_NCV)) finds the
    largest eigenvalue theta of the Hermitian M^H M, whose product
    conj(M conj(M x)) is two matvecs since M^H = conj(M), from ``start`` or,
    when it is None, from a fixed seeded vector, so the value depends on M and
    the start alone.  theta squares the scale of M, so the first product
    reads 2^j ~ max|M x| / max|x| and every product runs on 2^-j M, an exact
    rescaling (j = 0 for ratios in [2^-16 sqrt(n), 2^256], where every bit
    is kept).  So theta stays in the float range at every scale of M, and
    above ARPACK's floor eps^(2/3) ~ 2^-34.7, below which its stop test is
    absolute: the ratio is at most sigma sqrt(n), so an unscaled theta is at
    least 2^-32.  The result is (2^j sqrt(theta), v) with v the unit Ritz
    vector, which a caller with a family of similar operators passes as the
    next start.  tol=1e-12 stops ARPACK once the Ritz estimate is below
    1e-12 theta, a hundred times inside the residual check below; by
    Kato-Temple the error of theta is then at most residual^2 / gap.  The
    Ritz value approaches theta from below, so the result approaches
    sigma_max from below: an estimate, not a certified upper bound.  For
    n <= 2, where ARPACK's complex solver needs
    k < n - 1, theta is read off the Gram matrix built from n products.

    The empty operator yields (0.0, empty v).  Raises
    :class:`NumericsError` when ARPACK fails or when the Ritz pair misses
    |M^H M v - theta v| <= 1e-10 theta |v|.
    """
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigs

    j = None  # the scale exponent, read off the first product

    def gram(x: np.ndarray) -> np.ndarray:
        nonlocal j
        y = matvec(x)
        if j is None:
            # max moduli, not 2-norms: a sum of squares over- and underflows too
            ratio = np.abs(y).max() / np.abs(x).max()
            # an unscaled theta >= ratio^2 / n must stay above ARPACK's floor
            small = ratio < 2.0**-16 * math.sqrt(n)
            j = max(math.frexp(ratio)[1], -1000) if small else _scale_exponent(ratio)
        scale = 2.0**-j
        # M^H y = conj(M conj(y)) for the complex symmetric M
        return matvec((y * scale).conj()).conj() * scale if j else matvec(y.conj()).conj()

    if n == 0:
        return 0.0, np.zeros(0, dtype=np.complex128)
    if n <= 2:
        columns = np.column_stack([gram(e) for e in np.eye(n, dtype=np.complex128)])
        thetas, vectors = np.linalg.eigh(columns)
        return math.ldexp(math.sqrt(max(thetas[-1], 0.0)), j), vectors[:, -1]
    if start is None:
        start = np.random.default_rng(_ARPACK_START_SEED).standard_normal(n)
    op = LinearOperator((n, n), matvec=gram, dtype=np.complex128)
    try:
        thetas, vectors = eigs(op, k=1, which="LM", tol=1e-12, v0=start, ncv=min(n, _ARPACK_NCV))
    except ArpackError as exc:
        raise NumericsError(f"ARPACK sigma_max: {exc}") from exc
    theta, v = float(thetas[0].real), vectors[:, 0]
    residual = float(np.linalg.norm(gram(v) - theta * v))
    if not residual <= 1e-10 * theta * np.linalg.norm(v):
        raise NumericsError(
            f"ARPACK sigma_max: Ritz residual {residual:.3e} exceeds 1e-10 theta |v|"
            f" at theta = {theta:.6e}"
        )
    return math.ldexp(math.sqrt(theta), j), v


def _scale_exponent(x: float) -> int:
    """j with 2^(j-1) <= x < 2^j (within +-1000), or 0 for x in [2^-256, 2^256],
    zero or not finite: division by 2^j is exact and spares ordinary values."""
    if not 0.0 < x < math.inf or 2.0**-256 <= x <= 2.0**256:
        return 0
    return min(max(math.frexp(x)[1], -1000), 1000)


def _scaled_back(value: float, e: int) -> float:
    """value 2^e, +inf past the float range."""
    try:
        return math.ldexp(value, e)
    except OverflowError:
        return math.inf


def _scaled_sqrt(value: float, e: int) -> float:
    """sqrt(value 2^e) with floor(e/2) of the exponent outside the root: exact
    in 2^e, +inf past the float range."""
    half, odd = divmod(e, 2)
    return _scaled_back(math.sqrt(_scaled_back(value, odd)), half)


def _check_against_svd(value: float, dense: float, n: int, fro: float, what: str) -> None:
    """The dense cross-check of a fast singular value: :class:`NumericsError`
    unless ``value`` is within 1e-10 dense + n eps |M|_F of ``dense``, the
    dense SVD's value of the n x n matrix M with Frobenius norm ``fro``.
    The message opens with ``what``, the caller's name for the value."""
    if abs(value - dense) > 1e-10 * dense + n * np.finfo(float).eps * fro:
        raise NumericsError(f"{what} misses the dense SVD {dense:.6e}")


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


def bidiagonal_gram_inverse_norm(diag: np.ndarray, off: np.ndarray) -> float:
    """|T^-1| = 1 / sigma_min(B)^2 of the Gram matrix T = B^T B of an upper
    bidiagonal B, by one bisection.

    B has diagonal ``diag`` (n,) and superdiagonal ``off`` (n - 1,), so T is
    a real symmetric tridiagonal, positive definite when B is nonsingular;
    every such T is B^T B for its Cholesky factor.  A caller that has the
    factor in closed form passes it, and no factorization cancels before the
    bisection.  The 2n x 2n Golub-Kahan tridiagonal with zero diagonal and
    off-diagonal (b_0, f_0, b_1, ..., f_(n-2), b_(n-1)), the diagonal b and
    superdiagonal f of B interleaved, has the eigenvalues +-sigma_k(B).
    LAPACK dstebz bisects for eigenvalue n + 1 alone, which is sigma_min(B),
    with absolute tolerance 2 * tiny: the bidiagonal fixes its singular
    values to high relative accuracy and bisection on that form attains it
    (Demmel and Kahan, 1990), also on strongly graded T where bisecting T
    itself fails.

    The empty matrix yields 0.0.  Raises :class:`NumericsError` on a
    non-finite entry, when the bisection fails or when 1 / sigma_min^2 is
    not a finite positive number (B singular).
    """
    from scipy.linalg.lapack import dstebz

    b = np.asarray(diag, dtype=float)
    f = np.asarray(off, dtype=float)
    n = b.shape[0]
    if f.shape != (max(n - 1, 0),):
        raise ValueError(f"superdiagonal needs shape ({n - 1},), got {f.shape}")
    if n == 0:
        return 0.0
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(f))):
        raise NumericsError("bidiagonal factor: non-finite entry")
    golub_kahan = np.empty(2 * n - 1)
    golub_kahan[0::2] = b
    golub_kahan[1::2] = f
    tol = 2.0 * np.finfo(float).tiny
    # range 2 selects eigenvalues il..iu by their 1-based index
    m, w, _, _, info = dstebz(np.zeros(2 * n), golub_kahan, 2, 0.0, 0.0, n + 1, n + 1, tol, "E")
    if info != 0 or m != 1:
        raise NumericsError(f"bidiagonal factor: LAPACK dstebz info={info}, {m} eigenvalues")
    sigma = w[0]
    with np.errstate(divide="ignore", over="ignore"):
        norm = np.reciprocal(sigma) ** 2
    if not (sigma > 0.0 and np.isfinite(norm)):
        raise NumericsError(f"bidiagonal factor: sigma_min {sigma!r} has no finite inverse")
    return float(norm)


def tridiagonal_smallest_singular_values(
    diag: np.ndarray, off: np.ndarray, shifts: np.ndarray
) -> np.ndarray:
    """sigma_min(T - z) of a complex tridiagonal T with a real off-diagonal,
    for every shift z at once, by bisection on Sturm counts.

    T has diagonal ``diag`` (n,) and the real ``off`` (n - 1,) on both
    off-diagonals, so T - z = X + iY, X real symmetric and Y diagonal.  The
    embedding E = [[X, Y], [Y, -X]] has the eigenvalues +-sigma_k(T - z)
    (Bunse-Gerstner and Gragg, 1988); perfectly shuffled, it is block
    tridiagonal, with diagonal blocks [[a_k, b_k], [b_k, -a_k]],
    a_k + i b_k = d_k - z, coupled by diag(e_k, -e_k).  The block LDL^T of
    E - sigma I has the pivots S_k = [[p, c], [c, q]], Delta_k = pq - c^2,
    S_(k+1) = [[a - sigma, b], [b, -a - sigma]] - f [[q, c], [c, p]] with
    f = e_k^2 / Delta_k, and by Sylvester's law of inertia S_k holds one
    eigenvalue of E below sigma when Delta_k < 0, two when Delta_k > 0 > p
    and none when both are positive: more than n lie below sigma exactly
    when sigma > sigma_min.  After a nearly singular block (the leading
    blocks of a localized pseudomode, near sigma_min) f is large, pq and c^2
    cancel at order f^2, and Delta is the expansion of det S_(k+1) in f,
    with no f^2 term.  (pq - c^2 alone missed the dense SVD by 5000 eps
    sigma_max at n = 128; the expansion alone, 70 eps sigma_max near
    eigenvalues at n = 512.)  Each bracket [0, |T - z|_F / sqrt(n)]
    halves 52 times, to eps times its top (sigma_min^2 is at most the mean
    sigma_k^2): the value is accurate to about eps |T - z| from either side,
    and no stopping test can fail.  Each shift runs on its own exact
    rescaling 2^-j (T - z), with 2^j above |T - z|_F, so no |z| that fits in
    a float leaves the float range, and every Delta moves 2^-400 away from
    zero, as LAPACK's pivmin keeps a pivot off zero.  A sweep loops over k
    with vector operations across the shifts: O(shifts) memory.

    A shift singular to working precision (sigma_min <= n eps |T - z|_F)
    yields exactly 0.0.  Returns an array of the shape of ``shifts``.
    """
    d = np.asarray(diag, dtype=np.complex128)
    e = np.asarray(off)
    n = d.shape[0]
    if e.shape != (n - 1,) or np.iscomplexobj(e):
        raise ValueError(f"off-diagonal must be real with shape ({n - 1},)")
    z = np.asarray(shifts, dtype=np.complex128)
    shape, z = z.shape, z.ravel()
    # |T - z|_F^2 / n = spread^2 + |mean(d) - z|^2: the deviations sum to zero
    dev = np.abs(d - d.mean())
    big = max(dev.max(), np.abs(e).max(initial=0.0)) or 1.0
    spread = big * math.sqrt((np.sum((dev / big) ** 2) + 2 * np.sum((e / big) ** 2)) / n)
    top = np.hypot(spread, np.abs(d.mean() - z))
    # 2^j >= top sqrt(n) >= |T - z|_F, within +-1000 so that 2^-j is normal
    j = np.clip(np.frexp(top)[1] + (n.bit_length() + 1) // 2, -1000, 1000)
    scale = np.ldexp(1.0, -j)
    # (e_(k-1) 2^-j)^2 as e2[k] * t2, every factor in range; block 0 has none
    g = math.frexp(np.abs(e).max(initial=0.0))[1]
    e2, t2 = np.concatenate(([0.0], np.ldexp(e, -g) ** 2)), np.ldexp(1.0, 2 * (g - j))
    xs, ys = z.real * scale, z.imag * scale
    lo, hi = np.zeros(z.size), top * scale
    huge = 4.0 * hi  # a larger q follows a nearly singular block
    p, q, c, det, d11, d22, d12, f, fq, fc, ef, dx, large, tmp, acc = np.empty((15, z.size))
    for _ in range(_STURM_SWEEPS):
        mid = 0.5 * (lo + hi)
        xp, xm = xs + mid, xs - mid
        p[:], q[:], c[:], det[:], acc[:] = 0.0, 0.0, 0.0, 1.0, 0.0
        for k in range(n):
            # [[d11, d12], [d12, d22]] = [[a - sigma, b], [b, -a - sigma]] of
            # block k, rescaled, less f [[q, c], [c, p]] of block k - 1
            np.multiply(d[k].real, scale, out=tmp)
            np.subtract(tmp, xp, out=d11)
            np.subtract(xm, tmp, out=d22)
            np.subtract(np.multiply(d[k].imag, scale, out=d12), ys, out=d12)
            np.divide(np.multiply(e2[k], t2, out=ef), det, out=f)
            np.multiply(f, q, out=fq)
            np.subtract(d22, np.multiply(f, p, out=tmp), out=q)
            np.subtract(d11, fq, out=p)
            np.subtract(d12, np.multiply(f, c, out=fc), out=c)
            # Delta = pq - c^2, or where q is huge its expansion in f,
            # d11 q - d22 fq - d12 (c - fc) + f e^2
            np.subtract(np.multiply(p, q, out=det), np.multiply(c, c, out=tmp), out=det)
            np.subtract(np.multiply(d11, q, out=dx), np.multiply(d22, fq, out=tmp), out=dx)
            np.subtract(dx, np.multiply(d12, np.subtract(c, fc, out=tmp), out=tmp), out=dx)
            np.add(dx, np.multiply(f, ef, out=tmp), out=dx)
            np.greater(np.abs(q, out=tmp), huge, out=large)
            np.add(det, np.multiply(large, np.subtract(dx, det, out=dx), out=dx), out=det)
            np.add(det, np.copysign(_STURM_PIVMIN, det, out=tmp), out=det)
            # acc = n - (eigenvalues of E below mid): +1 per block with none,
            # -1 per block with two
            np.add(acc, np.copysign(np.greater(det, 0.0, out=tmp), p, out=tmp), out=acc)
        below = acc < 0  # sigma_min < mid
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
    sigma = np.ldexp(0.5 * (lo + hi), j)
    sigma[sigma <= n * np.finfo(float).eps * math.sqrt(n) * top] = 0.0
    return sigma.reshape(shape)


def _tridiagonal_frobenius(d: np.ndarray, e: np.ndarray) -> float:
    """|T|_F of the tridiagonal with diagonal d and e on both off-diagonals.

    BLAS nrm2 rescales as it sums, so the norm is finite whenever it fits a
    float, where a plain sum of squares overflows once n |d|^2 does.
    """
    from scipy.linalg.blas import dznrm2

    off = dznrm2(e) if e.size else 0.0  # fblas refuses the empty vector
    return math.hypot(dznrm2(d), off, off)


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
    """Least-squares slope of log(y) against log(x); ``ValueError`` unless
    there are two or more pairs, all positive and finite."""
    x, y = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need two or more (x, y) pairs")
    if not np.all((x > 0.0) & (x < np.inf) & (y > 0.0) & (y < np.inf)):
        raise ValueError("log-log slope needs positive finite x and y")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])
