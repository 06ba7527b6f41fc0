"""Birman-Schwinger machinery for -Delta + V in three dimensions.

The resolvent kernel of the free operator is explicit in d = 3,

    G_z(x, y) = exp(-sqrt(-z) |x-y|) / (4 pi |x-y|),

with the principal branch of the square root, so Re sqrt(-z) >= 0 and the
pointwise domination |G_z| <= G_0 holds for every z off the positive half
axis.  For radial V the sandwiched operator

    K_z = |V|^(1/2) (H_0 - z)^(-1) V_(1/2),      V_(1/2) = |V|^(1/2) sgn(V),

splits over spherical-harmonic sectors.  Each sector is discretized by a
Nystroem rule on a radial quadrature grid; the sector kernel of G_z is the
Legendre coefficient

    g_l^z(r, r') = 2 pi * int_{-1}^{1} G_z(s(t)) P_l(t) dt,
    s(t) = sqrt(r^2 + r'^2 - 2 r r' t),

which the Yukawa addition theorem (DLMF 10.60) gives in closed form,

    g_l^z(r, r') = (2 kappa / pi) i_l(kappa r_<) k_l(kappa r_>),

with the modified spherical Bessel functions i_l, k_l.  Its kappa -> 0 limit
is g_l^0 = r_<^l / ((2l+1) r_>^(l+1)).  The kernels are formed as g_l^0 times
factors scaled to tend to 1 at the origin and a decay exp(-kappa (r_> - r_<))
of modulus <= 1, so nothing over- or underflows on deep geometric grids or
at large kappa r.  The test suite pins them against an angular quadrature of
the Legendre coefficient and against direct 3D box quadrature.

Hilbert-Schmidt norms sum over sectors with multiplicity 2l+1,

    |K|_HS^2 = sum_l (2l+1) |M_l|_F^2,

and the truncated sum is completed by a tail estimate from the asymptotic
law term_l ~ c / ((2l+1)(2l+3)), whose exact tail sum is c / (2(2L+3)).
At z = 0 no sector matrix is formed: g_l^0 is rank one on each triangle
r < r', so |M_l|_F^2 is a diagonal sum plus one running sum over the
grid nodes, O(n) per sector instead of O(n^2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .numerics import (
    NumericsError,
    RadialGrid,
    fit_loglog_slope,
    gauss_legendre,
    largest_singular_value,
    panel_gauss,
    smallest_singular_value,
    solve_linear,
)
from .potentials import Potential, complex_sign

__all__ = [
    "BSError",
    "GreenParams",
    "BSMatrix",
    "HSNormResult",
    "MepsRecord",
    "green_params",
    "green_function",
    "pointwise_bound_check",
    "sector_matrices",
    "assemble_bs",
    "hs_norm",
    "log_uniform_grid",
    "bs_principle_matrix_check",
    "kappa_scaling",
    "m_eps_hs_check",
]

_DEFAULT_ELL_MAX = 32
_A_SERIES_TERMS = 12
# Past l ~ 147 the factor (2l+1)!! x^(-l) overflows at |x| = 1 while ive
# underflows, so the |x| >= 1 branch of A_l would silently read 0.
_BESSEL_ELL_MAX = 128
_GRID_PANEL_NODES = 10
# default_bs_grid: panels shrink toward the origin by sqrt(10), two per decade
_GRID_PANEL_RATIO = 10.0**0.5
# resolution of m_eps_hs_check: inner Gauss nodes on [0, omega_radius] and
# sectors; _SLOPE_TOL bounds the fitted log-log slopes there and in
# kappa_scaling
_MEPS_GRID_N = 60
_MEPS_ELL_MAX = 24
_SLOPE_TOL = 0.05


class BSError(ValueError):
    """Raised on precondition violations or failed built-in assertions."""


def _on_positive_axis(z: complex) -> bool:
    z = complex(z)
    return z.imag == 0.0 and z.real > 0.0


@dataclass(frozen=True)
class GreenParams:
    """Spectral parameter z with its principal-branch kappa = sqrt(-z)."""

    z: complex
    kappa: complex

    def __post_init__(self) -> None:
        if self.kappa.real < 0.0:
            raise BSError("kappa left the principal branch (Re kappa < 0)")


def green_params(z: complex) -> GreenParams:
    return GreenParams(z=complex(z), kappa=cmath.sqrt(-complex(z)))


def green_function(z: complex, s) -> np.ndarray:
    """Free resolvent kernel at separation s: exp(-kappa s) / (4 pi s)."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr <= 0.0):
        raise BSError("green_function needs positive separation s")
    kappa = green_params(z).kappa
    out = np.exp(-kappa * s_arr) / (4.0 * np.pi * s_arr)
    if np.isscalar(s):
        return complex(out)
    return out


def pointwise_bound_check(z: complex, samples: Sequence[float]) -> bool:
    """Check |G_z(s)| <= G_0(s) on the samples (exact, no tolerance).

    The bound is equivalent to Re sqrt(-z) >= 0, which the principal branch
    guarantees for every z off the open positive axis.
    """
    if _on_positive_axis(z):
        raise BSError("pointwise bound is only claimed off the positive half axis")
    s = np.asarray(samples, dtype=float)
    gz = np.abs(green_function(z, s))
    g0 = np.abs(green_function(0.0, s))
    return bool(np.all(gz <= g0))


def _scaled_bessel_factors(
    x: np.ndarray, ell_max: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield (A_l(x), B_l(x)) for l = 0..ell_max, for Re x >= 0, x != 0.

        A_l(x) = (2l+1)!! x^(-l) i_l(x) e^(-x),
        B_l(x) = (2/pi) x^(l+1) k_l(x) e^x / (2l-1)!!,

    with the modified spherical Bessel functions i_l, k_l; both -> 1 as
    x -> 0.  A_l is its power series for |x| < 1 and scipy's exponentially
    scaled ive beyond.  B_l is a polynomial of degree l, built from B_0 = 1,
    B_1 = 1 + x by the forward recurrence of k_l,
    B_(l+1) = B_l + x^2 B_(l-1) / (4l^2 - 1).
    """
    from scipy.special import ive

    small = np.abs(x) < 1.0
    half_x2 = 0.5 * x[small] ** 2
    e_small = np.exp(-x[small])
    x_big = x[~small]
    big_tail = np.sqrt(np.pi / (2.0 * x_big)) * np.exp(-1j * x_big.imag)
    big_scale = np.ones_like(x_big)  # (2l+1)!! x^(-l), one factor per l
    b_cur, b_next = np.ones_like(x), 1.0 + x
    for ell in range(ell_max + 1):
        term = np.ones_like(half_x2)
        total = np.ones_like(half_x2)
        for k in range(1, _A_SERIES_TERMS):
            term = term * half_x2 / (k * (2 * ell + 2 * k + 1))
            total = total + term
        if ell > 0:
            big_scale = big_scale * ((2 * ell + 1) / x_big)
        a = np.empty_like(x)
        a[small] = e_small * total
        a[~small] = big_scale * big_tail * ive(ell + 0.5, x_big)
        yield a, b_cur
        b_cur, b_next = b_next, b_next + x**2 * b_cur / ((2 * ell + 1) * (2 * ell + 3))


def _sector_kernels(
    z: complex, r: np.ndarray, ell_max: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (l, g_l^z) for l = 0..ell_max in the scaled closed form

        g_l^z = g_l^0 * A_l(kappa r_<) * B_l(kappa r_>) * exp(-kappa (r_> - r_<)),

    with g_l^0 = r_<^l / ((2l+1) r_>^(l+1)).  At z = 0 the Bessel factors are
    skipped, not multiplied in as ones, so g_l^0 comes out bit for bit.
    Off z = 0, l is capped at _BESSEL_ELL_MAX, and a kernel that still
    overflows (A_l underflowing against a B_l ~ (kappa r)^l near the
    diagonal, at |kappa| r in the thousands and l near the cap) raises.
    """
    r_lo = np.minimum.outer(r, r)
    r_hi = np.maximum.outer(r, r)
    ratio = r_lo / r_hi
    power = 1.0 / r_hi
    kappa = green_params(z).kappa
    if kappa != 0.0:
        if ell_max > _BESSEL_ELL_MAX:
            raise BSError(f"ell_max {ell_max} exceeds {_BESSEL_ELL_MAX} at z != 0")
        factors = _scaled_bessel_factors(kappa * r, ell_max)
        r_i_lower = r[:, np.newaxis] <= r[np.newaxis, :]
        decay = np.exp(-kappa * (r_hi - r_lo))
    for ell in range(ell_max + 1):
        g = power / (2 * ell + 1)
        if kappa != 0.0:
            a, b = next(factors)
            g = g * np.where(r_i_lower, np.outer(a, b), np.outer(b, a)) * decay
            if not np.all(np.isfinite(g)):
                raise BSError(f"sector kernel l={ell} overflows at z={z}")
        yield ell, g
        power = power * ratio


def sector_matrices(
    potential: Potential,
    z: complex,
    grid: RadialGrid,
    ell_max: int = _DEFAULT_ELL_MAX,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (l, M_l) with M_ij = |V_i|^(1/2) g_l^z(r_i,r_j) V_(1/2,j) r_i r_j sqrt(w_i w_j)."""
    _check_radial_3d(potential)
    if _on_positive_axis(z):
        raise BSError("z on the open positive axis is outside the resolvent set")
    if ell_max < 0:
        raise BSError("ell_max must be >= 0")
    r = grid.nodes
    sqw = np.sqrt(grid.weights)
    left = np.sqrt(potential.abs_radial(r)) * r * sqw
    right = potential.sign_radial(r) * np.sqrt(potential.abs_radial(r)) * r * sqw
    for ell, g in _sector_kernels(z, r, ell_max):
        yield ell, left[:, np.newaxis] * g * right[np.newaxis, :]


def _frobenius_sq_z0(alpha: np.ndarray, r: np.ndarray, ell_max: int) -> np.ndarray:
    """|M_l|_F^2 of the z = 0 sectors, l = 0..ell_max, without forming M_l.

    Row and column dressing of M_l have the same modulus, so with
    alpha = |V| r^2 w on the increasing nodes r, |M_ij|^2 = alpha_i alpha_j
    g_l^0(r_i, r_j)^2.  The kernel is rank one on each triangle, and the sum
    splits into the diagonal and a running sum over the lower triangle,

        (2l+1)^2 |M_l|_F^2 = sum_j alpha_j (alpha_j + 2 S_j) / r_j^2,
        S_j = sum_(i < j) alpha_i (r_i / r_j)^(2l),

    at O(n (ell_max+1)) cost.  S is one logaddexp.accumulate over
    log alpha_i + 2l log r_i (log 0 = -inf where V vanishes), so nothing
    over- or underflows on geometric grids down to r ~ 1e-79.
    """
    log_r = np.log(r)
    ells = np.arange(ell_max + 1)
    two_l = 2.0 * ells[:, np.newaxis]
    with np.errstate(divide="ignore"):
        acc = np.logaddexp.accumulate(np.log(alpha) + two_l * log_r, axis=1)
    running = np.zeros_like(acc)
    running[:, 1:] = np.exp(acc[:, :-1] - two_l * log_r[1:])
    return ((alpha + 2.0 * running) @ (alpha / r**2)) / (2.0 * ells + 1.0) ** 2


def _hs_tail(terms: Sequence[float]) -> float:
    """Tail sum estimate for term_l ~ c / ((2l+1)(2l+3)) beyond the last l.

    c is fitted from the last few computed terms; the exact remainder of the
    model sum past l = L is c / (2 (2L+3)).
    """
    if len(terms) < 3:
        return 0.0
    ell_top = len(terms) - 1
    fitted = [
        terms[ell] * (2 * ell + 1) * (2 * ell + 3)
        for ell in range(max(1, ell_top - 3), ell_top + 1)
    ]
    c = float(np.mean(fitted))
    return c / (2.0 * (2 * ell_top + 3))


@dataclass(frozen=True)
class BSMatrix:
    """Per-sector norms of the partial-wave Nystroem family for K_z at one z.

    ``per_ell_norms[l]`` is sigma_max of sector l and ``per_ell_frobenius[l]``
    its Frobenius norm, l = 0..ell_max; the sector matrices themselves are
    not kept.  ``tail_warning`` is set when the last sector norm is positive
    and not below the one before it, i.e. the truncation at ell_max is
    suspect.
    """

    z: complex
    per_ell_norms: tuple[float, ...]
    per_ell_frobenius: tuple[float, ...]
    tail_warning: bool

    @property
    def norm(self) -> float:
        return max(self.per_ell_norms)

    def hs_estimate(self) -> float:
        """Multiplicity-weighted HS norm of the truncated family plus tail."""
        terms = [
            (2 * ell + 1) * fro**2 for ell, fro in enumerate(self.per_ell_frobenius)
        ]
        return math.sqrt(sum(terms) + _hs_tail(terms))

    def summary(self) -> dict:
        return {
            "z_re": float(self.z.real),
            "z_im": float(self.z.imag),
            "norm": self.norm,
            "hs_norm": self.hs_estimate(),
            "per_ell_norms": list(self.per_ell_norms),
            "tail_warning": self.tail_warning,
        }


def _check_radial_3d(potential: Potential) -> None:
    if potential.dimension != 3:
        raise BSError("partial-wave assembly is three-dimensional")


def assemble_bs(
    potential: Potential,
    z: complex,
    grid: RadialGrid,
    ell_max: int = _DEFAULT_ELL_MAX,
) -> BSMatrix:
    """Assemble the partial-wave Nystroem matrices of K_z.

    Sector l gets the matrix

        M_ij = |V(r_i)|^(1/2) g_l^z(r_i, r_j) V_(1/2)(r_j) r_i r_j sqrt(w_i w_j),

    the symmetrized discretization of the sector kernel on L^2(r^2 dr).
    The reported norm is the max over sectors of sigma_max.  Each sector
    matrix is reduced to its sigma_max and Frobenius norm as it is
    assembled and then dropped; none is kept.
    """
    norms: list[float] = []
    frobs: list[float] = []
    for _, m in sector_matrices(potential, z, grid, ell_max=ell_max):
        norms.append(largest_singular_value(m))
        frobs.append(float(np.linalg.norm(m)))
    tail_warning = len(norms) >= 2 and 0.0 < norms[-1] and norms[-1] >= norms[-2]
    return BSMatrix(
        z=complex(z),
        per_ell_norms=tuple(norms),
        per_ell_frobenius=tuple(frobs),
        tail_warning=tail_warning,
    )


def default_bs_grid(n: int = 256, r_max: float = 40.0) -> RadialGrid:
    """Grid used when callers do not supply one: geometric panels.

    Tiles [r_max * ratio^-K, r_max] with K = max(2, n // 10) panels of fixed
    ratio sqrt(10) carrying 10 Gauss nodes each (two panels per decade), so
    refining deepens the covered range; the untiled remainder near the
    origin is left to the integrand's decay there.  Scale-invariant kernels
    (the Hardy borderline case) need log-resolved grids with small
    w_j / r_j ratios; geometric panels give both.
    """
    panels = max(2, n // _GRID_PANEL_NODES)
    edges = [r_max * _GRID_PANEL_RATIO ** (k - panels) for k in range(panels + 1)]
    nodes, weights = panel_gauss(edges, _GRID_PANEL_NODES)
    return RadialGrid(nodes, weights, float(r_max))


@dataclass(frozen=True)
class HSNormResult:
    """Hilbert-Schmidt norm of K~_0 computed along two independent routes."""

    matrix_route: float
    rollnik_route: float
    rel_gap: float
    diverged: bool


def log_uniform_grid(r_min: float, r_max: float, n: int) -> RadialGrid:
    """Composite Gauss grid on log-uniform panels over [r_min, r_max].

    Hilbert-Schmidt sums need every retained sector resolved: the squared
    sector kernel at multipole l peaks within ~1/(2l+1) of the diagonal in
    log r, so the effective log spacing log(r_max/r_min)/n must be a few
    times smaller than 1/(2 ell_max + 1).  This grid makes that spacing an
    explicit choice instead of a side effect of the default panel ratio.
    """
    if not (0.0 < r_min < r_max):
        raise BSError("need 0 < r_min < r_max")
    if n < 2 * _GRID_PANEL_NODES:
        raise BSError(f"need at least {2 * _GRID_PANEL_NODES} nodes, got {n}")
    edges = np.geomspace(r_min, r_max, max(2, n // _GRID_PANEL_NODES) + 1)
    nodes, weights = panel_gauss(list(edges), _GRID_PANEL_NODES)
    return RadialGrid(nodes, weights, float(r_max))


def hs_norm(
    potential: Potential,
    grid: Optional[RadialGrid] = None,
    ell_max: int = 48,
) -> HSNormResult:
    """HS norm two ways: sector Frobenius sums and the Rollnik integral.

    Route (i) sums (2l+1) |M_l|_F^2 over the z = 0 sectors l <= ell_max and
    completes the truncation with the asymptotic tail.  The Frobenius norms
    come from running sums over the rank-one triangles of g_l^0 (see
    _frobenius_sq_z0): O(n ell_max) work and memory, no n x n matrix, so
    fine reference grids stay cheap.  Route (ii) is |V|_R / (4 pi) with the
    Rollnik norm computed by the condition checkers.  A divergent Rollnik
    norm (+inf, Hardy-type potentials) makes both routes +inf.
    """
    from .conditions import rollnik_norm

    _check_radial_3d(potential)
    if ell_max < 0:
        raise BSError("ell_max must be >= 0")
    rollnik = rollnik_norm(potential)
    if math.isinf(rollnik):
        return HSNormResult(math.inf, math.inf, math.nan, True)
    if grid is None:
        grid = log_uniform_grid(0.02, 16.0, 1600)
    alpha = potential.abs_radial(grid.nodes) * grid.nodes**2 * grid.weights
    fro_sq = _frobenius_sq_z0(alpha, grid.nodes, ell_max)
    terms = [(2 * ell + 1) * float(f) for ell, f in enumerate(fro_sq)]
    direct = math.sqrt(sum(terms) + _hs_tail(terms))
    via_rollnik = rollnik / (4.0 * np.pi)
    ref = max(direct, via_rollnik)
    gap = abs(direct - via_rollnik) / ref if ref > 0 else 0.0
    return HSNormResult(direct, via_rollnik, gap, False)


def bs_principle_matrix_check(
    h0: np.ndarray,
    v_diag: np.ndarray,
    lam: complex,
    psi: np.ndarray,
) -> float:
    """Matrix-level Birman-Schwinger identity residual |K_lam phi + phi| / |phi|.

    For an eigenpair (H0 + diag(v)) psi = lam psi with lam off the spectrum
    of H0, phi = |v|^(1/2) psi satisfies K_lam phi = -phi exactly, where
    K_lam = |v|^(1/2) (H0 - lam)^(-1) v_(1/2) as matrices.
    """
    h0 = np.asarray(h0, dtype=np.complex128)
    v = np.asarray(v_diag, dtype=np.complex128).ravel()
    psi = np.asarray(psi, dtype=np.complex128).ravel()
    n = h0.shape[0]
    if h0.shape != (n, n) or v.size != n or psi.size != n:
        raise BSError("shape mismatch between H0, v, and psi")
    shifted = h0 - complex(lam) * np.eye(n)
    scale = np.linalg.norm(h0) / math.sqrt(n) if n else 1.0
    if smallest_singular_value(shifted) <= 1e-8 * max(scale, 1.0):
        raise BSError(
            f"lam={lam} is within 1e-8 of the spectrum of H0; resolvent ill-defined"
        )
    half = np.sqrt(np.abs(v))
    phi = half * psi
    nphi = np.linalg.norm(phi)
    if nphi == 0.0:
        raise BSError("phi = |v|^(1/2) psi vanishes; potential support misses psi")
    x = solve_linear(shifted, complex_sign(v) * half * phi)
    return float(np.linalg.norm(half * x + phi) / nphi)


_REGIME_EXPONENT = {"sqrt": 0.5, "linear": 1.0, "constant": 0.0}


def _regime_of(lam: complex) -> str:
    lam = complex(lam)
    if lam == 0.0:
        return "sqrt"
    if lam.imag == 0.0 and lam.real > 0.0:
        return "linear"
    return "constant"


def kappa_scaling(lam: complex, eps_list: Sequence[float]) -> list[tuple[float, float, str]]:
    """kappa(eps) = Re sqrt(-(lam + i eps)) with its small-eps regime.

    Regimes: lam = 0 gives kappa ~ |eps|^(1/2); real lam > 0 gives
    kappa ~ |eps|; anything else approaches a positive constant.  The fitted
    log-log slope over eps_list must match the regime exponent within 0.05,
    otherwise this raises.
    """
    eps = [float(e) for e in eps_list]
    if any(e == 0.0 for e in eps):
        raise BSError("eps = 0 is not admissible")
    regime = _regime_of(lam)
    kappas = [green_params(complex(lam) + 1j * e).kappa.real for e in eps]
    if len(eps) >= 2:
        slope = fit_loglog_slope(np.abs(eps), np.asarray(kappas))
        expected = _REGIME_EXPONENT[regime]
        if abs(slope - expected) > _SLOPE_TOL:
            raise BSError(
                f"kappa(eps) slope {slope:.4f} does not match regime "
                f"{regime!r} exponent {expected} within {_SLOPE_TOL}"
            )
    return [(e, k, regime) for e, k in zip(eps, kappas)]


@dataclass(frozen=True)
class MepsRecord:
    eps: float
    kappa: float
    hs_direct: float
    hs_formula: float
    rel_gap: float


def _ball_integral_abs(potential: Potential, radius: float) -> float:
    """int_{|x| < radius} |V| = 4 pi int_0^radius |V(r)| r^2 dr."""
    if potential.origin_singularity_order >= 3.0:
        raise BSError("|V| is not integrable on the ball")
    edges = [0.0] + [radius * 2.0 ** (-k) for k in range(24, 0, -1)] + [radius]
    nodes, weights = panel_gauss(edges, 16)
    vals = potential.abs_radial(nodes) * nodes**2
    return 4.0 * np.pi * float(np.dot(weights, vals))


def m_eps_hs_check(
    potential: Potential,
    omega_radius: float,
    lam: complex,
    eps_list: Sequence[float],
) -> list[MepsRecord]:
    """HS norm of M_eps = chi_Omega |V|^(1/2) G_(lam + i eps), two ways.

    The closed form follows from the x-independence of int |G_z(x,y)|^2 dy:

        |M_eps|_HS^2 = (1 / (8 pi kappa)) int_Omega |V|,

    with kappa = Re sqrt(-(lam + i eps)).  The direct route assembles the
    partial-wave Nystroem matrices of the kernel (rows cut off at
    omega_radius, columns extended to cover the exp(-kappa s) range; 60
    Gauss nodes inside, sectors l <= 24) and sums multiplicity-weighted
    Frobenius norms with the sector tail estimate.  Also enforces that
    eps * hs_formula -> 0 at the regime rate 1 - exponent/2 (slope checked
    within 0.05).
    """
    if omega_radius <= 0:
        raise BSError("omega_radius must be positive")
    integral = _ball_integral_abs(potential, omega_radius)
    records: list[MepsRecord] = []
    for eps in eps_list:
        if eps == 0.0:
            raise BSError("eps = 0 is not admissible")
        z = complex(lam) + 1j * float(eps)
        kappa = green_params(z).kappa.real
        hs_formula = math.sqrt(integral / (8.0 * np.pi * kappa))

        reach = min(omega_radius + 14.0 / max(kappa, 1e-12), omega_radius * 400.0)
        inner, w_inner = gauss_legendre(_MEPS_GRID_N, 0.0, omega_radius)
        n_outer = max(_MEPS_GRID_N, int(24 * math.log10(max(reach / omega_radius, 10.0))))
        outer_edges = np.geomspace(omega_radius, reach, max(4, n_outer // 12 + 1))
        outer, w_outer = panel_gauss(list(outer_edges), 12)
        r = np.concatenate([inner, outer])
        w = np.concatenate([w_inner, w_outer])
        rows = r <= omega_radius

        left = np.sqrt(potential.abs_radial(r)) * r * np.sqrt(w) * rows
        colw = r * np.sqrt(w)
        terms: list[float] = []
        for ell, g in _sector_kernels(z, r, _MEPS_ELL_MAX):
            m = left[:, np.newaxis] * g * colw[np.newaxis, :]
            terms.append((2 * ell + 1) * float(np.linalg.norm(m)) ** 2)
        hs_direct = math.sqrt(sum(terms) + _hs_tail(terms))
        gap = abs(hs_direct - hs_formula) / hs_formula
        records.append(MepsRecord(float(eps), kappa, hs_direct, hs_formula, gap))

    if len(records) >= 2:
        eps_arr = np.array([abs(rec.eps) for rec in records])
        decay = np.array([abs(rec.eps) * rec.hs_formula for rec in records])
        slope = fit_loglog_slope(eps_arr, decay)
        expected = 1.0 - _REGIME_EXPONENT[_regime_of(lam)] / 2.0
        if abs(slope - expected) > _SLOPE_TOL:
            raise BSError(
                f"eps * hs_formula slope {slope:.4f} deviates from the regime "
                f"value {expected} by more than {_SLOPE_TOL}"
            )
    return records
