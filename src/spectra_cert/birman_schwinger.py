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

The sector norms need no sector matrix.  The kernel is a Green's function,
g_l^z(r, r') = u(r_<) v(r_>), a single pair of functions on each triangle.
Its sigma_max is taken on the nodes that carry the sector: where V does not
vanish, less the leading and trailing nodes whose rows and columns carry
under eps^2 / n of every |M_l|_F^2, which moves each sigma_max by at most
eps sigma_max (Weyl), downward.  A contiguous block of a single-pair kernel
is single-pair again.  At real z <= 0 its Nystroem matrix has a tridiagonal
inverse (Gantmacher-Krein), which is symmetric positive definite for real
kappa, and whose bidiagonal factor is closed-form in the steps below.  Each
sector's sigma_max is 1 / lambda_min of that inverse, bisected on the
factor in O(n) (``numerics.bidiagonal_gram_inverse_norm``).  The sector
matrix is M_l = L G L S with the real diagonal L = diag(|V|^(1/2) r w^(1/2)),
the complex symmetric kernel matrix G and the unitary S = diag(sgn V), so
sigma(M_l) = sigma(L G L): no singular value reads the sign of V.  At
complex z a product with L G L is two bidiagonal solves, O(n), and the
package's ARPACK driver on that one complex symmetric product gives
sigma_max (``numerics.operator_largest_singular_value``), an estimate that
approaches it from below; each sector starts from the Ritz vector of the
one before.  The sector that attains the norm is then rebuilt, sign
included, on the kept nodes once per z and checked against a dense SVD and
the running-sum Frobenius norm.  That check is the one O(n^2) step at
complex z: each sector
matrix is one complex n x n array built in place, beside the decay
exp(-kappa |r_i - r_j|) and the power r_<^l / r_>^(l+1), about three such
arrays at its peak.

Hilbert-Schmidt norms sum over sectors with multiplicity 2l+1,

    |K|_HS^2 = sum_l (2l+1) |M_l|_F^2,

and the truncated sum is completed by a tail estimate from the asymptotic
law term_l ~ c / ((2l+1)(2l+3)), whose exact tail sum is c / (2(2L+3)).
The Frobenius norms need no matrix either.  Each sector kernel is
single-pair, so |g_ij|^2 = |g_ii| |g_jj| prod_(i <= k < j) q_k for i <= j,
and _sector_steps forms the diagonal and the neighbour gaps -log q_k once
per sector from the node steps, never from kappa r or r^l.  A Frobenius sum
is then one running sum over the grid nodes, O(n) per sector: a doubling
scan of products and sums of nonnegative numbers, accurate to a few log2(n)
eps relative at any kappa r (within 1e-15 of the dense sums on the test
grids, up to kappa = 1e8).  The same pass gives each node's share, from
which the sector norms drop their negligible end nodes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .conditions import _ball_integral, _in_classes, _truncation_radius, rollnik_norm
from .numerics import (
    NumericsError,
    RadialGrid,
    _check_against_svd,
    _scale_exponent,
    _scaled_back,
    _scaled_sqrt,
    bidiagonal_gram_inverse_norm,
    fit_loglog_slope,
    largest_singular_value,
    operator_largest_singular_value,
    panel_gauss,
    smallest_singular_value,
)
from .potentials import Potential, _check_dimension, _unit_row, complex_sign

__all__ = [
    "BSError",
    "BSMatrix",
    "HSNormResult",
    "MepsRecord",
    "pointwise_bound_check",
    "sector_matrices",
    "assemble_bs",
    "hs_norm",
    "default_bs_grid",
    "log_uniform_grid",
    "bs_principle_matrix_check",
    "kappa_scaling",
    "m_eps_hs_check",
]

_A_SERIES_TERMS = 12
# Past l ~ 147 the factor (2l+1)!! x^(-l) overflows at |x| = 1 while ive
# underflows, so the |x| >= 1 branch of A_l would silently read 0.
_BESSEL_ELL_MAX = 128
_GRID_PANEL_NODES = 10
# default_bs_grid: panels shrink toward the origin by sqrt(10), two per decade
_GRID_PANEL_RATIO = 10.0**0.5
# inner end of the log-uniform HS grids: hs_norm's default and the CLI's
# hs-identity grid, which runs out to r_max
_HS_GRID_R_MIN = 0.02
# bound on the fitted log-log slopes of kappa_scaling and m_eps_hs_check
_SLOPE_TOL = 0.05
# |K_z| <= (1 + slack) |K_0|: the discretization slack of resolvent domination
_BS_NORM_SLACK = 0.02


class BSError(ValueError):
    """Raised on precondition violations or failed built-in assertions."""


def _in_float_range(norm: float, j: int, what: str) -> float:
    """norm 2^j, or :class:`BSError` where that leaves the float range."""
    scaled = _scaled_back(norm, j)
    if scaled == math.inf:
        raise BSError(f"{what} {norm:.6e} * 2^{j} leaves the float range")
    return scaled


def _check_off_positive_axis(z: complex) -> None:
    if z.imag == 0.0 and z.real > 0.0:
        raise BSError("z on the open positive axis is outside the resolvent set")


def _kappa(z: complex) -> complex:
    """The principal-branch kappa = sqrt(-z), Re kappa >= 0 for every z."""
    return cmath.sqrt(-complex(z))


def _green_function(z: complex, s) -> np.ndarray:
    """Free resolvent kernel at separation s: exp(-kappa s) / (4 pi s)."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr <= 0.0):
        raise BSError("the Green function needs positive separation s")
    kappa = _kappa(z)
    out = np.exp(-kappa * s_arr) / (4.0 * np.pi * s_arr)
    if np.isscalar(s):
        return complex(out)
    return out


def pointwise_bound_check(z: complex, samples: Sequence[float]) -> bool:
    """Check |G_z(s)| <= G_0(s) on the samples (exact, no tolerance).

    The bound is equivalent to Re sqrt(-z) >= 0, which the principal branch
    guarantees for every z off the open positive axis.
    """
    _check_off_positive_axis(z)
    s = np.asarray(samples, dtype=float)
    gz = np.abs(_green_function(z, s))
    g0 = np.abs(_green_function(0.0, s))
    return bool(np.all(gz <= g0))


def _scaled_bessel_factors(x: np.ndarray, ell_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The (ell_max+1, n) arrays of A_l(x) and B_l(x), l = 0..ell_max, for
    Re x >= 0, x != 0,

        A_l(x) = (2l+1)!! x^(-l) i_l(x) e^(-x),
        B_l(x) = (2/pi) x^(l+1) k_l(x) e^x / (2l-1)!!,

    with the modified spherical Bessel functions i_l, k_l; both -> 1 as
    x -> 0.  A_l is its power series for |x| < 1 and scipy's exponentially
    scaled ive beyond.  B_l is a polynomial of degree l, built from B_0 = 1,
    B_1 = 1 + x by the forward recurrence of k_l,
    B_(l+1) = B_l + x^2 B_(l-1) / (4l^2 - 1).  _check_sector_args caps l at _BESSEL_ELL_MAX.
    """
    from scipy.special import ive

    small = np.abs(x) < 1.0
    half_x2 = 0.5 * x[small] ** 2
    e_small = np.exp(-x[small])
    x_big = x[~small]
    big_tail = np.sqrt(np.pi / (2.0 * x_big)) * np.exp(-1j * x_big.imag)
    big_scale = np.ones_like(x_big)  # (2l+1)!! x^(-l), one factor per l
    a = np.empty((ell_max + 1, x.size), dtype=x.dtype)
    b = np.empty_like(a)
    b_cur, b_next = np.ones_like(x), 1.0 + x
    for ell in range(ell_max + 1):
        term = np.ones_like(half_x2)
        total = np.ones_like(half_x2)
        for k in range(1, _A_SERIES_TERMS):
            term = term * half_x2 / (k * (2 * ell + 2 * k + 1))
            total = total + term
        if ell > 0:
            big_scale = big_scale * ((2 * ell + 1) / x_big)
        a[ell, small] = e_small * total
        a[ell, ~small] = big_scale * big_tail * ive(ell + 0.5, x_big)
        b[ell] = b_cur
        b_cur, b_next = b_next, b_next + x**2 * b_cur / ((2 * ell + 1) * (2 * ell + 3))
    return a, b


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

    Each kernel is a fresh complex n x n array, built in place: across l only
    the decay and the power r_<^l / r_>^(l+1) persist, and the ratio
    r_< / r_> from l = 1 on, so a sector costs about three n x n complex
    arrays at its peak (3.1 at l = 0, 3.6 from l = 1 on).
    """
    kappa = _kappa(z)
    if kappa != 0.0:
        a, b = _scaled_bessel_factors(kappa * r, ell_max)
        r_i_lower = r[:, np.newaxis] <= r[np.newaxis, :]
        # |r_i - r_j| is r_> - r_< bit for bit
        decay = -kappa * np.abs(np.subtract.outer(r, r))
        np.exp(decay, out=decay)
    power = np.maximum.outer(r, r)
    np.divide(1.0, power, out=power)
    for ell in range(ell_max + 1):
        if ell == 1:
            ratio = np.minimum.outer(r, r)
            np.divide(ratio, np.maximum.outer(r, r), out=ratio)
        if ell:
            np.multiply(power, ratio, out=power)
        g = np.empty((r.size, r.size), dtype=np.complex128)
        if kappa == 0.0:
            np.divide(power, 2 * ell + 1, out=g)
        else:
            # the Bessel pair A_l(kappa r_<) B_l(kappa r_>), one triangle each
            np.multiply(a[ell, :, np.newaxis], b[ell], out=g, where=r_i_lower)
            np.multiply(b[ell, :, np.newaxis], a[ell], out=g, where=~r_i_lower)
            np.multiply(power / (2 * ell + 1), g, out=g)
            np.multiply(g, decay, out=g)
            if not np.all(np.isfinite(g)):
                raise BSError(f"sector kernel l={ell} overflows at z={z}")
        yield ell, g


def sector_matrices(
    potential: Potential,
    z: complex,
    grid: RadialGrid,
    ell_max: int,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (l, M_l) with M_ij = |V_i|^(1/2) g_l^z(r_i,r_j) V_(1/2,j) r_i r_j sqrt(w_i w_j),
    each the complex kernel array of _sector_kernels, scaled in place."""
    _check_sector_args(potential, z, ell_max)
    r = grid.nodes
    sqw = np.sqrt(grid.weights)
    left = np.sqrt(potential.abs_radial(r)) * r * sqw
    right = potential.sign_radial(r) * np.sqrt(potential.abs_radial(r)) * r * sqw
    for ell, g in _sector_kernels(z, r, ell_max):
        np.multiply(left[:, np.newaxis], g, out=g)
        np.multiply(g, right, out=g)
        yield ell, g


def _sector_steps(
    z: complex, r: np.ndarray, ell_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, g_diag, gap) of the sectors l = 0..ell_max at z on the
    increasing nodes r: A_l(kappa r) and B_l(kappa r) (real at real z, ones
    at z = 0, where no Bessel factor is formed), the diagonal
    |g_l^z(r_i, r_i)| = |A_l B_l| / ((2l+1) r_i) and the neighbour gaps

        gap_i = (2l+1) log1p(dr_i / r_i) + Delta log|A_l| - Delta log|B_l| + 2 Re kappa dr_i,

    dr_i = r_(i+1) - r_i.  So q_i = e^(-gap_i) = |g_(i,i+1)|^2 / (|g_ii|
    |g_(i+1,i+1)|), and |g_ij|^2 = |g_ii| |g_jj| prod_(i <= k < j) q_k for
    i <= j.  No kappa r or r^l is formed: nothing cancels at large kappa r,
    and nothing underflows on geometric grids down to r ~ 1e-79.
    """
    kappa = _kappa(z)
    c_r, gap = _free_steps(np.arange(ell_max + 1)[:, np.newaxis], r)
    a = b = np.ones((ell_max + 1, r.size))
    if kappa != 0.0 and r.size:
        gap += 2.0 * kappa.real * np.diff(r)
        a, b = _scaled_bessel_factors(kappa * r, ell_max)
        if z.imag == 0.0:
            a, b = a.real, b.real
        gap += np.diff(np.log(np.abs(a)), axis=1) - np.diff(np.log(np.abs(b)), axis=1)
    return a, b, np.abs(a) * np.abs(b) / c_r, gap


def _free_steps(ell, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """((2l+1) r, (2l+1) log1p(dr_i / r_i)) on the increasing nodes r, for
    an int l or a column of them: the z = 0 diagonal 1 / |g_l^0(r_i, r_i)|
    and neighbour gaps of _sector_steps, which adds the Bessel and decay
    terms at z != 0 to these."""
    c = 2.0 * ell + 1.0
    return c * r, c * np.log1p(np.diff(r) / r[:-1])


def _running_sums(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """S_j = q_(j-1) S_(j-1) + x_j, S_0 = x_0, along the last axis, by a
    doubling scan: pass k adds to S_j the partial sum that ends 2^k nodes
    before it, weighted by the product of the q between.  So each term of
    S_j takes about 3 log2(n) roundings, relative, and nothing cancels."""
    s = np.array(x, dtype=float)
    weight = np.zeros_like(s)  # q_(j-1), and 0 at j = 0
    weight[..., 1:] = q
    shift, n = 1, s.shape[-1]
    while shift < n:
        s[..., shift:] += weight[..., shift:] * s[..., :-shift]
        if 2 * shift < n:  # the last pass's weights would go unread
            weight[..., shift:] *= weight[..., :-shift]
        shift *= 2
    return s


def _node_masses(x: np.ndarray, gap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lower, fro_sq) of |M_ij|^2 = x_i x_j prod_(min <= k < max) q_k, q =
    e^(-gap), without forming M_l: x = weight times g_diag of M_l and its
    _sector_steps, the same weight on rows and columns.  lower_k, the mass
    of the entries with max(i, j) = k,

        lower_k = (2 S_k - x_k) x_k,

    with S from _running_sums.  The x_k^2 taken off is at most half of the
    sum, so each mass is accurate to a few log2(n) eps relative.  fro_sq =
    sum_k lower_k = |M_l|_F^2.
    """
    s_x = _running_sums(x, np.exp(-gap))
    lower = (2.0 * s_x - x) * x
    # the row sums as one BLAS product, the rounding the reports carry
    return lower, lower @ np.ones(x.shape[-1])


def _completed_hs_norm(fro_sq: Sequence[float]) -> float:
    """sqrt of sum_l term_l = (2l+1) |M_l|_F^2 plus its tail past the last l.

    The tail models term_l ~ c / ((2l+1)(2l+3)), with c fitted from the last
    few computed terms; the exact remainder of the model sum past l = L is
    c / (2 (2L+3)).  Fewer than three terms get no tail.
    """
    terms = [(2 * ell + 1) * float(f) for ell, f in enumerate(fro_sq)]
    tail = 0.0
    if len(terms) >= 3:
        ell_top = len(terms) - 1
        fitted = [
            terms[ell] * (2 * ell + 1) * (2 * ell + 3)
            for ell in range(max(1, ell_top - 3), ell_top + 1)
        ]
        tail = float(np.mean(fitted)) / (2.0 * (2 * ell_top + 3))
    return math.sqrt(sum(terms) + tail)


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
        """Multiplicity-weighted HS norm of the truncated family plus tail,
        summed on the Frobenius norms divided by a power of two 2^j near the
        largest one, so that no square leaves the float range.  Raises
        :class:`BSError` when the estimate itself does."""
        j = _scale_exponent(max(self.per_ell_frobenius))
        fro_sq = [math.ldexp(fro, -j) ** 2 for fro in self.per_ell_frobenius]
        return _in_float_range(_completed_hs_norm(fro_sq), j, "HS estimate")

    def dominated_by(self, base: BSMatrix) -> bool:
        """Resolvent domination |K_z| <= |K_0| up to the 2 % discretization
        slack, with ``base`` the family at z = 0."""
        return self.norm <= base.norm * (1.0 + _BS_NORM_SLACK)


def _check_sector_args(potential: Potential, z: complex, ell_max: int) -> None:
    _check_dimension(potential.dimension, BSError, 3)
    _check_off_positive_axis(z)
    if ell_max < 0:
        raise BSError("ell_max must be >= 0")
    if ell_max > _BESSEL_ELL_MAX and z != 0:
        raise BSError(f"ell_max {ell_max} exceeds {_BESSEL_ELL_MAX} at z != 0")


class _SectorFamily(NamedTuple):
    """The partial-wave sectors of K_z on the nodes that carry them.

    ``r``, ``w`` and ``abs_v`` are the kept nodes (see _kept_span),
    ``a`` and ``b`` the (ell_max+1, n) arrays A_l(kappa r), B_l(kappa r) on
    them (real at real z, ones at z = 0), ``x`` = alpha g_diag and ``gap``
    the _sector_steps gaps between them (alpha = |V| r^2 w), and ``fro_sq``
    the |M_l|_F^2 over the whole support.
    """

    r: np.ndarray
    w: np.ndarray
    abs_v: np.ndarray
    a: np.ndarray
    b: np.ndarray
    x: np.ndarray
    gap: np.ndarray
    fro_sq: np.ndarray


def _kept_span(x: np.ndarray, gap: np.ndarray, lower: np.ndarray, fro_sq: np.ndarray) -> slice:
    """The support nodes left once the negligible leading and trailing ones go.

    ``x`` and ``gap`` are the sectors' steps at the row and column weight
    alpha = |V| r^2 w, and ``lower`` and ``fro_sq`` their _node_masses, so
    lower_k is the mass of the entries with max(i, j) = k.  Those with
    min(i, j) = k carry upper_k, the lower mass of node k with the node
    order reversed: one backward scan.  The first h nodes go while the sum
    of their upper_k stays within eps^2 |M_l|_F^2 / (2n), the last t while
    the sum of their lower_k does, for every l.  The entries of M_l so
    dropped, E = M_l - P M_l P, then have
    |E| <= |E|_F <= eps |M_l|_F / sqrt(n) <= eps sigma_max(M_l), and P M_l P
    is a compression of M_l, so by Weyl's inequality each sigma_max moves by
    at most eps sigma_max, and only downward.
    """
    n = x.shape[1]
    upper = _node_masses(x[:, ::-1], gap[:, ::-1])[0][:, ::-1]
    budget = 0.5 * np.finfo(float).eps ** 2 / n * fro_sq[:, np.newaxis]
    # cumulative masses are nondecreasing, so each mask is a prefix
    head = int(np.all(np.cumsum(upper, axis=1) <= budget, axis=0).sum())
    tail = int(np.all(np.cumsum(lower[:, ::-1], axis=1) <= budget, axis=0).sum())
    return slice(head, n - tail) if head + tail < n else slice(0, n)


def _sector_family(
    potential: Potential, z: complex, grid: RadialGrid, ell_max: int
) -> _SectorFamily:
    """Support filter, single-pair steps, Frobenius norms and kept nodes of
    the sectors at z.

    Nodes where V vanishes carry zero rows and columns of M_l and are
    dropped.  On the rest, _sector_steps gives each sector's diagonal
    |g_ii| and neighbour gaps once, and _node_masses reads them for each
    node's share of |M_l|_F^2, whose sum over the whole support is
    |M_l|_F^2.  The leading and trailing nodes whose rows and columns carry
    less than eps^2 / n of it are dropped too (_kept_span): every sigma_max
    then moves by at most eps sigma_max.
    """
    abs_v = potential.abs_radial(grid.nodes)
    support = abs_v > 0.0
    r, w, abs_v = grid.nodes[support], grid.weights[support], abs_v[support]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a, b, g_diag, gap = _sector_steps(z, r, ell_max)
        x = abs_v * r**2 * w * g_diag
        lower, fro_sq = _node_masses(x, gap)
        keep = _kept_span(x, gap, lower, fro_sq)
    r, w, abs_v = r[keep], w[keep], abs_v[keep]
    a, b, x, gap = a[:, keep], b[:, keep], x[:, keep], gap[:, keep.start : keep.stop - 1]
    return _SectorFamily(r, w, abs_v, a, b, x, gap, fro_sq)


def _raise_on_overflow(z: complex, finite: np.ndarray) -> None:
    if not finite.all():
        raise BSError(f"sector kernel l={int(np.argmin(finite))} overflows at z={z}")


def _real_z_sector_norms(z: complex, family: _SectorFamily) -> list[float]:
    """sigma_max of the sectors at real z <= 0, l = 0..ell_max, with no n x n
    matrix.

    On the kept nodes, L_i = |V_i|^(1/2) r_i w_i^(1/2) > 0 and M_l = L G L S
    with the single-pair G_ij = g_l(r_i, r_j) and the unitary S = diag(sign V),
    so sigma_max(M_l) = sigma_max(L G L) = 1 / lambda_min(T), with
    T = L^-1 G^-1 L^-1 and no sign read.  G is
    symmetric positive definite with a tridiagonal inverse (Gantmacher-Krein).
    In the family's steps x_i = L_i^2 G_ii and q_i = e^(-gap_i) < 1, with
    omega_i = 1 - q_i = -expm1(-gap_i), q_(-1) = 0 and omega_(n-1) = 1,

        d_i = (1 / omega_i + q_(i-1) / omega_(i-1)) / x_i,
        e_i = -sqrt(q_i) / (omega_i sqrt(x_i) sqrt(x_(i+1))),

    and T = B^T B with the upper bidiagonal b_i = (omega_i x_i)^(-1/2),
    f_i = -sqrt(q_i / (omega_i x_(i+1))).  sigma_max(M_l) = 1 / sigma_min(B)^2
    is bisected on B (numerics.bidiagonal_gram_inverse_norm; the sign of f
    changes no singular value), whose entries are products of positive
    numbers: no factorization of T cancels.  A sector whose B or Frobenius
    sum is not finite (A_l underflowing or B_l overflowing at large kappa r
    and l) raises.
    """
    x, gap = family.x, family.gap
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv_omega = np.pad(-1.0 / np.expm1(-gap), ((0, 0), (0, 1)), constant_values=1.0)
        diag = np.sqrt(inv_omega / x)
        off = np.exp(-0.5 * gap) * np.sqrt(inv_omega[:, :-1] / x[:, 1:])
    _raise_on_overflow(
        z, np.isfinite(diag).all(axis=1) & np.isfinite(off).all(axis=1) & np.isfinite(family.fro_sq)
    )
    return [bidiagonal_gram_inverse_norm(b, f) for b, f in zip(diag, off)]


def _single_pair_product(
    rho: np.ndarray, a: np.ndarray, b: np.ndarray, scale: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """x -> L G L x for L = diag(scale), O(n).

    G_ij = a_min(i,j) b_max(i,j) prod_(min < k <= max) rho_k is the
    single-pair kernel, so y = G x is two unit-bidiagonal solves (LAPACK
    ztbtrs), the lower one upward and its transpose downward:

        s_j = rho_j s_(j-1) + a_j x_j,   t_j = b_j x_j + rho_(j+1) t_(j+1),
        y_j = b_j s_j + a_j rho_(j+1) t_(j+1).

    G is symmetric, and so is L G L.
    """
    from scipy.linalg.lapack import ztbtrs

    band = np.zeros((2, rho.size + 1), dtype=np.complex128)
    band[1, :-1] = -rho
    scaled_a, scaled_b = scale * a, scale * b
    shifted_a = scaled_a[:-1] * rho

    def product(x: np.ndarray) -> np.ndarray:
        s, _ = ztbtrs(band, (scaled_a * x)[:, np.newaxis], uplo="L", diag="U")
        t, _ = ztbtrs(band, (scaled_b * x)[:, np.newaxis], uplo="L", trans="T", diag="U")
        y = scaled_b * s[:, 0]
        y[:-1] += shifted_a * t[1:, 0]
        return y

    return product


def _complex_z_sector_norms(z: complex, family: _SectorFamily) -> list[float]:
    """sigma_max of the sectors at complex z, l = 0..ell_max, with no n x n
    matrix.

    The kernel is single-pair at every z, g_l(r_i, r_j) = u(r_<) v(r_>), with
    the steps rho_j = (r_(j-1) / r_j)^l e^(-kappa (r_j - r_(j-1))) of modulus
    <= 1 between neighbouring nodes, a = A_l(kappa r) and
    b = B_l(kappa r) / ((2l+1) r).  M_l = L G L S has the singular values of
    the complex symmetric L G L (S = diag(sign V) is unitary), whose product
    is O(n) (_single_pair_product) and forms no r^l or e^(kappa r).  The
    ARPACK driver on that one product (numerics.operator_largest_singular_value)
    gives sigma_max; its value approaches sigma_max from below, so it is an
    estimate.  Sector l
    starts from the Ritz vector of sector l - 1, whose right singular vector
    on the same nodes and dressing is close to its own.  The Ritz
    residual check there only shows that it is some singular value, so a
    value below the floor sigma_max >= |M_l|_F / sqrt(n), which holds for
    every n x n matrix, raises :class:`NumericsError`.  A sector whose Bessel
    factors or Frobenius sum are not finite raises :class:`BSError`.
    """
    r = family.r
    _raise_on_overflow(
        z,
        np.isfinite(family.a).all(axis=1)
        & np.isfinite(family.b).all(axis=1)
        & np.isfinite(family.fro_sq),
    )
    scale = np.sqrt(family.abs_v * family.w) * r
    step, dr = np.diff(np.log(r)), np.diff(r)
    kappa = _kappa(z)
    norms, start = [], None
    for ell, (a, b) in enumerate(zip(family.a, family.b)):
        rho = np.exp(-ell * step - kappa * dr)
        product = _single_pair_product(rho, a, b / ((2 * ell + 1) * r), scale)
        norm, start = operator_largest_singular_value(product, r.size, start)
        floor = math.sqrt(family.fro_sq[ell] / r.size)
        if norm < (1.0 - 1e-10) * floor:
            raise NumericsError(
                f"ARPACK sigma_max {norm:.6e} of sector l={ell} at z={z} is below"
                f" |M|_F / sqrt(n) = {floor:.6e}"
            )
        norms.append(norm)
    return norms


def _check_against_dense(
    potential: Potential, z: complex, family: _SectorFamily, norms: list[float]
) -> None:
    """Rebuild the sector M_l that attains the norm on the kept nodes, sign of
    V included, and check the sign-free value against it densely: its
    |M_l|_F^2 against the running sum over the whole support
    (1e-10 relative), and its sigma_max against a dense SVD (1e-10 relative
    plus n eps |M_l|_F, numerics._check_against_svd).  A miss raises
    :class:`NumericsError`."""
    ell = int(np.argmax(norms))
    kept = RadialGrid(family.r, family.w)
    for _, m in sector_matrices(potential, z, kept, ell_max=ell):
        pass  # keep the last sector, one matrix at a time
    fro = float(np.linalg.norm(m))
    if abs(fro**2 - family.fro_sq[ell]) > 1e-10 * family.fro_sq[ell]:
        raise NumericsError(
            f"dense |M|_F^2 {fro**2:.6e} of sector l={ell} at z={z} misses the"
            f" running sum {family.fro_sq[ell]:.6e}"
        )
    what = f"ARPACK sigma_max {norms[ell]:.6e} of sector l={ell} at z={z}"
    _check_against_svd(norms[ell], largest_singular_value(m), m.shape[0], fro, what)


def assemble_bs(
    potential: Potential,
    z: complex,
    grid: RadialGrid,
    ell_max: int,
) -> BSMatrix:
    """Per-sector norms of the partial-wave Nystroem matrices of K_z.

    Sector l has the matrix

        M_ij = |V(r_i)|^(1/2) g_l^z(r_i, r_j) V_(1/2)(r_j) r_i r_j sqrt(w_i w_j),

    the symmetrized discretization of the sector kernel on L^2(r^2 dr).
    The reported norm is the max over sectors of sigma_max.  No M_l is
    formed for the norms: the Frobenius norms come from running sums over
    the whole support, and sigma_max from the single-pair structure of the
    kernel, O(n) per sector, on the nodes left once the leading and
    trailing ones that carry less than eps^2 / n of every |M_l|_F^2 are
    dropped (see _kept_span; each sigma_max moves by at most eps sigma_max,
    downward).  At real z <= 0 it is the bisection on the tridiagonal
    inverse (see _real_z_sector_norms), accurate from both sides.  At
    complex z it is ARPACK on O(n) products (see _complex_z_sector_norms),
    an estimate from below.  Only the sector that attains the norm is
    checked densely: it is rebuilt on the kept nodes once per z, and its
    |M_l|_F^2 off the running sum by more than 1e-10 relative, or its dense
    SVD off the value by more than 1e-10 relative plus n eps |M_l|_F, raises
    :class:`NumericsError`.  Every other sector is checked only against its
    Ritz residual and the floor |M_l|_F / sqrt(n).  All of it, the dense
    check included, runs on the row with amp divided by a power of two 2^j
    (potentials._unit_row), and the norms are scaled back by 2^j (BSError
    past the float range).
    """
    z = complex(z)
    _check_sector_args(potential, z, ell_max)
    potential, j = _unit_row(potential, length=1.0)
    family = _sector_family(potential, z, grid, ell_max)
    if family.r.size == 0:
        norms = [0.0] * (ell_max + 1)
    elif z.imag == 0.0:
        norms = _real_z_sector_norms(z, family)
    else:
        norms = _complex_z_sector_norms(z, family)
        _check_against_dense(potential, z, family, norms)
    tail_warning = len(norms) >= 2 and 0.0 < norms[-1] and norms[-1] >= norms[-2]
    return BSMatrix(
        z=z,
        per_ell_norms=tuple(_in_float_range(norm, j, "sector norm") for norm in norms),
        per_ell_frobenius=tuple(_in_float_range(f, j, "|M_l|_F") for f in np.sqrt(family.fro_sq)),
        tail_warning=tail_warning,
    )


def default_bs_grid(n: int, r_max: float = 40.0) -> RadialGrid:
    """The bs-norm grid of about n nodes below r_max: geometric panels.

    Tiles [r_max * ratio^-K, r_max] with K = max(2, n // 10) panels of fixed
    ratio sqrt(10) carrying 10 Gauss nodes each (two panels per decade), so
    refining deepens the covered range; the untiled remainder near the
    origin is left to the integrand's decay there.  Scale-invariant kernels
    (the Hardy borderline case) need log-resolved grids with small
    w_j / r_j ratios; geometric panels give both.
    """
    panels = max(2, n // _GRID_PANEL_NODES)
    # edge k is r_max ratio^(k - panels); the innermost must not underflow to 0
    if not r_max * _GRID_PANEL_RATIO ** -panels > 0.0:
        raise BSError(f"{panels} panels of ratio sqrt(10) below r_max = {r_max:g} reach r = 0")
    edges = [r_max * _GRID_PANEL_RATIO ** (k - panels) for k in range(panels + 1)]
    nodes, weights = panel_gauss(edges, _GRID_PANEL_NODES)
    return RadialGrid(nodes, weights)


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
        raise BSError(f"need 0 < r_min < r_max, got r_min = {r_min:g}, r_max = {r_max:g}")
    if n < 2 * _GRID_PANEL_NODES:
        raise BSError(f"need at least {2 * _GRID_PANEL_NODES} nodes, got {n}")
    edges = np.geomspace(r_min, r_max, max(2, n // _GRID_PANEL_NODES) + 1)
    nodes, weights = panel_gauss(list(edges), _GRID_PANEL_NODES)
    return RadialGrid(nodes, weights)


def hs_norm(
    potential: Potential,
    grid: Optional[RadialGrid] = None,
    ell_max: int = 48,
) -> HSNormResult:
    """HS norm two ways: sector Frobenius sums and the Rollnik integral.

    Route (i) sums (2l+1) |M_l|_F^2 over the z = 0 sectors l <= ell_max and
    completes the truncation with the asymptotic tail.  The Frobenius norms
    come from running sums over the neighbour steps of g_l^0 (see
    _node_masses), one sector at a time: O(n ell_max) work, and O(n)
    working memory besides the (ell_max+1) x n node masses, no n x n
    matrix, so fine reference grids stay cheap.  Route (ii) is
    |V|_R / (4 pi) with the Rollnik norm computed by the condition
    checkers.  Route (i) runs on the row with amp divided by 2^j
    (potentials._unit_row) and scales back by 2^j (BSError past the float
    range), as the Rollnik norm rescales its own row, so neither route
    leaves the float range while the norm fits in it.
    A divergent Rollnik norm (+inf, Hardy-type potentials) makes both +inf;
    a +inf norm of a row in the class left the float range (BSError).  The
    arguments pass _check_sector_args at z = 0, as hs-identity configs do.
    """
    _check_sector_args(potential, 0j, ell_max)
    rollnik = rollnik_norm(potential)
    if math.isinf(rollnik):
        if _in_classes(potential):
            raise BSError("Rollnik norm leaves the float range")
        return HSNormResult(math.inf, math.inf, math.nan, True)
    if grid is None:
        grid = log_uniform_grid(_HS_GRID_R_MIN, 16.0, 1600)
    unit, j = _unit_row(potential, length=1.0)
    r = grid.nodes
    alpha = unit.abs_radial(r) * r**2 * grid.weights
    # one sector at a time, the lower masses stacked for one row-sum product
    lower = np.empty((ell_max + 1, r.size))
    for ell in range(ell_max + 1):
        c_r, gap = _free_steps(ell, r)
        # alpha times g_diag = 1 / c_r, rounded as _sector_steps rounds it
        lower[ell] = _node_masses(alpha * (1.0 / c_r), gap)[0]
    direct = _in_float_range(_completed_hs_norm(lower @ np.ones(r.size)), j, "HS norm")
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
    K_lam = |v|^(1/2) (H0 - lam)^(-1) v_(1/2) as matrices.  The resolvent
    acts by one LAPACK solve; a lam within 1e-8 of the spectrum of H0 (by
    sigma_min), a singular solve or a non-finite solution raises
    :class:`BSError`.
    """
    from scipy.linalg import LinAlgError, solve

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
    try:
        x = solve(shifted, complex_sign(v) * half * phi, check_finite=False)
    except LinAlgError as exc:
        raise BSError(f"resolvent solve at lam={lam}: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise BSError(f"resolvent solve at lam={lam}: non-finite solution")
    return float(np.linalg.norm(half * x + phi) / nphi)


_REGIME_EXPONENT = {"sqrt": 0.5, "linear": 1.0, "constant": 0.0}


def _regime_of(lam: complex) -> str:
    lam = complex(lam)
    if lam == 0.0:
        return "sqrt"
    if lam.imag == 0.0 and lam.real > 0.0:
        return "linear"
    return "constant"


def _checked_eps(lam: complex, eps_list: Sequence[float]) -> list[float]:
    """eps_list as floats; :class:`BSError` unless lam and every eps are
    finite and no eps is 0."""
    eps = [float(e) for e in eps_list]
    if not (cmath.isfinite(complex(lam)) and all(math.isfinite(e) for e in eps)):
        raise BSError(f"lam = {lam} and eps = {eps} must be finite")
    if any(e == 0.0 for e in eps):
        raise BSError("eps = 0 is not admissible")
    return eps


def _check_slope(what: str, eps: Sequence[float], values: Sequence[float], expected: float) -> None:
    """Raise :class:`BSError` unless the log-log slope of values against |eps|
    is within _SLOPE_TOL of expected (a NaN slope is not)."""
    slope = fit_loglog_slope(np.abs(eps), np.asarray(values))
    if not abs(slope - expected) <= _SLOPE_TOL:
        raise BSError(
            f"{what} slope {slope:.4f} misses the regime value {expected} by more than {_SLOPE_TOL}"
        )


def kappa_scaling(lam: complex, eps_list: Sequence[float]) -> list[tuple[float, float, str]]:
    """kappa(eps) = Re sqrt(-(lam + i eps)) with its small-eps regime.

    Regimes: lam = 0 gives kappa ~ |eps|^(1/2); real lam > 0 gives
    kappa ~ |eps|; anything else approaches a positive constant.  The fitted
    log-log slope over eps_list must match the regime exponent within 0.05,
    otherwise this raises, as it does for a non-finite lam or eps and for
    eps = 0.
    """
    eps = _checked_eps(lam, eps_list)
    regime = _regime_of(lam)
    kappas = [_kappa(complex(lam) + 1j * e).real for e in eps]
    if len(eps) >= 2:
        _check_slope("kappa(eps)", eps, kappas, _REGIME_EXPONENT[regime])
    return [(e, k, regime) for e, k in zip(eps, kappas)]


@dataclass(frozen=True)
class MepsRecord:
    eps: float
    hs_formula: float


def m_eps_hs_check(
    potential: Potential,
    omega_radius: float,
    lam: complex,
    eps_list: Sequence[float],
) -> list[MepsRecord]:
    """HS norm of M_eps = chi_Omega |V|^(1/2) G_(lam + i eps): closed form and slope.

    The closed form follows from the x-independence of int |G_z(x,y)|^2 dy:

        |M_eps|_HS^2 = (1 / (8 pi kappa)) int_Omega |V|,

    with kappa = Re sqrt(-(lam + i eps)) and int_Omega |V| one radial
    quadrature whose panels end at the jumps of V.  A row that decays is
    integrated only out to its truncation radius (conditions._truncation_radius,
    r0 or 30 decay lengths, as for its Rollnik and L^{3/2} integrals) when the
    ball reaches past it; the quadrature runs on the row of
    potentials._unit_row that brings |amp| and that radius to order one, and
    the norm is scaled back by a power of two (BSError where the closed form
    leaves the float range, at either end).  Enforces that
    eps * hs_formula -> 0 at the regime rate 1 - exponent/2 (slope checked
    within 0.05).  Raises :class:`BSError` for d != 3, for a non-finite lam,
    eps or omega_radius, for eps = 0, omega_radius <= 0, a kappa that
    underflows to 0, for |V| ~ r^-s with s >= 3, which is not integrable
    on the ball, and for int_Omega |V| = 0 (V = 0), where M_eps vanishes and
    no slope can be read.
    """
    _check_dimension(potential.dimension, BSError, 3)
    if not 0.0 < omega_radius < math.inf:
        raise BSError(f"omega_radius must be positive and finite, got {omega_radius}")
    eps = _checked_eps(lam, eps_list)
    if potential.s >= 3.0:
        raise BSError("|V| is not integrable on the ball")
    radius = min(omega_radius, _truncation_radius(potential))
    unit, j = _unit_row(potential, length=radius)
    k = _scale_exponent(radius)
    # int_Omega |V| = 2^(j + k) times V~'s over the ball of radius R 2^-k
    integral = _ball_integral(unit, math.ldexp(radius, -k), 1.0, 16)
    if integral == 0.0:
        raise BSError("int_Omega |V| = 0: M_eps vanishes and eps * hs_formula has no slope")
    records = []
    for e in eps:
        kappa = _kappa(complex(lam) + 1j * e).real
        if kappa == 0.0:
            raise BSError(f"kappa = Re sqrt(-(lam + i eps)) underflows at eps = {e}")
        square = integral / (8.0 * np.pi * kappa)
        hs = _scaled_sqrt(square, j + k)
        if not 0.0 < hs < math.inf:
            raise BSError(f"HS formula sqrt({square:.6e} * 2^{j + k}) leaves the float range")
        records.append(MepsRecord(e, hs))
    if len(records) >= 2:
        decay = [abs(rec.eps) * rec.hs_formula for rec in records]
        _check_slope("eps * hs_formula", eps, decay, 1.0 - _REGIME_EXPONENT[_regime_of(lam)] / 2.0)
    return records
