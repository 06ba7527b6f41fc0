"""Multiplier identities for -Delta u + lambda u = f on analytic probes.

Everything here runs on manufactured data: u is drawn from a small family of
analytic test functions and f := Delta u + lambda u is computed in closed
form, so each integral identity holds exactly and a nonzero residual can only
come from quadrature.  The identities pair the equation with G1 u, G2 u and
2 grad(G3) . grad(u) + Delta(G3) u for radial multipliers G_i, then combine
into the key identity that controls grad(u^-), where u^- is the gauge
transform e^(-i sgn(l2) sqrt(l1) |x|) u.

Probes are separable, u = q(r) P_l(cos theta) with l in {0, 1}, so every
volume integral reduces to a weighted radial one: spherical-harmonic
orthogonality gives the factor 4 pi / (2l + 1) and the angular gradient
contributes l (l + 1) |q|^2 / r^2.  The radial profiles carry analytic first
and second derivatives; an optional quadratic chirp exp(i alpha r^2) makes
the probes genuinely complex so the imaginary-part identities have content.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .conditions import b_constants
from .numerics import box_grid, fit_loglog_slope, panel_gauss
from .potentials import MagneticPotential, Potential, b_tau

__all__ = [
    "MultiplierError",
    "TestFunction",
    "NearExtremalHardyProfile",
    "MultiplierProfile",
    "MultiplierTriple",
    "multiplier_catalog",
    "identity_residual_1",
    "identity_residual_2",
    "identity_residual_3",
    "key_identity_residual",
    "identity_term_rows",
    "residual_refinement_order",
    "hardy_check",
    "HardyRatios",
    "radi_identity_terms",
    "RadiTerms",
    "magnetic_identity_smoke",
    "MagneticSmokeReport",
]


class MultiplierError(ValueError):
    """Bad probe, multiplier, or spectral parameter for an identity check."""


# Gauss nodes of the identity quadratures (settled against twice as many)
# and of the Hardy quotients; read at call time, so a test can coarsen them
_DEFAULT_N = 320
_HARDY_N = 600
_SETTLE_TOL = 1e-6

# the magnetic smoke check's fixed resolution: Gauss nodes per box axis,
# tangential sample points and their seed
_MAGNETIC_N_AXIS = 48
_MAGNETIC_SAMPLES = 100
_MAGNETIC_SEED = 0


def _sgn2(lam: complex) -> float:
    """sgn(Im lambda) with the convention sgn(0) = 1."""
    l2 = complex(lam).imag
    if l2 > 0:
        return 1.0
    if l2 < 0:
        return -1.0
    return 1.0


def _bump(r: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The C-infinity bump exp(-1 / (1 - (r/R)^2)) with two derivatives.

    Vanishes with all derivatives at r = R; returns (b, b', b'').
    """
    r = np.asarray(r, dtype=float)
    t = (r / radius) ** 2
    inside = t < 1.0
    ts = np.where(inside, t, 0.0)
    s = 1.0 / (1.0 - ts)
    b = np.where(inside, np.exp(-s), 0.0)
    # with u := 2 r / R^2: s' = s^2 u, b' = -s^2 u b
    u = 2.0 * r / radius**2
    db = -(s**2) * u * b
    ddb = (-2.0 * s**3 * u**2 - 2.0 * s**2 / radius**2 + s**4 * u**2) * b
    return b, np.where(inside, db, 0.0), np.where(inside, ddb, 0.0)


@dataclass(frozen=True)
class TestFunction:
    """Separable analytic probe u = q(r) P_l(cos theta) in three dimensions,
    compactly supported.

    ``radial-gaussian-bump`` is the radial bump itself (l = 0);
    ``ell1-harmonic`` multiplies the bump by the solid harmonic x_3, i.e.
    q(r) = r b(r) and l = 1, which keeps u smooth at the origin.  ``chirp``
    multiplies q by exp(i chirp r^2).
    """

    family: str
    support_radius: float
    chirp: float = 0.0

    def __post_init__(self) -> None:
        if self.family not in ("radial-gaussian-bump", "ell1-harmonic"):
            raise MultiplierError(f"unknown test-function family {self.family!r}")
        if not self.support_radius > 0:
            raise MultiplierError("support_radius must be positive")

    @property
    def ell(self) -> int:
        return 0 if self.family == "radial-gaussian-bump" else 1

    @property
    def angular_weight(self) -> float:
        """int_{S^2} P_l(cos theta)^2 = 4 pi / (2l + 1)."""
        return 4.0 * math.pi / (2 * self.ell + 1)

    def profile(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(q, q', q'') at the radii, complex when chirped."""
        b, db, ddb = _bump(r, self.support_radius)
        if self.ell == 0:
            q, dq, ddq = b, db, ddb
        else:
            q = r * b
            dq = b + r * db
            ddq = 2.0 * db + r * ddb
        if self.chirp != 0.0:
            phase = np.exp(1j * self.chirp * r**2)
            twoar = 2j * self.chirp * r
            q, dq, ddq = (
                q * phase,
                (dq + twoar * q) * phase,
                (ddq + 2.0 * twoar * dq + (2j * self.chirp + twoar**2) * q) * phase,
            )
        return q, dq, ddq

    def laplacian_profile(self, r: np.ndarray) -> np.ndarray:
        """Radial part of Delta u: q'' + 2 q'/r - l(l+1) q/r^2."""
        q, dq, ddq = self.profile(r)
        ell = self.ell
        return ddq + 2 * dq / r - ell * (ell + 1) * q / r**2

    # point evaluation for the 3D box cross-check path
    def value_points(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = np.linalg.norm(pts, axis=1)
        b, _, _ = _bump(r, self.support_radius)
        vals = b if self.ell == 0 else b * pts[:, 2]
        if self.chirp != 0.0:
            vals = vals * np.exp(1j * self.chirp * r**2)
        return vals

    def grad_points(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = np.linalg.norm(pts, axis=1)
        b, db, _ = _bump(r, self.support_radius)
        unit = pts / r[:, None]
        if self.ell == 0:
            grad = db[:, None] * unit + 0j
            vals = b + 0j
        else:
            grad = (db * pts[:, 2])[:, None] * unit + 0j
            grad[:, 2] += b
            vals = b * pts[:, 2] + 0j
        if self.chirp != 0.0:
            phase = np.exp(1j * self.chirp * r**2)
            grad = phase[:, None] * (grad + 2j * self.chirp * pts * vals[:, None])
        return grad

    def laplacian_points(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = np.linalg.norm(pts, axis=1)
        lap = self.laplacian_profile(r)
        if self.ell == 0:
            return lap + 0j
        return lap * (pts[:, 2] / r) + 0j


@dataclass(frozen=True)
class NearExtremalHardyProfile:
    """Near-extremal Hardy probe psi_eps(r) = r^(-1/2 + eps) e^(-eps r) in d = 3.

    The soft exponential cutoff keeps every weighted integral finite while
    preserving sharpness: the Hardy quotient is exactly 4 / (1 + 2 eps) and
    the |x|-weighted quotient is 0.8 / (1 + 0.4 eps), both by termwise
    Gamma-function integration.
    """

    eps: float

    def __post_init__(self) -> None:
        if not 0 < self.eps < 0.5:
            raise MultiplierError("eps must lie in (0, 1/2)")

    @property
    def ell(self) -> int:
        return 0

    def profile(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a = -0.5 + self.eps
        q = r**a * np.exp(-self.eps * r)
        dq = q * (a / r - self.eps)
        return q, dq


def _radial_nodes(
    r_max: float, n: int, rule: str
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature on (0, r_max]: uniform Gauss panels or uniform midpoints.

    Probe densities are smooth up to the support edge, where the bump is
    C-infinity but not analytic; uniform panels resolve that edge, and the
    per-panel Gauss rule converges superalgebraically under refinement.  The
    midpoint rule exists for the refinement-order studies: its O(h^2) error
    is visible across a refinement sweep, where the Gauss panels would sit
    at roundoff from the first grid on.
    """
    if rule == "gauss":
        # no floor above 1: the settle guard doubles n and must actually
        # see a finer grid
        panels = max(1, n // 8)
        return panel_gauss(np.linspace(0.0, r_max, panels + 1), 8)
    if rule == "midpoint":
        h = r_max / n
        nodes = h * (np.arange(n) + 0.5)
        return nodes, np.full(n, h)
    raise MultiplierError(f"unknown quadrature rule {rule!r}")


def _hardy_log_nodes(eps: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature for the near-extremal profile via r = e^t.

    In t the origin kink r^(2 eps - 1) becomes a pure exponential e^(2 eps t)
    (truncation at t_min is exponentially small) and the tail factor
    e^(-2 eps e^t) fixes the local resolution, so panel widths shrink like
    1 / (2 eps e^t) once the tail bites.  ``n`` scales the panel density.
    """
    # cap the window so r^(2 eps - 3) stays inside double range; the
    # truncated kink mass below e^(-230) is ~e^(-460 eps) of the total
    t_min = max(-34.0 / eps, -230.0)
    t_max = math.log(26.0 / eps)
    scale = 600.0 / n
    edges = [t_min]
    while edges[-1] < t_max:
        width = scale * min(2.0, 8.0 / (1.0 + 2.0 * eps * math.exp(edges[-1])))
        edges.append(min(edges[-1] + max(width, 0.01 * scale), t_max))
    t, wt = panel_gauss(np.asarray(edges), 8)
    r = np.exp(t)
    return r, wt * r


@dataclass(frozen=True)
class MultiplierProfile:
    """Radial multiplier g(|x|) in d = 3 with enough derivatives to form Delta^2 G.

    ``d3`` and ``d4`` may be omitted for multipliers that only enter the
    first two identities; the bi-Laplacian then raises.
    """

    name: str
    g: Callable[[np.ndarray], np.ndarray]
    dg: Callable[[np.ndarray], np.ndarray]
    d2g: Callable[[np.ndarray], np.ndarray]
    d3g: Optional[Callable[[np.ndarray], np.ndarray]] = None
    d4g: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def laplacian(self, r: np.ndarray) -> np.ndarray:
        return self.d2g(r) + 2 * self.dg(r) / r

    def bilaplacian(self, r: np.ndarray) -> np.ndarray:
        if self.d3g is None or self.d4g is None:
            raise MultiplierError(
                f"multiplier {self.name!r} lacks third/fourth derivatives"
            )
        # Delta^2 G = h'' + 2 h'/r for h := Delta G
        dh = self.d3g(r) + 2 * (self.d2g(r) / r - self.dg(r) / r**2)
        d2h = self.d4g(r) + 2 * (
            self.d3g(r) / r - 2.0 * self.d2g(r) / r**2 + 2.0 * self.dg(r) / r**3
        )
        return d2h + 2 * dh / r


def _const(c: float) -> Callable[[np.ndarray], np.ndarray]:
    return lambda r: np.full_like(np.asarray(r, dtype=float), c)


def multiplier_catalog(name: str, **params: float) -> MultiplierProfile:
    """Named multipliers: constant, abs (|x|), square (|x|^2), windowed-square.

    ``windowed-square`` is r^2 exp(-r^2 / width), a smooth non-polynomial
    multiplier with the full derivative stack; default width 10.
    """
    if name == "constant":
        c = float(params.pop("value", 1.0))
        _no_extra(name, params)
        return MultiplierProfile(
            f"constant({c:g})", _const(c), _const(0.0), _const(0.0), _const(0.0), _const(0.0)
        )
    if name == "abs":
        _no_extra(name, params)
        return MultiplierProfile(
            "abs",
            lambda r: np.asarray(r, dtype=float),
            _const(1.0),
            _const(0.0),
            _const(0.0),
            _const(0.0),
        )
    if name == "square":
        _no_extra(name, params)
        return MultiplierProfile(
            "square",
            lambda r: np.asarray(r, dtype=float) ** 2,
            lambda r: 2.0 * np.asarray(r, dtype=float),
            _const(2.0),
            _const(0.0),
            _const(0.0),
        )
    if name == "windowed-square":
        width = float(params.pop("width", 10.0))
        _no_extra(name, params)
        if width <= 0:
            raise MultiplierError("windowed-square needs width > 0")
        c = 1.0 / width

        def w(r):
            return np.exp(-c * np.asarray(r, dtype=float) ** 2)

        return MultiplierProfile(
            f"windowed-square({width:g})",
            lambda r: r**2 * w(r),
            lambda r: (2 * r - 2 * c * r**3) * w(r),
            lambda r: (2 - 10 * c * r**2 + 4 * c**2 * r**4) * w(r),
            lambda r: (-24 * c * r + 36 * c**2 * r**3 - 8 * c**3 * r**5) * w(r),
            lambda r: (-24 * c + 156 * c**2 * r**2 - 112 * c**3 * r**4 + 16 * c**4 * r**6)
            * w(r),
        )
    raise MultiplierError(f"unknown multiplier {name!r}")


def _no_extra(name: str, params: dict) -> None:
    if params:
        raise MultiplierError(f"unexpected parameters for {name!r}: {sorted(params)}")


@dataclass(frozen=True)
class MultiplierTriple:
    """The (G1, G2, G3) combination entering the summed identity.

    ``canonical_triple`` is the choice g1 = g3''/2 and g2 = sgn(l2) g3' with
    G3 = |x|^2, for which g3'' - 2 g1 and g3'/r - g3''/2 vanish identically
    (the cancellations that collapse the tangential and radial gradient
    terms into |grad u|^2).  g2 is stored without the sgn(l2) factor, which
    depends on the spectral point and is applied where the identity is used.
    """

    g1: MultiplierProfile
    g2: MultiplierProfile
    g3: MultiplierProfile

    @classmethod
    def canonical_triple(cls) -> "MultiplierTriple":
        return cls(
            g1=multiplier_catalog("constant", value=1.0),
            g2=MultiplierProfile(
                "canonical-g2",
                lambda r: 2.0 * np.asarray(r, dtype=float),
                _const(2.0),
                _const(0.0),
                _const(0.0),
                _const(0.0),
            ),
            g3=multiplier_catalog("square"),
        )


@dataclass
class _Probe:
    """Radial data of one probe on one quadrature grid."""

    r: np.ndarray
    w: np.ndarray
    q: np.ndarray
    dq: np.ndarray
    f: np.ndarray  # radial profile of Delta u + lambda u
    c_ang: float
    ell: int
    norm_sq: float

    def integral(self, density: np.ndarray) -> complex:
        """c_ang * int density(r) r^2 dr."""
        return self.c_ang * complex(np.dot(self.w, density * self.r**2))

    @property
    def grad_density(self) -> np.ndarray:
        """|grad u|^2 per solid angle: |q'|^2 + l(l+1) |q|^2 / r^2."""
        extra = self.ell * (self.ell + 1)
        return np.abs(self.dq) ** 2 + extra * np.abs(self.q) ** 2 / self.r**2


def _probe_on(u: TestFunction, lam: complex, n: int, rule: str) -> _Probe:
    r, w = _radial_nodes(u.support_radius, n, rule)
    q, dq, _ = u.profile(r)
    f = u.laplacian_profile(r) + complex(lam) * q
    c = u.angular_weight
    norm_sq = c * float(np.dot(w, np.abs(q) ** 2 * r**2))
    return _Probe(r, w, q, dq, f, c, u.ell, norm_sq)


def _id1_sides(p: _Probe, lam: complex, g: MultiplierProfile) -> tuple[float, float]:
    g_r = g.g(p.r)
    lhs = (
        lam.real * p.integral(g_r * np.abs(p.q) ** 2).real
        - p.integral(g_r * p.grad_density).real
        + 0.5 * p.integral(g.laplacian(p.r) * np.abs(p.q) ** 2).real
    )
    rhs = p.integral(p.f * g_r * np.conj(p.q)).real
    return lhs, rhs


def _id2_sides(p: _Probe, lam: complex, g: MultiplierProfile) -> tuple[float, float]:
    g_r = g.g(p.r)
    lhs = (
        lam.imag * p.integral(g_r * np.abs(p.q) ** 2).real
        - p.integral(g.dg(p.r) * np.conj(p.q) * p.dq).imag
    )
    rhs = p.integral(p.f * g_r * np.conj(p.q)).imag
    return lhs, rhs


def _id3_sides(p: _Probe, lam: complex, g: MultiplierProfile) -> tuple[float, float]:
    # Hessian of a radial G contracts gradients as
    # g'' |d_r u|^2 + (g'/r) |grad_tau u|^2
    extra = p.ell * (p.ell + 1)
    hess = g.d2g(p.r) * np.abs(p.dq) ** 2 + g.dg(p.r) / p.r * extra * np.abs(
        p.q
    ) ** 2 / p.r**2
    lhs = (
        p.integral(hess).real
        - 0.25 * p.integral(g.bilaplacian(p.r) * np.abs(p.q) ** 2).real
        + lam.imag * p.integral(g.dg(p.r) * p.q * np.conj(p.dq)).imag
    )
    rhs = (
        -0.5 * p.integral(p.f * g.laplacian(p.r) * np.conj(p.q)).real
        - p.integral(p.f * g.dg(p.r) * np.conj(p.dq)).real
    )
    return lhs, rhs


def _key_sides(p: _Probe, lam: complex, f: np.ndarray) -> tuple[float, float, float]:
    """(int |grad u^-|^2, lhs, rhs) of the key identity with right-hand side f.

    The sides are those documented on :func:`key_identity_residual`; ``f``
    is the radial profile entering I1 + I2 + I3, Delta u + lambda u for the
    manufactured identity and f - V u for the radial defect bucket.
    """
    lam = complex(lam)
    root = math.sqrt(lam.real)
    ratio = abs(lam.imag) / root
    dq_minus = p.dq - 1j * _sgn2(lam) * root * p.q
    extra = p.ell * (p.ell + 1)
    grad_minus = np.abs(dq_minus) ** 2 + extra * np.abs(p.q) ** 2 / p.r**2
    grad_minus_sq = p.integral(grad_minus).real
    lhs = (
        grad_minus_sq
        + ratio * p.integral(p.r * grad_minus).real
        - ratio * p.integral(np.abs(p.q) ** 2 / p.r).real
    )
    rhs = (
        -2 * p.integral(f * np.conj(p.q)).real
        - 2.0 * p.integral(p.r * f * np.conj(dq_minus)).real
        - ratio * p.integral(p.r * f * np.conj(p.q)).real
    )
    return grad_minus_sq, lhs, rhs


def _id4_sides(p: _Probe, lam: complex, _g: None) -> tuple[float, float]:
    _, lhs, rhs = _key_sides(p, lam, p.f)
    return lhs, rhs


_IDENTITY_SIDES = {
    "id1": _id1_sides,
    "id2": _id2_sides,
    "id3": _id3_sides,
    "id4": _id4_sides,
}


def _identity_terms(
    kind: str,
    u: TestFunction,
    lam: complex,
    g: Optional[MultiplierProfile],
    n: int,
    rule: str,
) -> tuple[float, float, float]:
    """(lhs, rhs, norm_sq) of one identity on one probe.

    The Gauss rule is settled: the sides at n and 2n must agree within
    _SETTLE_TOL and the 2n values are returned.  The midpoint rule keeps
    its O(h^2) error visible for the refinement-order studies, so it is
    returned as is.
    """
    lam = complex(lam)
    if kind == "id4" and not lam.real > 0:
        raise MultiplierError("the key identity needs Re lambda > 0")
    sides = _IDENTITY_SIDES[kind]
    p = _probe_on(u, lam, n, rule)
    lhs, rhs = sides(p, lam, g)
    if rule == "gauss":
        p2 = _probe_on(u, lam, 2 * n, rule)
        lhs2, rhs2 = sides(p2, lam, g)
        scale = abs(lhs2) + abs(rhs2) + p2.norm_sq
        if abs(lhs2 - lhs) + abs(rhs2 - rhs) > _SETTLE_TOL * max(scale, 1e-30):
            raise MultiplierError(
                f"{kind} quadrature did not settle between n={n} and n={2 * n}"
            )
        lhs, rhs, p = lhs2, rhs2, p2
    return lhs, rhs, p.norm_sq


def _relative_residual(lhs: float, rhs: float, norm_sq: float) -> float:
    """Relative residual |lhs - rhs| / (|lhs| + |rhs| + |u|^2) of one identity."""
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + norm_sq)


def _identity_residual(
    kind: str,
    u: TestFunction,
    lam: complex,
    g: Optional[MultiplierProfile],
    n: int,
    rule: str,
) -> float:
    return _relative_residual(*_identity_terms(kind, u, lam, g, n, rule))


def identity_residual_1(u: TestFunction, lam: complex, g1: MultiplierProfile) -> float:
    """Relative residual of the real-part identity with multiplier G1.

    LHS = l1 int G1 |u|^2 - int G1 |grad u|^2 + (1/2) int Delta(G1) |u|^2,
    RHS = Re int f G1 conj(u), with f := Delta u + lambda u manufactured.
    """
    return _identity_residual("id1", u, lam, g1, _DEFAULT_N, "gauss")


def identity_residual_2(u: TestFunction, lam: complex, g2: MultiplierProfile) -> float:
    """Imaginary-part identity: l2 int G2 |u|^2 - Im int grad(G2).conj(u) grad(u)."""
    return _identity_residual("id2", u, lam, g2, _DEFAULT_N, "gauss")


def identity_residual_3(u: TestFunction, lam: complex, g3: MultiplierProfile) -> float:
    """Hessian identity; needs the multiplier's third and fourth derivatives."""
    return _identity_residual("id3", u, lam, g3, _DEFAULT_N, "gauss")


def key_identity_residual(u: TestFunction, lam: complex) -> float:
    """The summed key identity controlling grad(u^-); needs Re lambda > 0.

    LHS = int |grad u^-|^2 + (|l2|/sqrt(l1)) int |x| |grad u^-|^2
          - ((d-1)/2) (|l2|/sqrt(l1)) int |u|^2 / |x|,
    RHS = I1 + I2 + I3 with I1 = (1-d) Re int f conj(u),
    I2 = -2 Re int |x| f (d_r conj(u) + i sgn(l2) sqrt(l1) conj(u)) and
    I3 = -(|l2|/sqrt(l1)) Re int |x| f conj(u); conjugating (u, lambda)
    swaps the gauge sign and fixes the |l2| in I3.
    """
    return _identity_residual("id4", u, lam, None, _DEFAULT_N, "gauss")


_IDENTITY_LABELS = {
    "id1": "real-part",
    "id2": "imag-part",
    "id3": "hessian",
    "id4": "key-gauge",
}


def identity_term_rows(u: TestFunction, lam: complex) -> list[dict]:
    """Term table of the pairing identities in the shared CSV row schema.

    Evaluates the real-part, imaginary-part and Hessian identities with
    the multipliers of the canonical triple and, when Re lambda > 0, the
    summed key identity as well.  Each identity
    contributes a lhs and a rhs row carrying (identity_id, term_name,
    value_re, value_im, residual); the relative residual is shared within
    an identity.  Both sides of every identity are real by construction,
    so value_im is always 0.
    """
    lam = complex(lam)
    triple = MultiplierTriple.canonical_triple()
    todo: list[tuple[str, Optional[MultiplierProfile]]] = [
        ("id1", triple.g1),
        ("id2", triple.g2),
        ("id3", triple.g3),
    ]
    if lam.real > 0:
        todo.append(("id4", None))
    rows: list[dict] = []
    for kind, g in todo:
        lhs, rhs, norm_sq = _identity_terms(kind, u, lam, g, _DEFAULT_N, "gauss")
        res = _relative_residual(lhs, rhs, norm_sq)
        for term, value in (("lhs", lhs), ("rhs", rhs)):
            rows.append(
                {
                    "identity_id": _IDENTITY_LABELS[kind],
                    "term_name": term,
                    "value_re": float(value),
                    "value_im": 0.0,
                    "residual": res,
                }
            )
    return rows


def residual_refinement_order(
    kind: str,
    u: TestFunction,
    lam: complex,
    g: Optional[MultiplierProfile] = None,
    n_list: Sequence[int] = (20, 40, 80, 160),
) -> float:
    """Observed convergence order of a residual under midpoint refinement.

    Returns -slope of log residual vs log n; the midpoint rule makes the
    expected order 2 visible (Gauss panels would be at roundoff throughout).
    """
    if kind not in _IDENTITY_SIDES:
        raise MultiplierError(f"unknown identity {kind!r}")
    if kind in ("id1", "id2", "id3") and g is None:
        raise MultiplierError(f"{kind} needs a multiplier profile")
    res = [_identity_residual(kind, u, lam, g, n, "midpoint") for n in n_list]
    if min(res) <= 0.0:
        raise MultiplierError("residual hit zero; refinement order undefined")
    return -fit_loglog_slope(np.asarray(n_list, dtype=float), np.asarray(res))


@dataclass(frozen=True)
class HardyRatios:
    """The two Hardy quotients of a probe with their sharp constants."""

    hardy_ratio: float
    hardy_bound: float
    weighted_ratio: float
    weighted_bound: float

    @property
    def respects_bounds(self) -> bool:
        return (
            self.hardy_ratio <= self.hardy_bound * (1 + 1e-9)
            and self.weighted_ratio <= self.weighted_bound * (1 + 1e-9)
        )


def hardy_check(psi, d: int = 3) -> HardyRatios:
    """Hardy quotients int |u|^2/|x|^2 / int |grad u|^2 (bound 4/(d-2)^2)
    and int |u|^2/|x| / int |x| |grad u|^2 (bound 4/(d-1)^2).

    ``psi`` is a TestFunction or a NearExtremalHardyProfile; both expose a
    radial profile with first derivative.  The near-extremal family decays
    like e^(-2 eps r), so the quadrature window scales with 1/eps.  The
    quotients at 600 nodes must agree with those at 1200.
    """
    if d < 3:
        raise MultiplierError("Hardy quotients need d >= 3")
    if isinstance(psi, NearExtremalHardyProfile):
        nodes_of = lambda m: _hardy_log_nodes(psi.eps, m)
        q_of = lambda r: psi.profile(r)
        ell = 0
    elif isinstance(psi, TestFunction):
        # probe densities are smooth on [0, R]; plain panels suffice
        nodes_of = lambda m: _radial_nodes(psi.support_radius, m, "gauss")
        q_of = lambda r: psi.profile(r)[:2]
        ell = psi.ell
    else:
        raise MultiplierError("psi must be a TestFunction or NearExtremalHardyProfile")

    def ratios(n_nodes: int) -> tuple[float, float]:
        r, w = nodes_of(n_nodes)
        q, dq = q_of(r)
        meas = w * r ** (d - 1)
        qq = np.abs(q) ** 2
        grad = np.abs(dq) ** 2 + ell * (ell + 1) * qq / r**2
        num1 = float(np.dot(meas, qq / r**2))
        den1 = float(np.dot(meas, grad))
        num2 = float(np.dot(meas, qq / r))
        den2 = float(np.dot(meas, r * grad))
        return num1 / den1, num2 / den2

    a1, a2 = ratios(_HARDY_N)
    b1, b2 = ratios(2 * _HARDY_N)
    if abs(a1 - b1) + abs(a2 - b2) > _SETTLE_TOL:
        raise MultiplierError("Hardy quotient quadrature did not settle")
    return HardyRatios(
        hardy_ratio=b1,
        hardy_bound=4.0 / (d - 2) ** 2,
        weighted_ratio=b2,
        weighted_bound=4.0 / (d - 1) ** 2,
    )


@dataclass(frozen=True)
class RadiTerms:
    """Named terms of the radial key identity with the estimate chain.

    ``i3_defect`` plays the role of the paper's cutoff remainder: it is the
    key-identity right-hand side evaluated at f - V u, which vanishes when
    the probe is an exact eigenfunction.  ``eps_defect`` is the matching
    remainder in the L^2 bound, |Im sgn(l2) int (f - Vu) conj(u)|.
    ``lower_bound_checked`` is None when the bound is not claimed (it needs
    b1 <= 1 and |l2| <= l1).
    """

    i_total: float
    i1: float
    i2: float
    i3_defect: float
    residual: float
    grad_minus_sq: float
    b1: float
    b2: float
    b3: float
    eps_defect: float
    i1_within_b2: bool
    i2_within_b3: bool
    lower_bound_checked: Optional[bool]

    def rows(self) -> list[dict]:
        out = []
        for name, val in (
            ("I", self.i_total),
            ("I1", self.i1),
            ("I2", self.i2),
            ("I3_defect", self.i3_defect),
        ):
            out.append(
                {
                    "identity_id": "radial-key",
                    "term_name": name,
                    "value_re": float(val),
                    "value_im": 0.0,
                    "residual": float(self.residual),
                }
            )
        return out


def radi_identity_terms(u: TestFunction, lam: complex, potential: Potential) -> RadiTerms:
    """Evaluate the radial key identity term by term for f := Delta u + lam u.

    The identity reads I = I1 + I2 + I3 with

        I  = int |grad u^-|^2 + (|l2|/sqrt(l1)) int |x| |grad u^-|^2
             - ((d-1)/2)(|l2|/sqrt(l1)) int |u|^2/|x|
             + (|l2|/sqrt(l1)) int |x| V1 |u|^2,
        I1 = int |u|^2 d_r(r V1),
        I2 = 2 Im int |x| V2 u (d_r conj(u) + i sgn(l2) sqrt(l1) conj(u)),

    and I3 the defect bucket described on RadiTerms.  The estimate chain
    (I1 <= b2^2 ||grad u^-||^2, |I2| <= 2 b3 ||grad u^-||^2, and the lower
    bound on I) is asserted with the pointwise b-constants.
    """
    lam = complex(lam)
    if not lam.real > 0:
        raise MultiplierError("radial identity needs Re lambda > 0")
    if potential.dimension != 3:
        raise MultiplierError("radial identity needs a d=3 potential")
    if potential.d_r_rReV is None:
        raise MultiplierError("potential lacks the radial derivative d_r(r Re V)")
    sig = _sgn2(lam)
    root = math.sqrt(lam.real)
    ratio = abs(lam.imag) / root

    p = _probe_on(u, lam, _DEFAULT_N, "gauss")
    v_vals = potential.radial_profile(p.r)
    qq = np.abs(p.q) ** 2

    # defect bucket: the key-identity RHS at g := f - V u
    g_vals = p.f - v_vals * p.q
    grad_minus_sq, key_lhs, i3 = _key_sides(p, lam, g_vals)
    i_total = key_lhs + ratio * p.integral(p.r * np.real(v_vals) * qq).real
    i1 = p.integral(potential.d_r_rReV(p.r) * qq).real
    comb = np.conj(p.dq) + 1j * sig * root * np.conj(p.q)
    i2 = 2.0 * p.integral(p.r * np.imag(v_vals) * p.q * comb).imag
    scale = abs(i_total) + abs(i1) + abs(i2) + abs(i3) + p.norm_sq
    residual = abs(i_total - (i1 + i2 + i3)) / scale

    b1, b2, b3 = b_constants(potential)
    eps_defect = abs((sig * p.integral(g_vals * np.conj(p.q))).imag)
    slack = 1e-9 * max(grad_minus_sq, 1.0)
    i1_ok = i1 <= b2**2 * grad_minus_sq + slack
    i2_ok = abs(i2) <= 2.0 * b3 * grad_minus_sq + slack

    lower: Optional[bool] = None
    if b1 <= 1.0 and abs(lam.imag) <= lam.real:
        coeff = 1.0 - 0.25 * math.sqrt(b3) * 2.0**1.5
        correction = 0.25 * 2.0 * math.sqrt(grad_minus_sq * eps_defect)
        lower = i_total >= coeff * grad_minus_sq - correction - slack
    return RadiTerms(
        i_total, i1, i2, i3, residual, grad_minus_sq,
        b1, b2, b3, eps_defect, i1_ok, i2_ok, lower,
    )


@dataclass(frozen=True)
class MagneticSmokeReport:
    b_tau_sup: float
    b_tau_dot_x_sup: float
    tangential_residual: float
    identity_residual: float


def magnetic_identity_smoke(
    u: TestFunction,
    lam: complex,
    potential: Optional[Potential],
    a_field: MagneticPotential,
) -> MagneticSmokeReport:
    """Structural checks for the magnetic operator -Delta_A + V.

    Tangentiality: since B is antisymmetric, B_tau . x = 0, so the gauge
    factor adds nothing to B_tau . grad_A u; the report carries the sup of
    |B_tau|, of |B_tau . x/|x||, and of the phase-matched difference
    B_tau . grad_A u^- - e^(-i sgn(l2) sqrt(l1) |x|) B_tau . grad_A u over
    100 seeded sample points (seed 0) in the shell 0.2 R <= |x| <= 0.95 R
    of the probe support.  The G1 = 1 identity
    l1 ||u||^2 - int |grad_A u|^2 - Re int V |u|^2 = Re int f conj(u) with
    f := Delta_A u + lam u - V u is integrated on the fixed 48^3 tensor
    Gauss box over [-R, R]^3; the |A|^2 and A . grad u terms cancel between
    the two sides node by node, so the residual is pure
    Laplacian-vs-gradient quadrature error.  The field is evaluated on the
    whole point arrays at once, through the (..., d) contract of
    :class:`MagneticPotential`.
    """
    lam = complex(lam)
    if not lam.real > 0:
        raise MultiplierError("magnetic smoke check needs Re lambda > 0")
    if a_field.dimension != 3:
        raise MultiplierError("magnetic smoke check is three-dimensional")
    radius = u.support_radius
    sig = _sgn2(lam)
    root = math.sqrt(lam.real)

    # sample points, pulled into the shell along their rays where needed
    rng = np.random.default_rng(_MAGNETIC_SEED)
    x = rng.uniform(-radius, radius, size=(_MAGNETIC_SAMPLES, 3))
    r = np.linalg.norm(x, axis=1)
    outside = ~((0.2 * radius <= r) & (r <= 0.95 * radius))
    x[outside] *= ((0.6 * radius) / np.maximum(r[outside], 1e-12))[:, None]
    r = np.linalg.norm(x, axis=1)
    bt = b_tau(a_field, x)
    bt_norm = np.linalg.norm(bt, axis=1)
    b_sup = float(np.max(bt_norm))
    b_dot_x = float(np.max(np.abs(np.sum(bt * x, axis=1)) / r))

    val = u.value_points(x)[:, None]
    grad = u.grad_points(x)
    a_val = a_field.vector_potential(x)
    grad_a = grad + 1j * a_val * val
    phase = np.exp(-1j * sig * root * r)
    grad_minus = phase[:, None] * (grad - 1j * sig * root * (x / r[:, None]) * val)
    grad_a_minus = grad_minus + 1j * a_val * (phase[:, None] * val)
    diff = np.abs(np.sum(bt * grad_a_minus, axis=1) - phase * np.sum(bt * grad_a, axis=1))
    den = bt_norm * (np.linalg.norm(grad_a, axis=1) + np.linalg.norm(grad_a_minus, axis=1))

    # the tangential identity is 0 = 0 wherever B_tau vanishes; only points
    # with a nontrivial trace produce a meaningful relative residual
    live = bt_norm > 1e-12 * (1.0 + b_sup)
    tang = float(np.max(diff[live] / den[live], initial=0.0))

    # G1 = 1 identity on a tensor Gauss box covering the support
    pts, ww = box_grid(_MAGNETIC_N_AXIS, radius)
    r_all = np.linalg.norm(pts, axis=1)
    keep = (r_all < radius) & (r_all > 0)
    pts, ww, r_all = pts[keep], ww[keep], r_all[keep]

    vals = u.value_points(pts)
    grads = u.grad_points(pts)
    laps = u.laplacian_points(pts)
    a_vals = a_field.vector_potential(pts)
    v_vals = (
        potential.radial_profile(r_all)
        if potential is not None
        else np.zeros(len(pts), dtype=complex)
    )

    grad_a_sq = np.sum(
        np.abs(grads + 1j * a_vals * vals[:, None]) ** 2, axis=1
    )
    # Delta_A u = Delta u + 2i A . grad u - |A|^2 u for divergence-free A
    lap_a = laps + 2j * np.sum(a_vals * grads, axis=1) - np.sum(a_vals**2, axis=1) * vals
    f_vals = lap_a + lam * vals - v_vals * vals

    norm_sq = float(np.dot(ww, np.abs(vals) ** 2))
    lhs = (
        lam.real * norm_sq
        - float(np.dot(ww, grad_a_sq))
        - float(np.dot(ww, np.real(v_vals) * np.abs(vals) ** 2))
    )
    rhs = float(np.dot(ww, np.real(f_vals * np.conj(vals))))
    return MagneticSmokeReport(b_sup, b_dot_x, tang, _relative_residual(lhs, rhs, norm_sq))
