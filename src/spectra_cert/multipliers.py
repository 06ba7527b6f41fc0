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
The G1 = 1 identity for -Delta_A, A = k |x|^-p (-x2, x1, 0), is radial too:
A is orthogonal to x and e3, so A . grad u = 0, |grad_A u|^2 = |grad u|^2
+ |A|^2 |u|^2 and Delta_A u = Delta u - |A|^2 u: each side is its A = 0
form minus int |A|^2 |u|^2.

The radial multipliers are rows of one family, g(r) = p(r) exp(-w r^2) with
a polynomial p.  Their derivatives are q_k(r) exp(-w r^2), with q_0 = p and
q_(k+1) = q_k' - 2 w r q_k:

    row                      p        w
    constant(value)          value    0
    abs                      r        0
    square                   r^2      0
    windowed-square(width)   r^2      1 / width
    canonical-g2             2 r      0    (G2 of the canonical triple)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partialmethod
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as P

from .numerics import fit_loglog_slope, panel_gauss
from .potentials import MagneticPotential, Potential, _row_params, _Row, b_tau

__all__ = [
    "MultiplierError",
    "TestFunction",
    "NearExtremalHardyProfile",
    "MultiplierProfile",
    "MultiplierTriple",
    "multiplier_catalog",
    "identity_residual",
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

# the magnetic smoke check's tangential sample points and their seed
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

    def radial_terms(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(q, q', q'' + 2 q'/r - l(l+1) q/r^2): the last is the radial part of Delta u."""
        q, dq, ddq = self.profile(r)
        return q, dq, ddq + 2 * dq / r - self.ell * (self.ell + 1) * q / r**2

    def at_points(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(u, grad u) at Cartesian points of shape (m, 3).

        u = q(r) c^l with c = x3/|x|, so grad u = (q' - l q/r) c^l x/|x|
        + l (q/r) e3 (l in {0, 1}).
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = np.linalg.norm(pts, axis=1)
        q, dq = self.profile(r)[:2]
        ang = (pts[:, 2] / r) ** self.ell
        grad = ((dq - self.ell * q / r) * ang)[:, None] * (pts / r[:, None])
        grad[:, 2] += self.ell * q / r
        return q * ang, grad


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

    def profile(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        a = -0.5 + self.eps
        q = r**a * np.exp(-self.eps * r)
        dq = q * (a / r - self.eps)
        return q, dq


def _radial_nodes(
    r_max: float, n: int, rule: str, breaks: Sequence[float] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature on (0, r_max]: uniform Gauss panels, which also end at the
    ``breaks`` (jumps of V) inside (0, r_max), or uniform midpoints.

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
        inside = [b for b in breaks if 0.0 < b < r_max]
        return panel_gauss(np.union1d(np.linspace(0.0, r_max, panels + 1), inside), 8)
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
    """Radial multiplier g(|x|) = p(r) exp(-window r^2) in d = 3.

    ``coefficients`` are those of p, lowest power first.  ``g`` .. ``d4g``
    are g and its first four derivatives, by the recurrence of the module
    docstring; four are enough to form Delta^2 G.
    """

    name: str
    coefficients: tuple[float, ...]
    window: float = 0.0

    def __post_init__(self) -> None:
        stack = [np.asarray(self.coefficients, dtype=float)]
        for _ in range(4):
            q = stack[-1]
            stack.append(P.polysub(P.polyder(q), 2.0 * self.window * P.polymulx(q)))
        object.__setattr__(self, "_stack", tuple(stack))

    def _derivative(self, k: int, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        value = P.polyval(r, self._stack[k])
        if self.window:
            value = value * np.exp(-self.window * r**2)
        return value

    g = partialmethod(_derivative, 0)
    dg = partialmethod(_derivative, 1)
    d2g = partialmethod(_derivative, 2)
    d3g = partialmethod(_derivative, 3)
    d4g = partialmethod(_derivative, 4)

    def laplacian(self, r: np.ndarray) -> np.ndarray:
        return self.d2g(r) + 2 * self.dg(r) / r

    def bilaplacian(self, r: np.ndarray) -> np.ndarray:
        # Delta^2 G = h'' + 2 h'/r for h := Delta G
        dh = self.d3g(r) + 2 * (self.d2g(r) / r - self.dg(r) / r**2)
        d2h = self.d4g(r) + 2 * (
            self.d3g(r) / r - 2.0 * self.d2g(r) / r**2 + 2.0 * self.dg(r) / r**3
        )
        return d2h + 2 * dh / r


# params -> (profile name, coefficients of p, window)
_MULTIPLIERS = {
    "constant": _Row(
        (("value", None, 1.0),), lambda p: (f"constant({p['value']:g})", (p["value"],), 0.0)
    ),
    "abs": _Row((), lambda p: ("abs", (0.0, 1.0), 0.0)),
    "square": _Row((), lambda p: ("square", (0.0, 0.0, 1.0), 0.0)),
    "windowed-square": _Row(
        (("width", "> 0", 10.0),),
        lambda p: (f"windowed-square({p['width']:g})", (0.0, 0.0, 1.0), 1.0 / p["width"]),
    ),
}


def multiplier_catalog(name: str, **params: float) -> MultiplierProfile:
    """Named multipliers: constant, abs (|x|), square (|x|^2), windowed-square.

    ``windowed-square`` is r^2 exp(-r^2 / width), a smooth non-polynomial
    multiplier with the full derivative stack; default width 10.
    """
    row, values = _row_params(MultiplierError, "multiplier", _MULTIPLIERS, name, params)
    label, coefficients, window = row.family(values)
    return MultiplierProfile(label, coefficients, window=window)


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
            g2=MultiplierProfile("canonical-g2", (0.0, 2.0)),
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


def _probe_on(u: TestFunction, lam: complex, n: int, rule: str, breaks=()) -> _Probe:
    r, w = _radial_nodes(u.support_radius, n, rule, breaks)
    q, dq, lap = u.radial_terms(r)
    f = lap + complex(lam) * q
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


def _key_sides(p: _Probe, lam: complex, f: np.ndarray) -> tuple[float, float]:
    """(lhs, rhs) of the key identity with right-hand side f.

    The sides are those of ``id4`` on :func:`identity_residual`; ``f`` is
    the radial profile entering I1 + I2 + I3, Delta u + lambda u for the
    manufactured identity and f - V u for the radial defect bucket.
    """
    lam = complex(lam)
    root = math.sqrt(lam.real)
    ratio = abs(lam.imag) / root
    dq_minus = p.dq - 1j * _sgn2(lam) * root * p.q
    extra = p.ell * (p.ell + 1)
    grad_minus = np.abs(dq_minus) ** 2 + extra * np.abs(p.q) ** 2 / p.r**2
    lhs = (
        p.integral(grad_minus).real
        + ratio * p.integral(p.r * grad_minus).real
        - ratio * p.integral(np.abs(p.q) ** 2 / p.r).real
    )
    rhs = (
        -2 * p.integral(f * np.conj(p.q)).real
        - 2.0 * p.integral(p.r * f * np.conj(dq_minus)).real
        - ratio * p.integral(p.r * f * np.conj(p.q)).real
    )
    return lhs, rhs


def _magnetic_sides(p: _Probe, lam: complex, a_field: MagneticPotential) -> tuple[float, float]:
    # each side loses int |A|^2 |u|^2 (module docstring); |A|^2 = k^2 r^(2-2p)
    # sin^2(theta), and sin^2(theta) averages to m_l = 2 (l^2 + l - 1) /
    # ((2l - 1)(2l + 3)) against P_l^2: 2/3 at l = 0, 2/5 at l = 1
    m_l = 2.0 * (p.ell**2 + p.ell - 1) / ((2 * p.ell - 1) * (2 * p.ell + 3))
    mass = a_field.k**2 * m_l * p.integral(p.r ** (2 - 2 * a_field.p) * np.abs(p.q) ** 2).real
    lhs = lam.real * p.norm_sq - p.integral(p.grad_density).real - mass
    rhs = p.integral(p.f * np.conj(p.q)).real - mass
    return lhs, rhs


# kind -> (CSV identity_id, sides on one probe)
_IDENTITIES = {
    "id1": ("real-part", _id1_sides),
    "id2": ("imag-part", _id2_sides),
    "id3": ("hessian", _id3_sides),
    "id4": ("key-gauge", lambda p, lam, _: _key_sides(p, lam, p.f)),
    "magnetic": ("magnetic", _magnetic_sides),
}


def _identity_terms(
    pairs: Sequence[tuple[str, Optional[MultiplierProfile | MagneticPotential]]],
    u: TestFunction,
    lam: complex,
    n: int,
    rule: str,
) -> list[tuple[float, float, float]]:
    """(lhs, rhs, norm_sq) of each (kind, g) identity on one probe.

    ``g`` is the multiplier, or the field row of the magnetic identity;
    ``id4`` takes none.  Every identity runs on the same probe.  The Gauss
    rule is settled: each identity's sides at n and 2n must agree within
    _SETTLE_TOL, which a non-finite side never does, and the 2n values are
    returned.  The midpoint rule keeps its O(h^2) error visible for the
    refinement-order studies, so it is returned as is.
    """
    lam = complex(lam)
    for kind, g in pairs:
        if kind not in _IDENTITIES:
            raise MultiplierError(f"unknown identity {kind!r}")
        if kind != "id4" and g is None:
            raise MultiplierError(f"{kind} needs a multiplier profile or field row")
        if kind == "id4" and not lam.real > 0:
            raise MultiplierError("the key identity needs Re lambda > 0")

    def sides_on(m: int) -> tuple[_Probe, list[tuple[float, float]]]:
        p = _probe_on(u, lam, m, rule)
        return p, [_IDENTITIES[kind][1](p, lam, g) for kind, g in pairs]

    p, sides = sides_on(n)
    if rule == "gauss":
        p, fine = sides_on(2 * n)
        for (kind, _), (lhs, rhs), (lhs2, rhs2) in zip(pairs, sides, fine):
            scale = abs(lhs2) + abs(rhs2) + p.norm_sq
            if not abs(lhs2 - lhs) + abs(rhs2 - rhs) <= _SETTLE_TOL * max(scale, 1e-30):
                raise MultiplierError(
                    f"{kind} quadrature did not settle between n={n} and n={2 * n}"
                )
        sides = fine
    return [(lhs, rhs, p.norm_sq) for lhs, rhs in sides]


def _relative_residual(lhs: float, rhs: float, norm_sq: float) -> float:
    """Relative residual |lhs - rhs| / (|lhs| + |rhs| + |u|^2) of one identity."""
    return abs(lhs - rhs) / (abs(lhs) + abs(rhs) + norm_sq)


def identity_residual(
    kind: str,
    u: TestFunction,
    lam: complex,
    g: Optional[MultiplierProfile | MagneticPotential] = None,
) -> float:
    """Relative residual |lhs - rhs| / (|lhs| + |rhs| + ||u||^2) of one identity.

    The sides are settled on the radial Gauss rule (_DEFAULT_N nodes against
    twice as many).  f := Delta u + lambda u is manufactured, lambda = l1 + i l2, and ``g``
    is the multiplier G of the identity (the field row for ``magnetic``):

    - ``id1``, real part: LHS = l1 int G |u|^2 - int G |grad u|^2
      + (1/2) int Delta(G) |u|^2, RHS = Re int f G conj(u).
    - ``id2``, imaginary part: LHS = l2 int G |u|^2
      - Im int grad(G).conj(u) grad(u), RHS = Im int f G conj(u).
    - ``id3``, Hessian: LHS = int grad(conj u).Hess(G) grad(u)
      - (1/4) int Delta^2(G) |u|^2 + l2 Im int u grad(G).grad(conj u),
      RHS = -(1/2) Re int f Delta(G) conj(u) - Re int f grad(G).grad(conj u);
      needs the multiplier's third and fourth derivatives.
    - ``id4``, the summed key identity controlling grad(u^-); takes no
      multiplier and needs Re lambda > 0:
      LHS = int |grad u^-|^2 + (|l2|/sqrt(l1)) int |x| |grad u^-|^2
            - ((d-1)/2) (|l2|/sqrt(l1)) int |u|^2 / |x|,
      RHS = I1 + I2 + I3 with I1 = (1-d) Re int f conj(u),
      I2 = -2 Re int |x| f (d_r conj(u) + i sgn(l2) sqrt(l1) conj(u)) and
      I3 = -(|l2|/sqrt(l1)) Re int |x| f conj(u); conjugating (u, lambda)
      swaps the gauge sign and fixes the |l2| in I3.
    - ``magnetic``, the G1 = 1 identity for -Delta_A with the row's A:
      l1 ||u||^2 - int |grad_A u|^2 = Re int f conj(u), f := Delta_A u
      + lambda u, radial by the module docstring.
    """
    terms = _identity_terms([(kind, g)], u, lam, _DEFAULT_N, "gauss")
    return _relative_residual(*terms[0])


def _term_rows(identity_id: str, terms: Sequence, residual: float) -> list[dict]:
    """Rows of the shared CSV schema, one per (term_name, value) in ``terms``.

    Every term is real by construction, so value_im is always 0.
    """
    return [
        {
            "identity_id": identity_id,
            "term_name": name,
            "value_re": float(value),
            "value_im": 0.0,
            "residual": float(residual),
        }
        for name, value in terms
    ]


def identity_term_rows(u: TestFunction, lam: complex) -> list[dict]:
    """Term table of the pairing identities in the shared CSV row schema.

    Evaluates the real-part, imaginary-part and Hessian identities with
    the multipliers of the canonical triple and, when Re lambda > 0, the
    summed key identity as well, all on one settled probe.  Each identity
    contributes a lhs and a rhs row carrying (identity_id, term_name,
    value_re, value_im, residual); the relative residual is shared within
    an identity.
    """
    lam = complex(lam)
    triple = MultiplierTriple.canonical_triple()
    pairs = [("id1", triple.g1), ("id2", triple.g2), ("id3", triple.g3)]
    if lam.real > 0:
        pairs.append(("id4", None))
    rows: list[dict] = []
    for (kind, _), (lhs, rhs, norm_sq) in zip(
        pairs, _identity_terms(pairs, u, lam, _DEFAULT_N, "gauss")
    ):
        residual = _relative_residual(lhs, rhs, norm_sq)
        rows += _term_rows(_IDENTITIES[kind][0], (("lhs", lhs), ("rhs", rhs)), residual)
    return rows


def residual_refinement_order(
    kind: str,
    u: TestFunction,
    lam: complex,
    g: Optional[MultiplierProfile | MagneticPotential] = None,
    n_list: Sequence[int] = (20, 40, 80, 160),
) -> float:
    """Observed convergence order of a residual under midpoint refinement.

    Returns -slope of log residual vs log n; the midpoint rule makes the
    expected order 2 visible (Gauss panels would be at roundoff throughout).
    """
    res = [
        _relative_residual(*_identity_terms([(kind, g)], u, lam, n, "midpoint")[0])
        for n in n_list
    ]
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


def hardy_check(psi: NearExtremalHardyProfile, d: int = 3) -> HardyRatios:
    """Hardy quotients int |u|^2/|x|^2 / int |grad u|^2 (bound 4/(d-2)^2)
    and int |u|^2/|x| / int |x| |grad u|^2 (bound 4/(d-1)^2).

    ``psi`` must be a NearExtremalHardyProfile, a radial profile with its
    first derivative.  It decays like e^(-2 eps r), so the quadrature
    window scales with 1/eps.  The quotients at 600 nodes must agree with
    those at 1200, which a non-finite quotient never does.
    """
    if d < 3:
        raise MultiplierError("Hardy quotients need d >= 3")
    if not isinstance(psi, NearExtremalHardyProfile):
        raise MultiplierError("psi must be a NearExtremalHardyProfile")

    def ratios(n_nodes: int) -> tuple[float, float]:
        r, w = _hardy_log_nodes(psi.eps, n_nodes)
        q, dq = psi.profile(r)
        meas = w * r ** (d - 1)
        qq = np.abs(q) ** 2
        grad = np.abs(dq) ** 2
        num1 = float(np.dot(meas, qq / r**2))
        den1 = float(np.dot(meas, grad))
        num2 = float(np.dot(meas, qq / r))
        den2 = float(np.dot(meas, r * grad))
        return num1 / den1, num2 / den2

    a1, a2 = ratios(_HARDY_N)
    b1, b2 = ratios(2 * _HARDY_N)
    if not abs(a1 - b1) + abs(a2 - b2) <= _SETTLE_TOL:
        raise MultiplierError("Hardy quotient quadrature did not settle")
    return HardyRatios(
        hardy_ratio=b1,
        hardy_bound=4.0 / (d - 2) ** 2,
        weighted_ratio=b2,
        weighted_bound=4.0 / (d - 1) ** 2,
    )


@dataclass(frozen=True)
class RadiTerms:
    """Named terms of the radial key identity.

    ``i1`` includes the jump terms of d_r(r V1) described on
    :func:`radi_identity_terms`.  ``i3_defect`` plays the role of the
    paper's cutoff remainder: it is the key-identity right-hand side
    evaluated at f - V u, which vanishes when the probe is an exact
    eigenfunction.
    """

    i_total: float
    i1: float
    i2: float
    i3_defect: float
    residual: float

    def rows(self) -> list[dict]:
        terms = (
            ("I", self.i_total),
            ("I1", self.i1),
            ("I2", self.i2),
            ("I3_defect", self.i3_defect),
        )
        return _term_rows("radial-key", terms, self.residual)


def radi_identity_terms(u: TestFunction, lam: complex, potential: Potential) -> RadiTerms:
    """Evaluate the radial key identity term by term for f := Delta u + lam u.

    The identity reads I = I1 + I2 + I3 with

        I  = int |grad u^-|^2 + (|l2|/sqrt(l1)) int |x| |grad u^-|^2
             - ((d-1)/2)(|l2|/sqrt(l1)) int |u|^2/|x|
             + (|l2|/sqrt(l1)) int |x| V1 |u|^2,
        I1 = int |u|^2 d_r(r V1),
        I2 = 2 Im int |x| V2 u (d_r conj(u) + i sgn(l2) sqrt(l1) conj(u)),

    and I3 the defect bucket described on RadiTerms.  d_r(r V1) is taken in
    the sense of distributions: where r V1 jumps by J = -r0 V1(r0-) at a
    jump r0 of V, it carries J delta(|x| - r0), which adds
    J r0^2 c_l |q(r0)|^2 to I1 (c_l the angular weight); the probe panels
    end at r0.
    """
    lam = complex(lam)
    if not lam.real > 0:
        raise MultiplierError("radial identity needs Re lambda > 0")
    if potential.dimension != 3:
        raise MultiplierError("radial identity needs a d=3 potential")
    sig = _sgn2(lam)
    root = math.sqrt(lam.real)
    ratio = abs(lam.imag) / root

    p = _probe_on(u, lam, _DEFAULT_N, "gauss", potential.jumps)
    v_vals = potential.radial_profile(p.r)
    qq = np.abs(p.q) ** 2

    # defect bucket: the key-identity RHS at g := f - V u
    g_vals = p.f - v_vals * p.q
    key_lhs, i3 = _key_sides(p, lam, g_vals)
    i_total = key_lhs + ratio * p.integral(p.r * np.real(v_vals) * qq).real
    i1 = p.integral(potential.d_r_rReV(p.r) * qq).real
    for r0 in potential.jumps:
        jump = -r0 * potential.radial_profile(np.nextafter(r0, 0.0)).real
        i1 += p.c_ang * jump * r0**2 * abs(u.profile(np.array([r0]))[0][0]) ** 2
    comb = np.conj(p.dq) + 1j * sig * root * np.conj(p.q)
    i2 = 2.0 * p.integral(p.r * np.imag(v_vals) * p.q * comb).imag
    scale = abs(i_total) + abs(i1) + abs(i2) + abs(i3) + p.norm_sq
    residual = abs(i_total - (i1 + i2 + i3)) / scale
    return RadiTerms(i_total, i1, i2, i3, residual)


@dataclass(frozen=True)
class MagneticSmokeReport:
    b_tau_sup: float
    b_tau_dot_x_sup: float
    tangential_residual: float
    identity_residual: float


def magnetic_identity_smoke(
    u: TestFunction,
    lam: complex,
    a_field: MagneticPotential,
) -> MagneticSmokeReport:
    """Structural checks for the magnetic operator -Delta_A.

    Tangentiality: since B is antisymmetric, B_tau . x = 0, so the gauge
    factor adds nothing to B_tau . grad_A u; the report carries the sup of
    |B_tau|, of |B_tau . x/|x||, and of the phase-matched difference
    B_tau . grad_A u^- - e^(-i sgn(l2) sqrt(l1) |x|) B_tau . grad_A u over
    100 seeded sample points (seed 0) in the shell 0.2 R <= |x| <= 0.95 R
    of the probe support.  The field is evaluated on the whole sample array
    at once, through the (..., d) contract of :class:`MagneticPotential`.

    The G1 = 1 identity l1 ||u||^2 - int |grad_A u|^2 = Re int f conj(u),
    f := Delta_A u + lam u, reduces to a radial one since A . grad u = 0
    (module docstring).  It runs on the radial Gauss rule of the other
    identities and must settle between _DEFAULT_N and twice as many nodes.
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

    val, grad = u.at_points(x)
    val = val[:, None]
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

    residual = identity_residual("magnetic", u, lam, a_field)
    return MagneticSmokeReport(b_sup, b_dot_x, tang, residual)
