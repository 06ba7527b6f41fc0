"""Hypothesis constants and threshold verdicts for -Delta + V.

Every smallness condition used by the absence-of-eigenvalue theorems is a
quadratic-form inequality.  Each constant comes from one certificate:

* pointwise Hardy certificates: suprema of weighted pointwise quantities
  (e.g. sup |V| r^2 / ((d-2)/2)^2 for the subordination constant), which
  bound the constants from above but need not be sharp; each supremum is
  read off the catalog row V = amp r^-s exp(-mu r - gamma r^2) 1{r < r0}
  in closed form, from its limits and the real roots of a polynomial;
* integral-class norms (d = 3): the Rollnik norm, int |V|^{3/2} and the
  subordination bound it chains to through the Sobolev inequality.

Divergent suprema and integrals are first-class results: they come back as
+inf, because the separating examples (Hardy-type potentials versus Rollnik
or L^{3/2} classes) hinge on divergence.  Divergence is decided from the
row too: the powers of r at 0 and infinity and whether V decays.

Verdict semantics: a theorem's verdict is "pass" when its certified
constants satisfy the threshold inequality strictly, "fail" when a needed
constant is +inf, and "inconclusive" otherwise: a finite pointwise
certificate above the threshold is sufficient-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial import polynomial as npoly

from .numerics import find_root_increasing, gauss_legendre, panel_gauss
from .potentials import Potential

__all__ = [
    "ConditionError",
    "ConditionReport",
    "ThresholdTable",
    "hardy_constant",
    "subordination_a_pointwise",
    "rollnik_norm",
    "frank_l32",
    "sobolev_chain_a",
    "lambda_constant",
    "thresholds",
    "b_constants",
    "evaluate_theorems",
    "build_report",
    "SOBOLEV_CHAIN_CONSTANT",
]

SOBOLEV_CHAIN_CONSTANT = 2.0 ** (4.0 / 3.0) / (3.0 * np.pi ** (4.0 / 3.0))


class ConditionError(ValueError):
    """Raised for unsupported inputs (wrong dimension, non-radial V, ...)."""


def json_float(value):
    """inf and nan are not JSON numbers; write them as "inf" and "nan"."""
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return value


# ---------------------------------------------------------------------------
# radial suprema, exact from the catalog row
# ---------------------------------------------------------------------------


def _row_sup(potential: Potential, coefficients: tuple) -> float:
    """sup over 0 < r < r0 of [p(r)]_+ r^(2-s) exp(-mu r - gamma r^2).

    ``coefficients`` are those of the polynomial p, lowest power first.
    With f(r) = p r^(2-s) exp(-mu r - gamma r^2),
    f' = r^(1-s) exp(-mu r - gamma r^2) (r p' + p (2 - s - mu r - 2 gamma r^2)),
    so the sup is the largest of the limit at 0+, the value at r0-, the
    limit at infinity (no decay only) and f at the real roots of that
    polynomial.  A limit that grows without bound makes the sup +inf, and so
    does a value past the float range.
    """
    p = np.trim_zeros(np.asarray(coefficients, float), "b")
    if not p.any():
        return 0.0
    mu, gamma, r0, k = potential.mu, potential.gamma, potential.r0, 2.0 - potential.s

    def f(r: float) -> float:
        value = max(0.0, float(npoly.polyval(r, p)))
        try:
            return value * r**k * math.exp(-mu * r - gamma * r * r)
        except OverflowError:  # r^k leaves the float range: f in logs
            with np.errstate(divide="ignore", over="ignore"):
                return float(np.exp(np.log(value) + k * math.log(r) - mu * r - gamma * r * r))

    def at_infinity(c: float, power: float) -> float:
        # lim [c]_+ t^power as t -> infinity; t = 1/r turns r -> 0+ into it
        if c <= 0.0 or power < 0.0:
            return 0.0
        return float(c) if power == 0.0 else math.inf

    # the lowest power of p dominates at 0+, the highest at infinity
    lowest = int(np.flatnonzero(p)[0])
    candidates = [at_infinity(p[lowest], -(lowest + k))]
    if r0 < math.inf:
        candidates.append(f(r0))
    elif mu == gamma == 0.0:
        candidates.append(at_infinity(p[-1], p.size - 1 + k))
    q = npoly.polyadd(npoly.polymulx(npoly.polyder(p)), npoly.polymul(p, (k, -mu, -2.0 * gamma)))
    # the real part of a complex root is a point of the domain too, so
    # reading every root's real part can only add values f really takes
    candidates += [f(x) for x in npoly.polyroots(q).real if 0.0 < x < r0]
    return float(max(candidates))


def hardy_constant(d: int) -> float:
    """The constant ((d-2)/2)^2 of the Hardy inequality, d >= 3 only."""
    if d < 3:
        raise ConditionError(f"dimension must be >= 3, got {d}")
    return ((d - 2) / 2.0) ** 2


def subordination_a_pointwise(potential: Potential) -> float:
    """Certified subordination constant sup |V(x)| |x|^2 / ((d-2)/2)^2.

    The Hardy inequality turns this supremum into an upper bound for the
    form-subordination constant; +inf when the supremum is.
    """
    cd2 = hardy_constant(potential.dimension)
    return _row_sup(potential, (abs(potential.amp),)) / cd2


# ---------------------------------------------------------------------------
# integral-class norms
# ---------------------------------------------------------------------------


def _in_classes(potential: Potential) -> bool:
    """Is V Rollnik and in L^{3/2} (d = 3)?  Both hold iff s < 2 and V decays.

    Near 0, |V|^{3/2} r^2 ~ r^(2 - 3s/2) is integrable iff s < 2, and with
    s < 2 a tail that does not decay (mu = gamma = 0, r0 = inf) is not.
    """
    decays = potential.mu > 0.0 or potential.gamma > 0.0 or potential.r0 < math.inf
    return potential.s < 2.0 and decays


def _dyadic_edges(x: float, levels: int) -> set[float]:
    """x and the points x (1 -+ 2^-j), 1 <= j < levels, grading panels toward x."""
    return {x} | {x * (1.0 + s * 2.0 ** (-j)) for j in range(1, levels) for s in (-1.0, 1.0)}


# truncation radii of the Rollnik and L^{3/2} quadratures in decay lengths,
# and the number of outer Rollnik nodes
_ROLLNIK_LENGTHS = 24.0
_ROLLNIK_N_OUTER = 200
_FRANK_LENGTHS = 30.0


def _truncation_radius(potential: Potential, lengths: float) -> float:
    """r0 when finite, else ``lengths`` times the shorter of 1/mu and 1/sqrt(gamma)."""
    if potential.r0 < math.inf:
        return potential.r0
    return lengths / max(potential.mu, math.sqrt(potential.gamma))


def _ball_panels(
    potential: Potential, radius: float, per_panel: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights on [0, radius] for radial integrals of V.

    Panels shrink dyadically toward the origin (edges radius 2^-k, k <= 24)
    and end at the jumps of V inside the ball; ``per_panel`` nodes each.
    """
    edges = {0.0, radius} | {radius * 2.0 ** (-k) for k in range(1, 25)}
    edges |= {j for j in potential.jumps if 0.0 < j < radius}
    return panel_gauss(sorted(edges), per_panel)


def _rollnik_radial(potential: Potential) -> float:
    """|V|_R^2 = 8 pi^2 int int |V(r)||V(p)| r p log((r+p)/|r-p|) dr dp.

    The angular average of |x-y|^-2 over both spheres produces the log
    kernel; the inner integral is split into panels that shrink dyadically
    toward the diagonal p = r, where the integrand has the log singularity.
    Each outer panel is one array pass over a (panel nodes x inner nodes)
    block, so memory is O(panel nodes x inner nodes), not O(all nodes x
    inner nodes).
    """
    r_max = _truncation_radius(potential, _ROLLNIK_LENGTHS)
    outer = {0.0, r_max} | {r_max * 2.0 ** (-k) for k in range(1, 17)}
    for jump in potential.jumps:
        # the inner log singularity crossing a jump of V leaves an
        # (r - r0) log|r - r0| kink in the outer integrand at r0
        outer |= _dyadic_edges(jump, 12)
    outer_edges = np.array(sorted(e for e in outer if 0.0 <= e <= r_max))
    per_panel = max(8, _ROLLNIK_N_OUTER // (outer_edges.size - 1))
    outer_nodes, outer_weights = panel_gauss(outer_edges, per_panel)
    # dyadic panels shrinking to the log singularity at rho = r, merged with
    # the outer edges so wide panels never under-resolve V; the innermost
    # panels leave an O(2^-28) error, below 1e-10.  Edges past r_max are
    # clipped to it and become zero-width panels of weight 0.
    dyadic = np.fromiter(_dyadic_edges(1.0, 28), float)
    x, wx = gauss_legendre(10, -1.0, 1.0)
    total = 0.0
    for r, wr in zip(
        outer_nodes.reshape(-1, per_panel), outer_weights.reshape(-1, per_panel)
    ):
        edges = np.sort(
            np.concatenate(
                [
                    np.broadcast_to(outer_edges, (r.size, outer_edges.size)),
                    np.minimum(r[:, np.newaxis] * dyadic, r_max),
                ],
                axis=1,
            ),
            axis=1,
        )
        mid = 0.5 * (edges[:, :-1] + edges[:, 1:])[..., np.newaxis]
        half = 0.5 * (edges[:, 1:] - edges[:, :-1])[..., np.newaxis]
        rho = mid + half * x
        rr = r[:, np.newaxis, np.newaxis]
        with np.errstate(divide="ignore"):
            integrand = np.where(
                rho != rr,
                potential.abs_radial(rho) * rho * np.log((rr + rho) / np.abs(rr - rho)),
                0.0,
            )
        inner = np.einsum("ijk,ijk->i", half * wx, integrand)
        total += float(np.dot(wr * potential.abs_radial(r) * r, inner))
    return 8.0 * np.pi**2 * total


def rollnik_norm(potential: Potential) -> float:
    """Rollnik norm |V|_R (d = 3), +inf when V is not in the class.

    The class is read off the row (``_in_classes``).  Otherwise the radial
    log-kernel reduction is integrated with dyadic panels on [0, R], R = r0
    when finite and else 24 decay lengths (about 200 outer nodes, at least
    8 per outer panel, so more when jumps of V add panels); the square-well
    and yukawa values match their closed forms 2 pi v0 r0^2 and
    2 sqrt(2) pi g / mu to 1e-10.  It runs on the row V~(t) = 2^-j V(2^k t)
    with 2^(k-1) <= R < 2^k and |amp| of order one: |V|_R = 2^(2k + j) |V~|_R
    by exact scalings, so the norm is finite wherever it fits in a float.
    """
    if potential.dimension != 3:
        raise ConditionError("the Rollnik norm is defined here for d = 3 only")
    if not _in_classes(potential):
        return math.inf
    k = math.frexp(_truncation_radius(potential, _ROLLNIK_LENGTHS))[1]
    j = math.frexp(abs(potential.amp))[1] - 1 - math.floor(potential.s * k)
    unit = replace(
        potential, amp=potential.amp / 2.0 ** (j + potential.s * k),
        mu=math.ldexp(potential.mu, k), gamma=math.ldexp(potential.gamma, 2 * k),
        r0=math.ldexp(potential.r0, -k),
    )
    try:
        return math.ldexp(math.sqrt(_rollnik_radial(unit)), 2 * k + j)
    except OverflowError:
        return math.inf


def frank_l32(potential: Potential) -> float:
    """int |V|^{3/2} (d = 3), +inf when |V|^{3/2} is not integrable.

    The L^{3/2} condition compares it with 3^{3/2} / (4 pi^2); no verdict
    does, the report carries the value itself.
    """
    if potential.dimension != 3:
        raise ConditionError("the L^{3/2} condition is evaluated for d = 3 only")
    if not _in_classes(potential):
        return math.inf
    nodes, weights = _ball_panels(potential, _truncation_radius(potential, _FRANK_LENGTHS), 14)
    # (|V|^(3/4) r)^2 meets no 0 * inf where |V| or r^2 alone leaves the
    # float range: the integral reads +inf when it overflows, 0 when it underflows
    with np.errstate(over="ignore"):
        integrand = (potential.abs_radial(nodes) ** 0.75 * nodes) ** 2
        return 4.0 * np.pi * float(np.dot(weights, integrand))


def sobolev_chain_a(l32: float) -> float:
    """(int |V|^{3/2})^{2/3} * 2^{4/3} / (3 pi^{4/3}), the chained bound.

    ``l32`` is the integral itself, as ``frank_l32`` returns it.
    """
    if math.isinf(l32):
        return math.inf
    return l32 ** (2.0 / 3.0) * SOBOLEV_CHAIN_CONSTANT


def lambda_constant(potential: Potential) -> float:
    """Lambda = sup |x|^2 |V(x)| * 2 / (d-2), +inf when the sup diverges."""
    d = potential.dimension
    if d < 3:
        raise ConditionError(f"dimension must be >= 3, got {d}")
    return _row_sup(potential, (abs(potential.amp),)) * 2.0 / (d - 2)


@dataclass(frozen=True)
class ThresholdTable:
    """Dimension-dependent thresholds of the three smallness conditions."""

    d: int
    thm12_b_max: float
    lambda_star: float
    sqrt_b3_max: float


def thresholds(d: int) -> ThresholdTable:
    """Threshold constants at dimension d.

    thm12_b_max = (d-2)/(5d-8); lambda_star solves
    2(2d-3)/(d-2) L + sqrt(2/(d-2)) L^{3/2} = 1; sqrt_b3_max is the root of
    the quadratic-in-sqrt(b3) bound 8 / [ (2/(d-2))^{3/2}
    + sqrt((2/(d-2))^3 + 128) ].
    """
    if d < 3:
        raise ConditionError(f"dimension must be >= 3, got {d}")
    c1 = 2.0 * (2 * d - 3) / (d - 2)
    c2 = math.sqrt(2.0 / (d - 2))
    lambda_star = find_root_increasing(
        lambda lam: c1 * lam + c2 * lam**1.5 - 1.0, 0.0, 1.0
    )
    q = 2.0 / (d - 2)
    sqrt_b3_max = 8.0 / (q**1.5 + math.sqrt(q**3 + 128.0))
    return ThresholdTable(
        d=d,
        thm12_b_max=(d - 2) / (5.0 * d - 8.0),
        lambda_star=lambda_star,
        sqrt_b3_max=sqrt_b3_max,
    )


def b_constants(potential: Potential) -> tuple[float, float, float]:
    """Pointwise-Hardy certificates (b1, b2, b3) for the split conditions.

    b1^2 bounds the negative real part, b2^2 the positive radial derivative
    of r Re V, b3 the imaginary part:

        b1^2 = sup (Re V)_-(x) |x|^2 / ((d-2)/2)^2
        b2^2 = sup [d/dr (r Re V)]_+ |x|^2 / ((d-2)/2)^2
        b3   = sup |Im V(x)| |x|^2 * 2/(d-2)

    A divergent supremum puts +inf in its slot.  d/dr (r Re V) is taken
    pointwise almost everywhere, so b2 omits the term that an upward jump
    J of r Re V at r0 adds to b2^2, J r0 / (d-2): for a square well that is
    v0 r0^2 / (d-2), and its thm13 verdicts at d >= 7, where that term
    decides before b1 does, may be optimistic.
    """
    d = potential.dimension
    cd2 = hardy_constant(d)
    re, s = potential.amp.real, potential.s
    s1 = _row_sup(potential, (-re,))
    s2 = _row_sup(potential, (re * (1 - s), -re * potential.mu, -2.0 * re * potential.gamma))
    s3 = _row_sup(potential, (abs(potential.amp.imag),))
    return math.sqrt(s1 / cd2), math.sqrt(s2 / cd2), s3 * 2.0 / (d - 2)


# ---------------------------------------------------------------------------
# report and verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionReport:
    """All hypothesis constants for one potential, plus theorem verdicts."""

    a: float
    rollnik: float
    frank_l32: float
    sobolev_chain_a: float
    lambda_: float
    b1: float
    b2: float
    b3: float
    verdicts: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("a", "rollnik", "frank_l32", "sobolev_chain_a", "lambda_", "b1", "b2", "b3"):
            if getattr(self, name) < 0:
                raise ConditionError(f"constant {name} must be nonnegative")

    def to_json_dict(self) -> dict:
        return {
            "a": json_float(self.a),
            "a_method": "pointwise-hardy",
            "rollnik": json_float(self.rollnik),
            "frank_l32": json_float(self.frank_l32),
            "sobolev_chain_a": json_float(self.sobolev_chain_a),
            "Λ": json_float(self.lambda_),
            "b1": json_float(self.b1),
            "b2": json_float(self.b2),
            "b3": json_float(self.b3),
            "verdicts": dict(self.verdicts),
        }


def evaluate_theorems(report: ConditionReport, d: int) -> dict:
    """Verdicts {pass, fail, inconclusive} for the four checked statements.

    Pointwise certificates are sufficient-only: a finite certificate above
    its threshold leaves the statement open (inconclusive).  An infinite
    constant fails the checked condition outright.  The subordination
    statement passes when d = 3 and the pointwise a is below 1, and is
    inconclusive otherwise.
    """
    table = thresholds(d)
    verdicts: dict[str, str] = {}

    verdicts["thm11"] = "pass" if d == 3 and report.a < 1.0 else "inconclusive"

    for key, value, bound in (
        ("thm12", report.lambda_, table.thm12_b_max),
        ("thm51", report.lambda_, table.lambda_star),
    ):
        if math.isinf(value):
            verdicts[key] = "fail"
        elif value < bound:
            verdicts[key] = "pass"
        else:
            verdicts[key] = "inconclusive"

    if any(math.isinf(b) for b in (report.b1, report.b2, report.b3)):
        verdicts["thm13"] = "fail"
    else:
        q = 2.0 / (d - 2)
        cond1 = report.b1**2 < 1.0 - 2.0 * report.b3 / (d - 2)
        cond2 = (
            report.b2**2 + 2.0 * report.b3 + 0.25 * math.sqrt(report.b3) * q**1.5
            < 1.0
        )
        verdicts["thm13"] = "pass" if (cond1 and cond2) else "inconclusive"
    return verdicts


def build_report(potential: Potential) -> ConditionReport:
    """Compute every constant for one potential and attach verdicts."""
    d = potential.dimension
    a = subordination_a_pointwise(potential)
    if d == 3:
        rollnik = rollnik_norm(potential)
        frank = frank_l32(potential)
        chain = sobolev_chain_a(frank)
    else:
        rollnik = frank = chain = math.inf
    lam = lambda_constant(potential)
    b1, b2, b3 = b_constants(potential)
    report = ConditionReport(
        a=a,
        rollnik=rollnik,
        frank_l32=frank,
        sobolev_chain_a=chain,
        lambda_=lam,
        b1=b1,
        b2=b2,
        b3=b3,
    )
    return replace(report, verdicts=evaluate_theorems(report, d))
