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

from .numerics import _scale_exponent, panel_gauss
from .potentials import Potential, _scaled_row

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


def _scaled_back(value: float, e: int) -> float:
    """value 2^e, +inf past the float range."""
    try:
        return math.ldexp(value, e)
    except OverflowError:
        return math.inf


def _sup_row(potential: Potential) -> tuple[Potential, int]:
    """The row V~(t) = 2^-j V(2^k t), whose sups are 2^-(j + 2k) times V's, and j + 2k.

    k and j + s k are the _scale_exponent of the length (r0, 1/mu or
    1/sqrt(gamma); none without one) and of |amp|, so V~'s polynomial and
    roots stay in the float range, and an ordinary row is read as it is.
    """
    if potential.r0 < math.inf:
        k = _scale_exponent(potential.r0)
    else:
        k = -_scale_exponent(max(potential.mu, math.sqrt(potential.gamma)))
    j = _scale_exponent(abs(potential.amp)) - int(potential.s * k)
    return _scaled_row(potential, j, k), j + 2 * k


def _row_sup(potential: Potential, coefficients: tuple) -> float:
    """sup over 0 < r < r0 of [p(r)]_+ r^(2-s) exp(-mu r - gamma r^2).

    ``coefficients`` are those of the polynomial p, lowest power first.
    With f(r) = p r^(2-s) exp(-mu r - gamma r^2),
    f' = r^(1-s) exp(-mu r - gamma r^2) (r p' + p (2 - s - mu r - 2 gamma r^2)),
    so the sup is the largest of the limit at 0+, the value at r0-, the
    limit at infinity (no decay only) and f at the real roots of that
    polynomial.  A limit that grows without bound makes the sup +inf.  On the
    row of ``_sup_row`` every other candidate stays in the float range.
    """
    p = np.trim_zeros(np.asarray(coefficients, float), "b")
    if not p.any():
        return 0.0
    mu, gamma, r0, k = potential.mu, potential.gamma, potential.r0, 2.0 - potential.s

    def f(r: float) -> float:
        return max(0.0, float(npoly.polyval(r, p))) * r**k * math.exp(-mu * r - gamma * r * r)

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
    unit, e = _sup_row(potential)
    return _scaled_back(_row_sup(unit, (abs(unit.amp),)) / cd2, e)


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


# truncation radius of the Rollnik and L^{3/2} quadratures in decay lengths,
# and the number of outer Rollnik nodes
_TRUNCATION_LENGTHS = 30.0
_ROLLNIK_N_OUTER = 200


def _truncation_radius(potential: Potential) -> float:
    """r0 when finite, else _TRUNCATION_LENGTHS decay lengths 1/max(mu, sqrt(gamma))."""
    if potential.r0 < math.inf:
        return potential.r0
    return _TRUNCATION_LENGTHS / max(potential.mu, math.sqrt(potential.gamma))


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


def _rollnik_inner_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes t_k and weights w_k t_k K(t_k) on (0, 1), K(t) = log((1+t)/(1-t)).

    8-point Gauss panels graded dyadically toward t = 1, where K has its log
    singularity (edges 1 - 2^-j, j < 34), and toward t = 0, where the r^-s
    head of |V(rt)| sits (edges 2^-j, j < 24): 56 panels, 448 nodes.  The
    rule does not depend on V or r; its moments int t K = 1 and
    int t^3 K = 2/3 come out within 2e-12.
    """
    edges = {0.0, 1.0} | {2.0**-j for j in range(1, 24)} | {1.0 - 2.0**-j for j in range(1, 34)}
    t, w = panel_gauss(sorted(edges), 8)
    # Gauss nodes never reach t = 1, so K stays finite
    return t, w * t * 2.0 * np.arctanh(t)


def _rollnik_radial(potential: Potential) -> float:
    """|V|_R^2 = 16 pi^2 int_0^R |V(r)| r^3 int_0^1 |V(rt)| t K(t) dt dr.

    The angular average of |x-y|^-2 over both spheres gives
    8 pi^2 int int |V(r)||V(p)| r p log((r+p)/|r-p|) dr dp; the log kernel is
    symmetric in (r, p), so the half square p < r carries half of it, and
    p = r t turns the kernel into K(t) = log((1+t)/(1-t)) = 2 artanh t.  One
    fixed inner rule in t (``_rollnik_inner_rule``) then serves every outer
    node.  R = r0 whenever V has a jump, so p < r < R never crosses it and
    the outer panels, graded dyadically toward 0, need no edge there.  Each
    outer panel is one array pass over a (panel nodes x 448) block, so
    memory is O(panel nodes x 448), not O(all nodes x 448).  On the
    gaussian, yukawa and square-well rows the norm is within 5.2e-13 of its
    closed form; a square well reads the inner rule's moment error alone.
    """
    r_max = _truncation_radius(potential)
    outer_edges = [0.0] + [r_max * 2.0 ** (-k) for k in range(16, -1, -1)]
    per_panel = _ROLLNIK_N_OUTER // (len(outer_edges) - 1)
    outer_nodes, outer_weights = panel_gauss(outer_edges, per_panel)
    t, w = _rollnik_inner_rule()
    total = 0.0
    for r, wr in zip(
        outer_nodes.reshape(-1, per_panel), outer_weights.reshape(-1, per_panel)
    ):
        inner = potential.abs_radial(r[:, np.newaxis] * t) @ w
        total += float(np.dot(wr * potential.abs_radial(r) * r**3, inner))
    return 16.0 * np.pi**2 * total


def rollnik_norm(potential: Potential) -> float:
    """Rollnik norm |V|_R (d = 3), +inf when V is not in the class.

    The class is read off the row (``_in_classes``).  Otherwise the radial
    log-kernel reduction on the half square p < r (``_rollnik_radial``) is
    integrated on [0, R], R = r0 when finite and else 30 decay lengths: 187
    outer nodes on 17 panels graded dyadically toward 0, each node with the
    same 448-node inner rule in t = p/r.  R = r0 whenever V jumps, so no
    panel meets a jump, and memory stays one (11 x 448) block per outer
    panel.  The gaussian, yukawa and square-well values match their closed
    forms pi^(3/2) |amp|, 2 sqrt(2) pi g / mu and 2 pi v0 r0^2 to 5.2e-13
    relative.  It runs on the row V~(t) = 2^-j V(2^k t) (``_scaled_row``)
    with 2^(k-1) <= R < 2^k and |amp| of order one: |V|_R = 2^(2k + j) |V~|_R
    by exact scalings, so the norm is finite wherever it fits in a float.
    """
    if potential.dimension != 3:
        raise ConditionError("the Rollnik norm is defined here for d = 3 only")
    if not _in_classes(potential):
        return math.inf
    k = math.frexp(_truncation_radius(potential))[1]
    j = math.frexp(abs(potential.amp))[1] - 1 - math.floor(potential.s * k)
    return _scaled_back(math.sqrt(_rollnik_radial(_scaled_row(potential, j, k))), 2 * k + j)


def frank_l32(potential: Potential) -> float:
    """int |V|^{3/2} (d = 3), +inf when |V|^{3/2} is not integrable.

    The L^{3/2} condition compares it with 3^{3/2} / (4 pi^2); no verdict
    does, the report carries the value itself.
    """
    if potential.dimension != 3:
        raise ConditionError("the L^{3/2} condition is evaluated for d = 3 only")
    if not _in_classes(potential):
        return math.inf
    nodes, weights = _ball_panels(potential, _truncation_radius(potential), 14)
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
    unit, e = _sup_row(potential)
    return _scaled_back(_row_sup(unit, (abs(unit.amp),)) * 2.0 / (d - 2), e)


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
    c1 L + c2 L^{3/2} = 1 with c1 = 2(2d-3)/(d-2) and c2 = sqrt(2/(d-2));
    sqrt_b3_max is the root of the quadratic-in-sqrt(b3) bound
    8 / [ (2/(d-2))^{3/2} + sqrt((2/(d-2))^3 + 128) ].

    With s = L^{-1/2} the lambda_star equation is the depressed cubic
    s^3 - c1 s - c2 = 0.  As c1 > 4 and c2^2 <= 2, 4 c1^3 > 27 c2^2: it has
    three real roots, and the largest, the only positive one, is
    s = 2 sqrt(c1/3) cos(arccos((3 c2 / (2 c1)) sqrt(3/c1)) / 3), so
    lambda_star = 1 / s^2 in closed form.
    """
    if d < 3:
        raise ConditionError(f"dimension must be >= 3, got {d}")
    c1 = 2.0 * (2 * d - 3) / (d - 2)
    c2 = math.sqrt(2.0 / (d - 2))
    s = 2.0 * math.sqrt(c1 / 3.0) * math.cos(
        math.acos(1.5 * c2 / c1 * math.sqrt(3.0 / c1)) / 3.0
    )
    lambda_star = 1.0 / (s * s)
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
    unit, e = _sup_row(potential)
    re, s = unit.amp.real, unit.s
    s1 = _row_sup(unit, (-re,))
    s2 = _row_sup(unit, (re * (1 - s), -re * unit.mu, -2.0 * re * unit.gamma))
    s3 = _row_sup(unit, (abs(unit.amp.imag),))
    half, odd = divmod(e, 2)  # sqrt(sup 2^e / cd2) with half of e outside the root
    b1, b2 = (_scaled_back(math.sqrt(_scaled_back(x / cd2, odd)), half) for x in (s1, s2))
    return b1, b2, _scaled_back(s3 * 2.0 / (d - 2), e)


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
        # both right sides are at most 1, so b >= 1 fails before b^2 can overflow
        cond1 = report.b1 < 1.0 and report.b1**2 < 1.0 - 2.0 * report.b3 / (d - 2)
        cond2 = report.b2 < 1.0 and (
            report.b2**2 + 2.0 * report.b3 + 0.25 * math.sqrt(report.b3) * q**1.5 < 1.0
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
