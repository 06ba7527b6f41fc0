"""Hypothesis constants and threshold verdicts for -Delta + V.

Every smallness condition used by the absence-of-eigenvalue theorems is a
quadratic-form inequality.  Each constant comes from one certificate:

* pointwise Hardy certificates: suprema of weighted pointwise quantities
  (e.g. sup |V| r^2 / ((d-2)/2)^2 for the subordination constant), which
  bound the constants from above but need not be sharp; the suprema
  themselves are found by a sampled scan;
* integral-class norms (d = 3): the Rollnik norm, int |V|^{3/2} and the
  subordination bound it chains to through the Sobolev inequality.

Divergent suprema and integrals are first-class results: they come back as
+inf, because the separating examples (Hardy-type potentials versus Rollnik
or L^{3/2} classes) hinge on divergence.

Verdict semantics: a theorem's verdict is "pass" when its certified
constants satisfy the threshold inequality strictly, "fail" when a needed
constant is +inf, and "inconclusive" otherwise: a finite pointwise
certificate above the threshold is sufficient-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

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
# radial suprema with divergence detection
# ---------------------------------------------------------------------------

_SCAN_LO = 1e-6
_SCAN_HI = 1e6
_SCAN_N = 3000


def _radial_sup(f: Callable[[np.ndarray], np.ndarray]) -> float:
    """sup of a nonnegative radial function by log scan with zoom refinement.

    Returns +inf when the scan diverges: the maximum sits at a boundary of
    the window [1e-6, 1e6] and the values still grow toward it when compared
    a decade in; this is a heuristic adequate for potentials with power-law
    behaviour at 0 and infinity.  The refined value is the largest sampled
    value, so it approaches the supremum from below (no extrapolation past
    sampled points, no Lipschitz margin) and is not a rigorous upper bound:
    pointwise certificates built on it assume the zoom resolves the peak.
    """
    rs = np.geomspace(_SCAN_LO, _SCAN_HI, _SCAN_N)
    vals = np.asarray(f(rs), dtype=float)
    if np.any(vals < -1e-12):
        raise ConditionError("supremum scan expects a nonnegative function")
    top = int(np.argmax(vals))
    decade = max(1, int(_SCAN_N * math.log(10.0) / math.log(_SCAN_HI / _SCAN_LO)))
    if top == 0 and vals[0] > vals[decade] * (1.0 + 1e-9):
        return math.inf
    if top == _SCAN_N - 1 and vals[-1] > vals[-1 - decade] * (1.0 + 1e-9):
        return math.inf

    lo = rs[max(top - 1, 0)]
    hi = rs[min(top + 1, _SCAN_N - 1)]
    best = float(vals[top])
    for _ in range(3):
        rs_z = np.geomspace(lo, hi, 300)
        vals_z = np.asarray(f(rs_z), dtype=float)
        i = int(np.argmax(vals_z))
        best = max(best, float(vals_z[i]))
        lo = rs_z[max(i - 1, 0)]
        hi = rs_z[min(i + 1, 299)]
    return best


def hardy_constant(d: int) -> float:
    """The constant ((d-2)/2)^2 of the Hardy inequality, d >= 3 only."""
    if d < 3:
        raise ConditionError(f"dimension must be >= 3, got {d}")
    return ((d - 2) / 2.0) ** 2


def subordination_a_pointwise(potential: Potential) -> float:
    """Certified subordination constant sup |V(x)| |x|^2 / ((d-2)/2)^2.

    The Hardy inequality turns this supremum into an upper bound for the
    form-subordination constant; +inf when the scan diverges.
    """
    cd2 = hardy_constant(potential.dimension)
    return _radial_sup(lambda r: potential.abs_radial(r) * r**2) / cd2


# ---------------------------------------------------------------------------
# integral-class norms
# ---------------------------------------------------------------------------


def _tail_decays(potential: Potential, power: float) -> bool:
    """Heuristic tail test: does |V(r)| r^power decay toward r = infinity?"""
    t_mid = float(potential.abs_radial(np.array([1e3]))[0]) * 1e3**power
    t_far = float(potential.abs_radial(np.array([1e6]))[0]) * 1e6**power
    if t_far <= 1e-280:
        return True
    return t_far < 0.5 * t_mid


def _dyadic_edges(x: float, levels: int) -> set[float]:
    """x and the points x (1 -+ 2^-j), 1 <= j < levels, grading panels toward x."""
    return {x} | {x * (1.0 + s * 2.0 ** (-j)) for j in range(1, levels) for s in (-1.0, 1.0)}


# truncation radii of the Rollnik and L^{3/2} quadratures, and the number of
# outer Rollnik nodes
_ROLLNIK_R_MAX = 24.0
_ROLLNIK_N_OUTER = 200
_FRANK_R_MAX = 30.0


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
    r_max = _ROLLNIK_R_MAX
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
    """Rollnik norm |V|_R (d = 3), +inf when the class is missed.

    Divergence criteria: |V| ~ r^-2 or worse at the origin, or a tail no
    better than r^-2 (both make the double integral blow up).  Otherwise
    the radial log-kernel reduction is integrated with dyadic panels on
    [0, 24] (about 200 outer nodes, at least 8 per outer panel, so more
    when jumps of V add panels); the square-well values match the closed
    form 2 pi v0 r0^2 to 1e-10.
    """
    if potential.dimension != 3:
        raise ConditionError("the Rollnik norm is defined here for d = 3 only")
    if potential.origin_singularity_order >= 2.0 or not _tail_decays(potential, 2.0):
        return math.inf
    return math.sqrt(_rollnik_radial(potential))


def frank_l32(potential: Potential) -> float:
    """int |V|^{3/2} (d = 3), +inf when |V|^{3/2} is not integrable.

    The L^{3/2} condition compares it with 3^{3/2} / (4 pi^2); no verdict
    does, the report carries the value itself.
    """
    if potential.dimension != 3:
        raise ConditionError("the L^{3/2} condition is evaluated for d = 3 only")
    if potential.origin_singularity_order >= 2.0 or not _tail_decays(potential, 2.0):
        return math.inf
    nodes, weights = _ball_panels(potential, _FRANK_R_MAX, 14)
    return 4.0 * np.pi * float(
        np.dot(weights, potential.abs_radial(nodes) ** 1.5 * nodes**2)
    )


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
    return _radial_sup(lambda r: potential.abs_radial(r) * r**2) * 2.0 / (d - 2)


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

    Divergent scans put +inf in the corresponding slot.
    """
    d = potential.dimension
    cd2 = hardy_constant(d)

    s1 = _radial_sup(lambda r: potential.re_minus_radial(r) * r**2)
    s2 = _radial_sup(lambda r: np.maximum(potential.d_r_rReV(r), 0.0) * r**2)
    s3 = _radial_sup(lambda r: np.abs(potential.im_radial(r)) * r**2)
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
