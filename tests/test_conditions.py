"""Tests for hypothesis constants, thresholds, and theorem verdicts.

Oracles come first: the Rollnik value for the gaussian is pinned by an
independent partial-wave product-quadrature oracle (multipole expansion of
the |x-y|^-2 kernel with nested 1D integrals), written and validated before
the module's dyadic-panel log-kernel integrator.  A scipy adaptive
double-quadrature run of the log-kernel reduction agreed with both to
~1e-6; its value is frozen below as the anchor.
"""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectra_cert.conditions as cond
from spectra_cert.birman_schwinger import BSError, assemble_bs, default_bs_grid
from spectra_cert.conditions import (
    ConditionError,
    ConditionReport,
    SOBOLEV_CHAIN_CONSTANT,
    b_constants,
    build_report,
    evaluate_theorems,
    frank_l32,
    hardy_constant,
    lambda_constant,
    rollnik_norm,
    sobolev_chain_a,
    subordination_a_pointwise,
    thresholds,
)
from spectra_cert.numerics import panel_gauss
from spectra_cert.potentials import Potential, catalog

# Anchor for the gaussian(v0=1) Rollnik norm: adaptive dblquad of the radial
# log-kernel reduction, est. error 5e-11, truncated at r = 12 (e^{-144} tail).
GAUSSIAN_ROLLNIK = 5.568327996829

# the L^{3/2} threshold of the Frank condition, 3^{3/2} / (4 pi^2); no
# verdict reads it, so the library keeps no constant for it
FRANK_THRESHOLD = 3.0**1.5 / (4.0 * math.pi**2)

# (v0, r0) of the square wells checked against closed forms; r0 = 30 and 50
# reach past a truncation radius of 24 that ignored the row
SQUARE_WELLS = [(1.0, 1.0), (0.3, 0.7), (2.0, 1.3), (2.0, 30.0), (0.5, 50.0)]


def variational_a(potential, n=400, ell_max=4):
    """The z = 0 Birman-Schwinger norm on default_bs_grid(n), sectors l <= ell_max.

    It approaches the subordination constant from below under grid
    refinement, so it is an oracle for the certificates above it.
    """
    return assemble_bs(potential, 0.0, default_bs_grid(n), ell_max=ell_max).norm


def rollnik_partial_wave_oracle(abs_profile, r_max, ell_terms=120):
    """|V|_R via the multipole expansion of 1/|x-y|^2, nested 1D quadrature.

    |V|_R^2 = 16 pi^2 sum_l (2l+1)^-1 * 2 int dp F(p) p^{-2l-2}
              int_0^p F(r) r^{2l+2} dr,         F(r) = |V(r)| r^2 / r^2 ... .

    Concretely with F(r) = |V(r)| r^2 the inner integral is computed after
    r = p e^{-u}, which makes the integrand smooth times e^{-(2l+3)u} and
    keeps Gauss panels spectrally accurate at every multipole.  The
    truncated sum is completed by the telescoping tail fit c/(2(2L+3)).
    """
    rho, w_rho = panel_gauss(list(np.geomspace(1e-4 * r_max, r_max, 25)), 10)
    f_rho = abs_profile(rho) * rho**2
    # geometric u-panels resolve e^{-(2l+3)u} at every retained multipole
    u, w_u = panel_gauss([0.0] + list(np.geomspace(2e-3, 12.0, 24)), 8)
    r_inner = rho[:, None] * np.exp(-u[None, :])
    f_inner = abs_profile(r_inner.ravel()).reshape(r_inner.shape)
    terms = []
    for ell in range(ell_terms + 1):
        # p^{2l+3} from the substitution cancels p^{-2l-2} from the kernel,
        # leaving a single factor p; never form the huge powers separately
        inner = np.dot(f_inner * np.exp(-(2 * ell + 3) * u[None, :]), w_u)
        outer = float(np.dot(w_rho, f_rho * rho * inner))
        terms.append(2.0 * 16.0 * math.pi**2 / (2 * ell + 1) * outer)
    big_l = len(terms) - 1
    c_fit = float(
        np.mean(
            [terms[l] * (2 * l + 1) * (2 * l + 3) for l in range(big_l - 3, big_l + 1)]
        )
    )
    return math.sqrt(sum(terms) + c_fit / (2.0 * (2 * big_l + 3)))


class TestHardyConstant:
    def test_values(self):
        assert hardy_constant(3) == 0.25
        assert hardy_constant(4) == 1.0
        assert hardy_constant(6) == 4.0

    def test_low_dimension_rejected(self):
        with pytest.raises(ConditionError):
            hardy_constant(2)


class TestSubordinationPointwise:
    def test_hardy_is_exact(self):
        assert subordination_a_pointwise(catalog("hardy", a=0.5)) == 0.5

    def test_coulomb_diverges(self):
        assert math.isinf(subordination_a_pointwise(catalog("coulomb_repulsive", c=7.0)))

    def test_gaussian_maximum(self):
        value = subordination_a_pointwise(catalog("gaussian", v0=1.0))
        assert value == pytest.approx(4.0 / math.e, rel=1e-9)

    def test_square_well_edge_value_is_exact(self):
        # v0 r^2 rises to v0 r0^2 at the edge, a sup that is not attained
        assert subordination_a_pointwise(catalog("square_well", v0=2.0, r0=1.5)) == 18.0

    def test_yukawa_peak_far_out(self):
        # g r e^{-mu r} peaks at r = 1/mu = 1e7
        value = subordination_a_pointwise(catalog("yukawa", g=1.0, mu=1e-7))
        assert value == pytest.approx(4.0 / (math.e * 1e-7), rel=1e-14)

    def test_wide_shallow_square_well(self):
        # the edge r0 = 1e7 lies past any fixed sampling window
        well = catalog("square_well", v0=1e-14, r0=1e7)
        assert subordination_a_pointwise(well) == pytest.approx(4.0, rel=1e-14)
        assert rollnik_norm(well) == pytest.approx(2.0 * math.pi * 1e-14 * 1e14, rel=1e-10)

    def test_zero_potential(self):
        assert subordination_a_pointwise(catalog("gaussian", v0=0.0)) == 0.0

    @given(st.floats(min_value=0.01, max_value=10.0, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_hardy_roundtrip(self, a):
        # |V| r^2 is constant for the borderline profile, so its sup and the
        # division by the Hardy constant invert the catalog scaling exactly
        assert subordination_a_pointwise(catalog("hardy", a=a)) == pytest.approx(
            a, rel=1e-12
        )


class TestSubordinationVariational:
    def test_hardy_refinement_from_below(self):
        from spectra_cert.numerics import aitken_extrapolate

        values = [
            variational_a(catalog("hardy", a=0.5), n=n, ell_max=0) for n in (100, 200, 400)
        ]
        assert values[0] < values[1] < values[2] <= 0.5
        extrapolated = aitken_extrapolate(values)
        assert abs(extrapolated - 0.5) / 0.5 <= 0.05

    def test_s_wave_attains_the_max(self):
        bsm = assemble_bs(
            catalog("hardy", a=0.5), 0.0, default_bs_grid(n=200), ell_max=2
        )
        assert bsm.norm == bsm.per_ell_norms[0]
        assert all(
            later < earlier
            for earlier, later in zip(bsm.per_ell_norms, bsm.per_ell_norms[1:])
        )

    def test_zero_potential(self):
        assert variational_a(catalog("gaussian", v0=0.0)) == 0.0

    def test_gaussian_below_pointwise(self):
        g = catalog("gaussian", v0=1.0)
        assert variational_a(g) <= subordination_a_pointwise(g)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(BSError):
            variational_a(catalog("hardy", a=0.5, dimension=4))


class TestRollnik:
    def test_gaussian_against_partial_wave_oracle(self):
        oracle = rollnik_partial_wave_oracle(
            catalog("gaussian", v0=1.0).abs_radial, r_max=12.0
        )
        assert oracle == pytest.approx(GAUSSIAN_ROLLNIK, rel=2e-4)
        value = rollnik_norm(catalog("gaussian", v0=1.0))
        assert value == pytest.approx(oracle, rel=2e-4)
        assert value == pytest.approx(GAUSSIAN_ROLLNIK, rel=1e-5)

    def test_yukawa_against_partial_wave_oracle(self):
        y = catalog("yukawa", g=1.0, mu=2.0)
        oracle = rollnik_partial_wave_oracle(y.abs_radial, r_max=24.0)
        assert rollnik_norm(y) == pytest.approx(oracle, rel=5e-4)

    @pytest.mark.parametrize("mu", [2.0, 0.05, 1e-4, 1e300, 1e-300])
    def test_yukawa_closed_form(self, mu):
        # with u = r + p the log kernel integrates to u, so |V|_R^2 = 8 pi^2 g^2 / mu^2;
        # the truncation radius follows 1/mu, so a long tail is not cut short.
        # At mu = 1e300 and 1e-300 |V|_R^2 leaves the float range where |V|_R
        # does not: squared first, these read 0.0 and +inf
        value = rollnik_norm(catalog("yukawa", g=1.3, mu=mu))
        want = 2.0 * math.sqrt(2.0) * math.pi * 1.3 / mu
        assert value == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_overflow_reads_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isinf(rollnik_norm(catalog("square_well", v0=1.0, r0=1e200)))

    def test_hardy_diverges(self):
        assert math.isinf(rollnik_norm(catalog("hardy", a=0.5)))

    def test_imaginary_hardy_diverges(self):
        assert math.isinf(rollnik_norm(catalog("imaginary_hardy", beta=0.2)))

    def test_coulomb_tail_diverges(self):
        assert math.isinf(rollnik_norm(catalog("coulomb_repulsive", c=1.0)))

    def test_zero_potential(self):
        assert rollnik_norm(catalog("gaussian", v0=0.0)) == 0.0

    @pytest.mark.parametrize("v0, r0", SQUARE_WELLS)
    def test_square_well_closed_form(self, v0, r0):
        # the ball of radius R has int int |x-y|^-2 = 4 pi^2 R^4
        value = rollnik_norm(catalog("square_well", v0=v0, r0=r0))
        assert value == pytest.approx(2.0 * math.pi * v0 * r0**2, rel=1e-10)

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ConditionError):
            rollnik_norm(catalog("hardy", a=0.5, dimension=4))

    def test_inner_rule_moments(self):
        # int_0^1 t K(t) dt = 1 and int_0^1 t^3 K(t) dt = 2/3, K(t) = 2 artanh t
        t, w = cond._rollnik_inner_rule()
        assert abs(w.sum() - 1.0) <= 2e-12
        assert abs(np.dot(w, t * t) - 2.0 / 3.0) <= 2e-12

    @pytest.mark.parametrize(
        "name, params, want",
        [
            ("gaussian", {"v0": 1.0}, math.pi**1.5),
            ("gaussian", {"v0": 2.3, "c_im": 1.7}, math.pi**1.5 * abs(complex(2.3, 1.7))),
            ("yukawa", {"g": 1.3, "mu": 0.7}, 2.0 * math.sqrt(2.0) * math.pi * 1.3 / 0.7),
            ("square_well", {"v0": 2.0, "r0": 0.5}, 2.0 * math.pi * 2.0 * 0.5**2),
            ("square_well", {"v0": 2.0, "r0": 1.3}, 2.0 * math.pi * 2.0 * 1.3**2),
            # r0 = 23.5 and 30, below and at 30, the R of a unit decay length; R = r0 here
            ("square_well", {"v0": 2.0, "r0": 23.5}, 2.0 * math.pi * 2.0 * 23.5**2),
            ("square_well", {"v0": 2.0, "r0": 30.0}, 2.0 * math.pi * 2.0 * 30.0**2),
            # R = 30 / mu = 600
            ("yukawa", {"g": 1.0, "mu": 0.05}, 2.0 * math.sqrt(2.0) * math.pi / 0.05),
        ],
        ids=[
            "gaussian", "gaussian-complex", "yukawa", "well-0.5", "well-1.3", "well-23.5",
            "well-30", "yukawa-long",
        ],
    )
    def test_rows_match_closed_forms(self, name, params, want):
        assert rollnik_norm(catalog(name, **params)) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "name, params",
        [
            ("gaussian", {"v0": 1.0}),
            ("yukawa", {"g": 1.0, "mu": 2.0}),
            ("square_well", {"v0": 1.0, "r0": 1.0}),
        ],
    )
    def test_evaluates_fewer_than_100k_points(self, name, params, monkeypatch):
        # one fixed inner rule per outer node: 187 x (448 + 1) = 83 963 points
        evaluated = []
        abs_radial = Potential.abs_radial

        def counting(self, r):
            evaluated.append(np.size(r))
            return abs_radial(self, r)

        monkeypatch.setattr(Potential, "abs_radial", counting)
        rollnik_norm(catalog(name, **params))
        assert 0 < sum(evaluated) < 100_000

    def test_memory_stays_per_outer_panel(self):
        # one (panel nodes x inner nodes) block at a time: 0.13 MiB measured,
        # against 1.36 MiB for one (187 x 448) block over every outer node
        well = catalog("square_well", v0=3.0, r0=1.3)
        rollnik_norm(well)
        tracemalloc.start()
        try:
            rollnik_norm(well)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 2**20


class TestFrank:
    def test_gaussian_closed_form(self):
        value = frank_l32(catalog("gaussian", v0=1.0))
        assert value == pytest.approx((2.0 * math.pi / 3.0) ** 1.5, rel=1e-10)
        assert value > FRANK_THRESHOLD

    @pytest.mark.parametrize("v0, r0", SQUARE_WELLS)
    def test_square_well_closed_form(self, v0, r0):
        value = frank_l32(catalog("square_well", v0=v0, r0=r0))
        assert value == pytest.approx(4.0 * math.pi / 3.0 * v0**1.5 * r0**3, rel=1e-10)

    @pytest.mark.parametrize("mu", [2.0, 0.05, 1e-4])
    def test_yukawa_closed_form(self, mu):
        # 4 pi g^{3/2} int r^{1/2} e^{-3 mu r / 2} dr = 4 pi g^{3/2} Gamma(3/2) (3 mu / 2)^{-3/2}
        value = frank_l32(catalog("yukawa", g=1.3, mu=mu))
        expected = 4.0 * math.pi * 1.3**1.5 * math.gamma(1.5) / (1.5 * mu) ** 1.5
        assert value == pytest.approx(expected, rel=1e-10)

    def test_small_gaussian_passes(self):
        assert frank_l32(catalog("gaussian", v0=0.05)) < FRANK_THRESHOLD

    def test_hardy_diverges(self):
        assert math.isinf(frank_l32(catalog("hardy", a=0.25)))

    def test_coulomb_diverges(self):
        assert math.isinf(frank_l32(catalog("coulomb_repulsive", c=1.0)))

    def test_zero_potential(self):
        assert frank_l32(catalog("gaussian", v0=0.0)) == 0.0

    def test_threshold_constant(self):
        assert FRANK_THRESHOLD == pytest.approx(0.13162007846, rel=1e-9)


class TestSobolevChain:
    def test_zero(self):
        assert sobolev_chain_a(frank_l32(catalog("gaussian", v0=0.0))) == 0.0

    def test_threshold_composition(self):
        # a potential sitting exactly at the L^{3/2} threshold would chain to
        # this constant; compose the two module constants directly
        composed = FRANK_THRESHOLD ** (2.0 / 3.0) * SOBOLEV_CHAIN_CONSTANT
        v0 = (FRANK_THRESHOLD / (2.0 * math.pi / 3.0) ** 1.5) ** (2.0 / 3.0)
        value = sobolev_chain_a(frank_l32(catalog("gaussian", v0=v0)))
        assert value == pytest.approx(composed, rel=1e-6)

    def test_chain_constant(self):
        assert SOBOLEV_CHAIN_CONSTANT == pytest.approx(0.18255, rel=1e-4)

    def test_gaussian_above_variational(self):
        g = catalog("gaussian", v0=1.0)
        assert sobolev_chain_a(frank_l32(g)) >= variational_a(g)

    def test_hardy_inf(self):
        assert math.isinf(sobolev_chain_a(frank_l32(catalog("hardy", a=0.3))))


class TestLambdaConstant:
    def test_imaginary_hardy(self):
        assert lambda_constant(catalog("imaginary_hardy", beta=0.3)) == pytest.approx(
            0.6, rel=1e-12
        )

    def test_hardy(self):
        assert lambda_constant(catalog("hardy", a=0.5)) == pytest.approx(
            0.25, rel=1e-12
        )

    def test_zero(self):
        assert lambda_constant(catalog("gaussian", v0=0.0)) == 0.0

    def test_coulomb_diverges(self):
        assert math.isinf(lambda_constant(catalog("coulomb_repulsive", c=2.0)))

    def test_exact_identity_with_pointwise_a(self):
        # both constants are the same supremum scaled by powers of two in
        # d = 3, so the identity a_pointwise = Lambda * 2/(d-2) is bitwise
        for potential in (
            catalog("gaussian", v0=1.3, c_im=0.4),
            catalog("square_well", v0=2.0, r0=1.5),
            catalog("yukawa", g=1.1, mu=0.7),
            catalog("imaginary_hardy", beta=0.11),
        ):
            assert subordination_a_pointwise(potential) == lambda_constant(
                potential
            ) * 2.0 / (3 - 2)


class TestThresholds:
    def test_d3_values(self):
        table = thresholds(3)
        assert table.thm12_b_max == 1.0 / 7.0
        assert abs(table.lambda_star - 0.1525) <= 5e-4
        closed = 8.0 / (2.0 * math.sqrt(2.0) + math.sqrt(136.0))
        assert table.sqrt_b3_max == pytest.approx(closed, rel=1e-12)
        assert abs(table.sqrt_b3_max - 0.55209) <= 1e-4
        assert table.sqrt_b3_max**2 == pytest.approx(0.30480, abs=1e-4)

    @pytest.mark.parametrize(
        "d", [3, 4, 6, 7, 16, pytest.param(10**6, id="1e6"), pytest.param(10**150, id="1e150")]
    )
    def test_lambda_star_solves_its_equation(self, d):
        # the closed-form root of the cubic substitutes back to a few ulps
        lam = thresholds(d).lambda_star
        c1 = 2.0 * (2 * d - 3) / (d - 2)
        c2 = math.sqrt(2.0 / (d - 2))
        assert abs(c1 * lam + c2 * lam**1.5 - 1.0) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("d", range(3, 11))
    def test_lambda_star_below_quarter(self, d):
        table = thresholds(d)
        assert table.lambda_star < (d - 2) / 4.0

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_sqrt_b3_solves_the_boundary_equation(self, d):
        # at b1 = b2 = 0 the second split condition becomes an equality
        # exactly at b3 = sqrt_b3_max^2
        table = thresholds(d)
        b3 = table.sqrt_b3_max**2
        q = 2.0 / (d - 2)
        lhs = 2.0 * b3 + 0.25 * math.sqrt(b3) * q**1.5
        assert lhs == pytest.approx(1.0, abs=1e-10)

    def test_low_dimension_rejected(self):
        with pytest.raises(ConditionError):
            thresholds(2)


class TestBConstants:
    def test_hardy(self):
        b1, b2, b3 = b_constants(catalog("hardy", a=0.5))
        assert b1 == pytest.approx(math.sqrt(0.5), rel=1e-9)
        assert b2 == pytest.approx(math.sqrt(0.5), rel=1e-9)
        assert b3 == 0.0

    def test_coulomb_all_zero(self):
        assert b_constants(catalog("coulomb_repulsive", c=3.0)) == (0.0, 0.0, 0.0)

    def test_imaginary_hardy(self):
        b1, b2, b3 = b_constants(catalog("imaginary_hardy", beta=0.15))
        assert (b1, b2) == (0.0, 0.0)
        assert b3 == pytest.approx(0.3, rel=1e-12)

    def test_gaussian_b2_closed_form(self):
        # maximize (2r^2-1) e^{-r^2} r^2 / 0.25: stationary at r^2=(5+sqrt17)/4
        r2 = (5.0 + math.sqrt(17.0)) / 4.0
        expected = math.sqrt((2.0 * r2**2 - r2) * math.exp(-r2) * 4.0)
        _, b2, _ = b_constants(catalog("gaussian", v0=1.0))
        assert b2 == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_yukawa_closed_form(self, d):
        # g r e^{-mu r} peaks at 1/mu, and [d/dr (r Re V)]_+ r^2 = g mu r^2 e^{-mu r} at 2/mu
        g, mu, cd2 = 1.1, 0.3, ((d - 2) / 2.0) ** 2
        b1, b2, b3 = b_constants(catalog("yukawa", dimension=d, g=g, mu=mu))
        assert b1 == pytest.approx(math.sqrt(g / (math.e * mu) / cd2), rel=1e-14)
        assert b2 == pytest.approx(math.sqrt(4.0 * g / (math.e**2 * mu) / cd2), rel=1e-14)
        assert b3 == 0.0

    def test_hardy_b1_diverges_nowhere_but_rollnik_does(self):
        # hardy potentials have finite b-constants despite infinite rollnik
        b1, b2, b3 = b_constants(catalog("hardy", a=0.3))
        assert all(math.isfinite(x) for x in (b1, b2, b3))


class TestScaling:
    @pytest.mark.parametrize("t", [0.5, 2.0, 3.7])
    def test_linear_constants(self, t):
        base = catalog("gaussian", v0=1.0, c_im=0.5)
        scaled = catalog("gaussian", v0=t, c_im=0.5 * t)
        assert subordination_a_pointwise(scaled) == pytest.approx(
            t * subordination_a_pointwise(base), rel=1e-10
        )
        assert lambda_constant(scaled) == pytest.approx(
            t * lambda_constant(base), rel=1e-10
        )
        b_base = b_constants(base)
        b_scaled = b_constants(scaled)
        assert b_scaled[0] == pytest.approx(math.sqrt(t) * b_base[0], rel=1e-9)
        assert b_scaled[1] == pytest.approx(math.sqrt(t) * b_base[1], rel=1e-9)
        assert b_scaled[2] == pytest.approx(t * b_base[2], rel=1e-10)

    def test_rollnik_scales_linearly(self):
        base = rollnik_norm(catalog("gaussian", v0=1.0))
        assert rollnik_norm(catalog("gaussian", v0=2.5)) == pytest.approx(
            2.5 * base, rel=1e-9
        )

    def test_frank_scales_three_halves(self):
        base = frank_l32(catalog("gaussian", v0=1.0))
        scaled = frank_l32(catalog("gaussian", v0=2.0))
        assert scaled == pytest.approx(2.0**1.5 * base, rel=1e-9)


class TestSupsAtTheFloatExtremes:
    """The sups are read on the unit row 2^-j V(2^k t) and scaled back, so
    rows at the ends of the float range meet their closed forms."""

    @staticmethod
    def constants(potential):
        return (
            subordination_a_pointwise(potential),
            lambda_constant(potential),
            *b_constants(potential),
        )

    def test_gaussian_scales_exactly(self):
        # at v0 = 1e308 the critical-point polynomial left the float range
        base = self.constants(catalog("gaussian", v0=1.0))
        want = (1e308 * base[0], 1e308 * base[1], 1e154 * base[2], 1e154 * base[3], 0.0)
        assert self.constants(catalog("gaussian", v0=1e308)) == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("v0, r0", [(1e308, 1e-200), (1e-300, 1e200), (1e300, 1e-150)])
    def test_square_well_closed_forms(self, v0, r0):
        # sup |V| r^2 = v0 r0^2: a = 4 v0 r0^2, Lambda = 2 v0 r0^2, b1 = 2 sqrt(v0) r0
        sup = v0 * r0 * r0
        want = (4.0 * sup, 2.0 * sup, 2.0 * math.sqrt(v0) * r0, 0.0, 0.0)
        assert self.constants(catalog("square_well", v0=v0, r0=r0)) == pytest.approx(
            want, rel=1e-15, abs=0.0
        )

    @pytest.mark.parametrize("g, mu", [(1e300, 1e10), (1.0, 1e160), (1e10, 1e300), (1e-300, 1e-300)])
    def test_yukawa_closed_forms(self, g, mu):
        # sup g r e^(-mu r) = g / (e mu), sup g mu r^2 e^(-mu r) = 4 g / (e^2 mu)
        ratio = g / mu
        want = (
            4.0 / math.e * ratio,
            2.0 / math.e * ratio,
            2.0 * math.sqrt(ratio / math.e),
            4.0 / math.e * math.sqrt(ratio),
            0.0,
        )
        assert self.constants(catalog("yukawa", g=g, mu=mu)) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_b_whose_square_overflows_gets_a_verdict(self):
        # b1 = 2e250 is finite where b1^2 is not
        report = build_report(catalog("square_well", v0=1e300, r0=1e100))
        assert report.b1 == pytest.approx(2e250, rel=1e-15)
        assert report.verdicts["thm13"] == "inconclusive"
        report = ConditionReport(
            a=0.1, rollnik=1.0, frank_l32=1.0, sobolev_chain_a=1.0, lambda_=0.1,
            b1=0.0, b2=1e200, b3=0.0,
        )
        assert evaluate_theorems(report, 3)["thm13"] == "inconclusive"


class TestOrderingChain:
    def test_gaussian(self):
        g = catalog("gaussian", v0=1.0)
        a_var = variational_a(g)
        assert a_var <= rollnik_norm(g) / (4.0 * math.pi) + 1e-9
        assert a_var <= subordination_a_pointwise(g) + 1e-12


class TestReportAndVerdicts:
    def test_hardy_report(self):
        report = build_report(catalog("hardy", a=0.5))
        payload = report.to_json_dict()
        assert list(payload.keys()) == [
            "a",
            "a_method",
            "rollnik",
            "frank_l32",
            "sobolev_chain_a",
            "Λ",
            "b1",
            "b2",
            "b3",
            "verdicts",
        ]
        assert payload["a"] == 0.5
        assert payload["rollnik"] == "inf"
        assert payload["frank_l32"] == "inf"
        assert payload["Λ"] == 0.25
        assert payload["verdicts"]["thm11"] == "pass"
        assert payload["verdicts"]["thm13"] == "pass"
        json.dumps(payload, sort_keys=True)

    def test_coulomb_report(self):
        report = build_report(catalog("coulomb_repulsive", c=7.0))
        verdicts = report.verdicts
        assert verdicts["thm11"] == "inconclusive"
        assert verdicts["thm12"] == "fail"
        assert verdicts["thm51"] == "fail"
        assert verdicts["thm13"] == "pass"

    def test_imaginary_hardy_thm13_pass(self):
        report = build_report(catalog("imaginary_hardy", beta=0.1))
        assert report.b3 == pytest.approx(0.2, rel=1e-12)
        assert report.verdicts["thm13"] == "pass"

    def test_b3_above_boundary_is_inconclusive(self):
        table = thresholds(3)
        report = ConditionReport(
            a=0.1,
            rollnik=1.0,
            frank_l32=1.0,
            sobolev_chain_a=1.0,
            lambda_=0.1,
            b1=0.0,
            b2=0.0,
            b3=table.sqrt_b3_max**2 + 1e-3,
        )
        assert evaluate_theorems(report, 3)["thm13"] == "inconclusive"

    @pytest.mark.parametrize("a", [1.005, 1.01])
    def test_supercritical_hardy_variational_does_not_pass(self, a):
        # the variational value reads 0.9898 and 0.9948 here, below 1 from
        # below, so only the pointwise certificate may decide a pass
        assert variational_a(catalog("hardy", a=a)) < 1.0
        report = build_report(catalog("hardy", a=a))
        assert report.a >= 1.0
        assert report.verdicts["thm11"] != "pass"

    def test_pointwise_a_above_one_is_inconclusive(self):
        report = ConditionReport(
            a=1.2,
            rollnik=1.0,
            frank_l32=1.0,
            sobolev_chain_a=1.0,
            lambda_=0.1,
            b1=0.0,
            b2=0.0,
            b3=0.0,
        )
        assert evaluate_theorems(report, 3)["thm11"] == "inconclusive"

    def test_wrong_dimension_thm11_inconclusive(self):
        report = ConditionReport(
            a=0.3,
            rollnik=1.0,
            frank_l32=1.0,
            sobolev_chain_a=1.0,
            lambda_=0.05,
            b1=0.0,
            b2=0.0,
            b3=0.0,
        )
        assert evaluate_theorems(report, 5)["thm11"] == "inconclusive"

    def test_negative_constant_rejected(self):
        with pytest.raises(ConditionError):
            ConditionReport(
                a=-1.0,
                rollnik=0.0,
                frank_l32=0.0,
                sobolev_chain_a=0.0,
                lambda_=0.0,
                b1=0.0,
                b2=0.0,
                b3=0.0,
            )

    # rows at the ends of the float range: sup |V| r^2 = v0 r0^2 overflows
    # for the first, int |V|^(3/2) overflows for the second and underflows
    # for the third
    EXTREME_ROWS = {
        "square_well-r0=1e200": (
            ("square_well", {"v0": 1.0, "r0": 1e200}),
            # sup |V| r^2 = 1e400 leaves the float range, its root b1 does not
            {"a": "inf", "Λ": "inf", "b1": 2e200, "frank_l32": "inf", "sobolev_chain_a": "inf"},
        ),
        "yukawa-mu=1e-300": (
            ("yukawa", {"g": 1.0, "mu": 1e-300}),
            {"frank_l32": "inf", "sobolev_chain_a": "inf"},
        ),
        "yukawa-mu=1e300": (
            ("yukawa", {"g": 1.0, "mu": 1e300}),
            {"frank_l32": 0.0, "sobolev_chain_a": 0.0},
        ),
    }

    @pytest.mark.parametrize("case", list(EXTREME_ROWS))
    def test_extreme_rows_report_no_nan(self, case):
        (name, params), want = self.EXTREME_ROWS[case]
        payload = build_report(catalog(name, **params)).to_json_dict()
        assert "nan" not in json.dumps(payload)
        assert {key: payload[key] for key in want} == want

    def test_d3_report_integrates_l32_once(self, monkeypatch):
        calls = []

        def counted(potential):
            calls.append(potential)
            return frank_l32(potential)

        monkeypatch.setattr(cond, "frank_l32", counted)
        report = build_report(catalog("gaussian", v0=1.0))
        assert len(calls) == 1
        assert report.sobolev_chain_a == sobolev_chain_a(report.frank_l32)

    def test_pointwise_dominates_variational_when_both_computed(self):
        g = catalog("gaussian", v0=1.0)
        assert subordination_a_pointwise(g) >= variational_a(g) - 1e-9
