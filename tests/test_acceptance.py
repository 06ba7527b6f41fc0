"""End-to-end acceptance gate for the certification toolkit.

Ten checks, each tied to a quantitative oracle that is independent of the
code under test: closed-form constants, transcendental matching equations,
exact rational thresholds, and analytically known convergence rates.  Every
tolerance below is pinned; the runtime ceilings keep the whole gate
desktop-friendly.
"""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from spectra_cert.birman_schwinger import (
    _kappa,
    assemble_bs,
    bs_principle_matrix_check,
    default_bs_grid,
    hs_norm,
    kappa_scaling,
    log_uniform_grid,
    m_eps_hs_check,
    pointwise_bound_check,
)
from spectra_cert.conditions import thresholds
from spectra_cert.multipliers import TestFunction as Probe
from spectra_cert.multipliers import (
    MultiplierTriple,
    NearExtremalHardyProfile,
    hardy_check,
    identity_residual,
    multiplier_catalog,
    residual_refinement_order,
)
from spectra_cert.numerics import aitken_extrapolate, fit_loglog_slope
from spectra_cert.potentials import _centred_difference_tensor, b_tau, catalog, magnetic_catalog
from spectra_cert.spectral import discretize_radial, singular_sequence_decay, spectrum


class Budget:
    """Wall-clock ceiling; generous multiples of measured runtimes."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            assert time.perf_counter() - self.start < self.seconds


def test_01_green_kernel_pointwise_domination():
    # |G_z(s)| <= G_0(s) for every z off the open positive axis, with no
    # tolerance: the principal square root keeps Re sqrt(-z) >= 0
    rng = np.random.default_rng(11)
    with Budget(1.0):
        zs = []
        zs += list(-rng.uniform(1e-8, 1e4, 250))                     # negative axis
        zs += list(rng.normal(0, 30, 250) + 1j * rng.uniform(1e-12, 100, 250))
        zs += list(rng.normal(0, 30, 250) - 1j * rng.uniform(1e-12, 100, 250))
        zs += list(1j * rng.uniform(1e-9, 1e3, 125))                 # imaginary axis
        zs += list(rng.uniform(1e-3, 1e3, 125) + 1j * 1e-13)         # hugging the cut
        assert len(zs) == 1000
        for z in zs:
            assert _kappa(z).real >= 0.0
            s = rng.uniform(1e-9, 100.0, 32)
            s[0] = 100.0
            assert pointwise_bound_check(z, s)


class Test02BSNormDomination:
    # the inverse-square potential with subordination constant a = 1/2:
    # every resolvent point is dominated by the z = 0 norm, and the z = 0
    # norm itself converges to a = 1/2 under grid refinement
    def test_norms_dominated_and_limit_recovered(self):
        hardy = catalog("hardy", a=0.5)
        with Budget(60.0):
            # the l = 0 sector carries the sup for an inverse-square kernel
            norms = [
                assemble_bs(hardy, 0.0, default_bs_grid(n), ell_max=0).norm
                for n in (200, 400, 800)
            ]
            limit = aitken_extrapolate(norms)
            assert abs(limit - 0.5) <= 0.05 * 0.5

            grid = default_bs_grid(256)
            base = assemble_bs(hardy, 0.0, grid, ell_max=4).norm
            for z in (-10.0, -1.0, -0.1, 1j, -1j, -1 + 1j, -1 - 1j):
                norm_z = assemble_bs(hardy, z, grid, ell_max=4).norm
                assert norm_z <= 0.5 * 1.02
                assert norm_z <= base * 1.02


class Test03HSRollnikAgreement:
    # two routes to the Hilbert-Schmidt norm of the z = 0 kernel: summed
    # partial-wave Frobenius norms against the Rollnik double integral
    def test_routes_agree_and_dominate_operator_norm(self):
        gauss = catalog("gaussian", v0=1.0)
        with Budget(60.0):
            res = hs_norm(gauss)
            assert not res.diverged
            assert res.rel_gap <= 1e-3
            sigma_max = assemble_bs(
                gauss, 0.0, log_uniform_grid(0.02, 16.0, 1600), ell_max=8
            ).norm
            assert sigma_max <= res.matrix_route


class Test04ThresholdConstants:
    def test_d3_table(self):
        with Budget(1.0):
            table = thresholds(3)
        # (d-2)/(5d-8) at d = 3 is the rational 1/7, bit-for-bit
        assert table.thm12_b_max == float(Fraction(1, 7))
        assert abs(table.lambda_star - 0.1525) <= 0.0005
        assert abs(table.sqrt_b3_max - 0.55209) <= 1e-4

    def test_lambda_star_substitutes_back(self):
        lam = thresholds(3).lambda_star
        # the closed-form root must satisfy 6 L + sqrt(2) L^(3/2) = 1
        lhs = 6.0 * lam + math.sqrt(2.0) * lam**1.5
        assert abs(lhs - 1.0) <= 1e-10

    def test_sqrt_b3_solves_its_quadratic(self):
        x = thresholds(3).sqrt_b3_max
        b = 2.0**1.5
        # closed form 8 / (B + sqrt(B^2 + 128)) rationalizes to this quadratic
        assert abs(128.0 * x**2 + 16.0 * b * x - 64.0) <= 1e-10


class Test05MultiplierIdentities:
    def test_twenty_combinations_settle_below_tolerance(self):
        bump = Probe("radial-gaussian-bump", 2.5)
        chirped = Probe("radial-gaussian-bump", 2.5, chirp=0.7)
        ell1 = Probe("ell1-harmonic", 3.0, chirp=0.4)
        triple = MultiplierTriple.canonical_triple()
        g_abs = multiplier_catalog("abs")
        g_sq = multiplier_catalog("square")
        g_const = multiplier_catalog("constant")
        g_win = multiplier_catalog("windowed-square", width=6.0)
        with Budget(120.0):
            residuals = []
            for lam in (1.0, 1.0 + 1.0j, 0.5 + 2.0j):
                # all three spectral points have positive real part, so the
                # gauge-shifted identity is admissible alongside the rest
                residuals += [
                    identity_residual("id1", chirped, lam, g_abs),
                    identity_residual("id2", chirped, lam, g_abs),
                    identity_residual("id3", chirped, lam, g_sq),
                    identity_residual("id4", chirped, lam),
                ]
            residuals += [
                identity_residual("id1", bump, 1.0 + 1.0j, triple.g1),
                identity_residual("id2", bump, 1.0 + 1.0j, triple.g2),
                identity_residual("id3", bump, 1.0 + 1.0j, triple.g3),
                identity_residual("id1", ell1, 1.0, g_const),
                identity_residual("id2", ell1, 1.0, g_sq),
                identity_residual("id3", ell1, 1.0, g_win),
                identity_residual("id4", ell1, 0.5 + 2.0j),
                identity_residual("id1", bump, 1.0, g_win),
            ]
            assert len(residuals) == 20
            assert max(residuals) <= 1e-6

    def test_refinement_order_is_at_least_second(self):
        chirped = Probe("radial-gaussian-bump", 2.5, chirp=0.7)
        with Budget(120.0):
            order = residual_refinement_order(
                "id1", chirped, 1.0 + 1.0j, multiplier_catalog("abs")
            )
            assert order >= 1.9
            assert residual_refinement_order("id4", chirped, 1.0 + 1.0j) >= 1.9


class Test06HardySharpness:
    def test_near_extremal_family(self):
        with Budget(10.0):
            ratios = hardy_check(NearExtremalHardyProfile(eps=0.05))
            # 4/(1 + 2 eps) at eps = 0.05 sits above ninety percent of the
            # sharp constant 4/(d-2)^2 = 4
            assert ratios.hardy_ratio >= 0.90 * ratios.hardy_bound
            for eps in (0.05, 0.1, 0.2, 0.3, 0.45):
                r = hardy_check(NearExtremalHardyProfile(eps=eps))
                assert r.weighted_ratio <= r.weighted_bound * (1 + 1e-9)
                assert r.hardy_ratio <= r.hardy_bound * (1 + 1e-9)


class Test07SpectralAbsenceAndEmergence:
    def test_subcritical_inverse_square_has_no_outliers(self):
        hardy = catalog("hardy", a=0.5)
        with Budget(120.0):
            for ell in (0, 1, 2):
                for n in (64, 128, 256):
                    rep = spectrum(discretize_radial(hardy, ell, 40.0, n))
                    assert rep.outlier_indices == ()

    def test_square_well_bound_state_flips_at_quarter_pi_squared(self):
        v_crit = math.pi**2 / 4.0
        with Budget(120.0):
            lows = {}
            for factor in (0.95, 1.05):
                sw = catalog("square_well", v0=factor * v_crit, r0=1.0)
                op = discretize_radial(sw, 0, 80.0, 1024)
                lows[factor] = float(np.linalg.eigvalsh(op.matrix.real)[0])
            # just below threshold the spectrum stays nonnegative; just
            # above, one negative eigenvalue has peeled off
            assert lows[0.95] >= 0.0
            assert lows[1.05] < 0.0

    def test_deep_well_ground_state_matches_matching_oracle(self):
        v0 = 5.0 * math.pi**2 / 4.0
        # transcendental matching: k cot k = -sqrt(v0 - k^2) on (pi/2, pi),
        # solved independently of any discretization
        k_star = brentq(
            lambda k: k / math.tan(k) + math.sqrt(v0 - k * k),
            math.pi / 2 + 1e-9,
            math.pi - 1e-9,
        )
        e_star = k_star**2 - v0
        with Budget(120.0):
            sw = catalog("square_well", v0=v0, r0=1.0)
            op = discretize_radial(sw, 0, 20.0, 500)
            rep = spectrum(op)
            assert len(rep.outlier_indices) == 1
            e_fd = rep.outliers[0].real
            assert abs(e_fd - e_star) <= 0.01 * abs(e_star)

            # every discrete eigenpair must also satisfy the matrix-level
            # Birman-Schwinger identity K_lam phi = -phi
            free = discretize_radial(None, 0, 20.0, 500)
            v_diag = np.diag(op.matrix - free.matrix)
            for idx, vec in zip(rep.outlier_indices, rep.outlier_vectors.T):
                residual = bs_principle_matrix_check(
                    free.matrix, v_diag, rep.eigenvalues[idx], vec
                )
                assert residual <= 1e-8


class Test08SingularSequenceRates:
    NS = (2, 4, 8, 16, 32, 64)

    def probe(self):
        return Probe("radial-gaussian-bump", 1.0)

    def test_zero_frequency_rates(self):
        with Budget(5.0):
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", message="probe is not L")
                rep = singular_sequence_decay(self.probe(), (0.0, 0.0, 0.0), self.NS)
        assert rep.residual_slope == pytest.approx(-2.0, abs=0.01)
        assert rep.form_slope == pytest.approx(-2.0, abs=0.01)

    def test_high_frequency_residual_rate(self):
        with Budget(5.0):
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", message="probe is not L")
                rep = singular_sequence_decay(self.probe(), (100.0, 0.0, 0.0), self.NS)
        assert rep.residual_slope == pytest.approx(-1.0, abs=0.01)


class Test09ResolventScalingRates:
    EPS = (1e-2, 1e-3, 1e-4)

    def test_kappa_regime_slopes(self):
        with Budget(10.0):
            for lam, expected in ((0.0, 0.5), (1.0, 1.0), (-1.0, 0.0), (0.5 + 2j, 0.0)):
                out = kappa_scaling(lam, self.EPS)  # raises beyond 0.05 itself
                slope = fit_loglog_slope(
                    np.asarray(self.EPS), np.asarray([k for _, k, _ in out])
                )
                assert abs(slope - expected) <= 0.05

    def test_cutoff_hs_norm_vanishes_at_three_quarters_rate(self):
        gauss = catalog("gaussian", v0=1.0)
        with Budget(10.0):
            recs = m_eps_hs_check(gauss, 2.0, 0.0, [0.4, 0.2, 0.1, 0.05])
            eps = np.array([r.eps for r in recs])
            damped = eps * np.array([r.hs_formula for r in recs])
            slope = fit_loglog_slope(eps, damped)
            assert abs(slope - 0.75) <= 0.05


class Test10MagneticTangentialTrace:
    def points(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(0.0, 2.0, (100, 3))
        # keep points off the vector potential's singular point
        pts[np.linalg.norm(pts, axis=1) < 1e-3] += 1.0
        return pts

    def test_azimuthal_field_has_zero_tangential_trace(self):
        mag = magnetic_catalog("azimuthal_inverse_square")
        with Budget(1.0):
            for x in self.points():
                assert np.max(np.abs(b_tau(mag, x))) <= 1e-10
                fd_trace = x / np.linalg.norm(x) @ _centred_difference_tensor(mag, x)
                assert np.max(np.abs(fd_trace)) <= 1e-6

    def test_uniform_field_trace_is_orthogonal_to_x(self):
        mag = magnetic_catalog("uniform_z", b=1.5)
        with Budget(1.0):
            for x in self.points():
                assert abs(float(b_tau(mag, x) @ x)) <= 1e-10
