"""Multiplier identities on manufactured probes.

The oracles here are independent of the module's quadrature: finite
differences for every derivative stack, and closed-form Gamma-function
ratios for the near-extremal Hardy family (for psi = r^(-1/2+eps) e^(-eps r)
in d = 3, the integrals int r^k psi^2-type reduce to
Gamma(k + 2 eps) / (2 eps)^(k + 2 eps), giving a Hardy quotient of exactly
4 / (1 + 2 eps) and a weighted quotient of 0.8 / (1 + 0.4 eps)).
Identity residuals on analytic probes can only reflect quadrature error, so
they are pinned near machine precision.
"""

import math

import numpy as np
import pytest

from spectra_cert.multipliers import (
    HardyRatios,
    MultiplierError,
    MultiplierTriple,
    NearExtremalHardyProfile,
    hardy_check,
    identity_residual,
    magnetic_identity_smoke,
    multiplier_catalog,
    radi_identity_terms,
    residual_refinement_order,
)
from spectra_cert import multipliers
from spectra_cert.multipliers import TestFunction as Probe
from spectra_cert.potentials import (
    MagneticPotential,
    PotentialError,
    _centred_difference_tensor,
    b_tau,
    catalog,
    magnetic_catalog,
)

BUMP = Probe("radial-gaussian-bump", 2.5)
CHIRPED = Probe("radial-gaussian-bump", 2.5, chirp=0.7)
ELL1 = Probe("ell1-harmonic", 3.0, chirp=0.4)
PROBES = (BUMP, CHIRPED, ELL1)


def central_diff(fn, r, h):
    return (fn(r + h) - fn(r - h)) / (2 * h)


class TestProbeProfiles:
    RADII = np.array([0.3, 0.9, 1.6, 2.2, 2.45])

    @pytest.mark.parametrize("u", PROBES, ids=lambda u: u.family + str(u.chirp))
    def test_first_derivative_matches_fd(self, u):
        h = 1e-6
        q_p = (u.profile(self.RADII + h)[0] - u.profile(self.RADII - h)[0]) / (2 * h)
        dq = u.profile(self.RADII)[1]
        assert np.max(np.abs(dq - q_p)) < 1e-8

    @pytest.mark.parametrize("u", PROBES, ids=lambda u: u.family + str(u.chirp))
    def test_second_derivative_matches_fd(self, u):
        # second differences lose ~h^2 of 16 digits; h = 1e-4 balances
        h = 1e-4
        qm, q0, qp = (u.profile(self.RADII + s * h)[0] for s in (-1, 0, 1))
        fd = (qp - 2 * q0 + qm) / h**2
        ddq = u.profile(self.RADII)[2]
        assert np.max(np.abs(ddq - fd)) < 1e-5

    def test_support_is_sharp(self):
        r = np.array([2.5, 2.6, 10.0])
        q, dq, ddq = BUMP.profile(r)
        assert np.all(q == 0) and np.all(dq == 0) and np.all(ddq == 0)

    def test_chirp_preserves_modulus(self):
        q_plain = BUMP.profile(self.RADII)[0]
        q_chirp = CHIRPED.profile(self.RADII)[0]
        np.testing.assert_allclose(np.abs(q_chirp), np.abs(q_plain), rtol=1e-14)

    def test_ell1_profile_vanishes_at_origin(self):
        q = ELL1.profile(np.array([1e-8]))[0]
        assert abs(q[0]) < 1e-7

    def test_grad_points_matches_fd(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1.5, 1.5, size=(20, 3))
        h = 1e-6
        for u in PROBES:
            grad = u.at_points(pts)[1]
            for axis in range(3):
                shift = np.zeros(3)
                shift[axis] = h
                fd = (u.at_points(pts + shift)[0] - u.at_points(pts - shift)[0]) / (2 * h)
                assert np.max(np.abs(grad[:, axis] - fd)) < 1e-7

    def test_angular_weight(self):
        assert BUMP.angular_weight == pytest.approx(4 * math.pi)
        assert ELL1.angular_weight == pytest.approx(4 * math.pi / 3)

    def test_family_validation(self):
        with pytest.raises(MultiplierError, match="family"):
            Probe("cubic-spline", 1.0)
        with pytest.raises(MultiplierError, match="support_radius"):
            Probe("radial-gaussian-bump", -1.0)


class TestMultiplierCatalog:
    RADII = np.array([0.2, 0.7, 1.3, 2.1, 3.4, 5.0])

    @pytest.mark.parametrize("name", ["abs", "square", "windowed-square"])
    def test_derivative_stack_matches_fd(self, name):
        g = multiplier_catalog(name)
        pairs = [(g.g, g.dg), (g.dg, g.d2g), (g.d2g, g.d3g), (g.d3g, g.d4g)]
        for lower, upper in pairs:
            fd = central_diff(lower, self.RADII, 1e-6)
            got = upper(self.RADII)
            assert np.max(np.abs(got - fd)) < 1e-6

    def test_square_laplacian_and_bilaplacian(self):
        g = multiplier_catalog("square")
        r = self.RADII
        np.testing.assert_allclose(g.laplacian(r), 6.0)
        # assembled via the radial chain rule, so 2/r - 2r/r^2 leaves dust
        np.testing.assert_allclose(g.bilaplacian(r), 0.0, atol=1e-12)

    def test_abs_laplacian(self):
        g = multiplier_catalog("abs")
        np.testing.assert_allclose(g.laplacian(self.RADII), 2.0 / self.RADII)

    def test_windowed_bilaplacian_matches_fd(self):
        g = multiplier_catalog("windowed-square")
        h = 1e-4
        lap = g.laplacian
        fd = (lap(self.RADII + h) - 2 * lap(self.RADII) + lap(self.RADII - h)) / h**2
        fd += 2.0 / self.RADII * central_diff(lap, self.RADII, h)
        got = g.bilaplacian(self.RADII)
        assert np.max(np.abs(got - fd)) < 1e-5

    def test_constant_value(self):
        g = multiplier_catalog("constant", value=3.5)
        np.testing.assert_allclose(g.g(self.RADII), 3.5)
        np.testing.assert_allclose(g.laplacian(self.RADII), 0.0)

    def test_windowed_stack_matches_hand_derivatives(self):
        # q_(k+1) = q_k' - 2 c r q_k from q_0 = r^2, against the derivatives
        # of r^2 exp(-c r^2) worked out by hand
        c, r = 1.0 / 6.0, self.RADII
        g = multiplier_catalog("windowed-square", width=6.0)
        hand = [
            r**2,
            2 * r - 2 * c * r**3,
            2 - 10 * c * r**2 + 4 * c**2 * r**4,
            -24 * c * r + 36 * c**2 * r**3 - 8 * c**3 * r**5,
            -24 * c + 156 * c**2 * r**2 - 112 * c**3 * r**4 + 16 * c**4 * r**6,
        ]
        for fn, poly in zip((g.g, g.dg, g.d2g, g.d3g, g.d4g), hand):
            np.testing.assert_allclose(fn(r), poly * np.exp(-c * r**2), rtol=1e-13, atol=1e-15)

    def test_polynomial_rows_are_exact(self):
        r = self.RADII
        g = multiplier_catalog("square")
        assert np.array_equal(g.g(r), r**2) and np.array_equal(g.dg(r), 2.0 * r)
        assert np.array_equal(g.d2g(r), np.full_like(r, 2.0))
        assert not g.d3g(r).any() and not g.d4g(r).any()

    def test_validation(self):
        with pytest.raises(MultiplierError, match="unknown multiplier"):
            multiplier_catalog("cubic")
        with pytest.raises(MultiplierError, match="unexpected parameters"):
            multiplier_catalog("abs", width=3.0)
        with pytest.raises(MultiplierError, match="width"):
            multiplier_catalog("windowed-square", width=-1.0)


def cancellation_defects(trip: MultiplierTriple, r: np.ndarray) -> dict:
    """Largest violation of each canonical cancellation on the radii.

    Radial and tangential Hessian coefficients of G3 must agree and match
    2 g1, and |g2| must equal |g3'|.
    """
    return {
        "g3''-2g1": np.max(np.abs(trip.g3.d2g(r) - 2.0 * trip.g1.g(r))),
        "g3'/r-g3''": np.max(np.abs(trip.g3.dg(r) / r - trip.g3.d2g(r))),
        "|g2|-|g3'|": np.max(np.abs(np.abs(trip.g2.g(r)) - np.abs(trip.g3.dg(r)))),
    }


class TestCanonicalTriple:
    def test_cancellations_hold(self):
        trip = MultiplierTriple.canonical_triple()
        defects = cancellation_defects(trip, np.linspace(0.05, 12.0, 80))
        assert all(v <= 1e-12 for v in defects.values()), defects

    def test_broken_triple_detected(self):
        trip = MultiplierTriple(
            g1=multiplier_catalog("constant", value=2.0),
            g2=multiplier_catalog("abs"),
            g3=multiplier_catalog("square"),
        )
        defects = cancellation_defects(trip, np.array([1.0, 2.0]))
        assert defects["g3''-2g1"] > 1e-12 and defects["|g2|-|g3'|"] > 1e-12


LAMBDAS = (1.0 + 0j, 1.0 + 1.0j, 0.5 + 2.0j)


class TestIdentityResiduals:
    @pytest.mark.parametrize("u", PROBES, ids=lambda u: u.family + str(u.chirp))
    @pytest.mark.parametrize("lam", LAMBDAS, ids=str)
    @pytest.mark.parametrize("gname", ["constant", "abs"])
    def test_id1(self, u, lam, gname):
        g = multiplier_catalog(gname)
        assert identity_residual("id1", u, lam, g) < 1e-12

    @pytest.mark.parametrize("u", PROBES, ids=lambda u: u.family + str(u.chirp))
    @pytest.mark.parametrize("lam", LAMBDAS, ids=str)
    def test_id2(self, u, lam):
        g = multiplier_catalog("abs")
        assert identity_residual("id2", u, lam, g) < 1e-12

    def test_non_finite_sides_do_not_settle(self):
        # both rules give an infinite key-gauge lhs, so the n-versus-2n
        # difference is NaN, which no tolerance admits
        with pytest.raises(MultiplierError, match="id4 quadrature did not settle"):
            identity_residual("id4", BUMP, 1e300 + 1e300j)

    def test_id2_real_data_is_exactly_zero(self):
        # real probe, real lambda: every term of the imaginary-part identity
        # vanishes termwise in floating point
        g = multiplier_catalog("abs")
        assert identity_residual("id2", BUMP, 2.0, g) == 0.0

    @pytest.mark.parametrize("u", PROBES, ids=lambda u: u.family + str(u.chirp))
    @pytest.mark.parametrize("lam", LAMBDAS, ids=str)
    @pytest.mark.parametrize("gname", ["square", "windowed-square"])
    def test_id3(self, u, lam, gname):
        g = multiplier_catalog(gname)
        assert identity_residual("id3", u, lam, g) < 1e-12

    @pytest.mark.parametrize("u", PROBES, ids=lambda u: u.family + str(u.chirp))
    @pytest.mark.parametrize(
        "lam", (1.0 + 0j, 1.0 + 1.0j, 2.0 - 0.5j, 0.5 + 2.0j), ids=str
    )
    def test_key_identity(self, u, lam):
        assert identity_residual("id4", u, lam) < 1e-12

    def test_key_identity_needs_positive_real_part(self):
        with pytest.raises(MultiplierError, match="Re lambda"):
            identity_residual("id4", BUMP, -1.0 + 1.0j)
        with pytest.raises(MultiplierError, match="Re lambda"):
            identity_residual("id4", BUMP, 2.0j)

    def test_coarse_quadrature_refuses_to_answer(self, monkeypatch):
        # 4 panels cannot resolve the bump edge; the n-vs-2n guard must trip
        monkeypatch.setattr(multipliers, "_DEFAULT_N", 16)
        g = multiplier_catalog("abs")
        with pytest.raises(MultiplierError, match="settle"):
            identity_residual("id1", BUMP, 1.0 + 1.0j, g)
        with pytest.raises(MultiplierError, match="did not settle"):
            magnetic_identity_smoke(BUMP, 1.0 + 1.0j, magnetic_catalog("uniform_z", b=0.8))

    def test_refinement_order_id1_is_second_order(self):
        g = multiplier_catalog("abs")
        order = residual_refinement_order("id1", CHIRPED, 1.0 + 1.0j, g)
        assert 1.9 <= order <= 2.8

    @pytest.mark.parametrize(
        "kind,gname",
        [("id2", "abs"), ("id3", "square"), ("id4", None)],
    )
    def test_refinement_order_at_least_expected(self, kind, gname):
        # these densities are even in r, so the midpoint boundary terms
        # cancel and the observed order exceeds 2
        g = multiplier_catalog(gname) if gname else None
        order = residual_refinement_order(kind, CHIRPED, 1.0 + 1.0j, g)
        assert order >= 1.9

    @pytest.mark.parametrize(
        "check", [identity_residual, residual_refinement_order], ids=lambda f: f.__name__
    )
    def test_refinement_validation(self, check):
        with pytest.raises(MultiplierError, match="unknown identity"):
            check("id9", BUMP, 1.0)
        with pytest.raises(MultiplierError, match="multiplier"):
            check("id1", BUMP, 1.0)

    def test_term_rows_build_one_probe_pair(self, monkeypatch):
        # id1..id4 share the probe at n and at 2n: two builds, not two per identity
        builds = []
        probe_on = multipliers._probe_on

        def counted(*args, **kwargs):
            builds.append(args[2])
            return probe_on(*args, **kwargs)

        monkeypatch.setattr(multipliers, "_probe_on", counted)
        rows = multipliers.identity_term_rows(CHIRPED, 1.0 + 1.0j)
        assert len(rows) == 8
        assert builds == [multipliers._DEFAULT_N, 2 * multipliers._DEFAULT_N]


class TestHardyQuotients:
    # closed forms for psi = r^(-1/2+eps) e^(-eps r): with
    # I_k := Gamma(k + 2 eps) / (2 eps)^(k + 2 eps) every integral in both
    # quotients is an I_k, and the ratios collapse to the forms below
    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.3, 0.45])
    def test_gamma_family_closed_forms(self, eps):
        ratios = hardy_check(NearExtremalHardyProfile(eps))
        assert ratios.hardy_ratio == pytest.approx(4.0 / (1 + 2 * eps), abs=1e-8)
        assert ratios.weighted_ratio == pytest.approx(
            0.8 / (1 + 0.4 * eps), abs=1e-8
        )

    def test_near_extremal_margin(self):
        # eps = 0.05 reaches 90.9% of the sharp constant 4
        ratios = hardy_check(NearExtremalHardyProfile(0.05))
        assert ratios.hardy_ratio >= 0.9 * ratios.hardy_bound

    @pytest.mark.parametrize("eps", [0.03, 0.05, 0.2, 0.45])
    def test_weighted_quotient_never_exceeds_bound(self, eps):
        ratios = hardy_check(NearExtremalHardyProfile(eps))
        assert ratios.weighted_ratio < ratios.weighted_bound
        assert ratios.hardy_ratio <= ratios.hardy_bound * (1 + 1e-9)

    def test_non_finite_quotient_does_not_settle(self, monkeypatch):
        def nan_profile(self, r):
            return np.full_like(r, np.nan), np.full_like(r, np.nan)

        monkeypatch.setattr(NearExtremalHardyProfile, "profile", nan_profile)
        with pytest.raises(MultiplierError, match="did not settle"):
            hardy_check(NearExtremalHardyProfile(0.1))

    def test_validation(self):
        with pytest.raises(MultiplierError, match="eps"):
            NearExtremalHardyProfile(0.0)
        with pytest.raises(MultiplierError, match="eps"):
            NearExtremalHardyProfile(0.7)
        for psi in (np.ones(5), BUMP):
            with pytest.raises(MultiplierError, match="NearExtremalHardyProfile"):
                hardy_check(psi)


class TestRadialIdentity:
    IMAGH = catalog("imaginary_hardy", beta=0.05)

    @staticmethod
    def terms(u, lam, potential):
        """{term_name: value} of the radial-key rows and their shared residual."""
        rows = radi_identity_terms(u, lam, potential)
        (residual,) = {residual for _, _, _, residual in rows}
        return {name: value for _, name, value, _ in rows}, residual

    @pytest.mark.parametrize("lam", [1.0 + 0.5j, 1.0 - 0.5j, 2.0 + 0j], ids=str)
    @pytest.mark.parametrize("u", PROBES, ids=lambda u: u.family + str(u.chirp))
    def test_defect_bucket_closes_identity(self, u, lam):
        assert self.terms(u, lam, self.IMAGH)[1] < 1e-14

    def test_coulomb_first_term_vanishes(self):
        # r * Re V is constant for the Coulomb potential
        terms, residual = self.terms(BUMP, 1.5 + 0.2j, catalog("coulomb_repulsive", c=1.0))
        assert terms["I1"] == 0.0
        assert residual < 1e-14

    def test_real_potential_kills_i2(self):
        terms, _ = self.terms(CHIRPED, 1.0 + 0.5j, catalog("hardy", a=0.3))
        assert terms["I2"] == 0.0

    def test_rows_schema(self):
        # (identity_id, term_name, value, residual); the CLI adds value_im
        rows = radi_identity_terms(BUMP, 1.0 + 0.5j, self.IMAGH)
        assert [name for _, name, _, _ in rows] == ["I", "I1", "I2", "I3_defect"]
        assert all(identity_id == "radial-key" for identity_id, _, _, _ in rows)
        assert all(isinstance(value, float) for _, _, value, _ in rows)

    @pytest.mark.parametrize(
        "lam, v0, r0", [(1.0 + 0.5j, 2.0, 1.3), (1.0 + 0.1j, 5.0, 0.7), (2.0 - 1.0j, 2.0, 1.0)]
    )
    def test_square_well_jump_closes_identity(self, lam, v0, r0):
        # r Re V jumps by v0 r0 at r0, which adds a delta term to I1; without
        # it the residual reads 0.36, 0.31 and 0.05
        u = Probe("radial-gaussian-bump", 2.5, chirp=0.4)
        assert self.terms(u, lam, catalog("square_well", v0=v0, r0=r0))[1] < 1e-14

    def test_square_well_builds_one_probe_pair_with_an_edge_at_the_jump(self, monkeypatch):
        builds, edges = [], []
        probe_on, panel_gauss = multipliers._probe_on, multipliers.panel_gauss

        def counted(*args, **kwargs):
            builds.append(args[2])
            return probe_on(*args, **kwargs)

        def recorded(panel_edges, n):
            edges.append(panel_edges)
            return panel_gauss(panel_edges, n)

        monkeypatch.setattr(multipliers, "_probe_on", counted)
        monkeypatch.setattr(multipliers, "panel_gauss", recorded)
        self.terms(BUMP, 1.0 + 0.5j, catalog("square_well", v0=2.0, r0=1.3))
        assert builds == [multipliers._DEFAULT_N, 2 * multipliers._DEFAULT_N]
        assert len(edges) == 2 and all(1.3 in e for e in edges)

    def test_coarse_quadrature_refuses_to_answer(self, monkeypatch):
        monkeypatch.setattr(multipliers, "_DEFAULT_N", 16)
        with pytest.raises(MultiplierError, match="radial-key quadrature did not settle"):
            radi_identity_terms(BUMP, 1.0 + 0.5j, self.IMAGH)

    def test_validation(self):
        with pytest.raises(MultiplierError, match="Re lambda"):
            radi_identity_terms(BUMP, -1.0 + 0.5j, self.IMAGH)
        with pytest.raises(MultiplierError, match="dimension must be 3"):
            radi_identity_terms(BUMP, 1.0 + 0.5j, catalog("gaussian", dimension=4, v0=1.0))


class TestMagneticChecks:
    AZIMUTHAL = magnetic_catalog("azimuthal_inverse_square")
    UNIFORM = magnetic_catalog("uniform_z", b=0.8)

    def test_azimuthal_tangential_trace_vanishes(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.uniform(-2, 2, size=3)
            if np.linalg.norm(x) < 0.1:
                x += 0.5
            assert np.linalg.norm(b_tau(self.AZIMUTHAL, x)) < 1e-12

    def test_uniform_b_tau_orthogonal_to_x(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            x = rng.uniform(-2, 2, size=3)
            if np.linalg.norm(x) < 0.1:
                x += 0.5
            bt = b_tau(self.UNIFORM, x)
            assert abs(bt @ x) < 1e-12 * max(1.0, np.linalg.norm(bt) * np.linalg.norm(x))

    def test_fd_field_matches_analytic(self):
        x = np.array([0.7, -0.4, 1.1])
        for field in (self.AZIMUTHAL, self.UNIFORM):
            exact = b_tau(field, x)
            approx = x / np.linalg.norm(x) @ _centred_difference_tensor(field, x)
            assert np.max(np.abs(exact - approx)) < 1e-6

    def test_zero_field_reduces_to_plain_identity(self):
        rep = magnetic_identity_smoke(CHIRPED, 1.0 + 1.0j, magnetic_catalog("zero"))
        assert rep.b_tau_sup == 0.0
        assert rep.identity_residual < 1e-12

    def test_uniform_field_identity(self):
        rep = magnetic_identity_smoke(CHIRPED, 1.0 + 1.0j, self.UNIFORM)
        assert rep.identity_residual < 1e-12
        assert rep.tangential_residual < 1e-12
        assert rep.b_tau_dot_x_sup < 1e-12

    def test_singular_gauge_field_is_integrable(self):
        # |A|^2 |u|^2 ~ |u|^2 / r^2 at the origin, integrable against r^2 dr
        rep = magnetic_identity_smoke(CHIRPED, 1.0 + 1.0j, self.AZIMUTHAL)
        assert rep.identity_residual < 1e-12
        assert rep.b_tau_sup < 1e-12

    def test_with_complex_potential(self):
        # an l = 1 probe at a complex lambda; the check itself takes no V
        rep = magnetic_identity_smoke(ELL1, 2.0 + 0.5j, self.UNIFORM)
        assert rep.identity_residual < 1e-12

    def test_identity_is_not_a_tautology(self):
        # the sides differ on a coarse midpoint rule; only quadrature closes them
        (terms,) = multipliers._identity_terms(
            [("magnetic", self.UNIFORM)], CHIRPED, 1.0 + 1.0j, 16, "midpoint"
        )
        assert multipliers._relative_residual(*terms) > 1e-4

    @pytest.mark.parametrize("u", [CHIRPED, ELL1], ids=lambda u: u.family)
    @pytest.mark.parametrize("name", ["zero", "uniform_z", "azimuthal_inverse_square"])
    def test_field_mass_matches_spherical_product_rule(self, u, name):
        # int |A|^2 |u|^2 on radial Gauss panels x Gauss-Legendre in cos(theta)
        # x trapezoid in phi, with A and u at the Cartesian points; the
        # closed form is what the field takes off the A = 0 sides
        field = magnetic_catalog(name, b=0.8) if name == "uniform_z" else magnetic_catalog(name)
        lam = 1.0 + 1.0j
        p = multipliers._probe_on(u, lam, 2 * multipliers._DEFAULT_N, "gauss")
        closed = (
            multipliers._magnetic_sides(p, lam, magnetic_catalog("zero"))[0]
            - multipliers._magnetic_sides(p, lam, field)[0]
        )
        x, wx = np.polynomial.legendre.leggauss(12)
        edges = np.linspace(0.0, u.support_radius, 65)
        half = 0.5 * np.diff(edges)[:, None]
        r = ((0.5 * (edges[:-1] + edges[1:]))[:, None] + half * x).ravel()
        wr = (half * wx).ravel()
        c, wc = np.polynomial.legendre.leggauss(8)
        phi = 2 * np.pi * np.arange(8) / 8
        rr, cc, pp = np.meshgrid(r, c, phi, indexing="ij")
        ss = np.sqrt(1 - cc**2)
        pts = np.stack([rr * ss * np.cos(pp), rr * ss * np.sin(pp), rr * cc], axis=-1)
        density = np.sum(field.vector_potential(pts) ** 2, axis=-1) * np.abs(
            u.at_points(pts.reshape(-1, 3))[0].reshape(rr.shape)
        ) ** 2
        weights = (wr * r**2)[:, None, None] * wc[None, :, None] * (2 * np.pi / 8)
        reference = float(np.sum(weights * density))
        assert closed == pytest.approx(reference, rel=1e-10, abs=0.0)

    def test_validation(self):
        with pytest.raises(MultiplierError, match="Re lambda"):
            magnetic_identity_smoke(BUMP, -1.0, self.UNIFORM)

    def test_sample_points_are_one_fixed_spiral_in_the_shell(self, monkeypatch):
        # no random number generator: with numpy.random out of reach the
        # smoke check still runs, and every call reads the same 100 points
        monkeypatch.setattr(np, "random", None, raising=False)
        radius = CHIRPED.support_radius
        x = multipliers._magnetic_points(radius)
        r = np.linalg.norm(x, axis=1)
        assert x.shape == (100, 3)
        assert np.all((0.2 * radius <= r) & (r <= 0.95 * radius))
        assert np.array_equal(multipliers._magnetic_points(radius), x)
        rep = magnetic_identity_smoke(CHIRPED, 1.0 + 1.0j, self.UNIFORM)
        assert rep.tangential_residual < 1e-12

    @pytest.mark.parametrize("samples", [7, 100])
    def test_field_calls_do_not_scale_with_points(self, monkeypatch, samples):
        # the field is evaluated on the whole sample array: one A call and
        # one B call for the samples' B_tau; the identity needs only (k, p)
        monkeypatch.setattr(multipliers, "_MAGNETIC_SAMPLES", samples)
        expected = magnetic_identity_smoke(CHIRPED, 1.0 + 1.0j, self.UNIFORM)
        calls = {"vector_potential": 0, "field_tensor": 0}
        for key in calls:
            method = getattr(MagneticPotential, key)

            def counted(mag, x, method=method, key=key):
                calls[key] += 1
                return method(mag, x)

            monkeypatch.setattr(MagneticPotential, key, counted)
        rep = magnetic_identity_smoke(CHIRPED, 1.0 + 1.0j, self.UNIFORM)
        assert calls == {"vector_potential": 1, "field_tensor": 1}
        assert rep == expected
