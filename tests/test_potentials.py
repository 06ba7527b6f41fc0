"""Tests for the potential catalog.

The closed-form d/dr (r * Re V) of every smooth catalog entry is checked
against symbolic differentiation; field tensors against centred finite
differences of the vector potential.
"""

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_cert.potentials import (
    MagneticPotential,
    PotentialError,
    b_tau,
    catalog,
    catalog_names,
    complex_sign,
    magnetic_catalog,
    magnetic_catalog_names,
)

# name, params, sympy Re V(r) for d = 3
SYMBOLIC_PROFILES = [
    ("hardy", {"a": 0.5}, lambda r: -sp.Rational(1, 2) * sp.Rational(1, 4) / r**2),
    ("coulomb_repulsive", {"c": 2.0}, lambda r: 2 / r),
    ("imaginary_hardy", {"beta": 0.3}, lambda r: 0 * r),
    ("gaussian", {"v0": 3.0, "c_im": 0.5}, lambda r: -3 * sp.exp(-(r**2))),
    ("yukawa", {"g": 1.5, "mu": 0.7}, lambda r: -sp.Rational(3, 2) * sp.exp(-sp.Rational(7, 10) * r) / r),
]


class TestCatalog:
    def test_names_all_constructible(self):
        defaults = {
            "hardy": {"a": 0.5},
            "coulomb_repulsive": {"c": 1.0},
            "imaginary_hardy": {"beta": 0.5},
            "gaussian": {"v0": 1.0},
            "yukawa": {"g": 1.0, "mu": 1.0},
            "square_well": {"v0": 1.0, "r0": 1.0},
        }
        for name in catalog_names():
            pot = catalog(name, dimension=3, **defaults[name])
            assert pot.name == name
            assert pot.dimension == 3

    def test_unknown_name_rejected(self):
        with pytest.raises(PotentialError, match="unknown potential"):
            catalog("morse", v0=1.0)

    def test_low_dimension_rejected(self):
        with pytest.raises(PotentialError, match="dimension"):
            catalog("hardy", dimension=2, a=0.5)

    def test_nonpositive_parameters_rejected(self):
        with pytest.raises(PotentialError):
            catalog("hardy", a=0.0)
        with pytest.raises(PotentialError):
            catalog("yukawa", g=1.0, mu=-2.0)
        with pytest.raises(PotentialError):
            catalog("gaussian", v0=-1.0)

    def test_extra_parameters_rejected(self):
        with pytest.raises(PotentialError, match="unexpected"):
            catalog("hardy", a=0.5, mu=1.0)

    def test_hardy_values(self):
        # d = 3: V(r) = -a/4 r^-2.
        pot = catalog("hardy", a=0.5)
        r = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(pot.radial_profile(r), -0.125 / r**2)
        # d = 4: weight ((d-2)/2)^2 = 1.
        pot4 = catalog("hardy", dimension=4, a=0.5)
        np.testing.assert_allclose(pot4.radial_profile(r), -0.5 / r**2)

    def test_square_well_values(self):
        pot = catalog("square_well", v0=2.0, r0=1.5)
        r = np.array([0.1, 1.49, 1.51, 4.0])
        np.testing.assert_allclose(pot.radial_profile(r), [-2.0, -2.0, 0.0, 0.0])
        np.testing.assert_allclose(pot.d_r_rReV(r), [-2.0, -2.0, 0.0, 0.0])

    def test_singularity_orders(self):
        orders = {
            "hardy": 2.0,
            "coulomb_repulsive": 1.0,
            "imaginary_hardy": 2.0,
            "gaussian": 0.0,
            "yukawa": 1.0,
            "square_well": 0.0,
        }
        defaults = {
            "hardy": {"a": 0.5},
            "coulomb_repulsive": {"c": 1.0},
            "imaginary_hardy": {"beta": 0.5},
            "gaussian": {"v0": 1.0},
            "yukawa": {"g": 1.0, "mu": 1.0},
            "square_well": {"v0": 1.0, "r0": 1.0},
        }
        for name, order in orders.items():
            assert catalog(name, **defaults[name]).origin_singularity_order == order

    @pytest.mark.parametrize("name,params,profile", SYMBOLIC_PROFILES)
    def test_d_r_rReV_against_symbolic(self, name, params, profile):
        r = sp.symbols("r", positive=True)
        expected = sp.lambdify(r, sp.diff(r * profile(r), r), "numpy")
        pot = catalog(name, dimension=3, **params)
        rs = np.linspace(0.2, 5.0, 40)
        np.testing.assert_allclose(pot.d_r_rReV(rs), expected(rs) + 0.0 * rs, atol=1e-12)

    def test_sign_decomposition_identity(self):
        # |V|^(1/2) * sign(V) * |V|^(1/2) recovers V on the profile.
        pot = catalog("gaussian", v0=2.0, c_im=3.0)
        r = np.linspace(0.1, 4.0, 50)
        v = pot.radial_profile(r)
        half = np.sqrt(pot.abs_radial(r))
        np.testing.assert_allclose(half * pot.sign_radial(r) * half, v, atol=1e-14)

    def test_re_parts(self):
        pot = catalog("gaussian", v0=1.0)
        r = np.array([0.5, 1.0])
        np.testing.assert_allclose(pot.re_minus_radial(r), np.exp(-(r**2)))


class TestComplexSign:
    def test_zero_maps_to_zero(self):
        assert complex_sign(np.array([0.0 + 0.0j]))[0] == 0.0

    @given(
        st.complex_numbers(
            min_magnitude=1e-6, max_magnitude=1e6, allow_nan=False, allow_infinity=False
        )
    )
    def test_unit_modulus_off_zero(self, z):
        s = complex_sign(np.array([z]))[0]
        assert abs(abs(s) - 1.0) < 1e-12
        assert abs(s * abs(z) - z) < 1e-9 * abs(z)

    def test_denormal_tails_keep_sign(self):
        # numpy's complex division overflows on denormal inputs; the far
        # tail of a decaying potential must still get sign -1, not nan
        v = np.array([-1e-310 + 0j, -5e-324 + 0j, 1e-320j])
        s = complex_sign(v)
        assert np.all(np.isfinite(s))
        # one ulp of slack: complex division rounds even on normal inputs
        assert np.allclose(s, [-1.0, -1.0, 1j], rtol=0, atol=5e-16)


class TestMagnetic:
    def test_names_all_constructible(self):
        for name in magnetic_catalog_names():
            mag = magnetic_catalog(name)
            assert mag.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(PotentialError, match="unknown magnetic"):
            magnetic_catalog("solenoid")

    def test_azimuthal_field_tensor_components(self):
        mag = magnetic_catalog("azimuthal_inverse_square")
        x = np.array([1.0, 2.0, 3.0])
        rho4 = float(np.dot(x, x)) ** 2
        b = mag.field(x)
        assert b[0, 1] == pytest.approx(-2.0 * x[2] ** 2 / rho4)
        assert b[0, 2] == pytest.approx(2.0 * x[1] * x[2] / rho4)
        assert b[1, 2] == pytest.approx(-2.0 * x[0] * x[2] / rho4)

    @pytest.mark.parametrize(
        "name,params",
        [("azimuthal_inverse_square", {}), ("uniform_z", {"b": 2.5}), ("zero", {})],
    )
    def test_analytic_field_matches_finite_differences(self, name, params):
        mag = magnetic_catalog(name, **params)
        assert mag.analytic_field
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, size=3)
            if np.linalg.norm(x) < 0.3:
                continue
            np.testing.assert_allclose(
                mag.field(x), mag.field(x, force_fd=True), atol=1e-8, rtol=1e-7
            )

    def test_field_antisymmetric(self):
        mag = magnetic_catalog("azimuthal_inverse_square")
        x = np.array([0.4, -1.1, 0.7])
        b = mag.field(x)
        np.testing.assert_allclose(b + b.T, 0.0, atol=1e-15)

    def test_uniform_z_cross_product_convention(self):
        # B v must equal (b e3) x v for the uniform field.
        mag = magnetic_catalog("uniform_z", b=2.0)
        v = np.array([0.3, -0.4, 0.9])
        expected = np.cross(np.array([0.0, 0.0, 2.0]), v)
        np.testing.assert_allclose(mag.field(np.ones(3)) @ v, expected, atol=1e-14)

    def test_azimuthal_b_tau_vanishes(self):
        mag = magnetic_catalog("azimuthal_inverse_square")
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.normal(size=3)
            if np.linalg.norm(x) < 0.1:
                continue
            np.testing.assert_allclose(b_tau(mag, x), 0.0, atol=1e-12)

    def test_uniform_b_tau_at_e1(self):
        mag = magnetic_catalog("uniform_z", b=1.0)
        np.testing.assert_allclose(
            b_tau(mag, np.array([1.0, 0.0, 0.0])), [0.0, -1.0, 0.0], atol=1e-14
        )

    @given(
        st.tuples(
            st.floats(-3, 3, allow_nan=False),
            st.floats(-3, 3, allow_nan=False),
            st.floats(-3, 3, allow_nan=False),
        ).filter(lambda t: sum(c * c for c in t) > 0.01)
    )
    @settings(max_examples=40, deadline=None)
    def test_b_tau_orthogonal_to_x(self, t):
        mag = magnetic_catalog("azimuthal_inverse_square")
        x = np.array(t)
        assert abs(float(b_tau(mag, x) @ x)) < 1e-10

    def test_b_tau_origin_rejected(self):
        mag = magnetic_catalog("uniform_z")
        with pytest.raises(PotentialError, match="origin"):
            b_tau(mag, np.zeros(3))

    def test_divergence_free(self):
        # the magnetic Laplacian in the smoke check drops div A: centred
        # differences of A at 100 seeded points with 0.5 <= |x| <= 2
        x = np.random.default_rng(17).uniform(-2.0, 2.0, size=(100, 3))
        r = np.linalg.norm(x, axis=1, keepdims=True)
        x = np.where(r < 0.5, x * (0.5 / r), x)
        h = 1e-5
        for name in magnetic_catalog_names():
            a = magnetic_catalog(name).vector_potential
            div = sum(
                (a(x + e)[:, j] - a(x - e)[:, j]) / (2 * h) for j, e in enumerate(h * np.eye(3))
            )
            assert np.max(np.abs(div)) <= 1e-6, name

    @pytest.mark.parametrize("name", magnetic_catalog_names())
    def test_point_arrays_match_row_by_row(self, name):
        # the (..., d) contract: an array of points gives the stacked
        # single-point values, with the batch shape kept in front
        mag = magnetic_catalog(name)
        pts = np.random.default_rng(5).uniform(-2.0, 2.0, size=(4, 5, 3))
        rows = pts.reshape(-1, 3)
        for fn, tail in (
            (mag.vector_potential, (3,)),
            (mag.field, (3, 3)),
            (lambda x: mag.field(x, force_fd=True), (3, 3)),
            (lambda x: b_tau(mag, x), (3,)),
            (lambda x: b_tau(mag, x, force_fd=True), (3,)),
        ):
            batch = np.asarray(fn(pts))
            assert batch.shape == (4, 5) + tail
            single = np.stack([np.asarray(fn(x)) for x in rows])
            np.testing.assert_allclose(
                batch.reshape((-1,) + tail), single, rtol=1e-14, atol=1e-15
            )

    def test_b_tau_rejects_one_origin_row(self):
        mag = magnetic_catalog("uniform_z")
        pts = np.array([[1.0, 0.5, -0.2], [0.0, 0.0, 0.0], [0.3, 0.3, 0.3]])
        with pytest.raises(PotentialError, match="origin"):
            b_tau(mag, pts)
        # the other rows alone are fine
        assert b_tau(mag, pts[[0, 2]]).shape == (2, 3)

    def test_field_rejects_wrong_trailing_dimension(self):
        mag = magnetic_catalog("uniform_z")
        with pytest.raises(PotentialError, match="shape"):
            mag.field(np.ones((4, 2)))

    def test_fd_fallback_when_no_analytic_tensor(self):
        mag = MagneticPotential(
            "custom",
            3,
            vector_potential=lambda x: np.array([x[1] ** 2, 0.0, 0.0]),
        )
        assert not mag.analytic_field
        b = mag.field(np.array([0.0, 1.5, 0.0]))
        # dA_1/dx_2 = 2 x_2 = 3.
        assert b[0, 1] == pytest.approx(3.0, abs=1e-8)
        np.testing.assert_allclose(b + b.T, 0.0, atol=1e-12)
