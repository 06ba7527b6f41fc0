"""Tests for the potential catalog.

The closed-form d/dr (r * Re V) of every smooth catalog entry is checked
against symbolic differentiation; field tensors against centred finite
differences of the vector potential.
"""

import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_cert.birman_schwinger import default_bs_grid
from spectra_cert.multipliers import MultiplierError, multiplier_catalog
from spectra_cert import potentials
from spectra_cert.potentials import (
    _ELECTRIC,
    _MAGNETIC,
    PotentialError,
    _centred_difference_tensor,
    b_tau,
    catalog,
    complex_sign,
    magnetic_catalog,
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
        for name in _ELECTRIC:
            pot = catalog(name, dimension=3, **defaults[name])
            assert pot.dimension == 3

    def test_unknown_name_rejected(self):
        with pytest.raises(PotentialError, match="unknown potential"):
            catalog("morse", v0=1.0)

    def test_low_dimension_rejected(self):
        with pytest.raises(PotentialError, match="dimension"):
            catalog("hardy", dimension=2, a=0.5)

    @pytest.mark.parametrize(
        "name, params, dimension",
        [
            ("gaussian", {"v0": 1.0}, 10**400),
            ("hardy", {"a": 1.0}, 10**400),
            ("gaussian", {"v0": 1.0}, 3.5),
        ],
        ids=["gaussian-1e400", "hardy-1e400", "gaussian-3.5"],
    )
    def test_dimension_outside_the_rule_rejected(self, name, params, dimension):
        # the gaussian row forms no ((d-2)/2)^2 and took any d; the hardy row
        # raised a bare OverflowError at d = 1e400
        with pytest.raises(PotentialError, match="dimension must be an integer >= 3"):
            catalog(name, dimension=dimension, **params)

    def test_largest_dimension_keeps_the_hardy_constant_finite(self):
        # the integer edge is where the float ((d-2)/2.0)**2 overflows
        edge = potentials._MAX_DIMENSION
        assert ((edge - 2) / 2.0) ** 2 < math.inf
        with pytest.raises(OverflowError):
            ((edge - 1) / 2.0) ** 2
        assert catalog("hardy", dimension=edge, a=1.0).amp > -math.inf
        with pytest.raises(PotentialError, match="dimension"):
            catalog("hardy", dimension=edge + 1, a=1.0)

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

    @pytest.mark.parametrize(
        "name, dimension, params",
        [
            # amp = -a ((d-2)/2)^2 = -6.25e308
            ("hardy", 7, {"a": 1e308}),
            # both parts fit, the modulus 2.1e308 does not
            ("gaussian", 3, {"v0": 1.5e308, "c_im": 1.5e308}),
        ],
    )
    def test_amplitude_past_the_float_range_rejected(self, name, dimension, params):
        with pytest.raises(PotentialError, match="amplitude .* leaves the float range"):
            catalog(name, dimension, **params)

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
            assert catalog(name, **defaults[name]).s == order

    @pytest.mark.parametrize("name,params,profile", SYMBOLIC_PROFILES)
    def test_d_r_rReV_against_symbolic(self, name, params, profile):
        r = sp.symbols("r", positive=True)
        expected = sp.lambdify(r, sp.diff(r * profile(r), r), "numpy")
        pot = catalog(name, dimension=3, **params)
        rs = np.linspace(0.2, 5.0, 40)
        np.testing.assert_allclose(pot.d_r_rReV(rs), expected(rs) + 0.0 * rs, atol=1e-12)

    def test_vanishing_real_part_has_a_positive_zero_derivative(self):
        # Re V = 0 identically: d/dr (r Re V) is +0.0, never 0 * (-1) = -0.0
        for pot in (catalog("imaginary_hardy", beta=0.3), catalog("coulomb_repulsive", c=1.0)):
            got = pot.d_r_rReV(np.geomspace(1e-3, 1e3, 7))
            assert np.all(got == 0.0) and not np.signbit(got).any()

    def test_family_metadata(self):
        # V(r) = amp r^-s exp(-mu r - gamma r^2) 1{r < r0}: jumps only at a finite r0
        assert catalog("square_well", v0=1.0, r0=1.5).jumps == (1.5,)
        assert all(
            catalog(name, **params).jumps == ()
            for name, params, _ in SYMBOLIC_PROFILES
        )

    def test_sign_decomposition_identity(self):
        # |V|^(1/2) * sign(V) * |V|^(1/2) recovers V on the profile.
        pot = catalog("gaussian", v0=2.0, c_im=3.0)
        r = np.linspace(0.1, 4.0, 50)
        v = pot.radial_profile(r)
        half = np.sqrt(pot.abs_radial(r))
        np.testing.assert_allclose(half * pot.sign_radial(r) * half, v, atol=1e-14)

    @pytest.mark.parametrize(
        "name, params",
        [
            ("hardy", {"a": 0.5}),
            ("coulomb_repulsive", {"c": 2.0}),
            ("gaussian", {"v0": 3.0}),
            ("gaussian", {"v0": 0.0}),
            ("yukawa", {"g": 1.5, "mu": 0.7}),
            ("square_well", {"v0": 2.0, "r0": 1.3}),
        ],
    )
    def test_abs_radial_is_exact_on_real_rows(self, name, params):
        # |amp| times the real shape: the same roundings as |V| of the
        # complex profile, so every real row reads bit for bit the same
        pot = catalog(name, **params)
        r = np.concatenate([np.geomspace(1e-30, 1e3, 97), [1.3, np.nextafter(1.3, 0.0)]])
        assert np.array_equal(pot.abs_radial(r), np.abs(pot.radial_profile(r)))

    @pytest.mark.parametrize(
        "name, params",
        [("gaussian", {"v0": 2.3, "c_im": 1.0}), ("imaginary_hardy", {"beta": 0.3})],
    )
    def test_abs_radial_within_two_ulps_on_complex_rows(self, name, params):
        pot = catalog(name, **params)
        r = np.geomspace(1e-30, 20.0, 97)
        want = np.abs(pot.radial_profile(r))
        got = pot.abs_radial(r)
        assert got.dtype == float
        assert np.all(np.abs(got - want) <= 2.0 * np.finfo(float).eps * want)


INF, NAN = float("inf"), float("nan")

# one call per kind of bad input and catalog: (call, error, message)
P, M = PotentialError, MultiplierError
BAD_PARAMS = {
    "missing-a": (lambda: catalog("hardy"), P, "missing required parameter 'a'"),
    "missing-r0": (lambda: catalog("square_well", v0=1.0), P, "missing required parameter 'r0'"),
    "unknown-electric": (lambda: catalog("yukawa", g=1.0, mu=1.0, r0=2.0), P, "unexpected"),
    "unknown-magnetic": (lambda: magnetic_catalog("uniform_z", c=1.0), P, "unexpected"),
    "unknown-multiplier": (lambda: multiplier_catalog("abs", value=1.0), M, "unexpected"),
    "text-electric": (lambda: catalog("hardy", a="0.5"), P, "must be a number"),
    "bool-electric": (lambda: catalog("hardy", a=True), P, "must be a number"),
    "text-magnetic": (lambda: magnetic_catalog("uniform_z", b="x"), P, "must be a number"),
    "text-multiplier": (lambda: multiplier_catalog("constant", value="x"), M, "must be a number"),
    "nan-electric": (lambda: catalog("gaussian", v0=NAN), P, "must be finite"),
    "inf-electric": (lambda: catalog("hardy", a=INF), P, "must be finite"),
    "huge-int-electric": (lambda: catalog("hardy", a=10**400), P, "must be finite"),
    "nan-imag-part": (lambda: catalog("gaussian", v0=1.0, c_im=NAN), P, "must be finite"),
    "inf-magnetic": (lambda: magnetic_catalog("uniform_z", b=-INF), P, "must be finite"),
    "nan-multiplier": (lambda: multiplier_catalog("windowed-square", width=NAN), M, "finite"),
    "zero-radius": (lambda: catalog("square_well", v0=1.0, r0=0.0), P, "r0 must be > 0"),
    "negative-depth": (lambda: catalog("gaussian", v0=-1.0), P, "v0 must be >= 0"),
    "negative-width": (lambda: multiplier_catalog("windowed-square", width=-1.0), M, "> 0"),
}


@pytest.mark.parametrize("case", BAD_PARAMS)
def test_each_catalog_raises_its_own_error_for_bad_parameters(case):
    call, error, message = BAD_PARAMS[case]
    with pytest.raises(error, match=message) as info:
        call()
    # the catalogs' own errors, never a bare KeyError/TypeError/ValueError
    assert type(info.value) is error


def test_optional_parameters_keep_their_defaults():
    assert catalog("gaussian", v0=1.0).amp == complex(-1.0, 0.0)
    assert catalog("gaussian", v0=0.0, c_im=-2).amp == complex(0.0, -2.0)
    assert magnetic_catalog("uniform_z").field_tensor(np.ones(3))[0, 1] == -1.0
    assert multiplier_catalog("windowed-square").window == 0.1


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
        assert complex_sign(v).tolist() == [-1.0, -1.0, 1j]

    def test_real_entries_are_exactly_one_in_modulus(self):
        # numpy's vectorised complex division read -0x1.fffffffffffffp-1 on
        # 8 of these 120 Hardy nodes
        hardy_nodes = catalog("hardy", a=0.5).radial_profile(default_bs_grid(128).nodes)
        assert np.all(complex_sign(hardy_nodes) == -1.0)
        rng = np.random.default_rng(7)
        v = rng.standard_normal(1000) * 10.0 ** rng.uniform(-300, 300, 1000)
        v = np.concatenate([v, [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1.7e308, -1.7e308]])
        s = complex_sign(v)
        assert np.array_equal(s, np.sign(v)) and not s.imag.any()

    def test_complex_entries_have_unit_modulus_within_two_ulp(self):
        rng = np.random.default_rng(11)
        v = (rng.standard_normal(1000) + 1j * rng.standard_normal(1000)) * 10.0 ** rng.uniform(
            -320, 300, 1000
        )
        assert np.max(np.abs(np.abs(complex_sign(v)) - 1.0)) <= 2 * np.finfo(float).eps


class TestMagnetic:
    def test_names_all_constructible(self):
        for name in _MAGNETIC:
            mag = magnetic_catalog(name)
            assert mag.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(PotentialError, match="unknown magnetic"):
            magnetic_catalog("solenoid")

    def test_azimuthal_field_tensor_components(self):
        mag = magnetic_catalog("azimuthal_inverse_square")
        x = np.array([1.0, 2.0, 3.0])
        rho4 = float(np.dot(x, x)) ** 2
        b = mag.field_tensor(x)
        assert b[0, 1] == pytest.approx(-2.0 * x[2] ** 2 / rho4)
        assert b[0, 2] == pytest.approx(2.0 * x[1] * x[2] / rho4)
        assert b[1, 2] == pytest.approx(-2.0 * x[0] * x[2] / rho4)

    @pytest.mark.parametrize(
        "name,params",
        [("azimuthal_inverse_square", {}), ("uniform_z", {"b": 2.5}), ("zero", {})],
    )
    def test_analytic_field_matches_finite_differences(self, name, params):
        mag = magnetic_catalog(name, **params)
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, size=3)
            if np.linalg.norm(x) < 0.3:
                continue
            np.testing.assert_allclose(
                mag.field_tensor(x), _centred_difference_tensor(mag, x), atol=1e-8, rtol=1e-7
            )

    @pytest.mark.parametrize("name", tuple(_MAGNETIC))
    def test_b_tau_closed_form(self, name):
        # B_tau = -k (2 - p) |x|^(-p-1) (-x2, x1, 0) for A = k |x|^-p (-x2, x1, 0):
        # zero for the azimuthal field, -b (-x2, x1, 0)/|x| for uniform_z(b)
        b = 1.7
        mag = magnetic_catalog(name, **({"b": b} if name == "uniform_z" else {}))
        rows = {"azimuthal_inverse_square": (1.0, 2.0), "uniform_z": (b / 2, 0.0), "zero": (0, 0)}
        if name in rows:
            assert (mag.k, mag.p) == rows[name]
        x = np.random.default_rng(23).uniform(-2.0, 2.0, size=(50, 3))
        x = np.where(np.linalg.norm(x, axis=1, keepdims=True) < 0.3, x + 0.5, x)
        rx = np.stack([-x[:, 1], x[:, 0], np.zeros(len(x))], axis=1)
        norm = np.linalg.norm(x, axis=1, keepdims=True)
        expected = -mag.k * (2.0 - mag.p) * norm ** (-mag.p - 1) * rx
        np.testing.assert_allclose(b_tau(mag, x), expected, rtol=1e-13, atol=1e-13)

    def test_field_antisymmetric(self):
        mag = magnetic_catalog("azimuthal_inverse_square")
        x = np.array([0.4, -1.1, 0.7])
        b = mag.field_tensor(x)
        np.testing.assert_allclose(b + b.T, 0.0, atol=1e-15)

    def test_uniform_z_cross_product_convention(self):
        # B v must equal (b e3) x v for the uniform field.
        mag = magnetic_catalog("uniform_z", b=2.0)
        v = np.array([0.3, -0.4, 0.9])
        expected = np.cross(np.array([0.0, 0.0, 2.0]), v)
        np.testing.assert_allclose(mag.field_tensor(np.ones(3)) @ v, expected, atol=1e-14)

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
        for name in _MAGNETIC:
            a = magnetic_catalog(name).vector_potential
            div = sum(
                (a(x + e)[:, j] - a(x - e)[:, j]) / (2 * h) for j, e in enumerate(h * np.eye(3))
            )
            assert np.max(np.abs(div)) <= 1e-6, name

    @pytest.mark.parametrize("name", tuple(_MAGNETIC))
    def test_point_arrays_match_row_by_row(self, name):
        # the (..., d) contract: an array of points gives the stacked
        # single-point values, with the batch shape kept in front
        mag = magnetic_catalog(name)
        pts = np.random.default_rng(5).uniform(-2.0, 2.0, size=(4, 5, 3))
        rows = pts.reshape(-1, 3)
        for fn, tail in (
            (mag.vector_potential, (3,)),
            (mag.field_tensor, (3, 3)),
            (lambda x: _centred_difference_tensor(mag, x), (3, 3)),
            (lambda x: b_tau(mag, x), (3,)),
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

    def test_singular_row_rejects_the_origin(self):
        # A = |x|^-2 (-x2, x1, 0) has p = 2 > 0: neither A nor B exists at 0
        mag = magnetic_catalog("azimuthal_inverse_square")
        pts = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(PotentialError, match="singular at the origin"):
            mag.vector_potential(pts)
        with pytest.raises(PotentialError, match="singular at the origin"):
            mag.field_tensor(pts)
        # p = 0 rows are smooth there
        assert magnetic_catalog("uniform_z").vector_potential(pts).shape == (2, 3)

    def test_field_rejects_wrong_trailing_dimension(self):
        mag = magnetic_catalog("uniform_z")
        with pytest.raises(PotentialError, match="shape"):
            mag.field_tensor(np.ones((4, 2)))
