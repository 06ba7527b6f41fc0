"""Tests for the partial-wave Birman-Schwinger machinery.

The load-bearing oracle here is a 3D Cartesian box quadrature: for a smooth
compactly-concentrated test function F, the integral

    I(x0) = int G_z(x0 - y) F(y) dy

is computed on a tensor Gauss grid with the integrable 1/|x0 - y| singularity
removed by subtracting [F(x0) + grad F(x0).(y - x0)] exp(-|y - x0|^2), whose
G_z-integral is known (the gradient term integrates to zero by symmetry and
the constant term reduces to a 1D radial integral).  Choosing
F = rho^l exp(-rho^2) P_l(cos theta), a solid harmonic times a radial factor,
keeps F smooth at the origin and isolates the sector kernel:

    I(r0 e_3) = g_l^z(r0, .) applied to rho^l exp(-rho^2) in L^2(rho^2 drho).

The same number is reconstructed from the assembled sector matrices by
dividing out the |V|^(1/2) / V_(1/2) dressing, so the comparison exercises the
closed-form l-kernels (Bessel form at z != 0, its power-law limit at z = 0)
and the symmetrization in one shot, against code that never mentions partial
waves.  A second oracle integrates G_z against P_l by angular quadrature and
pins the Bessel kernels entrywise.
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import legval, legvander
from scipy.linalg import svdvals

import spectra_cert.birman_schwinger as bs
from spectra_cert.birman_schwinger import (
    BSError,
    _node_masses,
    _scaled_bessel_factors,
    _sector_kernels,
    assemble_bs,
    bs_principle_matrix_check,
    default_bs_grid,
    green_function,
    green_params,
    hs_norm,
    kappa_scaling,
    log_uniform_grid,
    m_eps_hs_check,
    pointwise_bound_check,
    sector_matrices,
)
from spectra_cert.cli import main
from spectra_cert.numerics import (
    NumericsError,
    gauss_legendre,
    largest_singular_value,
    panel_gauss,
)
from spectra_cert.potentials import catalog


def hardy(a=0.5):
    return catalog("hardy", a=a)


def gaussian(v0=1.0):
    return catalog("gaussian", v0=v0)


SAMPLES = np.geomspace(1e-3, 50.0, 200)


class TestGreenFunction:
    def test_z0_value(self):
        assert green_function(0.0, 1.0) == pytest.approx(1.0 / (4 * math.pi), rel=1e-14)

    def test_decay_value(self):
        # kappa = 1 at z = -1
        want = math.exp(-1.0) / (4 * math.pi)
        assert green_function(-1.0, 1.0) == pytest.approx(want, rel=1e-14)

    def test_origin_asymptotics(self):
        s = 1e-8
        assert green_function(-2.0 + 1j, s) * 4 * math.pi * s == pytest.approx(
            1.0, rel=1e-6
        )

    def test_kappa_values(self):
        assert green_params(-1.0).kappa == pytest.approx(1.0)
        # principal branch: sqrt(-i) has real part cos(pi/4)
        assert green_params(1j).kappa.real == pytest.approx(math.sqrt(0.5), rel=1e-12)
        # on the open positive axis kappa is purely imaginary
        assert green_params(2.0).kappa.real == 0.0

    def test_upper_lip_continuity(self):
        k = green_params(1.0 + 1e-9j).kappa
        assert 0.0 < k.real < 1e-8
        assert k.imag == pytest.approx(-1.0, rel=1e-9)


class TestPointwiseBound:
    def test_sample_points(self):
        for z in (-10.0, -1.0, -0.1, 1j, -1j, -1 + 1j, -1 - 1j):
            assert pointwise_bound_check(z, SAMPLES)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=-50.0, max_value=50.0),
        st.floats(min_value=-50.0, max_value=50.0),
    )
    def test_random_z(self, re, im):
        # keep a bare minimum of distance to the branch-cut lip: for
        # Re z > 0 and |Im z| below ~1e-287 kappa underflows toward 0 and the
        # comparison degenerates to |exp(i theta)| <= 1, which float rounding
        # can break by one ulp; the bound itself holds with equality there
        if re > 0.0 and abs(im) < 1e-6:
            im = math.copysign(1e-6, im if im != 0.0 else 1.0)
        assert pointwise_bound_check(complex(re, im), SAMPLES)

    def test_positive_axis_rejected(self):
        with pytest.raises(BSError):
            pointwise_bound_check(2.0, SAMPLES)


class TestSectorMatrices:
    def test_positive_axis_rejected(self):
        g = default_bs_grid(40, 10.0)
        with pytest.raises(BSError):
            list(sector_matrices(gaussian(), 3.0, g, ell_max=1))

    def test_z_to_zero_continuity(self):
        # The l = 0 sector differs from its z = 0 limit at O(kappa): the
        # constant term -kappa/(4 pi) of G_z - G_0 projects onto l = 0 only.
        # At z = -1e-10, kappa = 1e-5, so the gap is kappa-sized there and
        # roundoff-sized for l >= 1.
        g = default_bs_grid(80, 20.0)
        exact = dict(sector_matrices(gaussian(), 0.0, g, ell_max=2))
        near = dict(sector_matrices(gaussian(), -1e-10, g, ell_max=2))
        for ell in range(3):
            gap = np.max(np.abs(exact[ell] - near[ell])) / np.max(np.abs(exact[ell]))
            assert gap <= (1e-4 if ell == 0 else 1e-8)

    def test_real_signed_potential_symmetric(self):
        # For real V the symmetrized kernel sqrt|V| g_l V_(1/2) picks up a
        # global sign but stays symmetric.
        g = default_bs_grid(60, 20.0)
        for ell, m in sector_matrices(catalog("coulomb_repulsive", c=1.0), 0.0, g, 1):
            assert np.max(np.abs(m - m.T)) <= 1e-14 * np.max(np.abs(m))


def angular_sector_kernels(z, r, ell_max, n_ang=512):
    """g_l^z by Gauss quadrature of the Legendre coefficient of G_z.

    Only G_z - G_0 is integrated (it is bounded on the diagonal); the z = 0
    part is the classical r_<^l / ((2l+1) r_>^(l+1)).  The substitution
    t = 1 - 2 v^2 gives s = sqrt((r - r')^2 + 4 r r' v^2) and weight 4 v dv.
    """
    kappa = green_params(z).kappa
    v, wv = gauss_legendre(n_ang, 0.0, 1.0)
    weighted_p = legvander(1.0 - 2.0 * v**2, ell_max).T * (4.0 * v * wv)
    out = np.empty((ell_max + 1, r.size, r.size), dtype=np.complex128)
    for lo in range(0, r.size, 16):
        rows = r[lo : lo + 16, np.newaxis, np.newaxis]
        s = np.sqrt((rows - r[:, np.newaxis]) ** 2 + 4.0 * rows * r[:, np.newaxis] * v**2)
        g = (np.exp(-kappa * s) - 1.0) / (4.0 * np.pi * s)
        out[:, lo : lo + 16, :] = 2.0 * np.pi * np.einsum("ijk,lk->lij", g, weighted_p)
    r_lo, r_hi = np.minimum.outer(r, r), np.maximum.outer(r, r)
    for ell in range(ell_max + 1):
        out[ell] += r_lo**ell / ((2 * ell + 1) * r_hi ** (ell + 1))
    return out


class TestClosedFormKernels:
    R128 = default_bs_grid(n=128).nodes

    @pytest.mark.parametrize("z", [-1.0, 1j, -1 + 1j, 10 + 0.02j, 16 - 0.001j])
    def test_matches_angular_quadrature(self, z):
        # measured: <= 4.4e-16 of each sector's largest entry
        ref = angular_sector_kernels(z, self.R128, 8)
        for ell, g in _sector_kernels(z, self.R128, 8):
            assert np.max(np.abs(g - ref[ell])) <= 1e-12 * np.max(np.abs(ref[ell]))

    def test_z0_is_the_power_recursion(self):
        # the z = 0 kernels run no Bessel arithmetic at all
        r = self.R128
        r_lo, r_hi = np.minimum.outer(r, r), np.maximum.outer(r, r)
        power = 1.0 / r_hi
        for ell, g in _sector_kernels(0.0, r, 6):
            assert np.array_equal(g, power / (2 * ell + 1))
            power = power * (r_lo / r_hi)

    @pytest.mark.parametrize(
        "n,z", [(1600, 1j), (1600, -5.0), (1600, 10 + 0.02j), (256, -1000.0)]
    )
    def test_finite_at_grid_extremes(self, n, z):
        # n = 1600 reaches r_min ~ 4e-79; z = -1000 has Re kappa r_max ~ 1265
        r = default_bs_grid(n).nodes
        for _, g in _sector_kernels(z, r, 8):
            assert np.all(np.isfinite(g))

    def test_grid_whose_inner_panels_underflow_is_refused(self):
        # 700 panels of ratio sqrt(10) below r_max = 40 would reach 4e-349,
        # below the smallest double; 640 panels still end at 4e-319
        default_bs_grid(6400)
        with pytest.raises(BSError, match="reach r = 0"):
            default_bs_grid(7000)
        with pytest.raises(BSError, match="reach r = 0"):
            default_bs_grid(10**30)

    def test_scaled_i_factor_branches_agree_up_to_the_cap(self):
        # at |x| >= 1 A_l comes from ive; pin it against the power series
        # A_l(x) = e^-x sum_k (x^2/2)^k / (k! prod_{j<=k} (2l+2j+1)) where the
        # loss of the (2l+1)!! x^-l scaling is worst, just above |x| = 1;
        # measured <= 1.4e-13, the rounding of l factors in that scaling
        x = np.array([1.0, 1.3j, 1.2 * np.exp(0.25j * np.pi)])
        for ell, a in enumerate(_scaled_bessel_factors(x, 128)[0]):
            term, total = np.ones_like(x), np.ones_like(x)
            for k in range(1, 40):
                term = term * (x**2 / 2) / (k * (2 * ell + 2 * k + 1))
                total = total + term
            np.testing.assert_allclose(a, np.exp(-x) * total, rtol=1e-12, atol=0)

    def test_out_of_range_kernels_raise(self):
        r = default_bs_grid(n=64).nodes
        with pytest.raises(BSError, match="exceeds"):
            list(_sector_kernels(1j, r, 129))
        # kappa r ~ 4e5: B_l overflows near the diagonal long before l = 128
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BSError, match="overflows"):
                list(_sector_kernels(-1e8, r, 100))


class TestBoxOracle:
    """Sector action vs the subtraction-corrected 3D box quadrature."""

    GRID = log_uniform_grid(0.01, 10.0, 800)

    def predicted(self, ell, z):
        # Undress the module's symmetrized sector matrix: with V the unit
        # gaussian, M f picks up -|V|^(1/2)(r) ... exp(-rho^2/2) factors that
        # divide out exactly, leaving int g_l^z(r, rho) rho^l e^(-rho^2)
        # rho^2 drho at the sample radius.
        r, w = self.GRID.nodes, self.GRID.weights
        idx = int(np.argmin(np.abs(r - 1.3)))
        m = dict(sector_matrices(gaussian(), z, self.GRID, ell_max=ell))[ell]
        u = np.sqrt(w) * r ** (1 + ell) * np.exp(-(r**2) / 2)
        mv = m @ u
        return complex(-mv[idx] * np.exp(r[idx] ** 2 / 2) / (r[idx] * np.sqrt(w[idx]))), float(
            r[idx]
        )

    def box_direct(self, ell, z, r0, n=64, half=7.0):
        # tensor Gauss grid on [-half, half]^3; even n keeps nodes off the origin
        nodes, weights = gauss_legendre(n, -half, half)
        pts = np.stack(np.meshgrid(nodes, nodes, nodes, indexing="ij"), axis=-1).reshape(-1, 3)
        wts = np.multiply.outer(np.multiply.outer(weights, weights), weights).ravel()
        x0 = np.array([0.0, 0.0, r0])

        cl = np.zeros(ell + 1)
        cl[ell] = 1.0

        def f_val(p):
            rr = np.linalg.norm(p, axis=-1)
            ct = np.where(rr > 0, p[..., 2] / np.maximum(rr, 1e-300), 1.0)
            return np.exp(-(rr**2)) * rr**ell * legval(ct, cl)

        F = f_val(pts)
        diff = pts - x0
        s = np.linalg.norm(diff, axis=1)
        kappa = green_params(z).kappa
        G = np.where(s > 0, np.exp(-kappa * s) / (4 * np.pi * np.maximum(s, 1e-300)), 0.0)

        # remove the value-plus-gradient probe; what is left is C^1 at x0
        h = 1e-5
        F0 = float(f_val(x0))
        grad = np.array(
            [
                (f_val(x0 + h * e) - f_val(x0 - h * e)) / (2 * h)
                for e in np.eye(3)
            ]
        )
        bump = (F0 + diff @ grad) * np.exp(-(s**2))
        main = np.dot(wts, (F - bump) * G)
        # gradient part integrates to zero by symmetry; the value part is
        # F0 int_0^inf s exp(-kappa s - s^2) ds (box tails beyond s = 12 are
        # below 1e-60)
        sq, wq = gauss_legendre(200, 0.0, 12.0)
        val = F0 * np.dot(wq, sq * np.exp(-kappa * sq - sq**2))
        return complex(main + val)

    @pytest.mark.parametrize(
        "ell,z",
        [(0, 0.0), (0, -1.0), (0, 1j), (1, 0.0), (1, 1j), (2, 0.0)],
    )
    def test_sector_action_matches_box(self, ell, z):
        # measured gaps at these settings: 6.6e-5 .. 2.6e-4, the box rule's
        # own floor (the subtracted integrand is C^1, not C^2, at x0)
        pred, r0 = self.predicted(ell, z)
        box = self.box_direct(ell, z, r0)
        assert abs(pred - box) / abs(box) <= 1e-3


class TestAssemble:
    def test_hardy_sector_decay_law(self):
        # scale-invariant a/r^2 sector norms follow a/(2l+1)^2; the l = 0
        # value creeps up to 0.5 under refinement (checked elsewhere), the
        # higher sectors converge fast enough to pin at this resolution
        bm = assemble_bs(hardy(), 0.0, default_bs_grid(n=200), ell_max=2)
        assert bm.norm == bm.per_ell_norms[0]
        assert not bm.tail_warning
        assert bm.per_ell_norms[0] == pytest.approx(0.4745, rel=2e-3)
        assert bm.per_ell_norms[1] == pytest.approx(0.5 / 9, rel=2e-2)
        assert bm.per_ell_norms[2] == pytest.approx(0.5 / 25, rel=2e-2)

    def test_norm_is_max_over_sectors(self):
        bm = assemble_bs(gaussian(), -1.0, default_bs_grid(n=120), ell_max=3)
        assert bm.norm == max(bm.per_ell_norms)

    def test_keeps_no_sector_matrix(self):
        # the family is reduced to per-sector norms; no n x n array survives
        bm = assemble_bs(gaussian(), -1.0, default_bs_grid(n=120), ell_max=3)
        for f in dataclasses.fields(bm):
            assert not isinstance(getattr(bm, f.name), np.ndarray), f.name
        assert len(bm.per_ell_norms) == len(bm.per_ell_frobenius) == 4

    def test_zero_potential(self):
        bm = assemble_bs(gaussian(0.0), 0.0, default_bs_grid(n=80), ell_max=2)
        assert bm.norm == 0.0
        assert bm.per_ell_norms == bm.per_ell_frobenius == (0.0, 0.0, 0.0)

    def test_summary_is_json_ready(self):
        bm = assemble_bs(gaussian(), 1j, default_bs_grid(n=80), ell_max=2)
        s = bm.summary()
        assert list(s) == [
            "z_re",
            "z_im",
            "norm",
            "hs_norm",
            "per_ell_norms",
            "tail_warning",
        ]
        json.dumps(s)
        assert s["z_im"] == 1.0
        assert s["hs_norm"] >= s["norm"]

    def test_hs_estimate_dominates_norm(self):
        # HS norm of the full family dominates the operator norm
        bm = assemble_bs(gaussian(), 0.0, default_bs_grid(n=120), ell_max=8)
        assert bm.hs_estimate() >= bm.norm

    def test_unresolved_tail_warns(self):
        # kappa r0 ~ 25 needs l ~ 25 before the sectors decay; at ell_max = 6
        # the norms still hover around 0.6 and the last one does not drop
        well = catalog("square_well", v0=1.0, r0=5.0)
        bm = assemble_bs(well, 25 + 0.01j, default_bs_grid(n=120), ell_max=6)
        assert bm.tail_warning

    def test_zero_family_does_not_warn(self):
        bm = assemble_bs(gaussian(0.0), -1.0, default_bs_grid(n=80), ell_max=2)
        assert bm.per_ell_norms == bm.per_ell_frobenius == (0.0, 0.0, 0.0)
        assert not bm.tail_warning


def dense_sector_norms(potential, z, grid, ell_max):
    """(sigma_max, |M_l|_F^2) of each dense sector matrix, by LAPACK svdvals."""
    out = []
    for _, m in sector_matrices(potential, z, grid, ell_max=ell_max):
        if not np.any(m.imag):  # a real kernel and sign: same values, half the cost
            m = m.real
        out.append((float(svdvals(m)[0]), float(np.sum(np.abs(m) ** 2))))
    return out


# (potential, grid, ell_max, real z list): Test03's nine sectors; the deepest
# default grid (r down to 4e-79) at the extremes of kappa; a Bessel route at
# l up to 16; a square well, whose 34 V = 0 nodes of 800 are dropped; the Hardy pair
# on Test02's grid at Test02's real z, and Test02's refinement ladder
TRIDIAGONAL_CASES = {
    "test03": (gaussian(), log_uniform_grid(0.02, 16.0, 1600), 8, (0.0,)),
    "gaussian-deep": (gaussian(), default_bs_grid(1600), 1, (0.0, -1000.0)),
    "yukawa-800": (catalog("yukawa", g=1.0, mu=1.0), default_bs_grid(800), 16, (-1.0,)),
    "square-well": (catalog("square_well", v0=1.0, r0=1.0), default_bs_grid(800), 4, (0.0, -1.0)),
    "hardy-256": (hardy(), default_bs_grid(256), 4, (0.0, -0.1, -1.0, -10.0)),
    "imaginary-hardy-256": (
        catalog("imaginary_hardy", beta=0.3), default_bs_grid(256), 4, (0.0, -0.1, -1.0, -10.0)
    ),
    "hardy-200": (hardy(), default_bs_grid(200), 0, (0.0,)),
    "hardy-400": (hardy(), default_bs_grid(400), 0, (0.0,)),
    "hardy-800": (hardy(), default_bs_grid(800), 0, (0.0,)),
}


class TestInverseTridiagonalSectors:
    """Real z <= 0: sector norms from the tridiagonal inverse, no n x n matrix."""

    @pytest.mark.parametrize("case", list(TRIDIAGONAL_CASES))
    def test_matches_dense_svd(self, case):
        # measured: sigma_max within 1.1e-12 (Test03 sectors; <= 5e-14 elsewhere),
        # |M|_F^2 within 2e-15 of the dense sums
        potential, grid, ell_max, zs = TRIDIAGONAL_CASES[case]
        for z in zs:
            bm = assemble_bs(potential, z, grid, ell_max=ell_max)
            dense = dense_sector_norms(potential, z, grid, ell_max)
            assert len(bm.per_ell_norms) == len(dense) == ell_max + 1
            for sigma, fro, (sigma_dense, fro_sq_dense) in zip(
                bm.per_ell_norms, bm.per_ell_frobenius, dense
            ):
                assert abs(sigma - sigma_dense) <= 1e-10 * sigma_dense, (z, sigma, sigma_dense)
                assert abs(fro**2 - fro_sq_dense) <= 1e-13 * fro_sq_dense, (z, fro, fro_sq_dense)

    def test_overflow_raises(self):
        # kappa r ~ 4e5: A_l underflows and B_l overflows long before l = 100,
        # as in the dense kernels; no sector value may come back silently
        grid = default_bs_grid(n=64)
        with pytest.raises(BSError, match="overflows"):
            assemble_bs(gaussian(), -1e8, grid, ell_max=100)
        with pytest.raises(BSError, match="exceeds"):
            assemble_bs(gaussian(), -1.0, grid, ell_max=129)

    def test_rejects_what_the_dense_route_rejects(self):
        grid = default_bs_grid(n=64)
        with pytest.raises(BSError, match="positive axis"):
            assemble_bs(gaussian(), 2.0, grid, ell_max=1)
        with pytest.raises(BSError, match="ell_max"):
            assemble_bs(gaussian(), -1.0, grid, ell_max=-1)
        with pytest.raises(BSError, match="three-dimensional"):
            assemble_bs(catalog("gaussian", v0=1.0, dimension=4), 0.0, grid, ell_max=1)

    def test_forms_no_sector_matrix(self, monkeypatch):
        grid = default_bs_grid(120)
        zs = (0.0, -1.0, -10.0)
        want = [assemble_bs(gaussian(), z, grid, ell_max=4) for z in zs]

        def refuse(*args, **kwargs):
            raise AssertionError("real z must not assemble sector matrices")

        for name in ("sector_matrices", "_sector_kernels", "largest_singular_value"):
            monkeypatch.setattr(bs, name, refuse)
        assert [assemble_bs(gaussian(), z, grid, ell_max=4) for z in zs] == want

    def test_complex_z_keeps_the_dense_svd(self, monkeypatch):
        # one dense check per complex z, on the sector that attains the norm
        calls = []

        def counted(m):
            calls.append(m)
            return largest_singular_value(m)

        monkeypatch.setattr(bs, "largest_singular_value", counted)
        bm = assemble_bs(gaussian(), -1.0 + 1j, default_bs_grid(80), ell_max=2)
        # the sector is rebuilt on the kept nodes: 65 of the 75 where V != 0
        assert [m.shape for m in calls] == [(65, 65)]
        assert abs(svdvals(calls[0])[0] - bm.norm) <= 1e-10 * bm.norm


# (potential, grid, ell_max, complex z list): Test02's grid and complex z plus
# z = 1e-9 i next to the cut for the Hardy pair; gaussian with and without an
# imaginary part on both grid kinds; yukawa a hair off the positive axis;
# a square well, whose V = 0 nodes are dropped
SEMISEPARABLE_CASES = {
    "hardy-256": (hardy(), default_bs_grid(256), 4, (1j, -1j, -1 + 1j, -1 - 1j, 1e-9j)),
    "imaginary-hardy-256": (
        catalog("imaginary_hardy", beta=0.3), default_bs_grid(256), 4, (1e-9j, -1 - 1j)
    ),
    "gaussian-400": (gaussian(), default_bs_grid(400), 4, (1j,)),
    "gaussian-c_im-400": (
        catalog("gaussian", v0=1.0, c_im=1.5), default_bs_grid(400), 4, (-1 + 1j,)
    ),
    "gaussian-log-400": (gaussian(), log_uniform_grid(0.02, 16.0, 400), 4, (3 + 0.5j,)),
    "gaussian-c_im-log-400": (
        catalog("gaussian", v0=1.0, c_im=1.5), log_uniform_grid(0.02, 16.0, 400), 4, (1j,)
    ),
    "yukawa-400": (catalog("yukawa", g=1.0, mu=1.0), default_bs_grid(400), 4, (30 + 1e-13j,)),
    "square-well-400": (
        catalog("square_well", v0=1.0, r0=1.0), default_bs_grid(400), 4, (5 + 1j,)
    ),
}
BS_NORM_HARDY = Path(__file__).parents[1] / "scripts" / "configs" / "bs_norm_hardy.json"


def run_bs_norm_hardy(tmp_path):
    return main(["run", str(BS_NORM_HARDY), "--set", f"output.path={tmp_path / 'bs'}"])


class TestSemiseparableSectors:
    """Complex z: sigma_max by ARPACK on O(n) products, one dense check per z."""

    @pytest.mark.parametrize("case", list(SEMISEPARABLE_CASES))
    def test_matches_dense_svd(self, case):
        # measured: sigma_max within 2e-15, |M|_F^2 within 1.1e-15 of the dense values
        potential, grid, ell_max, zs = SEMISEPARABLE_CASES[case]
        for z in zs:
            bm = assemble_bs(potential, z, grid, ell_max=ell_max)
            dense = dense_sector_norms(potential, z, grid, ell_max)
            assert len(bm.per_ell_norms) == len(dense) == ell_max + 1
            for sigma, fro, (sigma_dense, fro_sq_dense) in zip(
                bm.per_ell_norms, bm.per_ell_frobenius, dense
            ):
                assert abs(sigma - sigma_dense) <= 1e-10 * sigma_dense, (z, sigma, sigma_dense)
                assert abs(fro**2 - fro_sq_dense) <= 1e-13 * fro_sq_dense, (z, fro, fro_sq_dense)

    def test_overflow_raises(self):
        with pytest.raises(BSError, match="overflows"):
            assemble_bs(gaussian(), -1e8 + 1j, default_bs_grid(n=64), ell_max=100)

    def test_arpack_failure_raises_and_run_exits_1(self, tmp_path, monkeypatch, capsys):
        def failed(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackError(-9999)

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", failed)
        with pytest.raises(NumericsError, match="ARPACK sigma_max"):
            assemble_bs(hardy(), 1j, default_bs_grid(64), ell_max=1)
        assert run_bs_norm_hardy(tmp_path) == 1
        assert "ARPACK sigma_max" in capsys.readouterr().err

    def test_wrong_ritz_value_raises_and_run_exits_1(self, tmp_path, monkeypatch, capsys):
        exact = scipy.sparse.linalg.eigs

        def planted(*args, **kwargs):
            thetas, vectors = exact(*args, **kwargs)
            return thetas * (1 + 1e-8), vectors

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", planted)
        with pytest.raises(NumericsError, match="Ritz residual"):
            assemble_bs(hardy(), 1j, default_bs_grid(64), ell_max=1)
        assert run_bs_norm_hardy(tmp_path) == 1
        assert "Ritz residual" in capsys.readouterr().err

    def test_smaller_singular_value_raises_and_run_exits_1(self, tmp_path, monkeypatch, capsys):
        # a true but smaller eigenpair of M^H M passes the Ritz residual check;
        # the 10th largest lies below |M|_F^2 / n on these Hardy sectors
        def tenth_largest(op, **kwargs):
            gram = np.column_stack([op.matvec(e) for e in np.eye(op.shape[0])])
            thetas, vectors = np.linalg.eigh(gram)
            return thetas[-10:-9], vectors[:, -10:-9]

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", tenth_largest)
        with pytest.raises(NumericsError, match="below"):
            assemble_bs(hardy(), 1j, default_bs_grid(64), ell_max=1)
        assert run_bs_norm_hardy(tmp_path) == 1
        assert "|M|_F / sqrt(n)" in capsys.readouterr().err

    def test_value_off_the_dense_svd_raises_and_run_exits_1(
        self, tmp_path, monkeypatch, capsys
    ):
        exact = bs.operator_largest_singular_value

        def planted(*args):
            sigma, v = exact(*args)
            return (1 + 1e-8) * sigma, v

        monkeypatch.setattr(bs, "operator_largest_singular_value", planted)
        with pytest.raises(NumericsError, match="misses the dense SVD"):
            assemble_bs(hardy(), 1j, default_bs_grid(64), ell_max=1)
        assert run_bs_norm_hardy(tmp_path) == 1
        assert "misses the dense SVD" in capsys.readouterr().err

    def test_wrong_frobenius_mass_raises_and_run_exits_1(self, tmp_path, monkeypatch, capsys):
        # the dense check compares the rebuilt sector's |M|_F^2 with the
        # running sum, which also covers the nodes the deflation dropped
        exact = bs._node_masses

        def heavier(*args, **kwargs):
            low, up, mass, fro_sq = exact(*args, **kwargs)
            return low, up, mass, (1 + 1e-8) * fro_sq

        monkeypatch.setattr(bs, "_node_masses", heavier)
        with pytest.raises(NumericsError, match="misses the running sum"):
            assemble_bs(hardy(), 1j, default_bs_grid(64), ell_max=1)
        assert run_bs_norm_hardy(tmp_path) == 1
        assert "misses the running sum" in capsys.readouterr().err


class TestDeflation:
    """Leading and trailing nodes that carry less than eps^2 / n of every
    |M_l|_F^2 are dropped before any sigma_max is taken."""

    @staticmethod
    def kept(potential, z, grid, ell_max):
        support = int(np.count_nonzero(potential.abs_radial(grid.nodes)))
        return support, bs._sector_family(potential, complex(z), grid, ell_max).r.size

    def test_gaussian_deep_keeps_few_nodes(self):
        # measured: 255 of 1595 at z = 0, 270 at z = -1000
        potential, grid, ell_max, zs = TRIDIAGONAL_CASES["gaussian-deep"]
        for z in zs:
            support, kept = self.kept(potential, z, grid, ell_max)
            assert support == 1595
            assert kept < 400, (z, kept)

    @pytest.mark.parametrize(
        "potential, grid, ell_max, zs",
        [case for name, case in TRIDIAGONAL_CASES.items() if "hardy" in name]
        + [case for name, case in SEMISEPARABLE_CASES.items() if "hardy" in name],
        ids=[f"real-z-{name}" for name in TRIDIAGONAL_CASES if "hardy" in name]
        + [f"complex-z-{name}" for name in SEMISEPARABLE_CASES if "hardy" in name],
    )
    def test_hardy_keeps_its_whole_support(self, potential, grid, ell_max, zs):
        for z in zs:
            support, kept = self.kept(potential, z, grid, ell_max)
            assert kept == support, (z, kept, support)

    def test_dropped_mass_is_below_the_budget(self):
        # dense: the dropped rows and columns carry at most eps^2 / n of each
        # |M_l|_F^2, and the kept block has the full sector's sigma_max
        potential, grid = catalog("yukawa", g=1.0, mu=1.0), default_bs_grid(400)
        for z in (0.0, -1.0 + 1j):
            family = bs._sector_family(potential, complex(z), grid, 2)
            support = potential.abs_radial(grid.nodes) > 0.0
            keep = np.isin(grid.nodes[support], family.r)
            assert family.r.size < support.sum()
            for ell, m in sector_matrices(potential, z, grid, ell_max=2):
                m = m[np.ix_(support, support)]
                block = m[np.ix_(keep, keep)]
                full, fro_sq = svdvals(m)[0], np.sum(np.abs(m) ** 2)
                dropped = np.sum(np.abs(m[~np.outer(keep, keep)]) ** 2)
                assert 0.0 < dropped <= np.finfo(float).eps ** 2 / support.sum() * fro_sq
                # both dense values carry their own n eps rounding
                assert abs(full - svdvals(block)[0]) <= 1e-14 * full


class TestNormScan:
    """K_z stays below K_0 along z, checked sector family by family."""

    def test_hardy_scan_below_base(self):
        g = default_bs_grid(n=200)
        base = assemble_bs(hardy(), 0.0, g, ell_max=2).norm
        for z in (-1.0, 1j):
            n = assemble_bs(hardy(), z, g, ell_max=2).norm
            assert n <= base
            assert n <= 0.5

    def test_gaussian_monotone_along_negative_axis(self):
        g = default_bs_grid(n=120)
        norms = [assemble_bs(gaussian(), z, g, ell_max=1).norm for z in (-0.5, -2.0, -8.0)]
        assert norms[0] > norms[1] > norms[2]

    def test_zero_potential_scan(self):
        g = default_bs_grid(n=80)
        for z in (-1.0, 2j):
            assert assemble_bs(gaussian(0.0), z, g, ell_max=8).norm == 0.0


class TestHSNorm:
    def test_gaussian_dual_route(self):
        res = hs_norm(gaussian(), grid=log_uniform_grid(0.02, 8.0, 1200), ell_max=32)
        assert not res.diverged
        assert res.rel_gap <= 1e-3
        # frozen reference value for the unit gaussian (both routes agree on
        # it to 2e-4; the Rollnik side is anchored independently in the
        # condition-checker tests)
        assert res.matrix_route == pytest.approx(0.443198, rel=2e-3)

    def test_operator_norm_below_hs(self):
        res = hs_norm(gaussian(), grid=log_uniform_grid(0.02, 8.0, 1200), ell_max=32)
        sigma = assemble_bs(gaussian(), 0.0, default_bs_grid(n=200), ell_max=8).norm
        assert sigma <= res.matrix_route

    def test_hardy_diverges(self):
        res = hs_norm(hardy())
        assert res.diverged
        assert math.isinf(res.matrix_route) and math.isinf(res.rollnik_route)
        assert math.isnan(res.rel_gap)

    def test_zero_potential(self):
        res = hs_norm(gaussian(0.0), grid=log_uniform_grid(0.1, 4.0, 200), ell_max=4)
        assert res.matrix_route == 0.0
        assert res.rollnik_route == 0.0
        assert res.rel_gap == 0.0

    def test_zero_potential_sectors_exactly_zero(self):
        grid = default_bs_grid(200)
        with np.errstate(all="raise"):
            fro_sq = _node_masses(grid.nodes, 8, np.zeros(grid.n))[3]
        assert fro_sq.tolist() == [0.0] * 9

    @pytest.mark.parametrize(
        "potential, grid, ell_max",
        [
            (gaussian(), log_uniform_grid(0.02, 16.0, 1600), 48),
            (catalog("yukawa", g=1.0, mu=1.0), log_uniform_grid(0.02, 40.0, 800), 16),
            (catalog("square_well", v0=1.0, r0=1.0), default_bs_grid(1600), 48),
        ],
        ids=["gaussian-1600", "yukawa-800", "square_well-deep"],
    )
    def test_running_sums_match_dense_sectors(self, potential, grid, ell_max):
        # default_bs_grid(1600) reaches r ~ 4e-79, where r^(2l) alone
        # underflows for l >= 2, so the running sums must never form it
        alpha = potential.abs_radial(grid.nodes) * grid.nodes**2 * grid.weights
        fast = _node_masses(grid.nodes, ell_max, alpha)[3]
        assert fast.shape == (ell_max + 1,)
        for ell, m in sector_matrices(potential, 0.0, grid, ell_max=ell_max):
            dense = float(np.sum(np.abs(m) ** 2))
            assert dense > 0.0
            assert abs(fast[ell] - dense) <= 1e-13 * dense

    def test_forms_no_sector_matrix(self, monkeypatch):
        grid = log_uniform_grid(0.02, 8.0, 400)
        want = hs_norm(gaussian(), grid=grid, ell_max=8)

        def refuse(*args, **kwargs):
            raise AssertionError("hs_norm must not assemble sector matrices")

        monkeypatch.setattr(bs, "sector_matrices", refuse)
        monkeypatch.setattr(bs, "_sector_kernels", refuse)
        assert hs_norm(gaussian(), grid=grid, ell_max=8) == want

    def test_rejects_bad_ell_max_and_potential(self):
        with pytest.raises(BSError):
            hs_norm(gaussian(), ell_max=-1)
        with pytest.raises(BSError):
            hs_norm(hardy(), ell_max=-1)
        with pytest.raises(BSError):
            hs_norm(catalog("gaussian", v0=1.0, dimension=4))

    def test_log_uniform_grid_validation(self):
        with pytest.raises(BSError):
            log_uniform_grid(0.0, 8.0, 400)
        with pytest.raises(BSError):
            log_uniform_grid(1.0, 0.5, 400)
        with pytest.raises(BSError):
            log_uniform_grid(0.1, 8.0, 10)

    def test_log_uniform_grid_integrates(self):
        g = log_uniform_grid(1e-4, 30.0, 600)
        total = float(np.dot(g.weights, np.exp(-g.nodes)))
        want = math.exp(-1e-4) - math.exp(-30.0)
        assert total == pytest.approx(want, rel=1e-12)


class TestPrincipleMatrixCheck:
    def test_two_by_two_by_hand(self):
        # H0 = [[0,1],[1,0]], V = -3 I: eigenpairs of H0 + V are
        # (-2, (1,1)) and (-4, (1,-1)), both off spec(H0) = {-1, 1}
        h0 = np.array([[0.0, 1.0], [1.0, 0.0]])
        v = np.array([-3.0, -3.0])
        for lam, psi in [(-2.0, np.array([1.0, 1.0])), (-4.0, np.array([1.0, -1.0]))]:
            assert bs_principle_matrix_check(h0, v, lam, psi) <= 1e-12

    def test_partial_support_by_hand(self):
        # diagonal everything, V supported on the first site only
        h0 = np.diag([1.0, 2.0])
        v = np.array([-3.0, 0.0])
        psi = np.array([1.0, 0.0])
        assert bs_principle_matrix_check(h0, v, -2.0, psi) <= 1e-14

    def test_random_complex_eigenpairs(self):
        rng = np.random.default_rng(7)
        hits = 0
        while hits < 10:
            n = 6
            h0 = rng.standard_normal((n, n))
            h0 = (h0 + h0.T) / 2
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            lams, vecs = np.linalg.eig(h0 + np.diag(v))
            spec0 = np.linalg.eigvalsh(h0)
            for k in range(n):
                if np.min(np.abs(spec0 - lams[k])) < 1e-3:
                    continue
                res = bs_principle_matrix_check(h0, v, lams[k], vecs[:, k])
                assert res <= 1e-8
                hits += 1

    def test_near_spectrum_rejected(self):
        h0 = np.diag([1.0, 2.0])
        with pytest.raises(BSError, match="spectrum"):
            bs_principle_matrix_check(h0, np.array([-1.0, 0.0]), 1.0 + 1e-12, np.array([1.0, 0.0]))

    def test_vanishing_phi_rejected(self):
        h0 = np.diag([1.0, 2.0])
        with pytest.raises(BSError, match="vanishes"):
            bs_principle_matrix_check(h0, np.array([0.0, 0.0]), -1.0, np.array([1.0, 0.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(BSError, match="shape"):
            bs_principle_matrix_check(
                np.eye(3), np.array([1.0, 2.0]), -1.0, np.array([1.0, 0.0, 0.0])
            )


class TestKappaScaling:
    def test_sqrt_regime(self):
        out = kappa_scaling(0.0, [1e-3, 1e-4])
        for eps, kap, regime in out:
            assert regime == "sqrt"
            assert kap == pytest.approx(math.sqrt(eps / 2.0), rel=1e-9)

    def test_linear_regime(self):
        out = kappa_scaling(1.0, [1e-3, 1e-4])
        for eps, kap, regime in out:
            assert regime == "linear"
            assert kap == pytest.approx(eps / 2.0, rel=1e-5)

    def test_constant_regime(self):
        for lam in (-1.0, 0.5 + 2j, -1.0 + 1j):
            out = kappa_scaling(lam, [1e-3, 1e-4])
            kref = green_params(lam).kappa.real
            for _, kap, regime in out:
                assert regime == "constant"
                assert kap == pytest.approx(kref, rel=1e-3)

    def test_zero_eps_rejected(self):
        with pytest.raises(BSError):
            kappa_scaling(0.0, [0.0, 1e-3])

    def test_off_asymptote_rejected(self):
        # far outside the small-eps window the linear regime slope degrades
        # to ~2/3, which the built-in slope check must catch
        with pytest.raises(BSError, match="slope"):
            kappa_scaling(1.0, [2.0, 4.0])


class TestMepsHSCheck:
    def test_gaussian_lambda_zero(self):
        recs = m_eps_hs_check(gaussian(), 2.0, 0.0, [0.4, 0.2, 0.1, 0.05])
        gaps = [r.rel_gap for r in recs]
        # measured 8.1e-3 .. 2.9e-3, shrinking with eps as the kernel range
        # and the truncation tail both contract
        assert all(g <= 2e-2 for g in gaps)
        assert gaps[-1] < gaps[0]
        # kappa = sqrt(eps / 2) shrinks with eps
        kappas = [r.kappa for r in recs]
        assert kappas == sorted(kappas, reverse=True)
        assert kappas[0] == pytest.approx(math.sqrt(0.2), rel=1e-12)

    def test_constant_regime_formula_stable(self):
        # kappa freezes at 1 for lam = -1, so halving eps moves the closed
        # form by O(eps^2) only
        r1 = m_eps_hs_check(gaussian(), 2.0, -1.0, [0.2])[0]
        r2 = m_eps_hs_check(gaussian(), 2.0, -1.0, [0.1])[0]
        drift = abs(r1.hs_formula - r2.hs_formula) / r1.hs_formula
        assert drift <= 5e-3
        assert r1.rel_gap <= 2.5e-2 and r2.rel_gap <= 2.5e-2

    def test_hardy_cutoff_is_hs(self):
        # chi_Omega |V|^(1/2) G_z is Hilbert-Schmidt even for the borderline
        # a/r^2 potential: r^-2 is integrable on a 3-ball
        recs = m_eps_hs_check(hardy(), 1.0, 0.0, [0.2, 0.1])
        for r in recs:
            assert math.isfinite(r.hs_direct)
            assert r.rel_gap <= 1e-2

    @pytest.mark.parametrize(
        "v0, r0, radius", [(2.0, 1.3, 2.0), (1.0, 0.7, 1.0), (3.0, 1.55, 2.0), (2.0, 2.5, 1.0)]
    )
    def test_square_well_ball_integral_closed_form(self, v0, r0, radius):
        # panels that straddled the jump at r0 missed this by 1-9 %
        value = bs._ball_integral_abs(catalog("square_well", v0=v0, r0=r0), radius)
        assert value == pytest.approx(
            4.0 * math.pi * v0 * min(r0, radius) ** 3 / 3.0, rel=1e-12
        )

    def test_square_well_panels_end_at_the_jump(self):
        # one Gauss rule across the jump at r0 left rel_gap at 1.38 %; with
        # a panel edge at r0 it reads 0.22 %
        well = catalog("square_well", v0=2.0, r0=1.3)
        [rec] = m_eps_hs_check(well, 2.0, 0.0, [0.2])
        assert rec.rel_gap <= 6e-3

    @staticmethod
    def dense_hs(potential, omega, z):
        """|chi_Omega |V|^(1/2) G_z|_HS from the dense sector kernels, dressed
        row by row and column by column, on m_eps_hs_check's grid."""
        kappa = green_params(z).kappa.real
        edges = {0.0, omega} | {j for j in potential.jumps if 0.0 < j < omega}
        inner, w_inner = panel_gauss(sorted(edges), bs._MEPS_GRID_N)
        reach = min(omega + 14.0 / max(kappa, 1e-12), omega * 400.0)
        n_outer = max(bs._MEPS_GRID_N, int(24 * math.log10(max(reach / omega, 10.0))))
        outer_edges = np.geomspace(omega, reach, max(4, n_outer // 12 + 1))
        outer, w_outer = panel_gauss(list(outer_edges), 12)
        r, w = np.concatenate([inner, outer]), np.concatenate([w_inner, w_outer])
        left = np.sqrt(potential.abs_radial(r)) * r * np.sqrt(w) * (r <= omega)
        colw = r * np.sqrt(w)
        fro_sq = [
            np.linalg.norm(left[:, np.newaxis] * g * colw[np.newaxis, :]) ** 2
            for _, g in _sector_kernels(z, r, bs._MEPS_ELL_MAX)
        ]
        return bs._completed_hs_norm(fro_sq)

    @pytest.mark.parametrize("lam", [0.0, -1.0, 2.0])
    @pytest.mark.parametrize(
        "potential",
        [
            gaussian(),
            hardy(),
            catalog("square_well", v0=2.0, r0=1.3),
            catalog("yukawa", g=1.0, mu=1.0),
        ],
        ids=["gaussian", "hardy", "square_well", "yukawa"],
    )
    def test_running_sums_match_dense_sector_kernels(self, potential, lam):
        # measured: within 6e-16 of the dense sums
        for rec in m_eps_hs_check(potential, 2.0, lam, [0.2, 0.1]):
            dense = self.dense_hs(potential, 2.0, complex(lam) + 1j * rec.eps)
            assert abs(rec.hs_direct - dense) <= 1e-13 * dense, (rec.eps, rec.hs_direct, dense)

    def test_forms_no_sector_matrix(self, monkeypatch):
        want = m_eps_hs_check(gaussian(), 2.0, 0.0, [0.2, 0.1])

        def refuse(*args, **kwargs):
            raise AssertionError("m_eps_hs_check must not assemble sector matrices")

        monkeypatch.setattr(bs, "sector_matrices", refuse)
        monkeypatch.setattr(bs, "_sector_kernels", refuse)
        assert m_eps_hs_check(gaussian(), 2.0, 0.0, [0.2, 0.1]) == want

    def test_overflowing_sector_sum_raises(self):
        # kappa ~ 1e10: A_l underflows where B_l overflows, as the dense
        # kernel of the same sector did
        with pytest.raises(BSError, match="sector kernel l=0 overflows"):
            m_eps_hs_check(gaussian(), 2.0, -1e20, [0.1])

    def test_zero_eps_rejected(self):
        with pytest.raises(BSError):
            m_eps_hs_check(gaussian(), 2.0, 0.0, [0.0])

    def test_bad_radius_rejected(self):
        with pytest.raises(BSError):
            m_eps_hs_check(gaussian(), -1.0, 0.0, [0.1])

    def test_non_integrable_potential_rejected(self):
        too_singular = dataclasses.replace(hardy(), s=3.0)
        with pytest.raises(BSError, match="integrable"):
            m_eps_hs_check(too_singular, 1.0, 0.0, [0.1])
