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
import math
import tracemalloc
from fractions import Fraction
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
    _kappa,
    _node_masses,
    _running_sums,
    _scaled_bessel_factors,
    _sector_kernels,
    _sector_steps,
    assemble_bs,
    bs_principle_matrix_check,
    default_bs_grid,
    green_function,
    hs_norm,
    kappa_scaling,
    log_uniform_grid,
    m_eps_hs_check,
    pointwise_bound_check,
    sector_matrices,
)
from spectra_cert.cli import main
from spectra_cert.conditions import _ball_integral
from spectra_cert.numerics import (
    NumericsError,
    RadialGrid,
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

    @pytest.mark.parametrize("s", [0.0, -1.0, [1.0, 0.0]])
    def test_nonpositive_separation_rejected(self, s):
        with pytest.raises(BSError, match="positive separation"):
            green_function(-1.0, s)

    def test_kappa_values(self):
        assert _kappa(-1.0) == pytest.approx(1.0)
        # principal branch: sqrt(-i) has real part cos(pi/4)
        assert _kappa(1j).real == pytest.approx(math.sqrt(0.5), rel=1e-12)
        # on the open positive axis kappa is purely imaginary
        assert _kappa(2.0).real == 0.0

    def test_upper_lip_continuity(self):
        k = _kappa(1.0 + 1e-9j)
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

    def test_one_complex_sector_peaks_under_four_matrices(self):
        # the kernel is built in place in the array that becomes M_0, beside
        # the decay, the power 1 / r_> and one real temporary: measured 3.1
        # complex n x n arrays at the peak
        grid = default_bs_grid(400)
        n = grid.nodes.size
        list(sector_matrices(hardy(), -1 + 1j, default_bs_grid(40), ell_max=0))  # warm up
        tracemalloc.start()
        try:
            for _, m in sector_matrices(hardy(), -1 + 1j, grid, ell_max=0):
                assert m.shape == (n, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 16 * n**2

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
    kappa = _kappa(z)
    v, wv = panel_gauss([0.0, 1.0], n_ang)
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
        grid = default_bs_grid(n=64)
        r = grid.nodes
        with pytest.raises(BSError, match="exceeds"):
            list(sector_matrices(gaussian(), 1j, grid, 129))
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
        nodes, weights = panel_gauss([-half, half], n)
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
        kappa = _kappa(z)
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
        sq, wq = panel_gauss([0.0, 12.0], 200)
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
        # measured: sigma_max within 3.6e-15 (Test03 sectors; <= 2e-15 elsewhere),
        # |M|_F^2 within 1e-15 of the dense sums; the tridiagonal T itself,
        # factored by LAPACK, read Test03 to 1e-12 only
        potential, grid, ell_max, zs = TRIDIAGONAL_CASES[case]
        for z in zs:
            bm = assemble_bs(potential, z, grid, ell_max=ell_max)
            dense = dense_sector_norms(potential, z, grid, ell_max)
            assert len(bm.per_ell_norms) == len(dense) == ell_max + 1
            for sigma, fro, (sigma_dense, fro_sq_dense) in zip(
                bm.per_ell_norms, bm.per_ell_frobenius, dense
            ):
                assert abs(sigma - sigma_dense) <= 1e-13 * sigma_dense, (z, sigma, sigma_dense)
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
        with pytest.raises(BSError, match="dimension must be 3"):
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

    @pytest.mark.parametrize("z", [1j, -1 + 1j, 5 - 0.01j])
    def test_small_sector_norms_match_dense_svd(self, z):
        # sigma_max ~ 5e-8 at l = 8: theta = sigma^2 fell below ARPACK's floor
        # eps^(2/3), the stop test turned absolute and the Ritz pair missed the
        # residual check (measured: 1.6e-15)
        potential, grid = catalog("yukawa", g=1.0, mu=1e5), default_bs_grid(256)
        bm = assemble_bs(potential, z, grid, ell_max=8)
        dense = dense_sector_norms(potential, z, grid, 8)
        for sigma, (sigma_dense, _) in zip(bm.per_ell_norms, dense):
            assert abs(sigma - sigma_dense) <= 1e-13 * sigma_dense, (sigma, sigma_dense)

    def test_overflow_raises(self):
        with pytest.raises(BSError, match="overflows"):
            assemble_bs(gaussian(), -1e8 + 1j, default_bs_grid(n=64), ell_max=100)

    def test_large_kappa_frobenius_check_passes(self):
        # kappa ~ 1e6: running sums that carried +-2 kappa r missed the dense
        # |M_l|_F^2 by more than the check's 1e-10; the neighbour gaps do not
        z, grid = -1e12 + 1j, default_bs_grid(128)
        bm = assemble_bs(gaussian(), z, grid, ell_max=2)
        dense = dense_sector_norms(gaussian(), z, grid, 2)
        for fro, (_, fro_sq_dense) in zip(bm.per_ell_frobenius, dense):
            assert abs(fro**2 - fro_sq_dense) <= 1e-13 * fro_sq_dense, (fro, fro_sq_dense)

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
            lower, fro_sq = exact(*args, **kwargs)
            return lower, (1 + 1e-8) * fro_sq

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


class TestRunningSums:
    """The doubling scan behind every Frobenius mass."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=300),
        rows=st.integers(min_value=1, max_value=4),
    )
    def test_matches_the_exact_sequential_recurrence(self, seed, n, rows):
        # q in [0, 1] with exact 0s and 1s and runs near 1, where long
        # products survive; x >= 0 over 16 decades with exact 0s.  The
        # oracle is S_j = q_(j-1) S_(j-1) + x_j in exact rational arithmetic.
        rng = np.random.default_rng(seed)
        kind = rng.integers(0, 4, (rows, n - 1))
        q = np.select(
            [kind == 0, kind == 1, kind == 2],
            [0.0, 1.0, rng.uniform(0.0, 1.0, kind.shape)],
            1.0 - 10.0 ** rng.uniform(-8.0, 0.0, kind.shape),
        )
        x = 10.0 ** rng.uniform(-8.0, 8.0, (rows, n)) * (rng.uniform(size=(rows, n)) > 0.1)
        got = _running_sums(x, q)
        # nonnegative products and sums: a few log2(n) roundings per term,
        # plus less than tiny for each operation whose product underflows
        eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
        for k in range(rows):
            exact = Fraction(0)
            for j in range(n):
                exact = (exact * Fraction(q[k, j - 1]) if j else exact) + Fraction(x[k, j])
                bound = 4.0 * math.log2(n) * (eps * float(exact) + n * tiny)
                assert abs(Fraction(got[k, j]) - exact) <= Fraction(bound), (k, j)


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
            g_diag, gap = _sector_steps(0j, grid.nodes, 8)[2:]
            fro_sq = _node_masses(np.zeros(grid.nodes.size) * g_diag, gap)[1]
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
        g_diag, gap = _sector_steps(0j, grid.nodes, ell_max)[2:]
        fast = _node_masses(alpha * g_diag, gap)[1]
        assert fast.shape == (ell_max + 1,)
        for ell, m in sector_matrices(potential, 0.0, grid, ell_max=ell_max):
            dense = float(np.sum(np.abs(m) ** 2))
            assert dense > 0.0
            assert abs(fast[ell] - dense) <= 1e-13 * dense

    @staticmethod
    def stacked(potential, grid, ell_max):
        # every sector's steps at once, the masses from one _node_masses call
        unit, j = bs._unit_row(potential, length=1.0)
        g_diag, gap = _sector_steps(0j, grid.nodes, ell_max)[2:]
        x = unit.abs_radial(grid.nodes) * grid.nodes**2 * grid.weights * g_diag
        return bs._in_float_range(bs._completed_hs_norm(_node_masses(x, gap)[1]), j, "HS norm")

    @pytest.mark.parametrize("n, ell_max", [(1600, 48), (800, 16), (200, 4)])
    @pytest.mark.parametrize(
        "potential",
        [
            catalog("gaussian", v0=1.7, c_im=0.9),
            catalog("yukawa", g=1.1, mu=1.3),
            catalog("square_well", v0=2.0, r0=1.2),
            gaussian(1e300),
            catalog("yukawa", g=1e-300, mu=1e-200),
        ],
        ids=["gaussian", "yukawa", "square_well", "gaussian-1e300", "yukawa-1e-300"],
    )
    def test_sector_by_sector_keeps_the_stacked_bits(self, potential, n, ell_max):
        grid = log_uniform_grid(0.02, 16.0, n)
        want = self.stacked(potential, grid, ell_max)
        assert hs_norm(potential, grid, ell_max=ell_max).matrix_route == want

    def test_memory_stays_per_sector(self):
        # one sector's O(n) steps at a time beside the 49 x 1600 masses:
        # 0.70 MiB measured, against 4.31 MiB for every sector's steps at once
        potential, grid = gaussian(), log_uniform_grid(0.02, 16.0, 1600)
        peaks = []
        for route in (hs_norm, self.stacked):
            route(potential, grid, 48)
            tracemalloc.start()
            try:
                route(potential, grid, 48)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 1.5 * 2**20 < peaks[1]

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


class TestScaledRows:
    """K_z is linear in V: a row scaled by s gives s times every norm, also
    where the squared norms leave the float range."""

    SCALES = (1e-300, 1e300)

    @pytest.mark.parametrize("scale", SCALES)
    def test_hs_norm_scales(self, scale):
        grid = log_uniform_grid(0.02, 16.0, 200)
        unit = hs_norm(gaussian(), grid, ell_max=4)
        got = hs_norm(gaussian(scale), grid, ell_max=4)
        assert abs(got.matrix_route - scale * unit.matrix_route) <= 1e-12 * got.matrix_route
        assert abs(got.rel_gap - unit.rel_gap) <= 1e-12

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("z", [0.0, -1.0, 1j])
    @pytest.mark.parametrize("potential", [gaussian, hardy], ids=["gaussian", "hardy"])
    def test_assemble_bs_scales(self, potential, z, scale):
        grid = default_bs_grid(40)
        unit = assemble_bs(potential(1.0), z, grid, ell_max=2)
        got = assemble_bs(potential(scale), z, grid, ell_max=2)
        want = scale * np.array(
            [*unit.per_ell_norms, *unit.per_ell_frobenius, unit.hs_estimate()]
        )
        have = np.array([*got.per_ell_norms, *got.per_ell_frobenius, got.hs_estimate()])
        np.testing.assert_allclose(have, want, rtol=1e-12, atol=0.0)
        assert got.tail_warning == unit.tail_warning

    def test_domination_keeps_the_slack_at_every_scale(self):
        def family(norm):
            return bs.BSMatrix(0j, (norm,), (norm,), False)

        for scale in (1e-300, 1.0, 1e300):
            base = family(scale)
            assert family(1.02 * scale).dominated_by(base)
            assert not family(1.0201 * scale).dominated_by(base)

    def test_norms_past_the_float_range_raise(self):
        # |amp| = 1e308 and a decay length of 1e6 put sigma_max and |M_0|_F
        # near 6e310: a BSError, not an OverflowError from math.ldexp
        with pytest.raises(BSError, match="leaves the float range"):
            assemble_bs(catalog("yukawa", g=1e308, mu=1e-6), 0.0, default_bs_grid(20, 1e4), ell_max=0)

    def test_hs_estimate_past_the_float_range_raises(self):
        # each |M_l|_F fits, their multiplicity-weighted sum does not
        with pytest.raises(BSError, match="HS estimate"):
            bs.BSMatrix(0j, (1e308,) * 3, (1e308,) * 3, False).hs_estimate()

    def test_direct_hs_route_past_the_float_range_raises(self):
        # weights 1e4 times too large lift the sector sum past 1.8e308, while
        # the Rollnik route, 7.1e305, fits
        grid = log_uniform_grid(1e-3, 1.0, 40)
        heavy = RadialGrid(grid.nodes, 1e4 * grid.weights)
        with pytest.raises(BSError, match="HS norm"):
            hs_norm(catalog("yukawa", g=1e306, mu=1.0), heavy, ell_max=2)

    def test_rollnik_norm_past_the_float_range_raises(self):
        # yukawa is Rollnik: a +inf norm left the float range, it did not
        # diverge
        with pytest.raises(BSError, match="Rollnik norm leaves the float range"):
            hs_norm(catalog("yukawa", g=1e305, mu=1e-6), log_uniform_grid(0.02, 16.0, 200), ell_max=4)


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

    def test_singular_solve_rejected(self, monkeypatch):
        # past the sigma_min guard, an exactly singular H0 - lam still
        # raises BSError, not scipy's LinAlgError
        monkeypatch.setattr(bs, "smallest_singular_value", lambda m: 1.0)
        h0 = np.diag([1.0, 2.0])
        with pytest.raises(BSError, match="resolvent solve at lam=1.0"):
            bs_principle_matrix_check(h0, np.array([-1.0, -1.0]), 1.0, np.array([1.0, 1.0]))

    def test_non_finite_solution_rejected(self, monkeypatch):
        import scipy.linalg

        monkeypatch.setattr(scipy.linalg, "solve", lambda a, b, **kw: np.full(b.shape, np.nan))
        with pytest.raises(BSError, match="non-finite solution"):
            bs_principle_matrix_check(
                np.diag([1.0, 2.0]), np.array([-3.0, 0.0]), -2.0, np.array([1.0, 0.0])
            )

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
            kref = _kappa(lam).real
            for _, kap, regime in out:
                assert regime == "constant"
                assert kap == pytest.approx(kref, rel=1e-3)

    def test_zero_eps_rejected(self):
        with pytest.raises(BSError):
            kappa_scaling(0.0, [0.0, 1e-3])

    @pytest.mark.parametrize(
        "lam, eps",
        [(math.nan, 1e-3), (complex(math.inf, 0.0), 1e-3), (0.0, math.nan), (1.0, math.inf)],
        ids=["nan-lam", "inf-lam", "nan-eps", "inf-eps"],
    )
    def test_non_finite_arguments_rejected(self, lam, eps):
        # NaN kappas would fit a NaN slope, and a slope check written as
        # abs(...) > tol lets NaN through
        with pytest.raises(BSError, match="finite"):
            kappa_scaling(lam, [eps, 1e-4])

    def test_off_asymptote_rejected(self):
        # far outside the small-eps window the linear regime slope degrades
        # to ~2/3, which the built-in slope check must catch
        with pytest.raises(BSError, match="slope"):
            kappa_scaling(1.0, [2.0, 4.0])


def gaussian_ball(radius):
    """int_{|x| < radius} e^(-|x|^2) dx."""
    return 4.0 * math.pi * (
        math.sqrt(math.pi) / 4.0 * math.erf(radius) - radius / 2.0 * math.exp(-radius**2)
    )


class TestMepsHSCheck:
    def test_gaussian_lambda_zero(self):
        # kappa = sqrt(eps / 2) at lam = 0, so the closed form is
        # (int_Omega |V| / (8 pi sqrt(eps / 2)))^(1/2)
        eps = [0.4, 0.2, 0.1, 0.05]
        recs = m_eps_hs_check(gaussian(), 2.0, 0.0, eps)
        assert [r.eps for r in recs] == eps
        for r in recs:
            want = math.sqrt(gaussian_ball(2.0) / (8.0 * math.pi * math.sqrt(r.eps / 2.0)))
            assert r.hs_formula == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("v0", [1e308, 1e-300])
    def test_extreme_amplitudes_read_the_closed_form(self, v0):
        # int_Omega |V| runs on the row with amp divided by 2^j; at v0 = 1e308
        # it overflowed, and fit_loglog_slope raised a bare ValueError
        recs = m_eps_hs_check(gaussian(v0), 2.0, 0.0, [0.4, 0.2, 0.1])
        for r in recs:
            want = math.sqrt(gaussian_ball(2.0) / (8.0 * math.pi * math.sqrt(r.eps / 2.0)))
            assert r.hs_formula == pytest.approx(math.sqrt(v0) * want, rel=1e-12)

    @pytest.mark.parametrize(
        "name, params, radius, eps, c, p",
        [
            # |V| = a / (4 r^2) underflowed at r ~ 1e300 before r^2 multiplied it
            # back, and fit_loglog_slope raised a bare ValueError; int = pi a R
            ("hardy", {"a": 0.5}, 1e300, [0.2, 0.1], 0.5 * math.pi, 1),
            ("hardy", {"a": 0.5}, 1e-300, [0.2, 0.1], 0.5 * math.pi, 1),
            # int = 2 pi c R^2 = 6.3e200 over kappa = 1e-150: |M_eps|_HS^2 =
            # 2.5e349 leaves the float range, |M_eps|_HS = 5.0e174 does not
            ("coulomb_repulsive", {"c": 1.0}, 1e100, [2e-300, 1e-300], 2.0 * math.pi, 2),
            # the ball lies inside the well: int = 4 pi R^3 / 3 = 4.2e-600
            ("square_well", {"v0": 1.0, "r0": 1e200}, 1e-200, [0.2, 0.1], 4.0 * math.pi / 3.0, 3),
        ],
    )
    def test_balls_far_from_unit_size_read_the_closed_form(self, name, params, radius, eps, c, p):
        # int_Omega |V| = c R^p runs on the row whose ball has radius R 2^-k
        recs = m_eps_hs_check(catalog(name, **params), radius, 0.0, eps)
        for r in recs:
            want = math.sqrt(c / (8.0 * math.pi * math.sqrt(r.eps / 2.0))) * radius ** (p / 2)
            assert r.hs_formula == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "potential, radius",
        [
            # int_Omega |V| = 2 pi c R^2 = 6.3e900: |M_eps|_HS ~ 1e450
            (catalog("coulomb_repulsive", c=1e300), 1e300),
            # int_Omega |V| = 4 pi v0 R^3 / 3 = 4.2e-1200: |M_eps|_HS ~ 1e-600
            (catalog("gaussian", v0=1e-300), 1e-300),
        ],
        ids=["overflow", "underflow"],
    )
    def test_norm_past_the_float_range_raises(self, potential, radius):
        with pytest.raises(BSError, match="leaves the float range"):
            m_eps_hs_check(potential, radius, 0.0, [0.2, 0.1])

    def test_constant_regime_formula_stable(self):
        # kappa freezes at 1 for lam = -1, so halving eps moves the closed
        # form by O(eps^2) only
        r1 = m_eps_hs_check(gaussian(), 2.0, -1.0, [0.2])[0]
        r2 = m_eps_hs_check(gaussian(), 2.0, -1.0, [0.1])[0]
        drift = abs(r1.hs_formula - r2.hs_formula) / r1.hs_formula
        assert drift <= 5e-3

    def test_rejects_other_dimensions(self):
        # the closed form and the partial waves are three-dimensional
        with pytest.raises(BSError, match="dimension must be 3"):
            m_eps_hs_check(catalog("gaussian", dimension=5, v0=1.0), 2.0, 0.0, [0.4, 0.2])

    def test_hardy_cutoff_is_hs(self):
        # chi_Omega |V|^(1/2) G_z is Hilbert-Schmidt even for the borderline
        # a/r^2 potential: r^-2 is integrable on a 3-ball, int |V| = pi a R
        recs = m_eps_hs_check(hardy(), 1.0, 0.0, [0.2, 0.1])
        for r in recs:
            want = math.sqrt(0.5 * math.pi / (8.0 * math.pi * math.sqrt(r.eps / 2.0)))
            assert r.hs_formula == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize(
        "v0, r0, radius", [(2.0, 1.3, 2.0), (1.0, 0.7, 1.0), (3.0, 1.55, 2.0), (2.0, 2.5, 1.0)]
    )
    def test_square_well_ball_integral_closed_form(self, v0, r0, radius):
        # panels that straddled the jump at r0 missed this by 1-9 %
        value = _ball_integral(catalog("square_well", v0=v0, r0=r0), radius, 1.0, 16)
        assert value == pytest.approx(
            4.0 * math.pi * v0 * min(r0, radius) ** 3 / 3.0, rel=1e-12
        )

    @pytest.mark.parametrize(
        "name, params, want",
        [
            ("gaussian", {"v0": 1.0}, gaussian_ball(2.0)),
            # 4 pi g (1 - e^(-2 mu) (1 + 2 mu)) / mu^2
            ("yukawa", {"g": 1.5, "mu": 0.7}, 6 * math.pi * (1 - 2.4 * math.exp(-1.4)) / 0.49),
            # |V| = a / (4 r^2) and beta / r^2: 4 pi (a / 4) 2 and 4 pi beta 2
            ("hardy", {"a": 0.5}, math.pi),
            ("imaginary_hardy", {"beta": 0.3}, 2.4 * math.pi),
            # |V| = c / r: 4 pi c 2^2 / 2
            ("coulomb_repulsive", {"c": 1.25}, 10.0 * math.pi),
        ],
    )
    def test_ball_integral_closed_forms(self, name, params, want):
        # measured: within 2.3e-16 relative
        value = _ball_integral(catalog(name, **params), 2.0, 1.0, 16)
        assert value == pytest.approx(want, rel=1e-13)

    def test_forms_no_sector_matrix(self, monkeypatch):
        want = m_eps_hs_check(gaussian(), 2.0, 0.0, [0.2, 0.1])

        def refuse(*args, **kwargs):
            raise AssertionError("m_eps_hs_check must not assemble sector matrices")

        monkeypatch.setattr(bs, "sector_matrices", refuse)
        monkeypatch.setattr(bs, "_sector_kernels", refuse)
        assert m_eps_hs_check(gaussian(), 2.0, 0.0, [0.2, 0.1]) == want

    def test_large_kappa_reads_the_closed_form(self):
        # Re kappa = 1e10, where A_l underflows against B_l in the sector
        # kernels: the closed form forms none
        [rec] = m_eps_hs_check(gaussian(), 2.0, -1e20, [0.1])
        assert rec.hs_formula == pytest.approx(
            math.sqrt(gaussian_ball(2.0) / (8.0 * math.pi * 1e10)), rel=1e-12
        )

    def test_zero_eps_rejected(self):
        with pytest.raises(BSError):
            m_eps_hs_check(gaussian(), 2.0, 0.0, [0.0])

    def test_bad_radius_rejected(self):
        with pytest.raises(BSError):
            m_eps_hs_check(gaussian(), -1.0, 0.0, [0.1])

    @pytest.mark.parametrize(
        "radius, lam, eps",
        [(2.0, math.nan, 0.1), (2.0, complex(0.0, math.inf), 0.1), (2.0, 0.0, math.nan),
         (2.0, -1.0, math.inf), (math.inf, 0.0, 0.1), (math.nan, 0.0, 0.1)],
        ids=["nan-lam", "inf-lam", "nan-eps", "inf-eps", "inf-radius", "nan-radius"],
    )
    def test_non_finite_arguments_rejected(self, radius, lam, eps):
        # a NaN record would pass the slope check, whose comparison is False
        with pytest.raises(BSError, match="finite"):
            m_eps_hs_check(gaussian(), radius, lam, [eps, eps / 2])

    def test_underflowing_kappa_rejected(self):
        # kappa ~ eps / (2 sqrt(lam)) = 5e-451 reads 0, where the closed form
        # divided by zero
        with pytest.raises(BSError, match="underflows"):
            m_eps_hs_check(gaussian(), 2.0, 1e300, [1e-300])

    def test_non_integrable_potential_rejected(self):
        too_singular = dataclasses.replace(hardy(), s=3.0)
        with pytest.raises(BSError, match="integrable"):
            m_eps_hs_check(too_singular, 1.0, 0.0, [0.1])

    def test_zero_potential_rejected(self):
        # int_Omega |V| = 0 makes every hs_formula 0, where fit_loglog_slope
        # raised a bare ValueError
        with pytest.raises(BSError, match=r"int_Omega \|V\| = 0"):
            m_eps_hs_check(catalog("gaussian", v0=0.0), 1.0, 0.0, [0.2, 0.1])

    @pytest.mark.parametrize("radius", [1e10, 1e100, 1e300])
    @pytest.mark.parametrize(
        "name, params, total, rel",
        [
            # int |V| over R^3: |amp| pi^(3/2), 4 pi g / mu^2 less its e^-30
            # tail past 30 decay lengths, and 4 pi v0 r0^3 / 3
            ("gaussian", {"v0": 1.0}, math.pi**1.5, 1.2e-16),
            ("gaussian", {"v0": 2.5, "c_im": 1.0}, math.hypot(2.5, 1.0) * math.pi**1.5, 1.2e-16),
            ("yukawa", {"g": 1.0, "mu": 1.0}, 4.0 * math.pi, 1.5e-12),
            ("yukawa", {"g": 0.7, "mu": 2.3}, 4.0 * math.pi * 0.7 / 2.3**2, 1.5e-12),
            ("square_well", {"v0": 2.0, "r0": 1.3}, 4.0 * math.pi * 2.0 * 1.3**3 / 3.0, 0.0),
        ],
        ids=["gaussian", "gaussian-complex", "yukawa", "yukawa-short", "square_well"],
    )
    def test_balls_past_the_truncation_radius_read_the_closed_form(
        self, name, params, total, rel, radius
    ):
        # the ball is cut at r0 or 30 decay lengths; the 24 dyadic ball
        # panels of radius 1e10 never reached the row's own length, and
        # gaussian(1) read 0.0770 against 0.837
        recs = m_eps_hs_check(catalog(name, **params), radius, 0.0, [0.2, 0.1])
        for r in recs:
            want = math.sqrt(total / (8.0 * math.pi * math.sqrt(r.eps / 2.0)))
            assert r.hs_formula == pytest.approx(want, rel=rel, abs=0.0)
