"""Quadrature, linear algebra and root-finding contracts.

Oracles used here:
  * the 2-point Gauss-Legendre rule derived by hand (nodes +-1/sqrt(3),
    unit weights on [-1, 1]);
  * full SVD (LAPACK divide-and-conquer) for extremal singular values;
  * the dense symmetric eigensolver for the smallest eigenvalue of an SPD
    tridiagonal, and a graded T whose inverse is known in closed form;
  * a companion matrix whose spectrum is read off a factored polynomial.
"""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectra_cert import birman_schwinger as bs
from spectra_cert import numerics as nx
from spectra_cert import spectral
from spectra_cert.birman_schwinger import default_bs_grid, log_uniform_grid, sector_matrices
from spectra_cert.potentials import catalog


class TestGaussLegendre:
    def test_two_point_rule_matches_hand_derivation(self):
        nodes, weights = nx.panel_gauss([-1.0, 1.0], 2)
        npt.assert_allclose(nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
        npt.assert_allclose(weights, [1.0, 1.0], atol=1e-15)

    def test_cubic_exact_with_two_nodes(self):
        nodes, weights = nx.panel_gauss([0.0, 1.0], 2)
        assert abs(np.sum(weights * nodes**3) - 0.25) < 1e-15

    def test_weights_sum_to_interval_length(self):
        _, weights = nx.panel_gauss([-2.0, 5.0], 37)
        assert abs(weights.sum() - 7.0) < 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            nx.panel_gauss([0.0, 1.0], 0)
        with pytest.raises(ValueError):
            nx.panel_gauss([1.0, 1.0], 4)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=12),
        coeffs=st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=8
        ),
    )
    def test_polynomial_exactness_up_to_degree_2n_minus_1(self, n, coeffs):
        deg = min(len(coeffs) - 1, 2 * n - 1)
        c = np.asarray(coeffs[: deg + 1])
        nodes, weights = nx.panel_gauss([0.0, 2.0], n)
        quad = float(np.sum(weights * np.polyval(c[::-1], nodes)))
        exact = float(sum(ck * 2.0 ** (k + 1) / (k + 1) for k, ck in enumerate(c)))
        assert abs(quad - exact) <= 1e-12 * (1.0 + abs(exact) + np.abs(c).sum() * 10)


class TestPanelGauss:
    def test_matches_single_panel_on_smooth_integrand(self):
        x1, w1 = nx.panel_gauss([0.0, 2.0], 40)
        x2, w2 = nx.panel_gauss([0.0, 0.7, 1.3, 2.0], 24)
        f = lambda x: np.exp(-(x**2)) * np.cos(x)
        assert abs(np.sum(w1 * f(x1)) - np.sum(w2 * f(x2))) < 1e-13

    def test_resolves_endpoint_power_singularity(self):
        # integral of r^-0.9 on (0, 1] = 10; log-graded panels handle it.
        # The untiled tail below 10^-K contributes 10 * 10^(-K/10), so
        # K = 100 panels leave ~1e-9.
        edges = [10.0**-k for k in range(100, 0, -1)] + [1.0]
        x, w = nx.panel_gauss(edges, 20)
        assert abs(np.sum(w * x**-0.9) - 10.0) < 2e-9

    def test_matches_per_panel_rule_exactly(self):
        edges = [0.0, 0.1, 0.7, 1.3, 5.0]
        x, w = nx.panel_gauss(edges, 6)
        parts = [nx.panel_gauss([lo, hi], 6) for lo, hi in zip(edges[:-1], edges[1:])]
        npt.assert_array_equal(x, np.concatenate([p[0] for p in parts]))
        npt.assert_array_equal(w, np.concatenate([p[1] for p in parts]))

    def test_rejects_nonmonotone_breakpoints(self):
        with pytest.raises(ValueError):
            nx.panel_gauss([0.0, 1.0, 0.5], 4)


class TestRadialGrid:
    """The geometric-panel grids of birman_schwinger, through RadialGrid."""

    def test_graded_weight_sum_is_r_max(self):
        # 20 panels of ratio sqrt(10) leave (0, 40e-10] untiled
        g = default_bs_grid(200, 40.0)
        assert abs(g.weights.sum() - 40.0) < 1e-8

    def test_nodes_strictly_increasing_and_off_origin(self):
        for g in (default_bs_grid(128, 10.0), log_uniform_grid(1e-3, 10.0, 128)):
            assert g.nodes[0] > 0
            assert np.all(np.diff(g.nodes) > 0)
            assert g.nodes[-1] <= 10.0

    def test_graded_grid_clusters_at_origin(self):
        # K = 10 panels shrinking by sqrt(10): the deepest one starts at 1e-5
        g = default_bs_grid(100, 1.0)
        assert 1e-5 < g.nodes[0] < 1e-5 * 10.0**0.5
        assert g.nodes.size == 100

    def test_graded_integrates_inverse_sqrt(self):
        # each panel is the same rescaled Gauss rule, so a power law carries
        # the same small relative error on every panel of the tiled range
        # [1e-5, 1]: 10 nodes over a ratio sqrt(10) leave about 1e-11
        g = default_bs_grid(100, 1.0)
        assert abs(np.sum(g.weights / np.sqrt(g.nodes)) - 2.0 * (1.0 - 10.0**-2.5)) < 1e-10

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            default_bs_grid(16, -1.0)
        nodes, weights = nx.panel_gauss([0.0, 1.0], 4)
        with pytest.raises(ValueError, match="increasing"):
            nx.RadialGrid(nodes[::-1], weights)
        with pytest.raises(ValueError, match="nodes must be positive"):
            nx.RadialGrid(nodes - nodes[0], weights)
        with pytest.raises(ValueError, match="weights must be positive"):
            nx.RadialGrid(nodes, -weights)


class TestEigComplex:
    def test_companion_matrix_spectrum(self):
        # companion matrix of z^2 - 3z + 2 = (z - 1)(z - 2)
        m = np.array([[0.0, -2.0], [1.0, 3.0]], dtype=complex)
        vals, _ = nx.eig_complex(m)
        npt.assert_allclose(vals, [1.0, 2.0], atol=1e-12)

    def test_residual_contract_on_fixed_matrix(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        vals, vecs = nx.eig_complex(m)
        assert vals.shape == (40,) and vecs.shape == (40, 40)
        npt.assert_allclose(np.linalg.norm(vecs, axis=0), 1.0, rtol=0, atol=1e-14)
        residuals = np.linalg.norm(m @ vecs - vecs * vals, axis=0)
        assert np.all(residuals <= 1e-10 * np.linalg.norm(m))

    def test_sorted_deterministic_order(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        vals = list(nx.eig_complex(m)[0])
        assert vals == sorted(vals, key=lambda z: (z.real, z.imag))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_residual_contract_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        norm_m = np.linalg.norm(m)
        vals, vecs = nx.eig_complex(m)
        for lam, v in zip(vals, vecs.T):
            assert np.linalg.norm(m @ v - lam * v) <= 1e-10 * norm_m * np.linalg.norm(v)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            nx.eig_complex(np.ones((2, 3)))


class TestSingularValues:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_extremes_match_full_svd_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        svals = np.linalg.svd(m, compute_uv=False)
        assert abs(nx.largest_singular_value(m) - svals[0]) <= 1e-12 * svals[0]
        smin = nx.smallest_singular_value(m)
        assert abs(smin - svals[-1]) <= 1e-12 * svals[0]

    def test_hardy_sector_where_power_iteration_missed(self):
        # power iteration stopped at a relative error of 7.2e-8 on the l = 8
        # sector, outside its own rtol of 1e-8
        sectors = sector_matrices(catalog("hardy", a=0.5), -4.0, default_bs_grid(128), ell_max=8)
        for _, m in sectors:
            exact = np.linalg.svd(m, compute_uv=False)[0]
            assert abs(nx.largest_singular_value(m) - exact) <= 1e-12 * exact

    def test_input_left_unmodified(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
        before = m.copy()
        nx.largest_singular_value(m)
        nx.smallest_singular_value(m)
        npt.assert_array_equal(m, before)

    def test_empty_and_zero_matrices(self):
        empty = np.zeros((0, 0), dtype=complex)
        assert nx.largest_singular_value(empty) == 0.0
        assert nx.smallest_singular_value(empty) == 0.0
        zero = np.zeros((3, 3), dtype=complex)
        assert nx.largest_singular_value(zero) == 0.0
        assert nx.smallest_singular_value(zero) == 0.0

    def test_adjoint_invariance(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
        a = nx.largest_singular_value(m)
        b = nx.largest_singular_value(m.conj().T)
        assert abs(a - b) <= 1e-12 * a

    def test_singular_matrix_flags(self):
        # singular to working precision reads exactly 0.0
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        assert nx.smallest_singular_value(m) == 0.0

    def test_diagonal_matrix_exact(self):
        m = np.diag([3.0, 2.0, 0.5]).astype(complex)
        assert abs(nx.largest_singular_value(m) - 3.0) < 1e-14
        assert abs(nx.smallest_singular_value(m) - 0.5) < 1e-14


class TestBidiagonalGramInverseNorm:
    """|T^-1| = 1 / sigma_min(B)^2 of T = B^T B against dense eigenvalues of T."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_matches_dense_eigenvalues(self, seed):
        # T = B^T B for a random upper bidiagonal B is SPD; its smallest
        # eigenvalue from the dense symmetric solver is the oracle
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        b = np.diag(rng.uniform(0.5, 2.0, n)) + np.diag(rng.uniform(-1.0, 1.0, n - 1), 1)
        want = 1.0 / np.linalg.eigvalsh(b.T @ b)[0]
        got = nx.bidiagonal_gram_inverse_norm(np.diag(b), np.diag(b, 1))
        assert abs(got - want) <= 1e-12 * want

    def test_graded_matrix_keeps_relative_accuracy(self):
        # T = S A S with the diagonal scaling S = diag(10^(-3k)) grades T over
        # 10^48 to 10^-48; its inverse is S^-1 A^-1 S^-1 and A = 1D Laplacian
        # + 2 I, so lambda_min(T) sits at the small end of the grading where
        # an absolute eigenvalue error eps |T| would swamp it.  B = C^T S with
        # the lower Cholesky factor C of A.
        n = 33
        scale = 10.0 ** (-3.0 * (np.arange(n) - n // 2))
        a = 4.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        b = np.linalg.cholesky(a).T * scale[None, :]
        got = nx.bidiagonal_gram_inverse_norm(np.diag(b), np.diag(b, 1))
        inv = np.linalg.inv(a) / np.outer(scale, scale)
        want = np.linalg.eigvalsh(inv / np.max(inv))[-1] * np.max(inv)
        assert abs(got - want) <= 1e-12 * want

    def test_small_cases(self):
        assert nx.bidiagonal_gram_inverse_norm(np.zeros(0), np.zeros(0)) == 0.0
        # bisection converges to sigma_min = 2 within an ulp
        got = nx.bidiagonal_gram_inverse_norm(np.array([2.0]), np.zeros(0))
        assert abs(got - 0.25) <= 1e-15
        # B = [[1, 1], [0, 1]]: T = [[1, 1], [1, 2]] has lambda_min (3 - sqrt 5) / 2
        got = nx.bidiagonal_gram_inverse_norm(np.array([1.0, 1.0]), np.array([1.0]))
        assert abs(got - 2.0 / (3.0 - math.sqrt(5.0))) <= 1e-15 * got

    def test_singular_factor_raises(self):
        # a zero diagonal entry makes B, and so T, singular
        for b, f in (([1.0, 0.0], [2.0]), ([0.0, -1.0, 3.0], [0.1, 0.1])):
            with pytest.raises(nx.NumericsError, match="no finite inverse"):
                nx.bidiagonal_gram_inverse_norm(np.array(b), np.array(f))

    def test_non_finite_entry_raises(self):
        for b, f in (([1.0, np.inf], [0.1]), ([1.0, 1.0], [np.nan])):
            with pytest.raises(nx.NumericsError, match="non-finite"):
                nx.bidiagonal_gram_inverse_norm(np.array(b), np.array(f))

    def test_failed_bisection_raises(self, monkeypatch):
        import scipy.linalg.lapack as lapack

        def failing(d, e, *args):
            return 0, np.zeros(d.size), np.zeros(d.size, int), np.zeros(d.size, int), 4

        monkeypatch.setattr(lapack, "dstebz", failing)
        with pytest.raises(nx.NumericsError, match="dstebz info=4"):
            nx.bidiagonal_gram_inverse_norm(np.array([2.0, 2.0]), np.array([1.0]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            nx.bidiagonal_gram_inverse_norm(np.ones(3), np.ones(3))


def complex_symmetric(n, seed):
    """A seeded n x n complex symmetric matrix, M^T = M."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return m + m.T


def product(m):
    """x -> M x of a dense matrix."""
    return lambda x: m @ x


class TestOperatorLargestSingularValue:
    """sigma_max from ARPACK on M^H M = conj(M) M of a complex symmetric M
    against a dense SVD."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 60])
    def test_matches_dense_svd(self, n):
        m = complex_symmetric(n, n)
        want = np.linalg.svd(m, compute_uv=False)[0]
        got, v = nx.operator_largest_singular_value(product(m), n)
        assert abs(got - want) <= 1e-12 * want
        # v is a unit right singular vector: M^H M v = sigma^2 v
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-14
        assert np.linalg.norm(m.conj().T @ (m @ v) - got**2 * v) <= 1e-10 * got**2

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 60])
    def test_warm_start_agrees_with_the_cold_start(self, n):
        # start from the Ritz vector of a nearby operator, as neighbouring
        # sectors do
        m = complex_symmetric(n, n)
        near = m + 0.1 * complex_symmetric(n, n + 100)
        cold, _ = nx.operator_largest_singular_value(product(m), n)
        _, start = nx.operator_largest_singular_value(product(near), n)
        warm, _ = nx.operator_largest_singular_value(product(m), n, start)
        assert abs(warm - cold) <= 1e-13 * cold

    def test_empty_and_zero_operators(self):
        sigma, v = nx.operator_largest_singular_value(product(np.zeros((0, 0))), 0)
        assert sigma == 0.0 and v.shape == (0,)
        for n in (1, 2):
            assert nx.operator_largest_singular_value(product(np.zeros((n, n))), n)[0] == 0.0

    def test_arpack_failure_raises(self, monkeypatch):
        import scipy.sparse.linalg

        def failed(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackError(-9999)

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", failed)
        with pytest.raises(nx.NumericsError, match="ARPACK sigma_max"):
            nx.operator_largest_singular_value(product(np.eye(5)), 5)

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
    @pytest.mark.parametrize("n", [2, 60])
    def test_scale_past_the_squared_range(self, scale, n):
        # sigma^2 leaves the float range past about 1e154 and below 1e-154;
        # the driver runs on M / 2^j, which leaves the value and v as they are
        m = complex_symmetric(n, n)
        want, v_want = nx.operator_largest_singular_value(product(m), n)
        got, v = nx.operator_largest_singular_value(product(scale * m), n)
        assert abs(got - scale * want) <= 1e-12 * scale * want
        assert abs(abs(np.vdot(v, v_want)) - 1.0) <= 1e-10

    @pytest.mark.parametrize("scale", [1e-8, 1e-20, 1e-70])
    def test_small_norm_stays_above_the_arpack_floor(self, scale):
        # theta = sigma^2 < eps^(2/3) ~ 3.7e-11 turns ARPACK's stop test
        # absolute, and the Ritz pair then missed the residual check; the
        # driver rescales a first ratio below 2^-16 sqrt(n) (measured: 1.8e-15)
        m = scale * complex_symmetric(60, 60)
        want = np.linalg.svd(m, compute_uv=False)[0]
        got, _ = nx.operator_largest_singular_value(product(m), 60)
        assert abs(got - want) <= 1e-13 * want

    @pytest.mark.parametrize("route", ["sigma_max", "sigma_min"])
    def test_wrong_ritz_value_fails_the_residual_check(self, monkeypatch, route):
        import scipy.sparse.linalg

        exact = scipy.sparse.linalg.eigs

        def planted(*args, **kwargs):
            thetas, vectors = exact(*args, **kwargs)
            return thetas * (1 + 1e-8), vectors

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", planted)
        d = np.arange(1.0, 6.0)
        with pytest.raises(nx.NumericsError, match="Ritz residual"):
            if route == "sigma_max":
                nx.operator_largest_singular_value(product(np.diag(d)), 5)
            else:
                nx.tridiagonal_smallest_singular_value(d + 0.5j, np.full(4, 0.25))

    def test_exactly_singular_shift_is_zero_without_the_driver(self, monkeypatch):
        # rows [1, 1, 0], [1, 1, 0], [0, 0, 0]: zgttrf meets a zero pivot
        monkeypatch.setattr(
            nx, "operator_largest_singular_value", lambda *a: pytest.fail("driver reached")
        )
        d = np.array([1.0, 1.0, 0.0], dtype=complex)
        assert nx.tridiagonal_smallest_singular_value(d, np.array([1.0, 0.0])) == 0.0

    def test_sigma_min_is_one_driver_call(self, monkeypatch):
        calls = []
        driver = nx.operator_largest_singular_value

        def counted(*args):
            calls.append(args[1])
            return driver(*args)

        monkeypatch.setattr(nx, "operator_largest_singular_value", counted)
        nx.tridiagonal_smallest_singular_value(np.arange(1.0, 41.0) + 0.5j, np.full(39, 0.25))
        assert calls == [40]


def symmetry_defect(matvec, n):
    """|x^T M y - y^T M x| / max(|x| |M y|, |y| |M x|) on seeded complex x, y:
    0 up to rounding exactly when M is complex symmetric."""
    rng = np.random.default_rng(n)
    x, y = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
    mx, my = matvec(x), matvec(y)
    scale = max(np.linalg.norm(x) * np.linalg.norm(my), np.linalg.norm(y) * np.linalg.norm(mx))
    return abs(x @ my - y @ mx) / scale


class TestDriverProductsAreComplexSymmetric:
    """The ARPACK driver forms M^H x as conj(M conj(x)), which holds only for
    M^T = M: every product a caller hands it must be complex symmetric."""

    SECTOR_POTENTIALS = {
        "hardy": catalog("hardy", a=0.5),
        "gaussian": catalog("gaussian", v0=1.5, c_im=1.2),
        "imaginary-hardy": catalog("imaginary_hardy", beta=0.3),
        "yukawa": catalog("yukawa", g=1.0, mu=1.0),
    }

    @staticmethod
    def recorded(monkeypatch, module):
        """The (matvec, n) of each driver call made through ``module``."""
        calls = []
        driver = nx.operator_largest_singular_value

        def recording(matvec, n, *args):
            calls.append((matvec, n))
            return driver(matvec, n, *args)

        monkeypatch.setattr(module, "operator_largest_singular_value", recording)
        return calls

    @pytest.mark.parametrize("name", list(SECTOR_POTENTIALS))
    def test_sector_products(self, monkeypatch, name):
        # measured: at most 5.3e-17
        calls = self.recorded(monkeypatch, bs)
        for z in (1j, -1 + 1j, 5 - 0.01j):
            bs.assemble_bs(self.SECTOR_POTENTIALS[name], z, default_bs_grid(128), 4)
        assert len(calls) == 3 * 5
        for matvec, n in calls:
            assert symmetry_defect(matvec, n) <= 1e-13

    def test_sector_product_that_keeps_a_changing_sign_fails(self, monkeypatch):
        # every catalog row has one sign, so L G L S = s L G L is symmetric
        # too; the plant keeps the sign of a V that changes sign mid-grid
        exact = bs._single_pair_product

        def signed(rho, a, b, scale):
            sign = np.where(np.arange(scale.size) < scale.size // 2, 1.0, -1.0)
            matvec = exact(rho, a, b, scale)
            return lambda x: matvec(sign * x)

        calls = self.recorded(monkeypatch, bs)
        monkeypatch.setattr(bs, "_single_pair_product", signed)
        # the value is not sigma_max of the true sector, which the dense check sees too
        with pytest.raises(nx.NumericsError, match="misses the dense SVD"):
            bs.assemble_bs(self.SECTOR_POTENTIALS["hardy"], 1j, default_bs_grid(128), 0)
        [(matvec, n)] = calls
        assert symmetry_defect(matvec, n) > 1e-3

    def test_pseudospectrum_inverse(self, monkeypatch):
        monkeypatch.setattr(spectral, "_PSEUDO_GRID_N", 3)
        calls = self.recorded(monkeypatch, nx)
        op = spectral.discretize_radial(
            catalog("imaginary_hardy", beta=0.3), 0, 14.0, spectral._ARPACK_MIN_N
        )
        spectral.pseudospectrum(op, (-2.0, 6.0), (-2.0, 2.0))
        assert len(calls) == 9
        # measured: at most 3.5e-16
        for matvec, n in calls:
            assert symmetry_defect(matvec, n) <= 1e-13


class TestExtrapolationAndFits:
    def test_aitken_on_geometric_sequence(self):
        limit, c, q = 0.5, 0.1, 0.3
        vals = [limit - c * q**k for k in range(3)]
        assert abs(nx.aitken_extrapolate(vals) - limit) < 1e-12

    def test_aitken_with_zero_second_difference_returns_the_last_value(self):
        # an arithmetic sequence has no geometric error to extrapolate
        assert nx.aitken_extrapolate([1.0, 2.0, 3.0]) == 3.0

    def test_loglog_slope_pure_power(self):
        xs = [2.0, 4.0, 8.0, 16.0]
        ys = [7.0 * x**-1.5 for x in xs]
        assert abs(nx.fit_loglog_slope(xs, ys) + 1.5) < 1e-12

    @pytest.mark.parametrize(
        "xs, ys",
        [([1.0, 2.0], [0.0, 1.0]), ([-1.0, 2.0], [1.0, 1.0]), ([1.0, 2.0], [math.nan, 1.0]),
         ([1.0, math.inf], [1.0, 2.0])],
        ids=["zero", "negative", "nan", "inf"],
    )
    def test_loglog_slope_refuses_pairs_off_the_log_domain(self, xs, ys, monkeypatch):
        # refused before LAPACK sees a non-finite log, which it reported on
        # stderr before numpy raised LinAlgError
        monkeypatch.setattr(np, "polyfit", lambda *a: pytest.fail("polyfit reached"))
        with pytest.raises(ValueError, match="positive finite"):
            nx.fit_loglog_slope(xs, ys)
