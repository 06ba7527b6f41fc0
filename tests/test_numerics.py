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

from spectra_cert import numerics as nx
from spectra_cert.birman_schwinger import default_bs_grid, log_uniform_grid, sector_matrices
from spectra_cert.potentials import catalog


class TestGaussLegendre:
    def test_two_point_rule_matches_hand_derivation(self):
        nodes, weights = nx.gauss_legendre(2, -1.0, 1.0)
        npt.assert_allclose(nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
        npt.assert_allclose(weights, [1.0, 1.0], atol=1e-15)

    def test_cubic_exact_with_two_nodes(self):
        nodes, weights = nx.gauss_legendre(2, 0.0, 1.0)
        assert abs(np.sum(weights * nodes**3) - 0.25) < 1e-15

    def test_weights_sum_to_interval_length(self):
        _, weights = nx.gauss_legendre(37, -2.0, 5.0)
        assert abs(weights.sum() - 7.0) < 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            nx.gauss_legendre(0, 0.0, 1.0)
        with pytest.raises(ValueError):
            nx.gauss_legendre(4, 1.0, 1.0)

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
        nodes, weights = nx.gauss_legendre(n, 0.0, 2.0)
        quad = float(np.sum(weights * np.polyval(c[::-1], nodes)))
        exact = float(sum(ck * 2.0 ** (k + 1) / (k + 1) for k, ck in enumerate(c)))
        assert abs(quad - exact) <= 1e-12 * (1.0 + abs(exact) + np.abs(c).sum() * 10)


class TestPanelGauss:
    def test_matches_single_panel_on_smooth_integrand(self):
        x1, w1 = nx.gauss_legendre(40, 0.0, 2.0)
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
        parts = [nx.gauss_legendre(6, lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
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
        assert g.n == 100

    def test_graded_integrates_inverse_sqrt(self):
        # each panel is the same rescaled Gauss rule, so a power law carries
        # the same small relative error on every panel of the tiled range
        # [1e-5, 1]: 10 nodes over a ratio sqrt(10) leave about 1e-11
        g = default_bs_grid(100, 1.0)
        assert abs(np.sum(g.weights / np.sqrt(g.nodes)) - 2.0 * (1.0 - 10.0**-2.5)) < 1e-10

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            default_bs_grid(16, -1.0)
        nodes, weights = nx.gauss_legendre(4, 0.0, 1.0)
        with pytest.raises(ValueError, match="increasing"):
            nx.RadialGrid(nodes[::-1], weights, 1.0)
        with pytest.raises(ValueError, match="r_max"):
            nx.RadialGrid(nodes, weights, 0.5)
        with pytest.raises(ValueError, match="positive"):
            nx.RadialGrid(nodes, -weights, 1.0)


class TestEigComplex:
    def test_companion_matrix_spectrum(self):
        # companion matrix of z^2 - 3z + 2 = (z - 1)(z - 2)
        m = np.array([[0.0, -2.0], [1.0, 3.0]], dtype=complex)
        vals = sorted(lam.real for lam, _ in nx.eig_complex(m))
        npt.assert_allclose(vals, [1.0, 2.0], atol=1e-12)

    def test_residual_contract_on_fixed_matrix(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        norm_m = np.linalg.norm(m)
        for lam, v in nx.eig_complex(m):
            assert np.linalg.norm(m @ v - lam * v) <= 1e-10 * norm_m

    def test_sorted_deterministic_order(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        vals = [lam for lam, _ in nx.eig_complex(m)]
        assert vals == sorted(vals, key=lambda z: (z.real, z.imag))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_residual_contract_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        norm_m = np.linalg.norm(m)
        for lam, v in nx.eig_complex(m):
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


class TestSPDTridiagonalInverseNorm:
    """|T^-1| = 1 / lambda_min(T) against dense eigenvalues of T."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_matches_dense_eigenvalues(self, seed):
        # T = B^T B for a random upper bidiagonal B is SPD; its smallest
        # eigenvalue from the dense symmetric solver is the oracle
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        b = np.diag(rng.uniform(0.5, 2.0, n)) + np.diag(rng.uniform(-1.0, 1.0, n - 1), 1)
        t = b.T @ b
        want = 1.0 / np.linalg.eigvalsh(t)[0]
        got = nx.spd_tridiagonal_inverse_norm(np.diag(t), np.diag(t, 1))
        assert abs(got - want) <= 1e-12 * want

    def test_graded_matrix_keeps_relative_accuracy(self):
        # T = S A S with the diagonal scaling S = diag(10^(-3k)) grades T over
        # 10^48 to 10^-48; its inverse is S^-1 A^-1 S^-1 and A = 1D Laplacian
        # + 2 I, so lambda_min(T) sits at the small end of the grading where
        # an absolute eigenvalue error eps |T| would swamp it
        n = 33
        scale = 10.0 ** (-3.0 * (np.arange(n) - n // 2))
        a = 4.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        t = scale[:, None] * a * scale[None, :]
        got = nx.spd_tridiagonal_inverse_norm(np.diag(t), np.diag(t, 1))
        inv = np.linalg.inv(a) / np.outer(scale, scale)
        want = np.linalg.eigvalsh(inv / np.max(inv))[-1] * np.max(inv)
        assert abs(got - want) <= 1e-12 * want

    def test_small_cases(self):
        assert nx.spd_tridiagonal_inverse_norm(np.zeros(0), np.zeros(0)) == 0.0
        # bisection converges to sigma_min = 2 within an ulp
        got = nx.spd_tridiagonal_inverse_norm(np.array([4.0]), np.zeros(0))
        assert abs(got - 0.25) <= 1e-15
        # eigenvalues 2 -+ 1, so |T^-1| = 1
        got = nx.spd_tridiagonal_inverse_norm(np.array([2.0, 2.0]), np.array([1.0]))
        assert abs(got - 1.0) <= 1e-15

    def test_not_positive_definite_raises(self):
        # eigenvalues 1 -+ 2: dpttrf stops at a nonpositive pivot
        with pytest.raises(nx.NumericsError, match="dpttrf"):
            nx.spd_tridiagonal_inverse_norm(np.array([1.0, 1.0]), np.array([2.0]))
        with pytest.raises(nx.NumericsError, match="dpttrf"):
            nx.spd_tridiagonal_inverse_norm(np.array([1.0, -1.0, 3.0]), np.array([0.1, 0.1]))

    def test_non_finite_entry_raises(self):
        for d, e in (([1.0, np.inf], [0.1]), ([1.0, 1.0], [np.nan])):
            with pytest.raises(nx.NumericsError, match="non-finite"):
                nx.spd_tridiagonal_inverse_norm(np.array(d), np.array(e))

    def test_failed_bisection_raises(self, monkeypatch):
        import scipy.linalg.lapack as lapack

        def failing(d, e, *args):
            return 0, np.zeros(d.size), np.zeros(d.size, int), np.zeros(d.size, int), 4

        monkeypatch.setattr(lapack, "dstebz", failing)
        with pytest.raises(nx.NumericsError, match="dstebz info=4"):
            nx.spd_tridiagonal_inverse_norm(np.array([2.0, 2.0]), np.array([1.0]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            nx.spd_tridiagonal_inverse_norm(np.ones(3), np.ones(3))


def products(m):
    """(x -> M x, y -> M^H y) of a dense matrix."""
    return (lambda x: m @ x), (lambda y: m.conj().T @ y)


class TestOperatorLargestSingularValue:
    """sigma_max from ARPACK on M^H M against a dense SVD."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 60])
    def test_matches_dense_svd(self, n):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        want = np.linalg.svd(m, compute_uv=False)[0]
        got, v = nx.operator_largest_singular_value(*products(m), n)
        assert abs(got - want) <= 1e-12 * want
        # v is a unit right singular vector: M^H M v = sigma^2 v
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-14
        assert np.linalg.norm(m.conj().T @ (m @ v) - got**2 * v) <= 1e-10 * got**2

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 60])
    def test_warm_start_agrees_with_the_cold_start(self, n):
        # start from the Ritz vector of a nearby operator, as neighbouring
        # sectors do
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        near = m + 0.1 * rng.standard_normal((n, n))
        cold, _ = nx.operator_largest_singular_value(*products(m), n)
        _, start = nx.operator_largest_singular_value(*products(near), n)
        warm, _ = nx.operator_largest_singular_value(*products(m), n, start)
        assert abs(warm - cold) <= 1e-13 * cold

    def test_empty_and_zero_operators(self):
        sigma, v = nx.operator_largest_singular_value(*products(np.zeros((0, 0))), 0)
        assert sigma == 0.0 and v.shape == (0,)
        for n in (1, 2):
            assert nx.operator_largest_singular_value(*products(np.zeros((n, n))), n)[0] == 0.0

    def test_arpack_failure_raises(self, monkeypatch):
        import scipy.sparse.linalg

        def failed(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackError(-9999)

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", failed)
        with pytest.raises(nx.NumericsError, match="ARPACK sigma_max"):
            nx.operator_largest_singular_value(*products(np.eye(5)), 5)

    def test_wrong_ritz_value_fails_the_residual_check(self, monkeypatch):
        import scipy.sparse.linalg

        exact = scipy.sparse.linalg.eigs

        def planted(*args, **kwargs):
            thetas, vectors = exact(*args, **kwargs)
            return thetas * (1 + 1e-8), vectors

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", planted)
        m = np.diag(np.arange(1.0, 6.0))
        with pytest.raises(nx.NumericsError, match="Ritz residual"):
            nx.operator_largest_singular_value(*products(m), 5)


class TestFindRootIncreasing:
    def test_threshold_equation_root(self):
        f = lambda lam: 6.0 * lam + math.sqrt(2.0) * lam**1.5 - 1.0
        root = nx.find_root_increasing(f, 0.0, 1.0)
        assert abs(f(root)) <= 1e-12
        assert abs(root - 0.1525) < 5e-4

    def test_requires_bracketing(self):
        with pytest.raises(ValueError):
            nx.find_root_increasing(lambda x: x + 10.0, 0.0, 1.0)


class TestExtrapolationAndFits:
    def test_aitken_on_geometric_sequence(self):
        limit, c, q = 0.5, 0.1, 0.3
        vals = [limit - c * q**k for k in range(3)]
        assert abs(nx.aitken_extrapolate(vals) - limit) < 1e-12

    def test_loglog_slope_pure_power(self):
        xs = [2.0, 4.0, 8.0, 16.0]
        ys = [7.0 * x**-1.5 for x in xs]
        assert abs(nx.fit_loglog_slope(xs, ys) + 1.5) < 1e-12
