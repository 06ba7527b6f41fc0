"""Finite-difference spectra against closed-form discrete oracles.

The cell-centered Dirichlet grid diagonalizes the free s-wave operator
exactly: the modes sin(p pi r / R) give eigenvalues
(2 - 2 cos(p pi h / R)) / h^2.  That law, the square-well threshold, and
the exact-scaling Weyl sequence are the oracles; everything else is checked
through invariants (symmetry, residual bounds, sigma_min vs eigenvalue
distance) and against dense recomputations from ``op.matrix``: zgeev for
the real-V ``eigh_tridiagonal`` spectra and LAPACK ``svdvals`` for the band
and ARPACK sigma_min of the pseudospectra.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from scipy.linalg import svdvals

from spectra_cert import spectral
from spectra_cert.cli import main
from spectra_cert.multipliers import TestFunction as Probe
from spectra_cert.multipliers import _probe_on
from spectra_cert.numerics import (
    EigenvalueError,
    NumericsError,
    _tridiagonal_frobenius,
    band_smallest_singular_value,
    eig_complex,
    tridiagonal_smallest_singular_value,
)
from spectra_cert.potentials import catalog
from spectra_cert.spectral import (
    SpectralError,
    discretize_radial,
    free_floor,
    pseudospectrum,
    singular_sequence_decay,
    spectrum,
)

HARDY = catalog("hardy", a=0.5)
IMAGH = catalog("imaginary_hardy", beta=0.3)
GAUSS = catalog("gaussian", v0=1.5, c_im=1.25)
WELL = catalog("square_well", v0=5 * math.pi**2 / 4, r0=1.0)


def radial_free_law(radius: float, n: int) -> np.ndarray:
    h = radius / n
    p = np.arange(1, n + 1)
    return (2.0 - 2.0 * np.cos(p * math.pi * h / radius)) / h**2


class TestDiscretizeRadial:
    def test_free_eigenvalues_match_discrete_law(self):
        op = discretize_radial(None, 0, math.pi, 40)
        got = np.sort(spectrum(op).eigenvalues.real)
        expect = np.sort(radial_free_law(math.pi, 40))
        np.testing.assert_allclose(got, expect, rtol=1e-10)

    def test_free_spectrum_is_real(self):
        rep = spectrum(discretize_radial(None, 1, 10.0, 32))
        assert np.max(np.abs(rep.eigenvalues.imag)) < 1e-10

    def test_matrix_is_complex_symmetric_tridiagonal(self):
        op = discretize_radial(IMAGH, 2, 15.0, 24)
        m = op.matrix
        assert np.allclose(m, m.T, atol=1e-14)
        assert np.any(m.imag != 0)
        band = np.triu(np.abs(m), 2)
        assert np.max(band) == 0.0

    def test_cell_centers_avoid_origin_and_wall(self):
        op = discretize_radial(HARDY, 0, 8.0, 16)
        r = op.h * (np.arange(op.n) + 0.5)
        assert r[0] == pytest.approx(op.h / 2)
        assert r[-1] == pytest.approx(8.0 - op.h / 2)
        assert np.all(np.isfinite(op.matrix))

    def test_wall_ghosts_bump_diagonal(self):
        op = discretize_radial(None, 0, 4.0, 8)
        h2 = op.h**2
        diag = np.diag(op.matrix).real
        assert diag[0] == pytest.approx(3.0 / h2)
        assert diag[-1] == pytest.approx(3.0 / h2)
        assert diag[3] == pytest.approx(2.0 / h2)

    def test_centrifugal_term(self):
        op0 = discretize_radial(None, 0, 4.0, 8)
        op2 = discretize_radial(None, 2, 4.0, 8)
        r = op0.h * (np.arange(op0.n) + 0.5)
        np.testing.assert_allclose(
            np.diag(op2.matrix - op0.matrix).real, 6.0 / r**2, rtol=1e-12
        )

    def test_operator_is_stored_as_bands(self):
        op = discretize_radial(None, 0, 10.0, 4096)
        arrays = [
            getattr(op, f.name)
            for f in dataclasses.fields(op)
            if isinstance(getattr(op, f.name), np.ndarray)
        ]
        assert arrays and all(a.ndim == 1 for a in arrays)
        assert op.n == 4096

    def test_validation(self):
        with pytest.raises(SpectralError, match="n >= 8"):
            discretize_radial(None, 0, 10.0, 4)
        with pytest.raises(SpectralError, match="ell"):
            discretize_radial(None, -1, 10.0, 16)
        with pytest.raises(SpectralError, match="radius"):
            discretize_radial(None, 0, -1.0, 16)
        with pytest.raises(SpectralError, match="d=3"):
            discretize_radial(catalog("hardy", a=0.5, dimension=4), 0, 10.0, 16)

    @pytest.mark.parametrize("radius", [1e-300, 1e-160, 1e-80])
    def test_grid_past_double_range_raises(self, radius):
        # 1e-300: h^2 underflows to 0; 1e-160: 2/h^2 is inf; 1e-80: the
        # diagonal is finite but |M|_F^2 ~ n / h^4 overflows
        with pytest.raises(SpectralError, match="overflows"):
            discretize_radial(HARDY, 1, radius, 96)
        assert np.isfinite(discretize_radial(HARDY, 1, 1e-70, 96).diag).all()


class TestFreeFloor:
    def test_radial_matches_law(self):
        op = discretize_radial(None, 0, 12.0, 64)
        assert free_floor(op) == pytest.approx(radial_free_law(12.0, 64)[0])

    def test_centrifugal_raises_floor(self):
        f0 = free_floor(discretize_radial(None, 0, 12.0, 64))
        f2 = free_floor(discretize_radial(HARDY, 2, 12.0, 64))
        assert f2 > f0

    def test_centrifugal_floor_matches_dense_free_matrix(self):
        op = discretize_radial(HARDY, 2, 12.0, 64)
        free = discretize_radial(None, 2, 12.0, 64)
        expect = float(np.linalg.eigvalsh(free.matrix.real)[0])
        assert free_floor(op) == pytest.approx(expect, rel=1e-12)


class TestSpectrum:
    def test_residuals_within_eigensolver_guarantee(self):
        op = discretize_radial(IMAGH, 0, 15.0, 96)
        rep = spectrum(op)
        assert np.max(rep.residuals) <= 1e-10 * np.linalg.norm(op.matrix)

    def test_banded_residuals_match_dense_products(self):
        # complex V (zgeev) and real V (eigh_tridiagonal); |M|_F comes from
        # BLAS nrm2 on the bands, summed in another order than the dense
        # norm.  The real
        # well covers the whole domain and sinks every eigenvalue below 0,
        # so every eigenpair is an outlier.
        sunk = catalog("square_well", v0=200.0, r0=20.0)
        for pot in (IMAGH, sunk):
            op = discretize_radial(pot, 0, 15.0, 96)
            rep = spectrum(op, outlier_tol=1e-12)  # every eigenpair rides along
            m = op.matrix
            vecs = rep.outlier_vectors
            assert vecs.shape == (96, 96)
            dense = np.linalg.norm(m @ vecs - vecs * rep.eigenvalues, axis=0)
            norm = _tridiagonal_frobenius(op.diag, np.full(95, -1.0 / op.h**2))
            assert norm == pytest.approx(float(np.linalg.norm(m)), rel=4 * np.finfo(float).eps)
            np.testing.assert_allclose(rep.residuals, dense, rtol=0, atol=1e-14 * norm)

    def test_perturbed_eigenvector_is_refused(self, monkeypatch):
        # spectrum itself checks every pair against 1e-10 |M|_F; a vector
        # knocked off its eigendirection must not pass through
        def perturbed(m):
            vals, vecs = eig_complex(m)
            w = vecs[:, 3] + 1e-6 * np.roll(vecs[:, 3], 1)
            vecs[:, 3] = w / np.linalg.norm(w)
            return vals, vecs

        monkeypatch.setattr(spectral, "eig_complex", perturbed)
        with pytest.raises(EigenvalueError, match="eigenpair 3"):
            spectrum(discretize_radial(IMAGH, 0, 15.0, 48))

    @pytest.mark.parametrize("pot", [None, WELL, HARDY], ids=["free", "square_well", "hardy"])
    @pytest.mark.parametrize("ell", [0, 1, 2])
    def test_real_v_matches_zgeev(self, pot, ell):
        op = discretize_radial(pot, ell, 12.0, 128)
        rep = spectrum(op)
        dense, _ = eig_complex(op.matrix)
        assert not rep.eigenvalues.imag.any()
        np.testing.assert_allclose(
            rep.eigenvalues, dense, rtol=0, atol=1e-12 * np.linalg.norm(op.matrix)
        )

    def test_real_v_never_calls_zgeev(self, monkeypatch):
        def refuse(m):
            raise AssertionError("zgeev called for a real diagonal")

        monkeypatch.setattr(spectral, "eig_complex", refuse)
        for pot in (None, WELL, HARDY):
            rep = spectrum(discretize_radial(pot, 1, 12.0, 64))
            assert rep.eigenvalues.size == 64

    def test_perturbed_tridiagonal_eigenvector_is_refused(self, monkeypatch):
        exact = scipy.linalg.eigh_tridiagonal

        def perturbed(d, e):
            w, v = exact(d, e)
            v = v.copy()
            v[:, 3] += 1e-6 * np.roll(v[:, 3], 1)
            v[:, 3] /= np.linalg.norm(v[:, 3])
            return w, v

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", perturbed)
        with pytest.raises(EigenvalueError, match="eigenpair 3"):
            spectrum(discretize_radial(WELL, 0, 15.0, 48))

    def test_free_operators_have_no_outliers(self):
        assert spectrum(discretize_radial(None, 0, 10.0, 64)).outlier_indices == ()

    def test_deep_well_bound_state_is_flagged(self):
        well = catalog("square_well", v0=5 * math.pi**2 / 4, r0=1.0)
        rep = spectrum(discretize_radial(well, 0, 10.0, 128))
        assert len(rep.outlier_indices) == 1
        lam = rep.outliers[0]
        assert lam.real < -5.0 and abs(lam.imag) < 1e-10
        assert rep.outlier_vectors.shape == (128, 1)

    def test_threshold_flip(self):
        # s-wave binding switches on at v0 = pi^2/4 for a radius-1 well
        crit = math.pi**2 / 4
        for frac, bound in ((0.95, False), (1.05, True)):
            well = catalog("square_well", v0=frac * crit, r0=1.0)
            op = discretize_radial(well, 0, 80.0, 1024)
            min_eig = float(np.linalg.eigvalsh(op.matrix.real)[0])
            assert (min_eig < 0) is bound

    def test_shallow_hardy_keeps_continuum_clean(self):
        rep = spectrum(discretize_radial(HARDY, 0, 40.0, 64))
        assert rep.outlier_indices == ()

    def test_explicit_tolerance(self):
        op = discretize_radial(None, 0, 10.0, 32)
        rep = spectrum(op, outlier_tol=1e-12)
        # even roundoff imaginary parts now count
        assert rep.outlier_tol == 1e-12
        with pytest.raises(SpectralError, match="outlier_tol"):
            spectrum(op, outlier_tol=-1.0)

    def test_rows_and_csv(self):
        rep = spectrum(discretize_radial(IMAGH, 0, 10.0, 16))
        rows = rep.to_rows()
        assert len(rows) == 16
        assert set(rows[0]) == {"re", "im", "residual", "is_outlier"}


class TestPseudospectrum:
    def test_normal_case_equals_eigenvalue_distance(self, monkeypatch):
        monkeypatch.setattr(spectral, "_PSEUDO_GRID_N", 5)
        op = discretize_radial(None, 0, 10.0, 32)
        vals = spectrum(op).eigenvalues
        field = pseudospectrum(op, (-2.0, 2.0), (-1.0, 1.0))
        for row in field.to_rows():
            z = row["z_re"] + 1j * row["z_im"]
            dist = np.min(np.abs(vals - z))
            # normal matrix: sigma_min(M - z) is the distance to the spectrum
            assert row["sigma_min"] == pytest.approx(dist, rel=1e-5, abs=1e-10)

    def test_sigma_min_never_exceeds_distance(self, monkeypatch):
        monkeypatch.setattr(spectral, "_PSEUDO_GRID_N", 4)
        op = discretize_radial(IMAGH, 0, 10.0, 32)
        vals = spectrum(op).eigenvalues
        field = pseudospectrum(op, (0.0, 3.0), (-1.0, 0.5))
        for row in field.to_rows():
            z = row["z_re"] + 1j * row["z_im"]
            dist = np.min(np.abs(vals - z))
            assert row["sigma_min"] <= dist * (1 + 1e-5) + 1e-12

    def test_far_window_keeps_its_distance(self):
        # at |z| ~ 1e154, n |z|^2 overflows: the working-precision threshold
        # n eps |M - z|_F must stay finite, or every point reads 0.0; the
        # spectrum of the free operator is O(1), so the distance is |z|
        op = discretize_radial(None, 0, 40.0, 16)
        field = pseudospectrum(op, (1e154, 2e154), (1.0, 2.0))
        z = field.re_values[None, :] + 1j * field.im_values[:, None]
        np.testing.assert_allclose(field.sigma_min, np.abs(z), rtol=1e-12, atol=0.0)

    def test_grid_shape_and_csv(self):
        op = discretize_radial(None, 0, 8.0, 16)
        field = pseudospectrum(op, (-1.0, 1.0), (-1.0, 2.0))
        assert field.sigma_min.shape == (40, 40)
        assert len(field.to_rows()) == 1600
        assert field.im_values[-1] == 2.0

    def test_validation(self):
        op = discretize_radial(None, 0, 8.0, 16)
        with pytest.raises(SpectralError, match="increasing"):
            pseudospectrum(op, (1, 0), (0, 1))


class TestArpackSigmaMin:
    """The tridiagonal sigma_min routines, band eigenvalue and ARPACK, against
    the dense SVD."""

    SOLVERS = (band_smallest_singular_value, tridiagonal_smallest_singular_value)

    @staticmethod
    def shifts(op, seed):
        # 20 seeded points over the pseudospectrum window, 5 of them within
        # 1e-3 of an eigenvalue
        rng = np.random.default_rng(seed)
        z = rng.uniform(-2.0, 6.0, 15) + 1j * rng.uniform(-2.0, 2.0, 15)
        vals = np.linalg.eigvals(op.matrix)
        near = rng.choice(vals[np.abs(vals) < 10.0], 5, replace=False)
        near = near + 1e-3 * rng.uniform(0.2, 1.0, 5) * np.exp(2j * math.pi * rng.random(5))
        return np.concatenate([z, near])

    @pytest.mark.parametrize("pot", [IMAGH, GAUSS, None], ids=["imaginary_hardy", "gaussian", "free"])
    @pytest.mark.parametrize("n", [1, 2, 16, 64, 96, 128, spectral._ARPACK_MIN_N - 1, 256])
    def test_matches_dense_svd(self, pot, n):
        # n = 1 and 2 take the leading block of the n = 16 operator, at its
        # shifts: below n = 8 there is no discretization, and scipy's
        # zgttrf wrapper rejects these orders
        op = discretize_radial(pot, 0, 14.0, max(n, 16))
        diag = op.diag[:n]
        off = np.full(n - 1, -1.0 / op.h**2)
        m = op.matrix[:n, :n]
        for z in self.shifts(op, n):
            svals = svdvals(m - z * np.eye(n))
            # 1e-10 relative, plus the eps * sigma_max the dense oracle itself
            # is accurate to, which dominates only near an eigenvalue
            floor = np.finfo(float).eps * svals[0]
            for solver in self.SOLVERS:
                got = solver(diag - z, off)
                assert abs(got - svals[-1]) <= 1e-10 * svals[-1] + floor, (solver, z)

    def test_exact_free_eigenvalue_reads_zero(self):
        op = discretize_radial(None, 0, 14.0, 96)
        off = np.full(95, -1.0 / op.h**2)
        for lam in radial_free_law(14.0, 96)[[0, 4, 39]]:
            for solver in self.SOLVERS:
                assert solver(op.diag - lam, off) == 0.0, solver

    @pytest.mark.parametrize("z", [1e154 + 1j, 1e200 + 1j, 1e300 + 1j])
    def test_far_shift_keeps_its_distance(self, z):
        # the free operator is normal with an O(1) spectrum, so sigma_min is
        # |z| to about 1e-150 relative; theta = sigma_max(T^-1)^2 = |z|^-2
        # underflows from |z| ~ 1e154 unless the ARPACK driver rescales T^-1
        op = discretize_radial(None, 0, 40.0, 256)
        off = np.full(255, -1.0 / op.h**2)
        for solver in self.SOLVERS:
            assert abs(solver(op.diag - z, off) - abs(z)) <= 1e-12 * abs(z), solver

    @staticmethod
    def pseudo_config(tmp_path, n):
        config = {
            "experiment": "pseudospectrum",
            "potential": {"name": "imaginary_hardy", "params": {"beta": 0.3}},
            "grid_n": n,
            "r_max": 14.0,
            "z_window": [-2.0, 6.0, -2.0, 2.0],
            "output": {"path": str(tmp_path / "pseudo")},
        }
        path = tmp_path / "pseudo.json"
        path.write_text(json.dumps(config))
        return str(path)

    def test_no_convergence_raises_and_run_exits_1(self, tmp_path, monkeypatch, capsys):
        def stalled(*args, **kwargs):
            raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", stalled)
        op = discretize_radial(IMAGH, 0, 14.0, 96)
        with pytest.raises(NumericsError, match="ARPACK"):
            tridiagonal_smallest_singular_value(op.diag - 1.0, np.full(95, -1.0 / op.h**2))
        # the CLI map reaches ARPACK only from the crossover up
        assert main(["run", self.pseudo_config(tmp_path, spectral._ARPACK_MIN_N)]) == 1
        assert "ARPACK" in capsys.readouterr().err

    def test_band_lapack_failure_raises_and_run_exits_1(self, tmp_path, monkeypatch, capsys):
        def failed(ab, *args, **kwargs):
            # dsbevx returns (w, z, m, ifail, info); info > 0: bisection failed
            return np.zeros(ab.shape[1]), np.zeros((1, 1)), 0, np.zeros(1, np.int32), 1

        monkeypatch.setattr(scipy.linalg.lapack, "dsbevx", failed)
        op = discretize_radial(IMAGH, 0, 14.0, 64)
        with pytest.raises(NumericsError, match="dsbevx info=1"):
            band_smallest_singular_value(op.diag - 1.0, np.full(63, -1.0 / op.h**2))
        assert main(["run", self.pseudo_config(tmp_path, 64)]) == 1
        assert "dsbevx" in capsys.readouterr().err

    def test_band_value_off_the_dense_svd_is_refused(self, monkeypatch):
        # the map's lowest point is checked against the dense SVD
        monkeypatch.setattr(spectral, "_PSEUDO_GRID_N", 3)
        monkeypatch.setattr(
            spectral, "band_smallest_singular_value",
            lambda d, e: (1 + 1e-8) * band_smallest_singular_value(d, e),
        )
        with pytest.raises(NumericsError, match="misses the dense SVD"):
            pseudospectrum(discretize_radial(IMAGH, 0, 14.0, 64), (-2.0, 6.0), (-2.0, 2.0))

    @pytest.mark.parametrize(
        "n, route",
        [(64, "band"), (spectral._ARPACK_MIN_N - 1, "band"), (spectral._ARPACK_MIN_N, "arpack")],
    )
    def test_solver_crossover(self, monkeypatch, n, route):
        calls = {"dense": 0, "band": 0, "arpack": 0}

        def counted(name):
            def wrapper(*args):
                calls[name] += 1
                return 1.0

            return wrapper

        for name, attr in (
            ("dense", "smallest_singular_value"),
            ("band", "band_smallest_singular_value"),
            ("arpack", "tridiagonal_smallest_singular_value"),
        ):
            monkeypatch.setattr(spectral, attr, counted(name))
        pseudospectrum(discretize_radial(IMAGH, 0, 14.0, n), (-2.0, 6.0), (-2.0, 2.0))
        # below the crossover one dense SVD checks the map's lowest point
        expect = {"dense": int(route == "band"), "band": 0, "arpack": 0}
        expect[route] = 1600
        assert calls == expect


def normalized(probe):
    """The probe divided by its L^2 norm on singular_sequence_decay's rule."""
    norm = math.sqrt(_probe_on(probe, 0.0, 480, "gauss").norm_sq)

    class Normalized(Probe):
        def radial_terms(self, r):
            return tuple(t / norm for t in super().radial_terms(r))

    return Normalized(probe.family, probe.support_radius, probe.chirp)


class TestSingularSequence:
    PHI = Probe("radial-gaussian-bump", 1.0)
    NS = (2, 4, 8, 16, 32, 64)

    def decay(self, k):
        # PHI is not L^2-normalized: its rescaled table must be the one the
        # normalized probe builds
        assert abs(_probe_on(self.PHI, 0.0, 480, "gauss").norm_sq - 1.0) > 1e-3
        rep = singular_sequence_decay(self.PHI, k, self.NS)
        want = singular_sequence_decay(normalized(self.PHI), k, self.NS)
        np.testing.assert_allclose(rep.equation_residuals, want.equation_residuals, rtol=1e-13)
        np.testing.assert_allclose(rep.form_terms, want.form_terms, rtol=1e-13)
        return rep

    def test_zero_momentum_decays_second_order(self):
        rep = self.decay((0, 0, 0))
        assert rep.residual_slope == pytest.approx(-2.0, abs=1e-9)
        assert rep.form_slope == pytest.approx(-2.0, abs=1e-9)

    def test_transport_term_dominates_at_large_momentum(self):
        rep = self.decay((100.0, 0, 0))
        assert -1.01 <= rep.residual_slope <= -0.99
        assert rep.form_slope == pytest.approx(-2.0, abs=1e-9)

    def test_residuals_decrease_monotonically(self):
        rep = self.decay((1.0, 2.0, 2.0))
        assert all(a > b for a, b in zip(rep.equation_residuals, rep.equation_residuals[1:]))
        rows = rep.to_rows()
        assert set(rows[0]) == {"n", "equation_residual", "form_term"}

    def test_validation(self):
        with pytest.raises(SpectralError, match="two scales"):
            singular_sequence_decay(self.PHI, (0, 0, 0), (4,))
        with pytest.raises(SpectralError, match="positive"):
            singular_sequence_decay(self.PHI, (0, 0, 0), (0, 4))
