"""Finite-difference spectra against closed-form discrete oracles.

The cell-centered Dirichlet grid diagonalizes the free s-wave operator
exactly: the modes sin(p pi r / R) give eigenvalues
(2 - 2 cos(p pi h / R)) / h^2.  That law, the square-well threshold, and
the exact-scaling Weyl sequence are the oracles; everything else is checked
through invariants (symmetry, residual bounds, sigma_min vs eigenvalue
distance) and against dense recomputations from ``op.matrix``.
"""

import dataclasses
import math

import numpy as np
import pytest

from spectra_cert import spectral
from spectra_cert.multipliers import TestFunction as Probe
from spectra_cert.numerics import EigenvalueError, eig_complex
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
        r = op.nodes()
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
        r = op0.nodes()
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
        rep = spectrum(discretize_radial(IMAGH, 0, 15.0, 96))
        assert np.max(rep.residuals) <= 1e-10 * rep.matrix_norm

    def test_banded_residuals_match_dense_products(self):
        op = discretize_radial(IMAGH, 0, 15.0, 96)
        rep = spectrum(op, outlier_tol=1e-12)  # every eigenpair rides along
        m = op.matrix
        vecs = rep.outlier_vectors
        assert vecs.shape == (96, 96)
        dense = np.linalg.norm(m @ vecs - vecs * rep.eigenvalues, axis=0)
        assert rep.matrix_norm == float(np.linalg.norm(m))
        np.testing.assert_allclose(
            rep.residuals, dense, rtol=0, atol=1e-14 * rep.matrix_norm
        )

    def test_perturbed_eigenvector_is_refused(self, monkeypatch):
        # spectrum itself checks every pair against 1e-10 |M|_F; a vector
        # knocked off its eigendirection must not pass through
        def perturbed(m):
            pairs = eig_complex(m)
            lam, v = pairs[3]
            w = v + 1e-6 * np.roll(v, 1)
            pairs[3] = (lam, w / np.linalg.norm(w))
            return pairs

        monkeypatch.setattr(spectral, "eig_complex", perturbed)
        with pytest.raises(EigenvalueError, match="eigenpair 3"):
            spectrum(discretize_radial(IMAGH, 0, 15.0, 48))

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


class TestSingularSequence:
    PHI = Probe("radial-gaussian-bump", 1.0)
    NS = (2, 4, 8, 16, 32, 64)

    def test_zero_momentum_decays_second_order(self):
        with pytest.warns(UserWarning, match="normalized"):
            rep = singular_sequence_decay(self.PHI, (0, 0, 0), self.NS)
        assert rep.residual_slope == pytest.approx(-2.0, abs=1e-9)
        assert rep.form_slope == pytest.approx(-2.0, abs=1e-9)

    def test_transport_term_dominates_at_large_momentum(self):
        with pytest.warns(UserWarning, match="normalized"):
            rep = singular_sequence_decay(self.PHI, (100.0, 0, 0), self.NS)
        assert -1.01 <= rep.residual_slope <= -0.99
        assert rep.form_slope == pytest.approx(-2.0, abs=1e-9)

    def test_residuals_decrease_monotonically(self):
        with pytest.warns(UserWarning, match="normalized"):
            rep = singular_sequence_decay(self.PHI, (1.0, 2.0, 2.0), self.NS)
        assert all(a > b for a, b in zip(rep.equation_residuals, rep.equation_residuals[1:]))
        rows = rep.to_rows()
        assert set(rows[0]) == {"n", "equation_residual", "form_term"}

    def test_validation(self):
        with pytest.raises(SpectralError, match="two scales"):
            singular_sequence_decay(self.PHI, (0, 0, 0), (4,))
        with pytest.raises(SpectralError, match="positive"):
            singular_sequence_decay(self.PHI, (0, 0, 0), (0, 4))
