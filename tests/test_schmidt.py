import numpy as np
import pytest

from biphoton import schmidt, spdc


def gaussian_modes(x, n):
    """Smooth orthonormal mode set: Gram-Schmidt over Gaussian-enveloped
    polynomials on the given axis."""
    env = np.exp(-((x - x.mean()) / (0.2 * (x[-1] - x[0]))) ** 2)
    basis = [env * x**k for k in range(n)]
    out = []
    for v in basis:
        for u in out:
            v = v - np.dot(u, v) * u
        out.append(v / np.linalg.norm(v))
    return np.array(out)


def synthetic_jsa(coeffs, n=64):
    grid = spdc.FrequencyGrid(n_signal=n, n_idler=n)
    gs = gaussian_modes(grid.signal_omega, len(coeffs))
    hs = gaussian_modes(grid.idler_omega, len(coeffs))
    amp = np.einsum("j,jx,jy->xy", coeffs, gs, hs)
    return spdc.JsaGrid(grid.signal_omega, grid.idler_omega, amp).normalize()


class TestSchmidtDecompose:
    def test_rank_one_separable(self):
        jsa = synthetic_jsa([1.0])
        report, _, _ = schmidt.schmidt_decompose(jsa)
        assert report.schmidt_number == pytest.approx(1.0, abs=1e-9)
        assert report.purity == pytest.approx(1.0, abs=1e-9)
        assert report.eigenvalues[1] < 1e-8 * report.eigenvalues[0]

    def test_two_equal_modes(self):
        jsa = synthetic_jsa([1 / np.sqrt(2), 1 / np.sqrt(2)])
        report, _, _ = schmidt.schmidt_decompose(jsa)
        assert report.schmidt_number == pytest.approx(2.0, abs=1e-9)
        assert report.purity == pytest.approx(0.5, abs=1e-9)

    def test_default_source_matches_published_mode_content(self):
        jsa = spdc.compute_jsa(spdc.PumpSpec(), spdc.CrystalSpec(),
                               spdc.FrequencyGrid(n_signal=256, n_idler=256))
        report, _, _ = schmidt.schmidt_decompose(jsa)
        assert report.schmidt_number == pytest.approx(5.60, rel=0.15)
        assert report.purity == pytest.approx(0.18, rel=0.15)

    def test_identity_and_normalization_random_amplitudes(self):
        rng = np.random.Generator(np.random.Philox(key=5))
        for _ in range(20):
            rank = int(rng.integers(1, 8))
            coeffs = rng.random(rank) + 0.05
            jsa = synthetic_jsa(coeffs, n=48)
            report, _, _ = schmidt.schmidt_decompose(jsa)
            lam = report.eigenvalues
            assert np.all(np.diff(lam) <= 1e-12)          # descending
            assert np.sum(lam**2) == pytest.approx(1.0, abs=1e-9)
            assert report.schmidt_number * report.purity == pytest.approx(1.0, abs=1e-9)
            assert report.schmidt_number >= 1.0 - 1e-12

    def test_known_coefficients_recovered(self):
        coeffs = np.array([0.8, 0.5, 0.33166247903554])  # unit norm
        jsa = synthetic_jsa(coeffs)
        report, _, _ = schmidt.schmidt_decompose(jsa)
        assert np.allclose(report.eigenvalues[:3], sorted(coeffs, reverse=True),
                           atol=1e-9)

    def test_modes_orthonormal_and_reconstruct(self):
        jsa = synthetic_jsa([0.9, 0.4358898943540674])
        report, gs, hs = schmidt.schmidt_decompose(jsa, mode_count=8)
        dws, dwi = jsa.cell_measures()
        gram = np.einsum("jx,kx,x->jk", gs.conj(), gs, dws)
        assert np.allclose(gram, np.eye(len(gs)), atol=1e-9)
        recon = np.einsum("j,jx,jy->xy", report.eigenvalues, gs, hs)
        err = np.linalg.norm((recon - jsa.amplitude) * np.sqrt(dws)[:, None]
                             * np.sqrt(dwi)[None, :])
        assert err < 1e-8
        assert report.residual < 1e-8

    def test_scalar_invariance(self):
        jsa = synthetic_jsa([0.7, 0.7141428428542851])
        a, _, _ = schmidt.schmidt_decompose(jsa)
        scaled = spdc.JsaGrid(jsa.signal_omega, jsa.idler_omega, 17.3 * jsa.amplitude)
        b, _, _ = schmidt.schmidt_decompose(scaled)
        assert np.allclose(a.eigenvalues, b.eigenvalues, atol=1e-12)
        assert a.schmidt_number == pytest.approx(b.schmidt_number, rel=1e-12)

    def test_grid_resolution_stability(self):
        pump, crystal = spdc.PumpSpec(), spdc.CrystalSpec()
        k = []
        for n in (256, 512):
            jsa = spdc.compute_jsa(pump, crystal, spdc.FrequencyGrid(n_signal=n, n_idler=n))
            k.append(schmidt.schmidt_decompose(jsa)[0].schmidt_number)
        assert abs(k[1] - k[0]) / k[0] < 0.01

    def test_rejects_bad_input(self):
        grid = spdc.FrequencyGrid(n_signal=8, n_idler=8)
        zeros = spdc.JsaGrid(grid.signal_omega, grid.idler_omega, np.zeros((8, 8)))
        with pytest.raises(ValueError):
            schmidt.schmidt_decompose(zeros)
        bad = np.ones((8, 8), dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            schmidt.schmidt_decompose(spdc.JsaGrid(grid.signal_omega, grid.idler_omega, bad))


class TestJsaFromJsi:
    def test_single_cell(self):
        counts = np.zeros((16, 16))
        counts[3, 4] = 100
        lam_s = np.linspace(514, 516, 16)
        lam_i = np.linspace(1540, 1560, 16)
        jsa = schmidt.jsa_from_jsi(counts, lam_s, lam_i)
        report, _, _ = schmidt.schmidt_decompose(jsa)
        assert report.schmidt_number == pytest.approx(1.0, abs=1e-9)

    def test_discretized_intensity_matches_direct_decomposition(self):
        # histogram equal to |f|^2 on the model's own grid must agree with
        # decomposing |f| directly (the intensity root carries no sign)
        jsa = spdc.compute_jsa(spdc.PumpSpec(), spdc.CrystalSpec(),
                               spdc.FrequencyGrid(n_signal=128, n_idler=128))
        modulus = spdc.JsaGrid(jsa.signal_omega, jsa.idler_omega,
                               np.abs(jsa.amplitude), normalized=jsa.normalized)
        direct, _, _ = schmidt.schmidt_decompose(modulus)
        counts = jsa.jsi()
        rebuilt = schmidt.jsa_from_jsi(counts, jsa.signal_wavelength_nm,
                                       jsa.idler_wavelength_nm)
        indirect, _, _ = schmidt.schmidt_decompose(rebuilt)
        assert indirect.schmidt_number == pytest.approx(direct.schmidt_number, rel=1e-6)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            schmidt.jsa_from_jsi(np.zeros((4, 4)), np.arange(4.0) + 514,
                                 np.arange(4.0) + 1540)

    def test_background_subtraction_reported(self):
        rng = np.random.Generator(np.random.Philox(key=9))
        jsa = spdc.compute_jsa(spdc.PumpSpec(), spdc.CrystalSpec(pm_model="linearized"),
                               spdc.FrequencyGrid(n_signal=64, n_idler=64))
        scale = 200 / jsa.jsi().max()
        counts = rng.poisson(jsa.jsi() * scale + 5.0)
        with_bg = schmidt.schmidt_decompose(
            schmidt.jsa_from_jsi(counts, jsa.signal_wavelength_nm,
                                 jsa.idler_wavelength_nm))[0]
        subtracted = schmidt.schmidt_decompose(
            schmidt.jsa_from_jsi(counts, jsa.signal_wavelength_nm,
                                 jsa.idler_wavelength_nm, background=5.0))[0]
        assert with_bg.schmidt_number != subtracted.schmidt_number

    @pytest.mark.parametrize("background", [-5.0, np.nan, np.inf, -np.inf])
    def test_bad_background_rejected(self, background):
        with pytest.raises(ValueError, match="background must be finite and >= 0"):
            schmidt.jsa_from_jsi(np.ones((4, 4)), np.arange(4.0) + 514,
                                 np.arange(4.0) + 1540, background=background)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            schmidt.jsa_from_jsi(np.array([[-1.0, 2.0], [0.0, 1.0]]),
                                 np.array([514.0, 515.0]),
                                 np.array([1540.0, 1541.0]))
