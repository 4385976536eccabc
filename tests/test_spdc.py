import re

import numpy as np
import pytest

from biphoton import spdc
from biphoton.units import omega_from_wavelength

# Independent oracle for the Sellmeier phase mismatch at the operating point
# (515 nm, 1550 nm, phi = 25 deg): scalar evaluation of the published Kato
# 1994 polynomials at 30-digit precision, done separately from this package.
DK_ORACLE_PER_MM = -0.0953506012838476


@pytest.fixture(scope="module")
def default_jsa():
    return spdc.compute_jsa(spdc.PumpSpec(), spdc.CrystalSpec(),
                            spdc.FrequencyGrid(n_signal=256, n_idler=256))


class TestPumpEnvelope:
    def test_peak_on_resonance(self):
        pump = spdc.PumpSpec()
        w = pump.center_omega
        assert spdc.pump_envelope(w / 2, w / 2, pump) == pytest.approx(1.0)

    def test_half_intensity_at_half_fwhm(self):
        pump = spdc.PumpSpec()
        w = pump.center_omega
        amp = spdc.pump_envelope(w / 2 + pump.fwhm_omega / 2, w / 2, pump)
        assert amp**2 == pytest.approx(0.5, rel=1e-12)
        assert amp == pytest.approx(1 / np.sqrt(2), rel=1e-12)

    def test_depends_only_on_sum(self):
        pump = spdc.PumpSpec()
        w = pump.center_omega
        for delta in (0.1, 1.0, 3.7):
            a = spdc.pump_envelope(w / 2 + delta, w / 2 - delta, pump)
            b = spdc.pump_envelope(w / 2 - delta, w / 2 + delta, pump)
            assert a == pytest.approx(1.0)
            assert a == b

    @pytest.mark.parametrize("kw, message", [
        ({"center_wavelength_nm": 0.0}, "pump center wavelength must be positive"),
        ({"fwhm_bandwidth_nm": 40.0}, "pump bandwidth must be positive and small")],
        ids=["center", "bandwidth"])
    def test_invalid_pump_rejected(self, kw, message):
        with pytest.raises(ValueError, match=message):
            spdc.PumpSpec(**kw)


class TestPhaseMismatch:
    def test_linearized_zero_at_expansion_point(self):
        crystal = spdc.CrystalSpec(pm_model="linearized")
        dk = spdc.phase_mismatch(omega_from_wavelength(515.0),
                                 omega_from_wavelength(1550.0), crystal)
        assert dk == pytest.approx(0.0, abs=1e-12)

    def test_linearized_linear_form(self):
        # 2 ps/m = 0.002 ps/mm; a 1 rad/ps signal detuning contributes 2 1/m
        crystal = spdc.CrystalSpec(pm_model="linearized",
                                   linearized_coeffs=(0.002, 0.0))
        dk = spdc.phase_mismatch(omega_from_wavelength(515.0) + 1.0,
                                 omega_from_wavelength(1550.0), crystal)
        assert dk * 1000 == pytest.approx(2.0, rel=1e-12)  # 1/mm -> 1/m

    def test_sellmeier_matches_independent_oracle(self):
        crystal = spdc.CrystalSpec()  # phi = 25 deg
        dk = float(spdc.phase_mismatch(omega_from_wavelength(515.0),
                                       omega_from_wavelength(1550.0), crystal))
        assert dk == pytest.approx(DK_ORACLE_PER_MM, rel=1e-9)
        assert abs(dk * 5.0 / 2.0) < 0.5  # near phase matched over the 5 mm length

    def test_solved_angle_consistent_with_quoted_value(self):
        phi = spdc.solve_phase_matching_angle(515.0, 1550.0)
        assert phi == pytest.approx(25.0, abs=0.1)
        crystal = spdc.CrystalSpec(phase_matching_angle_deg=phi)
        dk = spdc.phase_mismatch(omega_from_wavelength(515.0),
                                 omega_from_wavelength(1550.0), crystal)
        assert abs(dk) < 1e-8

    def test_null_angle_solved_at_grid_centres(self):
        # not at linearized_center_nm (515/1550 nm), where it is 24.986 degrees
        grid = spdc.FrequencyGrid(520.0, 1510.0, n_signal=33, n_idler=33)
        pump = spdc.PumpSpec(center_wavelength_nm=1.0 / (1.0 / 520.0 + 1.0 / 1510.0))
        phi = spdc.solve_phase_matching_angle(520.0, 1510.0)
        assert phi == pytest.approx(25.452, abs=1e-3)
        solved = spdc.compute_jsa(pump, spdc.CrystalSpec(phase_matching_angle_deg=None), grid)
        crystal = spdc.CrystalSpec(phase_matching_angle_deg=phi)
        assert np.array_equal(solved.amplitude, spdc.compute_jsa(pump, crystal, grid).amplitude)
        center = omega_from_wavelength(520.0), omega_from_wavelength(1510.0)
        assert abs(spdc.phase_mismatch(*center, crystal)) < 1e-8
        with pytest.raises(ValueError, match="no phase-matching angle"):
            spdc.phase_mismatch(*center, spdc.CrystalSpec(phase_matching_angle_deg=None))

    def test_solved_angle_matches_brentq(self):
        optimize = pytest.importorskip("scipy.optimize")
        for signal_nm, idler_nm in ((515.0, 1550.0), (510.0, 1560.0), (530.0, 1400.0)):
            ref = optimize.brentq(
                lambda phi: spdc._sellmeier_delta_k(np.array(signal_nm), np.array(idler_nm), phi),
                5.0, 85.0, xtol=1e-10)
            phi = spdc.solve_phase_matching_angle(signal_nm, idler_nm)
            assert phi == pytest.approx(ref, abs=1e-10)

    def test_no_angle_in_bracket_rejected(self):
        # degenerate 1300 + 1300 nm stays mismatched from 5 to 85 degrees
        with pytest.raises(ValueError, match="no phase-matching angle"):
            spdc.solve_phase_matching_angle(1300.0, 1300.0)

    def test_sellmeier_range_enforced(self):
        crystal = spdc.CrystalSpec()
        with pytest.raises(ValueError, match="validity range"):
            spdc.phase_mismatch(omega_from_wavelength(515.0),
                                omega_from_wavelength(5000.0), crystal)

    def test_missing_linearized_coeffs(self):
        with pytest.raises(ValueError):
            spdc.CrystalSpec(pm_model="linearized", linearized_coeffs=None)

    @pytest.mark.parametrize("kw, message", [
        ({"length_mm": 0.0}, "crystal length must be positive"),
        ({"phase_matching_angle_deg": 90.5}, r"phase matching angle must be in \[0, 90\]"),
        ({"material": "BBO"}, "unsupported crystal material 'BBO'"),
        ({"pm_model": "taylor"}, "unknown pm_model 'taylor'")],
        ids=["length", "angle", "material", "pm-model"])
    def test_invalid_crystal_rejected(self, kw, message):
        with pytest.raises(ValueError, match=message):
            spdc.CrystalSpec(**kw)


class TestComputeJsa:
    def test_short_crystal_limit_is_pump_stripe(self):
        grid = spdc.FrequencyGrid(n_signal=64, n_idler=64)
        pump = spdc.PumpSpec()
        thin = spdc.compute_jsa(pump, spdc.CrystalSpec(length_mm=1e-6), grid)
        WS, WI = np.meshgrid(grid.signal_omega, grid.idler_omega, indexing="ij")
        stripe = spdc.pump_envelope(WS, WI, pump)
        d_omega_s, d_omega_i = np.diff(grid.signal_omega)[0], np.diff(grid.idler_omega)[0]
        stripe = stripe / np.sqrt(np.sum(stripe**2) * d_omega_s * d_omega_i)
        assert np.allclose(np.abs(thin.amplitude), stripe, atol=1e-9)

    def test_marginals_near_published_simulation(self, default_jsa):
        assert default_jsa.marginal_fwhm_nm("signal") == pytest.approx(1.55, rel=0.15)
        assert default_jsa.marginal_fwhm_nm("idler") == pytest.approx(13.6, rel=0.15)

    def test_linearized_defaults_hit_widths_exactly(self):
        jsa = spdc.compute_jsa(spdc.PumpSpec(),
                               spdc.CrystalSpec(pm_model="linearized"),
                               spdc.FrequencyGrid())
        assert jsa.marginal_fwhm_nm("signal") == pytest.approx(1.55, rel=0.02)
        assert jsa.marginal_fwhm_nm("idler") == pytest.approx(13.6, rel=0.02)

    def test_normalization(self, default_jsa):
        dws, dwi = default_jsa.cell_measures()
        total = np.sum(default_jsa.jsi() * dws[:, None] * dwi[None, :])
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_amplitude_even_in_mismatch_sign(self):
        # flipping the sign of both linear coefficients flips delta_k
        grid = spdc.FrequencyGrid(n_signal=64, n_idler=64)
        pump = spdc.PumpSpec()
        plus = spdc.compute_jsa(pump, spdc.CrystalSpec(
            pm_model="linearized", linearized_coeffs=(0.06, 0.17)), grid)
        minus = spdc.compute_jsa(pump, spdc.CrystalSpec(
            pm_model="linearized", linearized_coeffs=(-0.06, -0.17)), grid)
        assert np.allclose(np.abs(plus.amplitude), np.abs(minus.amplitude), atol=1e-12)

    def test_span_doubling_leaves_values_unchanged(self):
        # doubled span with proportional point count contains the original
        # axes as every second point; amplitude values there must agree
        pump = spdc.PumpSpec()
        crystal = spdc.CrystalSpec()
        small = spdc.FrequencyGrid(n_signal=65, n_idler=65)
        big = spdc.FrequencyGrid(signal_span_nm=16.0, idler_span_nm=140.0,
                                 n_signal=129, n_idler=129)
        a = spdc.compute_jsa(pump, crystal, small)
        b = spdc.compute_jsa(pump, crystal, big)
        assert np.allclose(a.signal_omega, b.signal_omega[32:-32], rtol=0, atol=1e-9)
        sub = b.amplitude[32:-32, 32:-32]
        # compare unnormalized shapes: rescale by the peak
        ratio = np.abs(a.amplitude).max() / np.abs(sub).max()
        assert np.allclose(np.abs(a.amplitude), np.abs(sub) * ratio, atol=1e-9)


    @pytest.mark.parametrize("make, message", [
        (lambda: spdc.FrequencyGrid(n_idler=1), "at least 2 points per axis"),
        (lambda: spdc.FrequencyGrid(signal_span_nm=0.0), "grid spans must be positive"),
        (lambda: spdc.JsaGrid([1.0, 2.0], [1.0, 2.0], np.ones((2, 3))),
         "amplitude shape does not match axes"),
        (lambda: spdc.JsaGrid([2.0, 1.0], [1.0, 2.0], np.ones((2, 2))),
         "grid axes must be strictly increasing")],
        ids=["points", "span", "shape", "order"])
    def test_invalid_grid_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize("call, message", [
        (lambda jsa: jsa.normalize(), "cannot normalize an all-zero amplitude"),
        (lambda jsa: jsa.marginal("pump"), "axis must be 'signal' or 'idler'"),
        (lambda jsa: spdc.fwhm_from_profile(*jsa.marginal("signal")),
         "profile has no positive values")],
        ids=["normalize", "marginal", "fwhm"])
    def test_all_zero_amplitude_operations_rejected(self, call, message):
        zeros = spdc.JsaGrid([1.0, 2.0, 3.0], [1.0, 2.0], np.zeros((3, 2)))
        with pytest.raises(ValueError, match=message):
            call(zeros)


def draw_pairs(jsa, n, seed):
    """n pairs from `pair_sampler`, drawn as a pulse block draws them."""
    return spdc.pair_sampler(jsa)(n, np.random.Generator(np.random.Philox(key=seed)))


class TestSamplePairs:
    def test_single_cell_support(self):
        grid = spdc.FrequencyGrid(n_signal=16, n_idler=16)
        amp = np.zeros((16, 16), dtype=complex)
        amp[5, 9] = 1.0
        jsa = spdc.JsaGrid(grid.signal_omega, grid.idler_omega, amp).normalize()
        lam_s, lam_i = draw_pairs(jsa, 1000, seed=1)
        ws = omega_from_wavelength(lam_s)
        wi = omega_from_wavelength(lam_i)
        dws, dwi = jsa.cell_measures()
        assert np.all(np.abs(ws - grid.signal_omega[5]) <= dws[5] / 2 + 1e-12)
        assert np.all(np.abs(wi - grid.idler_omega[9]) <= dwi[9] / 2 + 1e-12)

    def test_same_seed_identical(self, default_jsa):
        a = draw_pairs(default_jsa, 1000, seed=42)
        b = draw_pairs(default_jsa, 1000, seed=42)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_all_zero_rejected(self):
        grid = spdc.FrequencyGrid(n_signal=8, n_idler=8)
        jsa = spdc.JsaGrid(grid.signal_omega, grid.idler_omega,
                           np.zeros((8, 8), dtype=complex))
        with pytest.raises(ValueError):
            draw_pairs(jsa, 10, seed=0)

    def test_histogram_matches_cell_probabilities(self, default_jsa):
        # chi-square consistency of the empirical cell histogram vs |f|^2
        n = 1_000_000
        lam_s, lam_i = draw_pairs(default_jsa, n, seed=7)
        ws = omega_from_wavelength(lam_s)
        wi = omega_from_wavelength(lam_i)
        ax_s, ax_i = default_jsa.signal_omega, default_jsa.idler_omega
        ds, di = default_jsa.cell_measures()
        edges_s = np.concatenate([ax_s - ds / 2, [ax_s[-1] + ds[-1] / 2]])
        edges_i = np.concatenate([ax_i - di / 2, [ax_i[-1] + di[-1] / 2]])
        hist, _, _ = np.histogram2d(ws, wi, bins=(edges_s, edges_i))
        prob = default_jsa.jsi() * ds[:, None] * di[None, :]
        prob = prob / prob.sum()
        expected = prob * n
        mask = expected >= 20
        chi2 = float(np.sum((hist[mask] - expected[mask]) ** 2 / expected[mask]))
        dof = int(mask.sum())
        # chi2 ~ N(dof, sqrt(2 dof)); 5 sigma acceptance
        assert abs(chi2 - dof) < 5 * np.sqrt(2 * dof)

    def test_marginal_ks_distance(self, default_jsa):
        n = 1_000_000
        lam_s, _ = draw_pairs(default_jsa, n, seed=99)
        ws = np.sort(omega_from_wavelength(lam_s))
        ds, _ = default_jsa.cell_measures()
        weights = default_jsa.marginal("signal")[1][::-1] * ds   # ascending omega
        cdf_grid = np.cumsum(weights) / np.sum(weights)
        ax = default_jsa.signal_omega
        edges = np.concatenate([ax - ds / 2, [ax[-1] + ds[-1] / 2]])
        model_cdf = np.interp(ws, edges[1:], cdf_grid)
        empirical = np.arange(1, n + 1) / n
        ks = float(np.max(np.abs(empirical - model_cdf)))
        assert ks < 0.01


class TestJsaFileRoundtrip:
    def test_roundtrip(self, tmp_path, default_jsa):
        path = tmp_path / "model.jsag"
        spdc.write_jsa_file(path, default_jsa)
        back = spdc.read_jsa_file(path)
        assert back.normalized
        assert np.array_equal(back.signal_omega, default_jsa.signal_omega)
        assert np.array_equal(back.amplitude, default_jsa.amplitude)

    def test_bytes_after_amplitude_rejected(self, tmp_path):
        jsa = spdc.compute_jsa(spdc.PumpSpec(), spdc.CrystalSpec(),
                               spdc.FrequencyGrid(n_signal=64, n_idler=64))
        path = tmp_path / "model.jsag"
        spdc.write_jsa_file(path, jsa)
        assert spdc.read_jsa_file(path).amplitude.shape == (64, 64)
        with open(path, "ab") as fh:
            fh.write(bytes(7))
        with pytest.raises(ValueError, match="7 bytes after its amplitude"):
            spdc.read_jsa_file(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.jsag"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(ValueError, match="magic"):
            spdc.read_jsa_file(path)

    def test_other_version_rejected(self, tmp_path):
        path = tmp_path / "model.jsag"
        spdc.write_jsa_file(path, spdc.JsaGrid([1.0, 2.0], [1.0, 2.0], np.ones((2, 2))))
        raw = bytearray(path.read_bytes())
        raw[4:6] = (2).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="unsupported JSA container version 2"):
            spdc.read_jsa_file(path)

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "short.jsag"
        path.write_bytes(b"JSAG\x01\x00")
        with pytest.raises(ValueError, match="6-byte header"):
            spdc.read_jsa_file(path)

    @pytest.mark.parametrize("field, index, bad, where", [
        ("amplitude", (3, 5), np.nan, "non-finite amplitude at index [3, 5]"),
        ("amplitude", (0, 63), np.inf, "non-finite amplitude at index [0, 63]"),
        ("amplitude", (9, 9), complex(1, -np.inf), "non-finite amplitude at index [9, 9]"),
        ("signal_omega", 7, np.nan, "non-finite signal axis at index [7]"),
        ("idler_omega", 0, -np.inf, "non-finite idler axis at index [0]"),
        ("signal_omega", 0, 0.0, "non-positive signal axis at index [0] (0.0)"),
        ("idler_omega", 0, -1.0, "non-positive idler axis at index [0] (-1.0)")],
        ids=["nan", "inf", "complex-inf", "signal-axis", "idler-axis", "zero-signal-axis",
             "negative-idler-axis"])
    def test_non_finite_values_rejected(self, tmp_path, field, index, bad, where):
        # a non-finite cell would draw every sampled pair into one grid cell;
        # an axis reaching zero or below (it still increases) converts to
        # infinite or negative wavelengths
        jsa = spdc.compute_jsa(spdc.PumpSpec(), spdc.CrystalSpec(),
                               spdc.FrequencyGrid(n_signal=64, n_idler=64))
        getattr(jsa, field)[index] = bad
        path = tmp_path / "model.jsag"
        spdc.write_jsa_file(path, jsa)
        with pytest.raises(ValueError, match=re.escape(where)):
            spdc.read_jsa_file(path)
