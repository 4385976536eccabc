import numpy as np
import pytest

from biphoton import calibration as cal
from biphoton.units import GAUSSIAN_FWHM_OVER_SIGMA, SINC_SQ_HALF_POWER_ARG, sinc
from conftest import assert_fit_matches_scipy


class TestDldPosition:
    def test_formula_edges(self):
        c = cal.DldCalibration()
        assert cal.dld_position(-c.t_a_ticks, c) == pytest.approx(0.0)
        assert cal.dld_position(0, c) == pytest.approx(c.t_a_ticks * c.v_mm_per_tick / 2)
        assert cal.dld_position(c.t_a_ticks, c) == pytest.approx(c.t_a_ticks * c.v_mm_per_tick)

    def test_out_of_guard_rejected(self):
        c = cal.DldCalibration()
        with pytest.raises(ValueError):
            cal.dld_position(c.t_a_ticks + 1, c)
        cal.dld_position(c.t_a_ticks + 1, c, guard_ticks=2)  # inside guard: fine

    @pytest.mark.parametrize("make, message", [
        (lambda: cal.DldCalibration(v_mm_per_tick=0.0), "t_a and v must be positive"),
        (lambda: cal.DldCalibration(grating_dispersion_nm_per_mm=0.0),
         "grating dispersion must be nonzero"),
        (lambda: cal.FibreCalibration(dispersion_ps_per_nm=0.0),
         "fibre dispersion must be nonzero")],
        ids=["anode", "grating", "fibre"])
    def test_invalid_calibration_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_roundtrip_identity(self):
        c = cal.DldCalibration()
        dts = np.arange(-c.t_a_ticks, c.t_a_ticks + 1, 37)
        back = cal.dld_dt(cal.dld_position(dts, c), c)
        assert np.allclose(back, dts, atol=1e-9)

    def test_monotone(self):
        c = cal.DldCalibration()
        xs = cal.dld_position(np.arange(-800, 801), c)
        assert np.all(np.diff(xs) > 0)


class TestSignalWavelength:
    def test_reference_point(self):
        c = cal.DldCalibration()
        assert cal.signal_wavelength(c.x_center_mm, c) == pytest.approx(515.0)

    def test_published_width_pair(self):
        # a 1.86 mm spatial width maps to 1.60 nm with the default dispersion
        c = cal.DldCalibration()
        lam_hi = cal.signal_wavelength(c.x_center_mm + 1.86 / 2, c)
        lam_lo = cal.signal_wavelength(c.x_center_mm - 1.86 / 2, c)
        assert lam_hi - lam_lo == pytest.approx(1.60, rel=1e-12)

    def test_linearity(self):
        c = cal.DldCalibration()
        xs = np.array([2.0, 11.0, 29.0])
        delta = cal.signal_wavelength(xs + 0.5, c) - cal.signal_wavelength(xs, c)
        assert np.allclose(delta, delta[0])

    def test_outside_active_area(self):
        c = cal.DldCalibration()
        with pytest.raises(ValueError):
            cal.signal_wavelength(-0.1, c)
        with pytest.raises(ValueError):
            cal.signal_wavelength(c.active_length_mm + 0.1, c)


class TestIdlerWavelength:
    def test_reference_point(self):
        c = cal.FibreCalibration()
        tau_ticks = c.reference_delay_ps / 25.0
        assert cal.idler_wavelength(tau_ticks, c, 25) == pytest.approx(1550.0)

    def test_dispersion_arithmetic(self):
        # 2550 ps earlier than the reference is +10 nm at -255 ps/nm
        c = cal.FibreCalibration()
        tau_ticks = (c.reference_delay_ps - 2550.0) / 25.0
        assert cal.idler_wavelength(tau_ticks, c, 25) == pytest.approx(1560.0)

    def test_roundtrip_with_forward_map(self):
        c = cal.FibreCalibration()
        lams = np.linspace(1515.0, 1585.0, 17)
        tau_ticks = cal.idler_delay_ps(lams, c) / 25.0
        assert np.allclose(cal.idler_wavelength(tau_ticks, c, 25), lams, atol=1e-9)

    def test_monotone(self):
        c = cal.FibreCalibration()
        lam = cal.idler_wavelength(np.arange(307000, 309000, 10), c, 25)
        assert np.all(np.diff(lam) < 0)  # negative dispersion: later = bluer


class TestFitPeak:
    def test_gaussian_self_consistency(self):
        x = np.linspace(-10, 10, 201)
        sigma = 1.7
        y = 40.0 * np.exp(-(x - 1.25) ** 2 / (2 * sigma**2)) + 3.0
        fit = cal.fit_peak((x, y), model="gaussian")
        assert fit.converged
        assert fit.width == pytest.approx(sigma, rel=1e-6)
        assert fit.center == pytest.approx(1.25, abs=1e-6)
        assert fit.fwhm == pytest.approx(sigma * GAUSSIAN_FWHM_OVER_SIGMA, rel=1e-6)

    def test_sinc_squared_self_consistency(self):
        x = np.linspace(-30, 30, 601)  # includes first side lobes
        w = 2.4
        y = 120.0 * sinc((x - 0.6) / w) ** 2 + 1.0
        fit = cal.fit_peak((x, y), model="sinc_squared")
        assert fit.converged
        assert fit.width == pytest.approx(w, rel=1e-6)
        assert fit.fwhm == pytest.approx(2 * SINC_SQ_HALF_POWER_ARG * w, rel=1e-6)

    def test_poisson_noisy_gaussian_within_2pct(self):
        # bootstrap oracle (200 seeded draws): per-draw sigma errors have
        # median 1.3% and p90 3.3%, so the 2% recovery claim is an
        # ensemble-median statement; assert it over a seeded ensemble
        rng = np.random.Generator(np.random.Philox(key=123))
        x = np.arange(-60.0, 60.0)
        sigma = 8.0
        model = 200.0 * np.exp(-(x**2) / (2 * sigma**2)) + 10.0
        errors = []
        for _ in range(50):
            y = rng.poisson(model)
            fit = cal.fit_peak((x, y.astype(float)), model="gaussian")
            assert fit.converged
            errors.append(abs(fit.width - sigma) / sigma)
        assert float(np.median(errors)) < 0.02

    def test_scale_equivariance(self):
        x = np.linspace(-10, 10, 101)
        y = 25.0 * np.exp(-(x + 0.5) ** 2 / 4.0) + 2.0
        a = cal.fit_peak((x, y), model="gaussian")
        b = cal.fit_peak((x, 10.0 * y), model="gaussian")
        assert b.center == pytest.approx(a.center, abs=1e-8)
        assert b.width == pytest.approx(a.width, rel=1e-8)
        assert b.amplitude == pytest.approx(10 * a.amplitude, rel=1e-8)
        assert b.baseline == pytest.approx(10 * a.baseline, rel=1e-6)

    def test_degenerate_flagged_not_raised(self):
        x = np.arange(20.0)
        spike = np.zeros(20)
        spike[7] = 100.0
        assert not cal.fit_peak((x, spike), model="gaussian").converged
        assert not cal.fit_peak((x, np.full(20, 4.0)), model="gaussian").converged

    def test_fit_window_per_model(self):
        # the sinc-squared fit keeps the central lobe (1.5 half-widths of the
        # initial estimate); the gaussian fit uses every point
        x = np.linspace(-30, 30, 601)
        y = 120.0 * sinc((x - 0.6) / 2.4) ** 2 + 1.0
        center0, width0, _, _ = cal._initial_guess(x, y, "sinc_squared")
        lobe = np.count_nonzero(np.abs(x - center0) <= 1.5 * np.pi * width0)
        assert 5 <= lobe < len(x)
        assert cal.fit_peak((x, y), model="sinc_squared").n_points == lobe
        assert cal.fit_peak((x, y), model="gaussian").n_points == len(x)

    def test_sparse_sinc_squared_window_flagged_not_raised(self):
        # eight non-zero points, but only the one-bin peak inside the fit
        # window: its half-max crossings are 2 bins apart, so the window is
        # +-1.5 * pi * 2 / (2 * 1.3916) = +-3.39 bins, 7 points
        x = np.arange(20.0)
        y = np.zeros(20)
        y[[0, 1, 2, 3, 17, 18, 19]] = 1.0
        y[10] = 100.0
        fit = cal.fit_peak((x, y), model="sinc_squared")
        assert not fit.converged
        assert fit.n_points == 7
        assert np.isnan([fit.center, fit.width, fit.amplitude, fit.baseline, fit.fwhm,
                         fit.residual_norm]).all()
        assert cal.fit_peak((x, y), model="gaussian").n_points == len(x)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model 'lorentzian'"):
            cal.fit_peak((np.arange(20.0), np.arange(20.0)), model="lorentzian")

    def test_singular_start_flagged_not_raised(self):
        # a step edge: the median is the maximum, so the initial amplitude is
        # 0, the centre and width columns of the Jacobian vanish and the
        # damped normal matrix is singular
        x = np.arange(20.0)
        y = np.where(x >= 5, 5.0, 0.0)
        fit = cal.fit_peak((x, y), model="gaussian")
        assert not fit.converged
        assert np.isnan(fit.residual_norm)
        # the result is the initial guess
        center0, width0, amp0, base0 = cal._initial_guess(x, y, "gaussian")
        assert (fit.center, fit.width, fit.amplitude, fit.baseline) == (center0, width0, amp0,
                                                                        base0)
        assert fit.fwhm == width0 * GAUSSIAN_FWHM_OVER_SIGMA

    @pytest.mark.parametrize("model", ["gaussian", "sinc_squared"])
    def test_jacobian_matches_central_differences(self, model):
        func, _, _ = cal._MODELS[model]
        p = np.array([0.6, 2.4, 120.0, 1.0])
        x = np.concatenate([np.linspace(-12, 12, 97), [0.6]])  # 0.6: u = 0 exactly
        _, jac = func(x, *p)
        for k in range(4):
            h = 1e-6 * max(abs(p[k]), 1.0)
            dp = np.zeros(4)
            dp[k] = h
            numeric = (func(x, *(p + dp))[0] - func(x, *(p - dp))[0]) / (2 * h)
            np.testing.assert_allclose(jac[:, k], numeric, rtol=1e-6, atol=1e-6 * p[2])


class TestFitPeakAgainstScipy:
    """The numpy Levenberg-Marquardt fit against the scipy fit it replaced."""

    @pytest.fixture(autouse=True)
    def _scipy(self):
        pytest.importorskip("scipy")

    def test_model_marginals(self, model_jsa):
        for axis, model in (("signal", "gaussian"), ("idler", "sinc_squared")):
            assert_fit_matches_scipy(*model_jsa.marginal(axis), model)

    def test_seeded_noisy_peaks(self):
        rng = np.random.Generator(np.random.Philox(key=2024))
        x_s = np.linspace(505.0, 525.0, 121)
        x_i = np.linspace(1500.0, 1600.0, 161)
        for _ in range(10):
            center, scale, amp, base = (rng.uniform(-3, 3), rng.uniform(0.5, 3),
                                        rng.uniform(50, 5000), rng.uniform(0, 30))
            y = amp * np.exp(-((x_s - 515.0 - center) ** 2) / (2 * scale**2)) + base
            assert_fit_matches_scipy(x_s, rng.poisson(y).astype(float), "gaussian")
            y = amp * sinc((x_i - 1550.0 - 5 * center) / (3 * scale)) ** 2 + base
            assert_fit_matches_scipy(x_i, rng.poisson(y).astype(float), "sinc_squared")
