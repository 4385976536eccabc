from contextlib import contextmanager

import numpy as np
import pytest

from biphoton import calibration, spdc
from biphoton.simgen import AcquisitionConfig

_ACCEPTANCE_RESULTS = {}


@contextmanager
def criterion(number, description):
    """Record one acceptance criterion outcome for the end-of-run summary."""
    try:
        yield
    except Exception:
        _ACCEPTANCE_RESULTS[number] = (description, False)
        raise
    _ACCEPTANCE_RESULTS[number] = (description, True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for number in sorted(_ACCEPTANCE_RESULTS):
        description, ok = _ACCEPTANCE_RESULTS[number]
        state = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"  ACCEPTANCE {number:02d} {state}: {description}")


@pytest.fixture(scope="session")
def model_jsa():
    """Default source model at moderate resolution (shared, read-only)."""
    return spdc.compute_jsa(spdc.PumpSpec(), spdc.CrystalSpec(),
                            spdc.FrequencyGrid(n_signal=256, n_idler=256))


def clean_acquisition(**kw):
    """Noise-free instrument: unit efficiencies, zero jitter, zero darks."""
    defaults = dict(pair_prob_per_pulse=0.004, eta_signal=1.0, eta_idler=1.0,
                    mcp_jitter_fwhm_ps=0.0, dtx_jitter_fwhm_ps=0.0,
                    snspd_mcp_conv_jitter_fwhm_ps=0.0,
                    dld_dark_rate_hz=0.0, snspd_dark_rate_hz=0.0)
    defaults.update(kw)
    return AcquisitionConfig(**defaults)


def _subdivided_axis(omega, widths, s):
    """s subpoints per cell, uniform over the cell (matching the sampler)."""
    offsets = (np.arange(s) + 0.5) / s - 0.5
    return (omega[:, None] + widths[:, None] * offsets[None, :]).ravel()


def expected_jsi_probabilities(jsa, acq, event_cfg, subdivide=4):
    """Push the model intensity through the deterministic measurement maps
    onto the joint-spectrum binning: the reconstruction oracle. Cells are
    subdivided to resolve bin-edge straddling."""
    from biphoton.units import wavelength_from_omega

    dws, dwi = jsa.cell_measures()
    omega_s = _subdivided_axis(jsa.signal_omega, dws, subdivide)
    omega_i = _subdivided_axis(jsa.idler_omega, dwi, subdivide)
    lam_s = wavelength_from_omega(omega_s)
    lam_i = wavelength_from_omega(omega_i)
    dt_float = calibration.dld_dt(calibration.signal_position(lam_s, acq.dld_cal),
                                  acq.dld_cal)
    tau_float = calibration.idler_delay_ps(lam_i, acq.fibre_cal) / acq.tick_ps
    ix = np.floor((dt_float - event_cfg.jsi_x_spec.start)
                  / event_cfg.jsi_x_spec.width).astype(int)
    iy = np.floor((tau_float - event_cfg.jsi_y_spec.start)
                  / event_cfg.jsi_y_spec.width).astype(int)
    prob = np.repeat(np.repeat(jsa.jsi() * dws[:, None] * dwi[None, :],
                               subdivide, axis=0), subdivide, axis=1)
    out = np.zeros((event_cfg.jsi_x_spec.count, event_cfg.jsi_y_spec.count))
    ok_x = (ix >= 0) & (ix < event_cfg.jsi_x_spec.count)
    ok_y = (iy >= 0) & (iy < event_cfg.jsi_y_spec.count)
    for j in np.flatnonzero(ok_x):
        row = prob[j]
        np.add.at(out[ix[j]], iy[ok_y], row[ok_y])
    return out / out.sum()


def normalized_cross_correlation(a, b):
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    return float(np.dot(a, b) / np.sqrt(np.dot(a, a) * np.dot(b, b)))


def assert_fit_matches_scipy(x, y, model):
    """calibration.fit_peak against scipy's MINPACK Levenberg-Marquardt, the
    fit it replaced, from the same initial guess and window: centre and
    width agree to 1e-6 relative."""
    from scipy.optimize import least_squares

    func, _, window = calibration._MODELS[model]
    center0, width0, amp0, base0 = calibration._initial_guess(x, y, model)
    xf, yf = x, y
    if window is not None:
        keep = np.abs(x - center0) <= window * width0
        xf, yf = x[keep], y[keep]
    ref = least_squares(lambda p: func(xf, *p)[0] - yf, [center0, width0, amp0, base0],
                        method="lm", xtol=1e-8, ftol=1e-12, gtol=1e-12, max_nfev=1000)
    assert ref.success
    fit = calibration.fit_peak((x, y), model=model)
    assert fit.converged
    assert fit.center == pytest.approx(ref.x[0], rel=1e-6)
    assert fit.width == pytest.approx(abs(ref.x[1]), rel=1e-6)
