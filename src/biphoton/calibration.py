"""Detector-to-physics coordinate transforms and the two peak-fit models.

The anode position map is x = (dt + t_a) * v / 2 with dt the X1-X2 tick
difference; downstream, position maps linearly to signal wavelength through
the spectrometer dispersion, and the fibre arrival delay maps linearly to
idler wavelength through the fibre dispersion.
"""

from dataclasses import dataclass

import numpy as np

from .units import GAUSSIAN_FWHM_OVER_SIGMA, SINC_SQ_HALF_POWER_ARG, sinc


@dataclass
class DldCalibration:
    """Delay-line anode timing and spectrometer dispersion at the detector.

    t_a and v are instrument configuration (not published); the defaults
    describe a 40 mm anode with a 20 ns edge-to-edge propagation time, which
    together with the dispersion below reproduces the observed spatial and
    spectral projection widths.
    """

    t_a_ticks: int = 800                     # 20 ns at 25 ps ticks
    v_mm_per_tick: float = 0.05              # 2.0 mm/ns at 25 ps ticks
    grating_dispersion_nm_per_mm: float = 1.60 / 1.86
    x_center_mm: float = 20.0                # detector position of 515.0 nm
    reference_wavelength_nm: float = 515.0

    def __post_init__(self):
        if self.t_a_ticks <= 0 or self.v_mm_per_tick <= 0:
            raise ValueError("t_a and v must be positive")
        if self.grating_dispersion_nm_per_mm == 0:
            raise ValueError("grating dispersion must be nonzero")

    @property
    def active_length_mm(self):
        return self.t_a_ticks * self.v_mm_per_tick


@dataclass
class FibreCalibration:
    dispersion_ps_per_nm: float = -255.0
    reference_delay_ps: float = 7.7e6        # coincidence-peak delay
    reference_wavelength_nm: float = 1550.0

    def __post_init__(self):
        if self.dispersion_ps_per_nm == 0:
            raise ValueError("fibre dispersion must be nonzero")


def dld_position(dt_x_ticks, cal: DldCalibration, guard_ticks=0):
    """Photon arrival position (mm) from the X1-X2 tick difference."""
    dt = np.asarray(dt_x_ticks, dtype=float)
    limit = cal.t_a_ticks + guard_ticks
    if np.any(np.abs(dt) > limit):
        raise ValueError(f"|dt_x| exceeds t_a + guard ({limit} ticks)")
    return (dt + cal.t_a_ticks) * cal.v_mm_per_tick / 2.0


def dld_dt(x_mm, cal: DldCalibration):
    """Inverse of dld_position: tick difference for a position (float ticks)."""
    return 2.0 * np.asarray(x_mm, dtype=float) / cal.v_mm_per_tick - cal.t_a_ticks


def signal_wavelength(x_mm, cal: DldCalibration):
    """Signal wavelength (nm) at detector position x."""
    x = np.asarray(x_mm, dtype=float)
    if np.any(x < 0) or np.any(x > cal.active_length_mm):
        raise ValueError(f"position outside active area [0, {cal.active_length_mm}] mm")
    return cal.reference_wavelength_nm + cal.grating_dispersion_nm_per_mm * (x - cal.x_center_mm)


def signal_position(lambda_nm, cal: DldCalibration):
    """Inverse of signal_wavelength."""
    lam = np.asarray(lambda_nm, dtype=float)
    return cal.x_center_mm + (lam - cal.reference_wavelength_nm) / cal.grating_dispersion_nm_per_mm


def idler_wavelength(tau_ticks, cal: FibreCalibration, tick_ps=25):
    """Idler wavelength (nm) from the coincidence delay in ticks."""
    tau_ps = np.asarray(tau_ticks, dtype=float) * tick_ps
    return (cal.reference_wavelength_nm
            + (tau_ps - cal.reference_delay_ps) / cal.dispersion_ps_per_nm)


def idler_delay_ps(lambda_nm, cal: FibreCalibration):
    """Inverse of idler_wavelength, in ps."""
    lam = np.asarray(lambda_nm, dtype=float)
    return (cal.reference_delay_ps
            + cal.dispersion_ps_per_nm * (lam - cal.reference_wavelength_nm))


# ---------------------------------------------------------------------------
# Peak fitting
# ---------------------------------------------------------------------------

@dataclass
class PeakFitResult:
    model: str
    center: float
    width: float            # sigma for gaussian, w for A*sinc((x-c)/w)^2
    amplitude: float
    baseline: float
    fwhm: float
    residual_norm: float
    converged: bool
    n_points: int = 0

    def to_dict(self):
        return {
            "model": self.model, "center": self.center, "width": self.width,
            "amplitude": self.amplitude, "baseline": self.baseline,
            "fwhm": self.fwhm, "residual_norm": self.residual_norm,
            "converged": self.converged, "n_points": self.n_points,
        }


def _gaussian(x, center, width, amplitude, baseline):
    return amplitude * np.exp(-((x - center) ** 2) / (2.0 * width**2)) + baseline


def _sinc_squared(x, center, width, amplitude, baseline):
    return amplitude * sinc((x - center) / width) ** 2 + baseline


_MODELS = {"gaussian": _gaussian, "sinc_squared": _sinc_squared}


def _fwhm_factor(model):
    if model == "gaussian":
        return GAUSSIAN_FWHM_OVER_SIGMA
    return 2.0 * SINC_SQ_HALF_POWER_ARG


def _initial_guess(x, y, model):
    """center = argmax bin, baseline = median, amplitude = max - median,
    width from the half-max crossing scan outward from the peak."""
    peak = int(np.argmax(y))
    baseline = float(np.median(y))
    amplitude = float(y[peak] - baseline)
    half = baseline + amplitude / 2.0

    left = peak
    while left > 0 and y[left] > half:
        left -= 1
    right = peak
    while right < len(y) - 1 and y[right] > half:
        right += 1
    half_width = max((x[right] - x[left]) / 2.0, (x[1] - x[0]) if len(x) > 1 else 1.0)
    width = 2.0 * half_width / _fwhm_factor(model)
    return float(x[peak]), float(width), amplitude, baseline


def fit_peak(data, model="gaussian", weighting="none", window="auto"):
    """Least-squares peak fit against bin centers and counts.

    data is (bin_centers, counts). weighting "poisson" scales residuals by
    1/sqrt(max(count, 1)). For the sinc_squared model, window "auto" restricts
    the fit to 1.5 central-lobe half-widths around the initial peak estimate
    (side lobes otherwise dominate the loss when the model is imperfect);
    window=None fits all points and an explicit (lo, hi) fits that x range.

    Degenerate data never raises: the result comes back converged=False.
    """
    from scipy.optimize import least_squares

    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}")
    x, y = data
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    func = _MODELS[model]

    if np.count_nonzero(y) < 5 or np.ptp(y) == 0:
        return PeakFitResult(model, np.nan, np.nan, np.nan, np.nan, np.nan,
                             np.nan, converged=False, n_points=len(x))

    center0, width0, amp0, base0 = _initial_guess(x, y, model)

    if model == "sinc_squared" and window == "auto":
        half_span = 1.5 * np.pi * width0
        keep = np.abs(x - center0) <= half_span
    elif isinstance(window, tuple):
        keep = (x >= window[0]) & (x <= window[1])
    else:
        keep = np.ones(len(x), dtype=bool)
    xf, yf = x[keep], y[keep]
    if np.count_nonzero(yf) < 5:
        return PeakFitResult(model, np.nan, np.nan, np.nan, np.nan, np.nan,
                             np.nan, converged=False, n_points=len(xf))

    if weighting == "poisson":
        w = 1.0 / np.sqrt(np.maximum(yf, 1.0))
    elif weighting == "none":
        w = np.ones_like(yf)
    else:
        raise ValueError(f"unknown weighting {weighting!r}")

    def residuals(p):
        return (func(xf, *p) - yf) * w

    try:
        res = least_squares(residuals, [center0, width0, amp0, base0],
                            method="lm", xtol=1e-8, ftol=1e-12, gtol=1e-12,
                            max_nfev=1000)
    except Exception:
        return PeakFitResult(model, center0, abs(width0), amp0, base0,
                             abs(width0) * _fwhm_factor(model),
                             np.nan, converged=False, n_points=len(xf))

    center, width, amplitude, baseline = res.x
    width = abs(float(width))
    converged = bool(res.success and width > 0 and np.isfinite(res.x).all())
    return PeakFitResult(model=model, center=float(center), width=width,
                         amplitude=float(amplitude), baseline=float(baseline),
                         fwhm=width * _fwhm_factor(model),
                         residual_norm=float(np.linalg.norm(res.fun)),
                         converged=converged, n_points=len(xf))
