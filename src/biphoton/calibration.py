"""Detector-to-physics coordinate transforms and the two peak-fit models.

The anode position map is x = (dt + t_a) * v / 2 with dt the X1-X2 tick
difference; downstream, position maps linearly to signal wavelength through
the spectrometer dispersion, and the fibre arrival delay maps linearly to
idler wavelength through the fibre dispersion.
"""

from dataclasses import asdict, dataclass

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


def idler_wavelength(tau_ticks, cal: FibreCalibration, tick_ps):
    """Idler wavelength (nm) from the coincidence delay in `tick_ps` ticks."""
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
        return asdict(self)


def _gaussian(x, center, width, amplitude, baseline):
    """Model values and the Jacobian columns d/d(center, width, amplitude,
    baseline), with u = (x - center) / width."""
    u = (x - center) / width
    g = np.exp(-0.5 * u**2)
    d_center = amplitude * g * u / width
    return amplitude * g + baseline, np.column_stack((d_center, d_center * u, g, np.ones_like(x)))


def _sinc_squared(x, center, width, amplitude, baseline):
    """As _gaussian, for amplitude * sinc(u)^2 + baseline."""
    u = (x - center) / width
    s = sinc(u)
    # d sinc/du = (cos u - sinc u) / u, 0 at u = 0
    ds = np.divide(np.cos(u) - s, u, out=np.zeros_like(u), where=u != 0)
    d_center = -2.0 * amplitude * s * ds / width
    return amplitude * s**2 + baseline, np.column_stack((d_center, d_center * u, s**2,
                                                         np.ones_like(x)))


#: each model's values-and-Jacobian function, its FWHM per fitted width, and
#: its fit window in widths either side of the initial centre (None: every
#: point; the sinc-squared fit keeps its central lobe, since side lobes
#: otherwise dominate the loss when the model is imperfect)
_MODELS = {"gaussian": (_gaussian, GAUSSIAN_FWHM_OVER_SIGMA, None),
           "sinc_squared": (_sinc_squared, 2.0 * SINC_SQ_HALF_POWER_ARG, 1.5 * np.pi)}


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
    width = 2.0 * half_width / _MODELS[model][1]
    return float(x[peak]), float(width), amplitude, baseline


def fit_peak(data, model="gaussian"):
    """Least-squares peak fit against bin centers and counts.

    data is (bin_centers, counts). The fit keeps the points within the
    model's window (`_MODELS`) of the initial peak estimate and reports
    how many it kept in n_points.

    The fit is Levenberg-Marquardt with analytic Jacobians. Degenerate data
    never raises: the result comes back converged=False, with NaN
    parameters when there is too little to fit and the initial guess when
    the normal matrix is singular.
    """
    if model not in _MODELS:
        raise ValueError(f"unknown model {model!r}")
    func, fwhm_per_width, window = _MODELS[model]
    x, y = (np.asarray(v, dtype=float) for v in data)
    p, residual_norm, converged = np.full(4, np.nan), np.nan, False
    if np.count_nonzero(y) >= 5 and np.ptp(y) != 0:
        p0 = np.array(_initial_guess(x, y, model))
        if window is not None:
            keep = np.abs(x - p0[0]) <= window * p0[1]
            x, y = x[keep], y[keep]
        if np.count_nonzero(y) >= 5:
            try:
                p, residuals, converged = _levenberg_marquardt(func, x, y, p0)
                residual_norm = float(np.linalg.norm(residuals))
            except np.linalg.LinAlgError:
                p = p0

    center, width, amplitude, baseline = map(float, p)
    width = abs(width)
    return PeakFitResult(model, center, width, amplitude, baseline, width * fwhm_per_width,
                         residual_norm, bool(converged and width > 0 and np.isfinite(p).all()),
                         n_points=len(x))


def _levenberg_marquardt(model, x, y, p):
    """Minimize |model(x, *p)[0] - y|^2 from p by Marquardt's damped
    Gauss-Newton iteration, damping with diag(J^T J) (More, LNM 630, 1978).

    Converged when an accepted step lowers the sum of squares by at most
    1e-12 relative, or a rejected step moves the diag(J^T J)-scaled
    parameters by at most 1e-8 relative; not converged after 200 steps.
    As in MINPACK, a small step that still lowers the sum does not stop
    the fit: along a shallow valley it can leave the width 1e-6 off.
    Returns (p, residuals, converged). Raises LinAlgError on a singular
    normal matrix.
    """
    values, jac = model(x, *p)
    r = values - y
    cost = r @ r
    damping = 1e-3
    for _ in range(200):
        jtj = jac.T @ jac
        scale = np.sqrt(np.diag(jtj))
        step = np.linalg.solve(jtj + damping * np.diag(scale**2), -(jac.T @ r))
        trial = p + step
        values, trial_jac = model(x, *trial)
        trial_r = values - y
        trial_cost = trial_r @ trial_r
        if trial_cost < cost:
            small_drop = cost - trial_cost <= 1e-12 * cost
            p, r, jac, cost = trial, trial_r, trial_jac, trial_cost
            damping *= 0.1
            if small_drop:
                return p, r, True
        else:
            damping *= 10.0
            if np.linalg.norm(scale * step) <= 1e-8 * np.linalg.norm(scale * p):
                return p, r, True
    return p, r, False
