"""Shared physical constants and small unit-conversion helpers.

Internal conventions, used consistently across the package:

* time            picoseconds (ps), or integer TDC ticks where stated
* length          millimetres for detector geometry, nanometres for wavelengths
* angular freq.   rad/ps
* rates           Hz
"""

import numpy as np

#: speed of light in nm/ps (equivalently mm/ns * 1e3 / 1e3; c = 0.299792458 mm/ps)
C_NM_PER_PS = 299792.458

TWO_PI_C = 2.0 * np.pi * C_NM_PER_PS

#: FWHM = GAUSSIAN_FWHM_OVER_SIGMA * sigma for a Gaussian
GAUSSIAN_FWHM_OVER_SIGMA = 2.0 * np.sqrt(2.0 * np.log(2.0))

#: positive x with sinc(x)^2 = 1/2, sinc(x) = sin(x)/x; FWHM of sinc^2(u/w) is
#: 2 * SINC_SQ_HALF_POWER_ARG * w
SINC_SQ_HALF_POWER_ARG = 1.3915573772042107


def omega_from_wavelength(lambda_nm):
    """Angular frequency (rad/ps) for a vacuum wavelength in nm."""
    return TWO_PI_C / np.asarray(lambda_nm, dtype=float)


def wavelength_from_omega(omega_rad_ps):
    """Vacuum wavelength (nm) for an angular frequency in rad/ps."""
    return TWO_PI_C / np.asarray(omega_rad_ps, dtype=float)


def omega_width_from_wavelength_width(dlambda_nm, lambda_nm):
    """First-order |d(omega)| for a wavelength interval at lambda."""
    return TWO_PI_C * dlambda_nm / lambda_nm**2


def sigma_from_fwhm(fwhm):
    return fwhm / GAUSSIAN_FWHM_OVER_SIGMA


def sinc(u):
    """sin(u)/u with sinc(0) = 1 (unnormalized convention)."""
    return np.sinc(np.asarray(u) / np.pi)
