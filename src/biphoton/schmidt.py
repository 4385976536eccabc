"""Schmidt decomposition of a joint amplitude and the derived mode metrics.

The decomposition writes f(w_s, w_i) = sum_j c_j g_j(w_s) h_j(w_i) with
orthonormal mode functions under the grid quadrature. With the coefficients
normalized to sum(c_j^2) = 1, the mode count K = 1 / sum(c_j^4) and the
heralded purity P = sum(c_j^4); K * P = 1 by construction.
"""

from dataclasses import dataclass

import numpy as np

from .spdc import JsaGrid
from .units import omega_from_wavelength


@dataclass
class SchmidtReport:
    eigenvalues: np.ndarray
    schmidt_number: float
    purity: float
    residual: float

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)

    def to_dict(self):
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "schmidt_number": self.schmidt_number,
            "purity": self.purity,
            "residual": self.residual,
        }


def schmidt_decompose(jsa: JsaGrid, mode_count=None):
    """Decompose a joint amplitude; returns (report, signal_modes, idler_modes).

    signal_modes[j] and idler_modes[j] are orthonormal under the grid's
    quadrature weights. mode_count truncates the returned mode set and the
    reported eigenvalue list (default: full rank).
    """
    amp = np.asarray(jsa.amplitude)
    if not np.all(np.isfinite(amp)):
        raise ValueError("amplitude contains NaN or Inf")
    if not np.any(amp):
        raise ValueError("amplitude is identically zero")

    dws, dwi = jsa.cell_measures()
    root_s = np.sqrt(dws)
    root_i = np.sqrt(dwi)
    weighted = amp * root_s[:, None] * root_i[None, :]
    u, s, vh = np.linalg.svd(weighted, full_matrices=False)

    norm = np.sqrt(np.sum(s**2))
    coeffs = s / norm
    if mode_count is None:
        mode_count = len(coeffs)
    mode_count = min(mode_count, len(coeffs))

    kept = s[:mode_count]
    recon_err_sq = max(float(np.sum(s**2) - np.sum(kept**2)), 0.0)
    residual = float(np.sqrt(recon_err_sq) / norm)

    purity = float(np.sum(coeffs**4))
    report = SchmidtReport(eigenvalues=coeffs[:mode_count],
                           schmidt_number=1.0 / purity,
                           purity=purity,
                           residual=residual)
    signal_modes = (u[:, :mode_count] / root_s[:, None]).T
    idler_modes = (vh[:mode_count, :] / root_i[None, :]).conj()
    return report, signal_modes, idler_modes


def jsa_from_jsi(counts, signal_wavelength_nm, idler_wavelength_nm,
                 background=0.0):
    """Effective joint amplitude from a measured intensity map.

    Takes the positive square root of the counts less a flat `background`
    level (finite and >= 0; counts below it become 0); the phase is
    unrecoverable from intensities and set to zero. Wavelength axes are bin
    centers; either orientation is accepted and the result is returned on
    ascending angular-frequency axes.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2:
        raise ValueError("counts must be a 2-D array")
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    lam_s = np.asarray(signal_wavelength_nm, dtype=float)
    lam_i = np.asarray(idler_wavelength_nm, dtype=float)
    if counts.shape != (len(lam_s), len(lam_i)):
        raise ValueError("counts shape does not match wavelength axes")

    level = float(background)
    if not 0.0 <= level < np.inf:
        raise ValueError(f"background must be finite and >= 0, got {background}")
    work = np.clip(counts - level, 0.0, None)
    if not np.any(work):
        raise ValueError("histogram is empty (all zero after subtraction)")

    ws = omega_from_wavelength(lam_s)
    wi = omega_from_wavelength(lam_i)
    if ws[0] > ws[-1]:
        ws = ws[::-1]
        work = work[::-1, :]
    if wi[0] > wi[-1]:
        wi = wi[::-1]
        work = work[:, ::-1]
    return JsaGrid(ws, wi, np.sqrt(work)).normalize()
