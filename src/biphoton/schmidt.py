"""Schmidt decomposition of a joint amplitude and the derived mode metrics.

The decomposition writes f(w_s, w_i) = sum_j c_j g_j(w_s) h_j(w_i) with
orthonormal mode functions under the grid quadrature. With the coefficients
normalized to sum(c_j^2) = 1, the mode count K = 1 / sum(c_j^4) and the
heralded purity P = sum(c_j^4); K * P = 1 by construction.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .spdc import JsaGrid
from .units import check_positive, omega_from_wavelength


@dataclass
class SchmidtReport:
    eigenvalues: np.ndarray
    schmidt_number: float
    purity: float

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)

    def to_dict(self):
        return {**asdict(self), "eigenvalues": self.eigenvalues.tolist()}


def schmidt_decompose(jsa: JsaGrid):
    """Decompose a joint amplitude; returns the SchmidtReport of its
    normalized Schmidt coefficients under the grid's quadrature weights."""
    amp = np.asarray(jsa.amplitude)
    if not np.all(np.isfinite(amp)):
        raise ValueError("amplitude contains NaN or Inf")
    if not np.any(amp):
        raise ValueError("amplitude is identically zero")

    dws, dwi = jsa.cell_measures()
    weighted = amp * np.sqrt(dws)[:, None] * np.sqrt(dwi)[None, :]
    s = np.linalg.svd(weighted, compute_uv=False)
    coeffs = s / np.sqrt(np.sum(s**2))
    purity = float(np.sum(coeffs**4))
    return SchmidtReport(eigenvalues=coeffs, schmidt_number=1.0 / purity, purity=purity)


def jsa_from_jsi(counts, signal_wavelength_nm, idler_wavelength_nm,
                 background=0.0):
    """Effective joint amplitude from a measured intensity map.

    Takes the positive square root of the counts (finite, >= 0) less a
    flat `background` level (finite and >= 0; counts below it become 0),
    numbering a non-finite count's row and column from 0; the phase is
    unrecoverable from intensities and set to zero. Wavelength axes are bin
    centers, finite and positive; either orientation is accepted and the
    result is returned on ascending angular-frequency axes.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2:
        raise ValueError("counts must be a 2-D array")
    if len(bad := np.argwhere(~np.isfinite(counts))):
        row, col = bad[0].tolist()
        raise ValueError(f"counts hold a non-finite value ({counts[row, col]}) "
                         f"at row {row}, column {col} (counted from 0)")
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    lam_s = np.asarray(signal_wavelength_nm, dtype=float)
    lam_i = np.asarray(idler_wavelength_nm, dtype=float)
    if counts.shape != (len(lam_s), len(lam_i)):
        raise ValueError("counts shape does not match wavelength axes")
    check_positive(lam_s, "the intensity map", "signal wavelength centre")
    check_positive(lam_i, "the intensity map", "idler wavelength centre")

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
