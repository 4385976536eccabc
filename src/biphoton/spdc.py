"""Downconversion source model: joint spectral amplitude of a type-I LBO
crystal pumped in the XY plane, plus Monte Carlo pair sampling.

The joint amplitude on a frequency grid is

    f(w_s, w_i) = pump_envelope(w_s + w_i) * sinc(delta_k * L / 2)

with the phase mismatch either evaluated from published Sellmeier data
(``pm_model="sellmeier"``) or from a first-order group-delay expansion
around the nominal 515 / 1550 nm operating point (``pm_model="linearized"``).
"""

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .units import (omega_from_wavelength, omega_width_from_wavelength_width,
                    sinc, wavelength_from_omega)

# ---------------------------------------------------------------------------
# LBO refractive indices
#
# Sellmeier coefficients from K. Kato, IEEE J. Quantum Electron. 30, 2950
# (1994), lambda in um at room temperature. The set is the one distributed
# with common phase-matching calculators; we use it between 0.29 and 2.6 um.
# ---------------------------------------------------------------------------

LBO_SELLMEIER_RANGE_UM = (0.29, 2.6)


def _check_range(lam_um):
    lam = np.asarray(lam_um, dtype=float)
    lo, hi = LBO_SELLMEIER_RANGE_UM
    if np.any(lam < lo) or np.any(lam > hi):
        raise ValueError(
            f"wavelength outside LBO Sellmeier validity range {lo}-{hi} um")


#: (A, B, C, D, E) of n^2 = A + B / (lam^2 - C) + D lam^2 + E lam^4 on each
#: principal axis
_LBO_SELLMEIER = {"x": (2.454140, 0.011249, 0.011350, -0.014591, -6.60e-5),
                  "y": (2.539070, 0.012711, 0.012523, -0.018540, 2.00e-4),
                  "z": (2.586179, 0.013099, 0.011893, -0.017968, -2.26e-4)}


def lbo_index(lam_um, axis):
    """LBO refractive index along principal axis "x", "y" or "z"."""
    _check_range(lam_um)
    a, b, c, d, e = _LBO_SELLMEIER[axis]
    l2 = np.asarray(lam_um, dtype=float) ** 2
    return np.sqrt(a + b / (l2 - c) + d * l2 + e * l2**2)


def lbo_n_inplane(lam_um, phi_rad):
    """Index of the in-plane polarized wave for propagation in the XY plane
    at angle phi from the x axis (theta = 90 deg)."""
    nx = lbo_index(lam_um, "x")
    ny = lbo_index(lam_um, "y")
    s2 = np.sin(phi_rad) ** 2
    c2 = np.cos(phi_rad) ** 2
    return 1.0 / np.sqrt(s2 / nx**2 + c2 / ny**2)


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

#: group-delay mismatch defaults (ps/mm), tuned so the linearized model
#: reproduces marginal widths of 1.55 nm (signal) and 13.6 nm (idler)
#: with the default pump, crystal length and grid; see tests.
LINEARIZED_TAU_S_PS_PER_MM = 0.06109011
LINEARIZED_TAU_I_PS_PER_MM = 0.16596188


@dataclass
class PumpSpec:
    """Second-harmonic pump: Gaussian spectral envelope.

    The default bandwidth is fitted so the default source model reproduces
    the published mode content of this crystal configuration; the
    transform-limited SHG estimate from the 0.2 nm fundamental linewidth
    would be narrower and is available by overriding fwhm_bandwidth_nm.
    """

    center_wavelength_nm: float = 386.6
    fwhm_bandwidth_nm: float = 0.167

    def __post_init__(self):
        if self.center_wavelength_nm <= 0:
            raise ValueError("pump center wavelength must be positive")
        if not 0 < self.fwhm_bandwidth_nm < self.center_wavelength_nm / 10:
            raise ValueError("pump bandwidth must be positive and small "
                             "compared to the center wavelength")

    @property
    def center_omega(self):
        return omega_from_wavelength(self.center_wavelength_nm)

    @property
    def fwhm_omega(self):
        return omega_width_from_wavelength_width(
            self.fwhm_bandwidth_nm, self.center_wavelength_nm)


@dataclass
class CrystalSpec:
    length_mm: float = 5.0
    phase_matching_angle_deg: float | None = 25.0  # None = solve from the grid centers
    material: str = "LBO"
    pm_model: str = "sellmeier"
    linearized_coeffs: tuple[float, float] = (LINEARIZED_TAU_S_PS_PER_MM,
                                              LINEARIZED_TAU_I_PS_PER_MM)
    linearized_center_nm: tuple[float, float] = (515.0, 1550.0)

    def __post_init__(self):
        if self.length_mm <= 0:
            raise ValueError("crystal length must be positive")
        phi = self.phase_matching_angle_deg
        if phi is not None and not 0.0 <= phi <= 90.0:
            raise ValueError("phase matching angle must be in [0, 90] degrees")
        if self.material != "LBO":
            raise ValueError(f"unsupported crystal material {self.material!r}")
        if self.pm_model not in ("sellmeier", "linearized"):
            raise ValueError(f"unknown pm_model {self.pm_model!r}")
        if self.pm_model == "linearized" and self.linearized_coeffs is None:
            raise ValueError("linearized pm_model requires linearized_coeffs")


@dataclass
class FrequencyGrid:
    """Rectangular grid, uniform in angular frequency on each axis."""

    signal_center_nm: float = 515.0
    idler_center_nm: float = 1550.0
    signal_span_nm: float = 8.0
    idler_span_nm: float = 70.0
    n_signal: int = 512
    n_idler: int = 512

    def __post_init__(self):
        if self.n_signal < 2 or self.n_idler < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if self.signal_span_nm <= 0 or self.idler_span_nm <= 0:
            raise ValueError("grid spans must be positive")

    @staticmethod
    def _axis(center_nm, span_nm, n):
        w0 = omega_from_wavelength(center_nm)
        half = omega_width_from_wavelength_width(span_nm / 2.0, center_nm)
        return np.linspace(w0 - half, w0 + half, n)

    @property
    def signal_omega(self):
        return self._axis(self.signal_center_nm, self.signal_span_nm, self.n_signal)

    @property
    def idler_omega(self):
        return self._axis(self.idler_center_nm, self.idler_span_nm, self.n_idler)


@dataclass
class JsaGrid:
    """Complex joint amplitude on a frequency grid.

    amplitude[j, k] is the value at (signal_omega[j], idler_omega[k]).
    When normalized, sum(|f|^2) * d_omega_s * d_omega_i == 1.
    """

    signal_omega: np.ndarray
    idler_omega: np.ndarray
    amplitude: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        self.signal_omega = np.asarray(self.signal_omega, dtype=float)
        self.idler_omega = np.asarray(self.idler_omega, dtype=float)
        self.amplitude = np.asarray(self.amplitude, dtype=complex)
        if self.amplitude.shape != (len(self.signal_omega), len(self.idler_omega)):
            raise ValueError("amplitude shape does not match axes")
        if np.any(np.diff(self.signal_omega) <= 0) or np.any(np.diff(self.idler_omega) <= 0):
            raise ValueError("grid axes must be strictly increasing")

    @property
    def signal_wavelength_nm(self):
        return wavelength_from_omega(self.signal_omega)

    @property
    def idler_wavelength_nm(self):
        return wavelength_from_omega(self.idler_omega)

    def cell_measures(self):
        """Per-point angular-frequency widths (midpoint cells)."""
        return np.gradient(self.signal_omega), np.gradient(self.idler_omega)

    def jsi(self):
        return np.abs(self.amplitude) ** 2

    def normalize(self):
        dws, dwi = self.cell_measures()
        total = float(np.sum(self.jsi() * dws[:, None] * dwi[None, :]))
        if total <= 0:
            raise ValueError("cannot normalize an all-zero amplitude")
        self.amplitude = self.amplitude / np.sqrt(total)
        self.normalized = True
        return self

    def marginal(self, axis):
        """The "signal" or "idler" intensity marginal: its wavelengths in nm,
        ascending, and the marginal there."""
        dws, dwi = self.cell_measures()
        if axis == "signal":
            omega, profile = self.signal_omega, np.sum(self.jsi() * dwi[None, :], axis=1)
        elif axis == "idler":
            omega, profile = self.idler_omega, np.sum(self.jsi() * dws[:, None], axis=0)
        else:
            raise ValueError("axis must be 'signal' or 'idler'")
        # omega ascends, so the wavelength descends
        return wavelength_from_omega(omega)[::-1], profile[::-1]

    def marginal_fwhm_nm(self, axis):
        """FWHM of the signal or idler intensity marginal, in nm, from
        half-maximum crossings interpolated on the wavelength axis."""
        return fwhm_from_profile(*self.marginal(axis))


def fwhm_from_profile(x, y):
    """Full width at half maximum by linear interpolation of the outermost
    half-max crossings. x must be increasing."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    top = float(y.max())
    if top <= 0:
        raise ValueError("profile has no positive values")
    half = top / 2.0
    above = np.flatnonzero(y >= half)
    lo, hi = int(above[0]), int(above[-1])

    def crossing(i_out, i_in):
        x0, x1 = x[i_out], x[i_in]
        y0, y1 = y[i_out], y[i_in]
        return x0 + (half - y0) * (x1 - x0) / (y1 - y0)

    left = crossing(lo - 1, lo) if lo > 0 else x[0]
    right = crossing(hi + 1, hi) if hi < len(y) - 1 else x[-1]
    return float(right - left)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def pump_envelope(omega_s, omega_i, pump: PumpSpec):
    """Gaussian pump amplitude vs the summed frequency; peak 1 on resonance,
    intensity halves at a detuning of half the pump FWHM."""
    detune = np.asarray(omega_s) + np.asarray(omega_i) - pump.center_omega
    return np.exp(-2.0 * np.log(2.0) * detune**2 / pump.fwhm_omega**2)


def solve_phase_matching_angle(signal_nm=515.0, idler_nm=1550.0):
    """XY-plane angle (degrees) at which the collinear process
    pump(in-plane) -> signal(z) + idler(z) is exactly phase matched,
    found by bisection on [5, 85] degrees down to the float resolution."""

    def mismatch(phi_deg):
        return float(_sellmeier_delta_k(np.array(signal_nm), np.array(idler_nm), phi_deg))

    lo, hi = 5.0, 85.0
    lo_positive = mismatch(lo) > 0
    if lo_positive == (mismatch(hi) > 0):
        raise ValueError(f"no phase-matching angle in [{lo}, {hi}] degrees "
                         f"for {signal_nm} + {idler_nm} nm")
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if (mismatch(mid) > 0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return mid


def _sellmeier_delta_k(lam_s_nm, lam_i_nm, phi_deg):
    """delta_k = k_p - k_s - k_i in 1/mm; pump in-plane, signal/idler along z."""
    lam_p_nm = 1.0 / (1.0 / lam_s_nm + 1.0 / lam_i_nm)
    phi = np.radians(phi_deg)
    k_p = 2e6 * np.pi * lbo_n_inplane(lam_p_nm * 1e-3, phi) / lam_p_nm
    k_s = 2e6 * np.pi * lbo_index(lam_s_nm * 1e-3, "z") / lam_s_nm
    k_i = 2e6 * np.pi * lbo_index(lam_i_nm * 1e-3, "z") / lam_i_nm
    return k_p - k_s - k_i


def phase_mismatch(omega_s, omega_i, crystal: CrystalSpec):
    """Collinear phase mismatch delta_k in 1/mm at (omega_s, omega_i)."""
    omega_s = np.asarray(omega_s, dtype=float)
    omega_i = np.asarray(omega_i, dtype=float)
    if crystal.pm_model == "sellmeier":
        phi = crystal.phase_matching_angle_deg
        if phi is None:
            phi = solve_phase_matching_angle(*crystal.linearized_center_nm)
        return _sellmeier_delta_k(wavelength_from_omega(omega_s),
                                  wavelength_from_omega(omega_i), phi)
    tau_s, tau_i = crystal.linearized_coeffs
    w_s0 = omega_from_wavelength(crystal.linearized_center_nm[0])
    w_i0 = omega_from_wavelength(crystal.linearized_center_nm[1])
    return tau_s * (omega_s - w_s0) + tau_i * (omega_i - w_i0)


def compute_jsa(pump: PumpSpec, crystal: CrystalSpec, grid: FrequencyGrid):
    """Normalized joint spectral amplitude on the grid."""
    ws = grid.signal_omega
    wi = grid.idler_omega
    WS, WI = np.meshgrid(ws, wi, indexing="ij")
    alpha = pump_envelope(WS, WI, pump)
    dk = phase_mismatch(WS, WI, crystal)
    amp = alpha * sinc(dk * crystal.length_mm / 2.0)
    return JsaGrid(ws, wi, amp.astype(complex)).normalize()


def pair_sampler(jsa: JsaGrid):
    """Return `draw(n, rng)`, which draws n (lambda_s, lambda_i) pairs from
    a numpy Generator with cell probability proportional to |f|^2,
    uniformly jittered within each cell. The cell CDF is built once here
    and shared by every draw."""
    dws, dwi = jsa.cell_measures()
    weights = (jsa.jsi() * dws[:, None] * dwi[None, :]).ravel()
    total = weights.sum()
    if total <= 0:
        raise ValueError("cannot sample from an all-zero amplitude")
    cdf = np.cumsum(weights / total)
    cdf[-1] = 1.0

    def draw(n, rng):
        # searching the uniforms in sorted order walks the CDF forward,
        # which measures 2-3x faster than searching them as drawn
        u = rng.random(n)
        order = np.argsort(u)
        cells = np.empty(n, dtype=np.intp)
        cells[order] = np.searchsorted(cdf, u[order], side="right")
        js, ks = np.unravel_index(cells, jsa.amplitude.shape)
        w_s = jsa.signal_omega[js] + (rng.random(n) - 0.5) * dws[js]
        w_i = jsa.idler_omega[ks] + (rng.random(n) - 0.5) * dwi[ks]
        return wavelength_from_omega(w_s), wavelength_from_omega(w_i)

    return draw


# ---------------------------------------------------------------------------
# JsaGrid container file
#
# Layout (little-endian):
#   magic "JSAG" | version u16 | n_s u32 | n_i u32 | flags u8 (bit0 =
#   normalized) | 3 reserved bytes | f64 signal omega axis [n_s] | f64 idler
#   omega axis [n_i] | complex128 row-major amplitude [n_s * n_i].
# A JSON sidecar at <path>.json records generation parameters.
# ---------------------------------------------------------------------------

JSA_MAGIC = b"JSAG"
JSA_VERSION = 1
_JSA_HEADER = struct.Struct("<4sHIIB3x")


def write_jsa_file(path, jsa: JsaGrid, params: dict | None = None):
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(_JSA_HEADER.pack(JSA_MAGIC, JSA_VERSION,
                                  len(jsa.signal_omega), len(jsa.idler_omega),
                                  1 if jsa.normalized else 0))
        fh.write(jsa.signal_omega.astype("<f8").tobytes())
        fh.write(jsa.idler_omega.astype("<f8").tobytes())
        fh.write(np.ascontiguousarray(jsa.amplitude, dtype="<c16").tobytes())
    if params is not None:
        with open(path.with_name(path.name + ".json"), "w") as fh:
            json.dump(params, fh, indent=2, sort_keys=True)
            fh.write("\n")


def read_jsa_file(path):
    with open(path, "rb") as fh:
        raw = fh.read(_JSA_HEADER.size)
        if raw[:4] != JSA_MAGIC or len(raw) < _JSA_HEADER.size:
            raise ValueError(f"not a JSA container: magic {raw[:4]!r}, {len(raw)}-byte header")
        magic, version, n_s, n_i, flags = _JSA_HEADER.unpack(raw)
        if version != JSA_VERSION:
            raise ValueError(f"unsupported JSA container version {version}")
        # before any read: a header cannot ask for more memory than the file holds
        if extra := Path(path).stat().st_size - (len(raw) + 8 * (n_s + n_i) + 16 * n_s * n_i):
            raise ValueError("JSA container truncated" if extra < 0 else
                             f"JSA container has {extra} bytes after its amplitude")
        ws = np.frombuffer(fh.read(8 * n_s), dtype="<f8").copy()
        wi = np.frombuffer(fh.read(8 * n_i), dtype="<f8").copy()
        amp = np.frombuffer(fh.read(16 * n_s * n_i), dtype="<c16").reshape(n_s, n_i).copy()
    for name, values in (("signal axis", ws), ("idler axis", wi), ("amplitude", amp)):
        if len(bad := np.argwhere(~np.isfinite(values))):
            raise ValueError(f"JSA container has a non-finite {name} at index {bad[0].tolist()}")
    return JsaGrid(ws, wi, amp, normalized=bool(flags & 1))
