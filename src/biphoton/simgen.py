"""Synthesizes seven-channel time-tag streams from a joint spectral
amplitude: laser clock, divided sync, pair emission, detector efficiencies
and jitters, anode timing, fibre dispersion delay, dark counts and dead
time. Every emitted pair is recorded with ground-truth labels so the
reconstruction chain can be checked against known inputs.

Timing model per laser pulse at t_n (all in ps, quantized to ticks at
emission):

    MCP     t_n + mcp_delay + N(0, mcp_jitter)
    X1/X2   MCP-electron time + anode propagation for the encoded position,
            each end jittered so the X1-X2 difference has dtx_jitter FWHM
    SNSPD   t_n + mcp_delay + fibre reference delay + D * (lambda_i - ref)
            + N(0, residual), residual chosen so the SNSPD-MCP spread is
            the configured convolved width
    sync    t_n exactly, every sync_divider-th pulse

The SNSPD arm carries the same electronic base delay as the MCP arm, so the
observed coincidence delay centers exactly on the fibre calibration's
reference delay and decoded wavelengths are consistent with the embedded
calibration blocks.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .calibration import DldCalibration, FibreCalibration, dld_dt, idler_delay_ps, signal_position
from .histograms import BinSpec, Histogram1D
from .spdc import JsaGrid, sample_pairs
from .tagstream import ChannelMap, StreamHeader, TagColumns
from .units import sigma_from_fwhm

_ANODE_BASE_DELAY_PS = 100.0   # keeps wire-end pulses strictly after the MCP
_BLOCK_PULSES = 1 << 23

# role codes used while assembling blocks
_MCP, _X1, _X2, _SNSPD, _SYNC, _DARK = 0, 1, 2, 3, 4, 5


@dataclass
class AcquisitionConfig:
    rep_rate_hz: float = 76e6
    sync_divider: int = 63
    pair_prob_per_pulse: float = 2.23e-3
    eta_signal: float = 0.36
    eta_idler: float = 0.36
    mcp_jitter_fwhm_ps: float = 263.0
    dtx_jitter_fwhm_ps: float = 263.0
    snspd_mcp_conv_jitter_fwhm_ps: float = 310.0
    dld_dark_rate_hz: float = 2000.0
    snspd_dark_rate_hz: float = 200.0
    dead_time_ps: dict = field(default_factory=dict)
    duration_s: float = 1.0
    seed: int = 12345
    tick_ps: int = 25
    mcp_delay_ps: float = 5000.0
    dld_cal: DldCalibration = field(default_factory=DldCalibration)
    fibre_cal: FibreCalibration = field(default_factory=FibreCalibration)
    channel_map: ChannelMap = field(default_factory=ChannelMap)

    def __post_init__(self):
        for name in ("pair_prob_per_pulse", "eta_signal", "eta_idler"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        for name in ("mcp_jitter_fwhm_ps", "dtx_jitter_fwhm_ps",
                     "snspd_mcp_conv_jitter_fwhm_ps", "dld_dark_rate_hz",
                     "snspd_dark_rate_hz"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.sync_divider < 1:
            raise ValueError("sync_divider must be >= 1")
        if self.duration_s < 0:
            raise ValueError("duration must be >= 0")
        if self.rep_rate_hz <= 0:
            raise ValueError("rep_rate must be positive")
        if self.snspd_mcp_conv_jitter_fwhm_ps < self.mcp_jitter_fwhm_ps:
            raise ValueError("convolved SNSPD-MCP jitter cannot be below the MCP jitter")
        if not isinstance(self.dead_time_ps, dict):
            raise TypeError("dead_time_ps must map channel roles to dead times")
        roles = [f.name for f in fields(ChannelMap)]
        unknown = sorted(set(self.dead_time_ps) - set(roles))
        if unknown:
            raise ValueError(f"dead_time_ps has unknown role(s) {unknown}; roles are {roles}")
        if any(v < 0 for v in self.dead_time_ps.values()):
            raise ValueError("dead times must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def pulse_period_ps(self):
        return 1e12 / self.rep_rate_hz

    @property
    def snspd_residual_jitter_fwhm_ps(self):
        return float(np.sqrt(self.snspd_mcp_conv_jitter_fwhm_ps**2
                             - self.mcp_jitter_fwhm_ps**2))

    @property
    def n_pulses(self):
        return int(np.floor(self.duration_s * 1e12 / self.pulse_period_ps)) + 1

    def header(self):
        return StreamHeader(tick_ps=self.tick_ps, channel_count=7,
                            channel_map=self.channel_map)


@dataclass
class GroundTruth:
    """Per emitted pair: pulse slot, sampled wavelengths, per-arm detection
    flags, and the indices of the resulting records in the sorted stream
    (-1 where no record exists, e.g. undetected or dead-time suppressed)."""

    pulse_index: np.ndarray
    lambda_s: np.ndarray
    lambda_i: np.ndarray
    signal_detected: np.ndarray
    idler_detected: np.ndarray
    mcp_index: np.ndarray
    x1_index: np.ndarray
    x2_index: np.ndarray
    snspd_index: np.ndarray

    def __len__(self):
        return len(self.pulse_index)

    def write_jsonl(self, path):
        """One JSON object per pair, byte-identical to `json.dumps` of the
        row dict (floats through repr, so wavelengths must be finite)."""
        flag = ("false", "true")
        rows = zip(*(column.tolist() for column in (
            self.pulse_index, self.lambda_s, self.lambda_i, self.signal_detected,
            self.idler_detected, self.mcp_index, self.x1_index, self.x2_index,
            self.snspd_index)))
        with open(path, "w") as fh:
            fh.writelines(
                f'{{"pulse": {pulse}, "lambda_s_nm": {lam_s!r}, "lambda_i_nm": {lam_i!r}, '
                f'"signal_detected": {flag[det_s]}, "idler_detected": {flag[det_i]}, '
                f'"mcp": {mcp}, "x1": {x1}, "x2": {x2}, "snspd": {snspd}}}\n'
                for pulse, lam_s, lam_i, det_s, det_i, mcp, x1, x2, snspd in rows)


@dataclass
class SimResult:
    header: StreamHeader
    tags: TagColumns
    truth: GroundTruth


def _block_rng(seed, block):
    # counter-based: every block draws from an independent Philox stream,
    # so generation is reproducible for any block-level parallel split
    return np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))


def _emit_block(jsa, cfg: AcquisitionConfig, block, pulse_lo, pulse_hi):
    """One pulse block: returns (t_ps, channel, role, pair_row) columns and
    the block's pair bookkeeping."""
    rng = _block_rng(cfg.seed, block)
    slots = pulse_hi - pulse_lo
    period = cfg.pulse_period_ps

    n_pairs = int(rng.poisson(cfg.pair_prob_per_pulse * slots))
    pulse = pulse_lo + np.sort(rng.integers(0, slots, n_pairs))
    lam_s, lam_i = (np.zeros(0), np.zeros(0)) if n_pairs == 0 else sample_pairs(jsa, n_pairs, rng)
    det_s = rng.random(n_pairs) < cfg.eta_signal
    det_i = rng.random(n_pairs) < cfg.eta_idler

    sig_mcp = sigma_from_fwhm(cfg.mcp_jitter_fwhm_ps)
    sig_anode = sigma_from_fwhm(cfg.dtx_jitter_fwhm_ps) / np.sqrt(2.0)
    sig_resid = sigma_from_fwhm(cfg.snspd_residual_jitter_fwhm_ps)
    j_mcp = rng.normal(0.0, sig_mcp, n_pairs)
    j_x1 = rng.normal(0.0, sig_anode, n_pairs)
    j_x2 = rng.normal(0.0, sig_anode, n_pairs)
    j_sn = rng.normal(0.0, sig_resid, n_pairs)

    t_pulse = pulse.astype(np.float64) * period
    t_electron = t_pulse + cfg.mcp_delay_ps + j_mcp
    ta_ps = cfg.dld_cal.t_a_ticks * cfg.tick_ps
    dt_ps = dld_dt(signal_position(lam_s, cfg.dld_cal), cfg.dld_cal) * cfg.tick_ps
    t_x1 = t_electron + _ANODE_BASE_DELAY_PS + (ta_ps + dt_ps) / 2.0 + j_x1
    t_x2 = t_electron + _ANODE_BASE_DELAY_PS + (ta_ps - dt_ps) / 2.0 + j_x2
    t_sn = t_pulse + cfg.mcp_delay_ps + idler_delay_ps(lam_i, cfg.fibre_cal) + j_sn

    cmap = cfg.channel_map
    cols_t, cols_ch, cols_role, cols_row = [], [], [], []

    def emit(times, channel, role, rows):
        cols_t.append(times)
        cols_ch.append(np.full(len(times), channel, dtype=np.uint16))
        cols_role.append(np.full(len(times), role, dtype=np.uint8))
        cols_row.append(rows)

    rows = np.arange(n_pairs, dtype=np.int64)
    emit(t_electron[det_s], cmap.mcp, _MCP, rows[det_s])
    emit(t_x1[det_s], cmap.dld_x1, _X1, rows[det_s])
    emit(t_x2[det_s], cmap.dld_x2, _X2, rows[det_s])
    emit(t_sn[det_i], cmap.snspd, _SNSPD, rows[det_i])

    # sync markers for every divided pulse in this block
    first = ((pulse_lo + cfg.sync_divider - 1) // cfg.sync_divider) * cfg.sync_divider
    sync_pulses = np.arange(first, pulse_hi, cfg.sync_divider, dtype=np.int64)
    emit(sync_pulses.astype(np.float64) * period, cmap.sync, _SYNC,
         np.full(len(sync_pulses), -1, dtype=np.int64))

    # dark counts: anode darks are full uncorrelated triples at uniform
    # positions, SNSPD darks are lone tags
    block_span_ps = slots * period
    block_t0_ps = pulse_lo * period
    n_dark = int(rng.poisson(cfg.dld_dark_rate_hz * block_span_ps * 1e-12))
    t_dark = block_t0_ps + rng.random(n_dark) * block_span_ps
    x_dark = rng.random(n_dark) * cfg.dld_cal.active_length_mm
    jd1 = rng.normal(0.0, sig_anode, n_dark)
    jd2 = rng.normal(0.0, sig_anode, n_dark)
    dtd_ps = dld_dt(x_dark, cfg.dld_cal) * cfg.tick_ps
    none_rows = np.full(n_dark, -1, dtype=np.int64)
    emit(t_dark, cmap.mcp, _DARK, none_rows)
    emit(t_dark + _ANODE_BASE_DELAY_PS + (ta_ps + dtd_ps) / 2.0 + jd1, cmap.dld_x1, _DARK, none_rows)
    emit(t_dark + _ANODE_BASE_DELAY_PS + (ta_ps - dtd_ps) / 2.0 + jd2, cmap.dld_x2, _DARK, none_rows)

    n_sn_dark = int(rng.poisson(cfg.snspd_dark_rate_hz * block_span_ps * 1e-12))
    emit(block_t0_ps + rng.random(n_sn_dark) * block_span_ps, cmap.snspd, _DARK,
         np.full(n_sn_dark, -1, dtype=np.int64))

    pairs = {
        "pulse_index": pulse, "lambda_s": lam_s, "lambda_i": lam_i,
        "signal_detected": det_s, "idler_detected": det_i,
    }
    return (np.concatenate(cols_t), np.concatenate(cols_ch),
            np.concatenate(cols_role), np.concatenate(cols_row), pairs)


def _dead_time_mask(ticks, channels, cfg: AcquisitionConfig):
    """Greedy per-channel suppression of tags closer than the dead time."""
    mask = np.ones(len(ticks), dtype=bool)
    role_by_channel = {getattr(cfg.channel_map, role): role
                       for role in ("mcp", "dld_x1", "dld_x2", "dld_y1",
                                    "dld_y2", "snspd", "sync")}
    for channel in np.unique(channels):
        dead_ps = cfg.dead_time_ps.get(role_by_channel.get(int(channel), ""), 0.0)
        if dead_ps <= 0:
            continue
        dead_ticks = dead_ps / cfg.tick_ps
        idx = np.flatnonzero(channels == channel)
        last = None
        for i in idx:
            if last is not None and ticks[i] - last < dead_ticks:
                mask[i] = False
            else:
                last = ticks[i]
    return mask


def generate(jsa: JsaGrid, cfg: AcquisitionConfig):
    """Synthesize the tag stream for cfg.duration_s; deterministic given
    (jsa, cfg, seed). Returns a SimResult with the sorted stream and the
    ground truth keyed into it."""
    if cfg.pair_prob_per_pulse > 0 and not jsa.normalized:
        raise ValueError("pair sampling requires a normalized amplitude grid")

    n_pulses = cfg.n_pulses
    parts = []
    pair_parts = []
    for block, lo in enumerate(range(0, n_pulses, _BLOCK_PULSES)):
        hi = min(lo + _BLOCK_PULSES, n_pulses)
        parts.append(_emit_block(jsa, cfg, block, lo, hi))
        pair_parts.append(parts[-1][4])

    t_ps = np.concatenate([p[0] for p in parts])
    channel = np.concatenate([p[1] for p in parts])
    role = np.concatenate([p[2] for p in parts])
    row_local = np.concatenate([p[3] for p in parts])

    # pair rows concatenated across blocks get global ids
    offsets = np.cumsum([0] + [len(p["pulse_index"]) for p in pair_parts])[:-1]
    row = row_local.copy()
    pos = 0
    for part, off in zip(parts, offsets):
        n = len(part[0])
        local = row_local[pos:pos + n]
        adj = local >= 0
        row[pos:pos + n][adj] = local[adj] + off
        pos += n

    ticks = np.rint(t_ps / cfg.tick_ps).astype(np.int64)
    keep = ticks >= 0
    ticks, channel, role, row = ticks[keep], channel[keep], role[keep], row[keep]

    order = np.lexsort((channel, ticks))
    ticks, channel, role, row = ticks[order], channel[order], role[order], row[order]

    if any(v > 0 for v in cfg.dead_time_ps.values()):
        alive = _dead_time_mask(ticks, channel, cfg)
        ticks, channel, role, row = ticks[alive], channel[alive], role[alive], row[alive]

    n_pairs_total = int(offsets[-1] + len(pair_parts[-1]["pulse_index"])) if pair_parts else 0
    truth = GroundTruth(
        pulse_index=np.concatenate([p["pulse_index"] for p in pair_parts]),
        lambda_s=np.concatenate([p["lambda_s"] for p in pair_parts]),
        lambda_i=np.concatenate([p["lambda_i"] for p in pair_parts]),
        signal_detected=np.concatenate([p["signal_detected"] for p in pair_parts]),
        idler_detected=np.concatenate([p["idler_detected"] for p in pair_parts]),
        mcp_index=np.full(n_pairs_total, -1, dtype=np.int64),
        x1_index=np.full(n_pairs_total, -1, dtype=np.int64),
        x2_index=np.full(n_pairs_total, -1, dtype=np.int64),
        snspd_index=np.full(n_pairs_total, -1, dtype=np.int64),
    )
    for code, column in ((_MCP, truth.mcp_index), (_X1, truth.x1_index),
                         (_X2, truth.x2_index), (_SNSPD, truth.snspd_index)):
        sel = (role == code) & (row >= 0)
        column[row[sel]] = np.flatnonzero(sel)

    return SimResult(cfg.header(), TagColumns(channel, ticks), truth)


def irf_reference(cfg: AcquisitionConfig, total=1_000_000):
    """Analytic instrument-response histogram: the expected folded MCP-sync
    distribution (Gaussian with the configured MCP jitter) at tick
    resolution, scaled to `total` counts."""
    period = cfg.pulse_period_ps
    n_bins = int(np.ceil(period / cfg.tick_ps))
    spec = BinSpec(0, 1, n_bins)
    center = np.mod(cfg.mcp_delay_ps, period)
    edges = spec.edges().astype(float) * cfg.tick_ps
    sigma = sigma_from_fwhm(cfg.mcp_jitter_fwhm_ps)
    if sigma == 0:
        mass = np.zeros(n_bins)
        mass[int(center // cfg.tick_ps)] = 1.0
    else:
        from scipy.special import ndtr

        cdf = ndtr((edges - center) / sigma)
        mass = np.diff(cdf)
    hist = Histogram1D(spec)
    hist.counts = np.rint(total * mass).astype(np.uint64)
    return hist
