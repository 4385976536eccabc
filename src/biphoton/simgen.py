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

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .calibration import DldCalibration, FibreCalibration, dld_dt, idler_delay_ps, signal_position
from .histograms import BinSpec, Histogram1D
from .spdc import JsaGrid, sample_pairs
from .tagstream import ChannelMap, StreamHeader, TagColumns
from .units import sigma_from_fwhm

_ANODE_BASE_DELAY_PS = 100.0   # keeps wire-end pulses strictly after the MCP
_BLOCK_PULSES = 1 << 23


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
        if not isinstance(self.tick_ps, int) or self.tick_ps < 1:
            raise ValueError(f"tick_ps must be an integer >= 1, got {self.tick_ps!r}")

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


def _emit_block(jsa, cfg: AcquisitionConfig, block, pulse_lo, pulse_hi, first_row):
    """One pulse block, its pairs numbered from `first_row`. Returns the
    tag columns `t_ps`, `channel` and `label` (4 * pair row + arm, the arm
    0 MCP, 1 X1, 2 X2, 3 SNSPD; -1 for sync and dark tags) and the pair
    columns."""
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
    cols_t, cols_ch, cols_label = [], [], []

    def emit(times, channel, label=None):
        cols_t.append(times)
        cols_ch.append(np.full(len(times), channel, dtype=np.uint16))
        cols_label.append(np.full(len(times), -1, dtype=np.int64) if label is None else label)

    row_label = 4 * (first_row + np.arange(n_pairs, dtype=np.int64))
    for arm, (times, channel, detected) in enumerate((
            (t_electron, cmap.mcp, det_s), (t_x1, cmap.dld_x1, det_s),
            (t_x2, cmap.dld_x2, det_s), (t_sn, cmap.snspd, det_i))):
        emit(times[detected], channel, row_label[detected] + arm)

    # sync markers for every divided pulse in this block
    first = ((pulse_lo + cfg.sync_divider - 1) // cfg.sync_divider) * cfg.sync_divider
    sync_pulses = np.arange(first, pulse_hi, cfg.sync_divider, dtype=np.int64)
    emit(sync_pulses.astype(np.float64) * period, cmap.sync)

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
    emit(t_dark, cmap.mcp)
    emit(t_dark + _ANODE_BASE_DELAY_PS + (ta_ps + dtd_ps) / 2.0 + jd1, cmap.dld_x1)
    emit(t_dark + _ANODE_BASE_DELAY_PS + (ta_ps - dtd_ps) / 2.0 + jd2, cmap.dld_x2)

    n_sn_dark = int(rng.poisson(cfg.snspd_dark_rate_hz * block_span_ps * 1e-12))
    emit(block_t0_ps + rng.random(n_sn_dark) * block_span_ps, cmap.snspd)

    tags = {"t_ps": np.concatenate(cols_t), "channel": np.concatenate(cols_ch),
            "label": np.concatenate(cols_label)}
    pairs = {"pulse_index": pulse, "lambda_s": lam_s, "lambda_i": lam_i,
             "signal_detected": det_s, "idler_detected": det_i}
    return tags, pairs


def _dead_time_mask(ticks, channels, cfg: AcquisitionConfig):
    """Greedy per-channel suppression: a tag is dropped when it comes less
    than the dead time after the last kept tag on its channel. A tag at
    least the dead time after its predecessor is always kept, so the greedy
    scan only visits the runs of close gaps."""
    mask = np.ones(len(ticks), dtype=bool)
    for role, dead_ps in cfg.dead_time_ps.items():
        if dead_ps <= 0:
            continue
        dead_ticks = dead_ps / cfg.tick_ps
        idx = np.flatnonzero(channels == getattr(cfg.channel_map, role))
        t = ticks[idx]
        close = np.flatnonzero(np.diff(t) < dead_ticks) + 1
        dropped, prev, last = [], -1, 0
        for k, t_k, t_before in zip(close.tolist(), t[close].tolist(), t[close - 1].tolist()):
            if k != prev + 1:
                last = t_before  # a run's first tag follows a kept tag
            if t_k - last < dead_ticks:
                dropped.append(k)
            else:
                last = t_k
            prev = k
        mask[idx[dropped]] = False
    return mask


def generate(jsa: JsaGrid, cfg: AcquisitionConfig):
    """Synthesize the tag stream for cfg.duration_s; deterministic given
    (jsa, cfg, seed). Returns a SimResult with the sorted stream and the
    ground truth keyed into it."""
    if cfg.pair_prob_per_pulse > 0 and not jsa.normalized:
        raise ValueError("pair sampling requires a normalized amplitude grid")

    n_pulses = cfg.n_pulses
    tag_parts, pair_parts = [], []
    n_pairs = 0
    for block, lo in enumerate(range(0, n_pulses, _BLOCK_PULSES)):
        block_tags, block_pairs = _emit_block(jsa, cfg, block, lo,
                                              min(lo + _BLOCK_PULSES, n_pulses), n_pairs)
        tag_parts.append(block_tags)
        pair_parts.append(block_pairs)
        n_pairs += len(block_pairs["pulse_index"])
    pairs = {key: np.concatenate([part[key] for part in pair_parts]) for key in pair_parts[0]}
    # every step below releases each column it replaces before the next, so
    # no more than one tag column is ever held twice
    t_ps, channel, label = (np.concatenate([part.pop(key) for part in tag_parts])
                            for key in ("t_ps", "channel", "label"))
    del tag_parts, pair_parts
    ticks = np.rint(np.divide(t_ps, cfg.tick_ps, out=t_ps), out=t_ps).astype(np.int64)
    del t_ps
    if (ticks < 0).any():
        keep = ticks >= 0
        ticks = ticks[keep]
        channel = channel[keep]
        label = label[keep]

    order = np.lexsort((channel, ticks))
    ticks = ticks[order]
    channel = channel[order]
    label = label[order]
    del order

    if any(v > 0 for v in cfg.dead_time_ps.values()):
        alive = _dead_time_mask(ticks, channel, cfg)
        ticks = ticks[alive]
        channel = channel[alive]
        label = label[alive]

    # one row per pair, one column per arm; the labels are flat positions
    index = np.full((n_pairs, 4), -1, dtype=np.int64)
    labelled = np.flatnonzero(label >= 0)
    index.reshape(-1)[label[labelled]] = labelled
    mcp_index, x1_index, x2_index, snspd_index = index.T
    truth = GroundTruth(**pairs, mcp_index=mcp_index, x1_index=x1_index,
                        x2_index=x2_index, snspd_index=snspd_index)
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
        cdf = [0.5 * math.erfc(-z / math.sqrt(2.0)) for z in ((edges - center) / sigma).tolist()]
        mass = np.diff(cdf)
    hist = Histogram1D(spec)
    hist.counts = np.rint(total * mass).astype(np.uint64)
    return hist
