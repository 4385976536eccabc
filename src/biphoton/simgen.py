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

import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field, fields

import numpy as np

from .calibration import DldCalibration, FibreCalibration, dld_dt, idler_delay_ps, signal_position
from .histograms import BinSpec, Histogram1D
from .spdc import JsaGrid, pair_sampler
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
        row dict: floats are `repr` (shortest round-trip), so every
        wavelength must be finite. Rows are formatted `_TRUTH_CHUNK_ROWS` at
        a time by `_truth_chunks`."""
        finite = np.isfinite(self.lambda_s) & np.isfinite(self.lambda_i)
        if not finite.all():
            row = int(np.argmin(finite))
            raise ValueError(f"ground truth pair row {row} has a non-finite wavelength "
                             f"(lambda_s {self.lambda_s[row]!r}, lambda_i {self.lambda_i[row]!r})")
        with open(path, "wb") as fh:
            for lines in _truth_chunks(self):
                fh.write(lines)


# Ground-truth JSON lines are built as a matrix of uint32 words, one row per
# pair: each key takes whole words and each value the words the widest in
# its chunk needs, all padded with 0 bytes, which no JSON line holds, so
# dropping every 0 byte leaves exactly the lines.
_TRUTH_CHUNK_ROWS = 1 << 14
_POW10 = 10.0 ** np.arange(23)            # exact doubles
_IPOW10 = 10 ** np.arange(19, dtype=np.int64)
_VELTKAMP = 134217729.0                   # 2**27 + 1 splits a double into 26-bit halves


def _words(text):
    """Bytes as uint32 words, padded on the right with 0 bytes."""
    return np.frombuffer(text.ljust(-(-len(text) // 4) * 4, b"\0"), np.uint32)


@functools.cache
def _quad_words():
    """0..9999 as words of four ASCII digits, in four tables of 10000: with
    every zero; with leading zeros as 0 bytes; the same but "0" for 0; the
    same as the second but with a leading 1 as ".". Built on first use, so
    commands that write no ground truth do not pay for it."""
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    lead = np.logical_and.accumulate(digits == 0, axis=1)
    last = lead.copy()
    last[:, -1] = False
    tables = [np.where(blank, 0, digits + ord("0")).astype(np.uint8)
              for blank in (np.zeros_like(lead), lead, last, lead)]
    first = np.minimum(lead.sum(axis=1), 3)
    ones = np.flatnonzero(digits[np.arange(10000), first] == 1)
    tables[3][ones, first[ones]] = ord(".")
    quads = np.concatenate(tables).view(np.uint32).ravel()
    quads.flags.writeable = False
    return quads


_LEAD, _LAST, _DOT = 10000, 20000, 30000
_FLAGS = np.frombuffer(b"\0\0\0false\0\0\0\0true", np.uint32).reshape(2, 2)


def _lead_words(dest, v, last=_LAST, lead=_LEAD):
    """Write non-negative int64 values into the uint32 word columns of
    `dest` as ASCII digits, right-aligned, leading zeros as 0 bytes: the
    leading word from table `lead`, or from `last` when it is the lowest."""
    quads, table = _quad_words(), last
    for col in range(dest.shape[1] - 1, -1, -1):
        v, r = np.divmod(v, 10000)
        dest[:, col] = quads[r + (v == 0) * table]
        table = lead


def _int_field(v):
    """`str` of each int64 above the int64 minimum: the number of words the
    widest needs and a function that writes them into word columns."""
    magnitude = np.abs(v)
    negative = np.flatnonzero(v < 0)
    signed_width = np.maximum(np.searchsorted(_IPOW10, magnitude[negative], side="right"), 1) + 1
    k = -(-max(len(str(int(magnitude.max(initial=0)))), signed_width.max(initial=0)) // 4)

    def fill(dest):
        _lead_words(dest, magnitude)
        dest.view(np.uint8)[negative, 4 * k - signed_width] = ord("-")
    return k, fill


def _bool_field(v):
    """`false` or `true` in two words, as `_int_field` does."""
    flag = v.astype(np.intp)

    def fill(dest):
        for col in range(2):
            dest[:, col] = _FLAGS[flag, col]
    return 2, fill


def _veltkamp(a):
    t = a * _VELTKAMP
    hi = t - (t - a)
    return hi, a - hi


def _scaled_rint(x, s):
    """x * 10**s rounded half-even to int64 n, the rest d = x * 10**s - n
    with its exact sign, and whether |d| is exactly 1/2. The product is
    split error-free as hi + lo (Dekker), since numpy has no fma."""
    c = _POW10[s]
    hi = x * c
    xh, xl = _veltkamp(x)
    ch, cl = _veltkamp(c)
    lo = ((xh * ch - hi) + xh * cl + xl * ch) + xl * cl
    r = np.rint(hi)
    q = np.rint(lo)  # |lo| > 1/2 only when hi is an integer
    lo -= q
    f = hi - r
    up, down = lo > 0.5 - f, lo < -0.5 - f
    n = r.astype(np.int64) + q.astype(np.int64) + up - down
    return n, (f + lo) - up + down, (lo == 0.5 - f) | (lo == -0.5 - f)


def _shortest_digits(x):
    """For floats in (1, 1e15) that are not integers: `n` and `s` with
    repr(x) the digits of n with a point before the last s, and whether
    they are exact. Each value takes the fewest digits whose nearest
    decimal reads back as x; 17 always do. Fewer digits round the exact
    17-digit scaling, n17 + d, in integers; the read-back divides two exact
    doubles, which rounds correctly (Clinger's fast path). Ties and
    candidates at or above 2**53 are left inexact."""
    e = np.clip(np.floor(np.log10(x)), 0, 14).astype(np.int64)
    e -= x < _POW10[e]
    e += x >= _POW10[e + 1]
    s17 = 16 - e
    n17, d, inexact = _scaled_rint(x, s17)
    n, s = n17.copy(), s17.copy()
    live = np.arange(len(x))
    for drop in range(1, 16):
        half = 5 * _IPOW10[drop - 1]
        q, rem = np.divmod(n17[live], 2 * half)
        on_half, d_live = rem == half, d[live]
        m = q + ((rem > half) | on_half & (d_live > 0))
        t = s17[live] - drop
        trip = m / _POW10[t] == x[live]  # never at t = 0: x is no integer
        bad = on_half & (d_live == 0) | (m >= 1 << 53)
        if bad.any():
            inexact[live[bad]] = True
            trip &= ~bad
        live = live[trip]
        if not len(live):
            break
        n[live], s[live] = m[trip], t[trip]
    return n, s, ~inexact


def _float_field(x):
    """`repr` of each finite float, as `_int_field` does: integer-part
    words, then the fraction after a leading 1 that becomes the "." (so its
    zeros stay), from `_shortest_digits`; values it does not take exactly
    go through `repr` one by one."""
    fast = (x > 1) & (x < 1e15) & (x != np.floor(x))
    digits, frac, exact = _shortest_digits(x[fast])
    fast[fast] = exact
    n, s = np.zeros(len(x), np.int64), np.ones(len(x), np.int64)
    n[fast], s[fast] = digits[exact], frac[exact]
    int_part, fraction = np.divmod(n, _IPOW10[s])
    k_int = -(-len(str(int(int_part.max(initial=0)))) // 4)
    k_frac = -(-(int(s.max(initial=1)) + 1) // 4)
    slow = np.flatnonzero(~fast)
    text = [repr(v).encode() for v in x[slow].tolist()]
    k = max([k_int + k_frac, *(-(-len(t) // 4) for t in text)])

    def fill(dest):
        _lead_words(dest[:, :k - k_frac], int_part)
        _lead_words(dest[:, k - k_frac:], _IPOW10[s] + fraction, _DOT, _DOT)
        for row, t in zip(slow, text):
            dest[row] = np.frombuffer(t.rjust(4 * k, b"\0"), np.uint32)
    return k, fill


_TRUTH_ROW = ((_words(b'{"pulse": '), "pulse_index", _int_field),
              (_words(b', "lambda_s_nm": '), "lambda_s", _float_field),
              (_words(b', "lambda_i_nm": '), "lambda_i", _float_field),
              (_words(b', "signal_detected": '), "signal_detected", _bool_field),
              (_words(b', "idler_detected": '), "idler_detected", _bool_field),
              (_words(b', "mcp": '), "mcp_index", _int_field),
              (_words(b', "x1": '), "x1_index", _int_field),
              (_words(b', "x2": '), "x2_index", _int_field),
              (_words(b', "snspd": '), "snspd_index", _int_field))
_ROW_END = _words(b"}\n")


def _truth_chunks(truth):
    """The JSON lines of `truth`, `_TRUTH_CHUNK_ROWS` rows at a time, as
    uint8 arrays. The key words are written again only when a chunk's
    value widths differ from the last chunk's."""
    m, layout = None, None
    for lo in range(0, len(truth), _TRUTH_CHUNK_ROWS):
        rows = slice(lo, lo + _TRUTH_CHUNK_ROWS)
        fields = [field(getattr(truth, name)[rows]) for _, name, field in _TRUTH_ROW]
        n, widths = len(truth.pulse_index[rows]), [k for k, _ in fields]
        if (n, widths) != layout:
            layout = (n, widths)
            m = np.empty((n, sum(len(key) for key, _, _ in _TRUTH_ROW) + sum(widths)
                          + len(_ROW_END)), np.uint32)
            at = 0
            for (key, _, _), k in zip(_TRUTH_ROW, widths):
                m[:, at:at + len(key)] = key
                at += len(key) + k
            m[:, at:] = _ROW_END
        at = 0
        for (key, _, _), (k, fill) in zip(_TRUTH_ROW, fields):
            at += len(key)
            fill(m[:, at:at + k])
            at += k
        text = m.view(np.uint8)
        yield text[text != 0]


@dataclass
class SimResult:
    """The stream header, the sorted stream as a lazy iterator of final
    TagColumns chunks, and the ground truth keyed into it. `truth` is sized
    up front but filled as `chunks` is pulled: it is complete only once
    `chunks` is exhausted."""

    header: StreamHeader
    chunks: Iterator[TagColumns]
    truth: GroundTruth


def _block_rng(seed, block):
    # counter-based: every block draws from an independent Philox stream,
    # so generation is reproducible for any block-level parallel split
    return np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))


def _pair_count(rng, cfg: AcquisitionConfig, slots):
    """A block's pair count, the first draw of its generator, so that
    `generate` can size the ground truth before any block is emitted."""
    return int(rng.poisson(cfg.pair_prob_per_pulse * slots))


def _emit_block(draw_pairs, cfg: AcquisitionConfig, block, pulse_lo, pulse_hi, first_row):
    """One pulse block, its pairs numbered from `first_row` and drawn by
    `draw_pairs` (a `spdc.pair_sampler`). Returns the tag columns `t_ps`,
    `channel` and `label` (4 * pair row + arm, the arm 0 MCP, 1 X1, 2 X2,
    3 SNSPD; -1 for sync and dark tags) and the pair columns."""
    rng = _block_rng(cfg.seed, block)
    slots = pulse_hi - pulse_lo
    period = cfg.pulse_period_ps

    n_pairs = _pair_count(rng, cfg, slots)
    pulse = pulse_lo + np.sort(rng.integers(0, slots, n_pairs))
    lam_s, lam_i = (np.zeros(0), np.zeros(0)) if n_pairs == 0 else draw_pairs(n_pairs, rng)
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


def _dead_time_mask(ticks, channels, cfg: AcquisitionConfig, last_kept):
    """Greedy per-channel suppression: a tag is dropped when it comes less
    than the dead time after the last kept tag on its channel. A tag at
    least the dead time after its predecessor is always kept, so the greedy
    scan only visits the runs of close gaps. `last_kept` maps roles to the
    tick of their last kept tag before `ticks`, and is updated to the last
    kept tag in `ticks`, so a stream masked in consecutive chunks is masked
    as a whole."""
    mask = np.ones(len(ticks), dtype=bool)
    for role, dead_ps in cfg.dead_time_ps.items():
        if dead_ps <= 0:
            continue
        dead_ticks = dead_ps / cfg.tick_ps
        idx = np.flatnonzero(channels == getattr(cfg.channel_map, role))
        t = ticks[idx]
        shift = 0
        if role in last_kept:
            t = np.concatenate(([last_kept[role]], t))  # a kept tag, so never dropped
            shift = 1
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
        mask[idx[np.array(dropped, dtype=np.intp) - shift]] = False
        kept = idx[mask[idx]]
        if len(kept):
            last_kept[role] = int(ticks[kept[-1]])
    return mask


def _emitted_blocks(draw_pairs, cfg: AcquisitionConfig, blocks, truth):
    """Emit each (pulse_lo, pulse_hi, first_row) block, write its pairs into
    `truth` and yield (block number, ticks, channel, label) of its tags at
    non-negative ticks, for blocks that have any."""
    for block, (lo, hi, first_row) in enumerate(blocks):
        tags, pairs = _emit_block(draw_pairs, cfg, block, lo, hi, first_row)
        rows = slice(first_row, first_row + len(pairs["pulse_index"]))
        for key, column in pairs.items():
            getattr(truth, key)[rows] = column
        t_ps = tags["t_ps"]
        ticks = np.rint(np.divide(t_ps, cfg.tick_ps, out=t_ps), out=t_ps).astype(np.int64)
        keep = ticks >= 0
        if keep.any():
            yield block, ticks[keep], tags["channel"][keep], tags["label"][keep]


def _final_chunks(draw_pairs, cfg: AcquisitionConfig, blocks, truth, index):
    """Yield the sorted, dead-time-masked stream as TagColumns chunks, each
    final when yielded, while `_emitted_blocks` fills the pair columns of
    `truth` and each chunk's tag indices go into `index` (one row per
    pair, one column per arm).

    A block is sorted once the next one is emitted: one stable lexsort of
    the carry (sorted tags not yet final, all from earlier blocks) and the
    block keeps the tie order of a sort of the whole stream, and its tags
    below the next block's first tick are final. A block with a tag that
    sorts before one already yielded cannot be placed without reordering
    the stream, so it raises ValueError."""
    dead = any(v > 0 for v in cfg.dead_time_ps.values())
    carry = (np.zeros(0, np.int64), np.zeros(0, np.uint16), np.zeros(0, np.int64))
    last_kept, last, written, pending = {}, None, 0, None
    for following in itertools.chain(_emitted_blocks(draw_pairs, cfg, blocks, truth), [None]):
        if pending is not None:
            block, *columns = pending
            ticks, channel, label = (np.concatenate(pair) for pair in zip(carry, columns))
            order = np.lexsort((channel, ticks))
            ticks, channel, label = ticks[order], channel[order], label[order]
            first = (int(ticks[0]), int(channel[0]))
            if last is not None and first < last:
                raise ValueError(
                    f"pulse block {block} has a tag at tick {first[0]} on channel {first[1]}, "
                    f"which sorts before tick {last[0]} on channel {last[1]} of the stream "
                    "already final: the blocks are too short for the spread of the tag times")
            cut = len(ticks)
            if following is not None:
                cut = int(np.searchsorted(ticks, following[1].min()))
            carry = ticks[cut:], channel[cut:], label[cut:]
            ticks, channel, label = ticks[:cut], channel[:cut], label[:cut]
            if cut:
                last = (int(ticks[-1]), int(channel[-1]))
            if dead:
                alive = _dead_time_mask(ticks, channel, cfg, last_kept)
                ticks, channel, label = ticks[alive], channel[alive], label[alive]
            labelled = np.flatnonzero(label >= 0)
            index.reshape(-1)[label[labelled]] = written + labelled
            written += len(ticks)
            if len(ticks):
                yield TagColumns(channel, ticks)
        pending = following


def generate(jsa: JsaGrid, cfg: AcquisitionConfig):
    """Synthesize the tag stream for cfg.duration_s; deterministic given
    (jsa, cfg, seed). Returns a SimResult at once: the pulse blocks are
    emitted only as its `chunks` are pulled (`_final_chunks`), and the
    ground truth is held in memory."""
    if cfg.pair_prob_per_pulse > 0 and not jsa.normalized:
        raise ValueError("pair sampling requires a normalized amplitude grid")

    draw_pairs = pair_sampler(jsa) if cfg.pair_prob_per_pulse > 0 else None
    n_pulses = cfg.n_pulses
    spans = [(lo, min(lo + _BLOCK_PULSES, n_pulses)) for lo in range(0, n_pulses, _BLOCK_PULSES)]
    counts = [_pair_count(_block_rng(cfg.seed, block), cfg, hi - lo)
              for block, (lo, hi) in enumerate(spans)]
    blocks = [(lo, hi, first)
              for (lo, hi), first in zip(spans, itertools.accumulate(counts, initial=0))]
    n_pairs = sum(counts)
    index = np.full((n_pairs, 4), -1, dtype=np.int64)
    truth = GroundTruth(np.empty(n_pairs, np.int64), np.empty(n_pairs), np.empty(n_pairs),
                        np.empty(n_pairs, bool), np.empty(n_pairs, bool), *index.T)
    return SimResult(cfg.header(), _final_chunks(draw_pairs, cfg, blocks, truth, index), truth)


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
