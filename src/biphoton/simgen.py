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
from collections.abc import Iterator
from dataclasses import dataclass, field, fields

import numpy as np

from .calibration import DldCalibration, FibreCalibration, dld_dt, idler_delay_ps, signal_position
from .spdc import JsaGrid, pair_sampler
from .tagstream import ChannelMap, StreamHeader, TagColumns
from .units import sigma_from_fwhm

_ANODE_BASE_DELAY_PS = 100.0   # keeps wire-end pulses strictly after the MCP
#: a pulse block carries about this many expected tags (`_pulse_blocks`),
#: so generation memory follows the block, not the pair rate
_BLOCK_TAGS = 1 << 16
_BLOCK_PULSES = 1 << 23
#: seeds are below this: a seed is one uint64 word of each block's Philox key
SEED_LIMIT = 1 << 64


def check_seed(seed, source="seed"):
    """The one seed rule: an integer in [0, SEED_LIMIT), a Python or numpy
    integer but not a bool. Raises ValueError naming `source`."""
    integer = isinstance(seed, int | np.integer) and not isinstance(seed, bool)
    if not (integer and 0 <= seed < SEED_LIMIT):
        raise ValueError(f"{source} must be an integer in [0, 2**64), got {seed!r}")


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
    dead_time_ps: dict[str, float] = field(default_factory=dict)
    duration_s: float = 1.0
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
        if not isinstance(self.tick_ps, int) or not 1 <= self.tick_ps < 1 << 32:
            raise ValueError(f"tick_ps must be an integer in [1, 2**32), got {self.tick_ps!r}")

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


#: one ground-truth pair as a fixed-size record (58 bytes): its pulse slot,
#: sampled wavelengths, per-arm detection flags, and the indices of its
#: arms' records in the sorted stream (-1 where no record exists, e.g.
#: undetected or dead-time suppressed). The names are the JSON lines keys.
TRUTH_RECORD = np.dtype([("pulse", "<i8"), ("lambda_s_nm", "<f8"), ("lambda_i_nm", "<f8"),
                         ("signal_detected", "?"), ("idler_detected", "?"), ("mcp", "<i8"),
                         ("x1", "<i8"), ("x2", "<i8"), ("snspd", "<i8")])


@dataclass
class GroundTruth:
    """Emitted pairs as one array of `TRUTH_RECORD` records."""

    records: np.ndarray

    def __len__(self):
        return len(self.records)

    def check_finite(self, first_row=0):
        """Raise ValueError naming the first pair with a non-finite
        wavelength, numbered from `first_row`."""
        lam_s, lam_i = self.records["lambda_s_nm"], self.records["lambda_i_nm"]
        finite = np.isfinite(lam_s) & np.isfinite(lam_i)
        if not finite.all():
            row = int(np.argmin(finite))
            raise ValueError(f"ground truth pair row {first_row + row} has a non-finite "
                             f"wavelength (lambda_s_nm {lam_s[row]!r}, "
                             f"lambda_i_nm {lam_i[row]!r})")

    def write_jsonl(self, fh):
        """Append one JSON object per pair to the binary file `fh`,
        byte-identical to `json.dumps` of the row dict: floats are `repr`
        (shortest round-trip), so every wavelength must be finite, which is
        checked before anything is written. Rows are formatted
        `_TRUTH_CHUNK_ROWS` at a time by `_truth_chunks`."""
        self.check_finite()
        for lines in _truth_chunks(self.records):
            fh.write(lines)


# Ground-truth JSON lines are built as a matrix of uint32 words, one row per
# pair: each key takes whole words and each value the words the widest in
# its chunk needs, all padded with 0 bytes, which no JSON line holds, so
# dropping every 0 byte leaves exactly the lines. A chunk's temporaries (at
# most about 0.8 kB a row) stay small enough for malloc to reuse from one
# chunk to the next: at 16384 rows it grew and trimmed the heap every chunk.
_TRUTH_CHUNK_ROWS = 1 << 12
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


#: per `TRUTH_RECORD` field: its key's words (with the separator before it),
#: its name, and the formatter of its dtype kind
_TRUTH_ROW = tuple((_words(b'%s"%s": ' % (b", " if k else b"{", name.encode())), name,
                    {"i": _int_field, "f": _float_field, "b": _bool_field}[TRUTH_RECORD[k].kind])
                   for k, name in enumerate(TRUTH_RECORD.names))
_ROW_END = _words(b"}\n")


def _truth_chunks(records):
    """The JSON lines of `TRUTH_RECORD` records, `_TRUTH_CHUNK_ROWS` rows at
    a time, as uint8 arrays."""
    for lo in range(0, len(records), _TRUTH_CHUNK_ROWS):
        chunk = records[lo:lo + _TRUTH_CHUNK_ROWS]
        fields = [field(chunk[name]) for _, name, field in _TRUTH_ROW]
        m = np.empty((len(chunk), sum(len(key) for key, _, _ in _TRUTH_ROW)
                      + sum(k for k, _ in fields) + len(_ROW_END)), np.uint32)
        at = 0
        for (key, _, _), (k, fill) in zip(_TRUTH_ROW, fields):
            m[:, at:at + len(key)] = key
            at += len(key)
            fill(m[:, at:at + k])
            at += k
        m[:, at:] = _ROW_END
        del fields  # their digits are in `m`: free them before the text is compacted
        text = m.view(np.uint8)
        yield text[text != 0]


def spill_truth(spill, batch):
    """Append a ground-truth batch to the binary file `spill` as
    `TRUTH_RECORD` records, once its wavelengths are checked, its rows
    numbered after the records already there."""
    batch.check_finite(spill.tell() // TRUTH_RECORD.itemsize)
    spill.write(batch.records)


def write_spilled_jsonl(spill, path):
    """Write the `TRUTH_RECORD` records of `spill` to `path` as JSON lines,
    one formatting chunk (`_TRUTH_CHUNK_ROWS` records, read into one reused
    buffer and formatted there) per `write_jsonl`, so the read-back adds
    little to generation's peak."""
    records = np.empty(_TRUTH_CHUNK_ROWS, TRUTH_RECORD)
    spill.seek(0)
    with open(path, "wb") as fh:
        while n := spill.readinto(records) // TRUTH_RECORD.itemsize:
            GroundTruth(records[:n]).write_jsonl(fh)


@dataclass
class SimResult:
    """The stream header, the sorted stream as a lazy iterator of final
    TagColumns chunks, and the pair rows, numbered as the ground truth
    numbers them: `len(truth)` is the pair count, known before any block is
    emitted. The truth itself goes to `generate`'s `on_truth` as the chunks
    are pulled."""

    header: StreamHeader
    chunks: Iterator[TagColumns]
    truth: range


def _block_rng(seed, block):
    # counter-based: every block draws from an independent Philox stream,
    # so generation is reproducible for any block-level parallel split
    return np.random.Generator(np.random.Philox(key=np.array([seed, block], dtype=np.uint64)))


def _pulse_blocks(cfg: AcquisitionConfig):
    """The pulse blocks [lo, hi) that partition cfg.n_pulses, each
    `_BLOCK_TAGS` expected tags long (the sync markers, four tags a pair
    at most, three a DLD dark and one an SNSPD dark) and at most
    `_BLOCK_PULSES` pulses."""
    dark_hz = 3 * cfg.dld_dark_rate_hz + cfg.snspd_dark_rate_hz
    tags_per_pulse = (1 / cfg.sync_divider + 4 * cfg.pair_prob_per_pulse
                      + dark_hz / cfg.rep_rate_hz)
    size = max(1, min(_BLOCK_PULSES, int(_BLOCK_TAGS / tags_per_pulse)))
    n_pulses = cfg.n_pulses
    for lo in range(0, n_pulses, size):
        yield lo, min(lo + size, n_pulses)


def _block_draws(cfg: AcquisitionConfig, seed):
    """Per pulse block: its generator, its pair count (the generator's
    first draw), and its pulses [lo, hi). The generators are made as the
    blocks are reached, so nothing is held per block."""
    for block, (lo, hi) in enumerate(_pulse_blocks(cfg)):
        rng = _block_rng(seed, block)
        yield rng, int(rng.poisson(cfg.pair_prob_per_pulse * (hi - lo))), lo, hi


def _emit_block(draw_pairs, cfg: AcquisitionConfig, rng, n_pairs, pulse_lo, pulse_hi,
                first_row):
    """The pair and dark tags of one pulse block of `n_pairs` pairs,
    numbered from `first_row` and drawn by `draw_pairs` (a
    `spdc.pair_sampler`), with every other draw from the block's generator
    `rng`. Returns the tag columns `t_ps`, `channel` and `label` (4 * pair
    row + arm, the arm 0 MCP, 1 X1, 2 X2, 3 SNSPD; -1 for dark tags) and the
    pair columns, keyed by their `TRUTH_RECORD` names. Sync markers draw
    nothing and are left to `_sync_ticks`."""
    slots = pulse_hi - pulse_lo
    period = cfg.pulse_period_ps

    pulse = pulse_lo + np.sort(rng.integers(0, slots, n_pairs))
    lam_s, lam_i = (np.zeros(0), np.zeros(0)) if n_pairs == 0 else draw_pairs(n_pairs, rng)
    det_s = rng.random(n_pairs) < cfg.eta_signal
    det_i = rng.random(n_pairs) < cfg.eta_idler

    sig_mcp = sigma_from_fwhm(cfg.mcp_jitter_fwhm_ps)
    sig_anode = sigma_from_fwhm(cfg.dtx_jitter_fwhm_ps) / np.sqrt(2.0)
    sig_resid = sigma_from_fwhm(cfg.snspd_residual_jitter_fwhm_ps)
    ta_ps = cfg.dld_cal.t_a_ticks * cfg.tick_ps

    cmap = cfg.channel_map
    cols_t, cols_ch, cols_label = [], [], []

    def emit(times, channel, label=None):
        cols_t.append(times)
        cols_ch.append(np.full(len(times), channel, dtype=np.uint16))
        cols_label.append(np.full(len(times), -1, dtype=np.int64) if label is None else label)

    def wire(t_mcp, dt_ps, end):
        """Anode wire end X1 (`end` 1) or X2 (-1) times of MCP electrons at
        `t_mcp` with wire-time differences `dt_ps`, each end its own jitter."""
        return (t_mcp + _ANODE_BASE_DELAY_PS + (ta_ps + end * dt_ps) / 2.0
                + rng.normal(0.0, sig_anode, len(t_mcp)))

    def emit_arm(arm, times, channel, detected):
        emit(times[detected], channel, row_label[detected] + arm)

    # each arm's jitter is drawn as the arm is emitted
    row_label = 4 * (first_row + np.arange(n_pairs, dtype=np.int64))
    t_pulse = pulse.astype(np.float64) * period
    t_electron = t_pulse + cfg.mcp_delay_ps + rng.normal(0.0, sig_mcp, n_pairs)
    emit_arm(0, t_electron, cmap.mcp, det_s)
    dt_ps = dld_dt(signal_position(lam_s, cfg.dld_cal), cfg.dld_cal) * cfg.tick_ps
    emit_arm(1, wire(t_electron, dt_ps, 1), cmap.dld_x1, det_s)
    emit_arm(2, wire(t_electron, dt_ps, -1), cmap.dld_x2, det_s)
    emit_arm(3, t_pulse + cfg.mcp_delay_ps + idler_delay_ps(lam_i, cfg.fibre_cal)
             + rng.normal(0.0, sig_resid, n_pairs), cmap.snspd, det_i)

    # dark counts: anode darks are full uncorrelated triples at uniform
    # positions, SNSPD darks are lone tags
    block_span_ps = slots * period
    block_t0_ps = pulse_lo * period
    n_dark = int(rng.poisson(cfg.dld_dark_rate_hz * block_span_ps * 1e-12))
    t_dark = block_t0_ps + rng.random(n_dark) * block_span_ps
    dtd_ps = dld_dt(rng.random(n_dark) * cfg.dld_cal.active_length_mm, cfg.dld_cal) * cfg.tick_ps
    emit(t_dark, cmap.mcp)
    emit(wire(t_dark, dtd_ps, 1), cmap.dld_x1)
    emit(wire(t_dark, dtd_ps, -1), cmap.dld_x2)

    n_sn_dark = int(rng.poisson(cfg.snspd_dark_rate_hz * block_span_ps * 1e-12))
    emit(block_t0_ps + rng.random(n_sn_dark) * block_span_ps, cmap.snspd)

    tags = {"t_ps": np.concatenate(cols_t), "channel": np.concatenate(cols_ch),
            "label": np.concatenate(cols_label)}
    pairs = {"pulse": pulse, "lambda_s_nm": lam_s, "lambda_i_nm": lam_i,
             "signal_detected": det_s, "idler_detected": det_i}
    return tags, pairs


def _ticks(t_ps, tick_ps):
    """Float64 times in ps, overwritten, as int64 ticks: the one quantization
    of every tag, so a sync marker has the tick a tag at its time would."""
    return np.rint(np.divide(t_ps, tick_ps, out=t_ps), out=t_ps).astype(np.int64)


def _sync_ticks(cfg: AcquisitionConfig, pulse_lo, pulse_hi):
    """The ticks of the sync markers of pulses [pulse_lo, pulse_hi), one at
    every sync_divider-th pulse's time exactly: non-decreasing, and never
    negative."""
    first = ((pulse_lo + cfg.sync_divider - 1) // cfg.sync_divider) * cfg.sync_divider
    t_ps = np.arange(first, pulse_hi, cfg.sync_divider, dtype=np.int64).astype(np.float64)
    t_ps *= cfg.pulse_period_ps
    return _ticks(t_ps, cfg.tick_ps)


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


#: `TRUTH_RECORD` rows as one (row, arm) i8 field over the four consecutive arm fields
_ARMS = np.dtype({"names": ["arms"], "formats": [("<i8", 4)],
                  "offsets": [TRUTH_RECORD.fields["mcp"][1]],
                  "itemsize": TRUTH_RECORD.itemsize})


class _PendingTruth:
    """The pair rows emitted but not yet final, for `_final_chunks`, as one
    `TRUTH_RECORD` table whose arm fields hold stream indices, -1 until
    placed. `release` hands the leading rows that no tag still held refers
    to on to `on_truth`, as one GroundTruth batch."""

    def __init__(self, on_truth):
        self.on_truth = on_truth
        self.first_row = self.written = 0
        self.rows = np.zeros(0, TRUTH_RECORD)

    def add(self, pairs):
        rows = np.empty(len(pairs["pulse"]), TRUTH_RECORD)
        for name in TRUTH_RECORD.names:
            rows[name] = pairs.get(name, -1)
        # joined as bytes: numpy copies a packed record field by field, 10x slower
        self.rows = np.concatenate([self.rows.view("B"), rows.view("B")]).view(TRUTH_RECORD)

    def place(self, labels):
        """Place the labels of the stream's next final tags (-1: no pair)."""
        labelled = np.flatnonzero(labels >= 0)
        row, arm = np.divmod(labels[labelled] - 4 * self.first_row, 4)
        self.rows.view(_ARMS)["arms"][row, arm] = self.written + labelled
        self.written += len(labels)

    def release(self, held):
        """Hand on every leading row that no label in `held` refers to."""
        stop = int(held[held >= 0].min(initial=np.iinfo(np.int64).max)) // 4
        if n := min(stop - self.first_row, len(self.rows)):
            batch, self.rows = self.rows[:n], self.rows[n:]
            self.first_row += n
            self.on_truth(GroundTruth(batch))


def _take(tags, index):
    """Every column of `tags` indexed by `index`."""
    return {key: column[index] for key, column in tags.items()}


def _merge_sync(sync, sync_id, tags):
    """Merge the non-decreasing sync ticks `sync` into `tags` sorted by
    (tick, channel), as markers on channel `sync_id` labelled -1. Each tag
    is searched into the markers: it goes before those at its tick when its
    channel is below `sync_id`, after them otherwise (a tag on `sync_id` is
    a marker of an earlier block, like those it ties with)."""
    before = np.searchsorted(sync, tags["ticks"] - (tags["channel"] < sync_id), side="right")
    at = before + np.arange(len(before))
    merged = {"ticks": np.insert(sync, before, tags["ticks"])}
    for key, marker in (("channel", sync_id), ("label", -1)):
        if key in tags:
            merged[key] = np.full(len(merged["ticks"]), marker, tags[key].dtype)
            merged[key][at] = tags[key]
    return merged


def _final_chunks(draw_pairs, cfg: AcquisitionConfig, seed, on_truth):
    """Yield the sorted, dead-time-masked stream of the pulse blocks of
    `_block_draws` as TagColumns chunks, each final when yielded. With
    `on_truth`, each chunk's tag indices are placed into the pending truth,
    and its pair rows go to `on_truth`, in row order, as soon as none of
    their tags is left in the carry.

    The carry holds the sorted tags not yet final, all from earlier blocks.
    Once a block is emitted, the carry below its first tick (its first pair
    or dark tag, or its first sync marker) is final: it is yielded, and the
    rest copied. Only then is the rest sorted with the block's pair and
    dark tags by one stable lexsort, which keeps the tie order of a sort of
    the whole stream, and the block's sync ticks, already in order, are
    merged in (`_merge_sync`). A block with a tag that sorts before one
    already yielded cannot be placed without reordering the stream, so it
    raises ValueError."""
    dead = any(v > 0 for v in cfg.dead_time_ps.values())
    pending = _PendingTruth(on_truth) if on_truth is not None else None
    carry = {"ticks": np.zeros(0, np.int64), "channel": np.zeros(0, np.uint16)}
    if pending is not None:
        carry["label"] = np.zeros(0, np.int64)
    last_kept, last, first_row = {}, None, 0

    def final(cut):
        """Yield the carry's first `cut` tags, masked, once their labels are
        placed and the rows they complete handed on; keep a copy of the
        rest as the carry."""
        nonlocal carry, last
        tags, carry = _take(carry, slice(cut)), {key: column[cut:].copy()
                                                 for key, column in carry.items()}
        if cut:
            last = (int(tags["ticks"][-1]), int(tags["channel"][-1]))
        if dead:
            tags = _take(tags, _dead_time_mask(tags["ticks"], tags["channel"], cfg, last_kept))
        if pending is not None:
            pending.place(tags["label"])
            pending.release(carry["label"])
        if len(tags["ticks"]):
            yield TagColumns(tags["channel"], tags["ticks"])

    for block, (rng, n_pairs, lo, hi) in enumerate(_block_draws(cfg, seed)):
        tags, pairs = _emit_block(draw_pairs, cfg, rng, n_pairs, lo, hi, first_row)
        first_row += n_pairs
        tags["ticks"] = _ticks(tags.pop("t_ps"), cfg.tick_ps)
        if pending is None:
            del tags["label"]
        tags = _take(tags, tags["ticks"] >= 0)
        first_sync = _sync_ticks(cfg, lo, min(hi, lo + cfg.sync_divider))
        if len(first_sync) or len(tags["ticks"]):
            below = (tags["ticks"].min(initial=first_sync[0]) if len(first_sync)
                     else tags["ticks"].min())
            yield from final(int(np.searchsorted(carry["ticks"], below)))
            tags = {key: np.concatenate([carry[key], column]) for key, column in tags.items()}
            order = np.lexsort((tags["channel"], tags["ticks"]))
            carry = _merge_sync(_sync_ticks(cfg, lo, hi), cfg.channel_map.sync, _take(tags, order))
            del tags, order  # sorted into the carry: free them before the next block
            first = (int(carry["ticks"][0]), int(carry["channel"][0]))
            if last is not None and first < last:
                raise ValueError(
                    f"pulse block {block} has a tag at tick {first[0]} on channel {first[1]}, "
                    f"which sorts before tick {last[0]} on channel {last[1]} of the stream "
                    "already final: the blocks are too short for the spread of the tag times")
        if pending is not None:
            pending.add(pairs)
    yield from final(len(carry["ticks"]))


def generate(jsa: JsaGrid, cfg: AcquisitionConfig, seed, on_truth=None):
    """Synthesize the tag stream for cfg.duration_s; deterministic given
    (jsa, cfg, seed), the seed as `check_seed` allows. Returns a SimResult at
    once: the pulse blocks are emitted only as its `chunks` are pulled
    (`_final_chunks`). The ground truth is built only for a callback
    `on_truth`, which receives it as GroundTruth batches of consecutive pair
    rows, in row order, each once every stream record of its rows is final."""
    check_seed(seed)
    if cfg.pair_prob_per_pulse > 0 and not jsa.normalized:
        raise ValueError("pair sampling requires a normalized amplitude grid")

    draw_pairs = pair_sampler(jsa) if cfg.pair_prob_per_pulse > 0 else None
    # each block's pair count is its generator's first draw, so the pairs
    # are counted before any block is emitted, and drawn again when it is
    n_pairs = sum(count for _, count, _, _ in _block_draws(cfg, seed))
    return SimResult(cfg.header(), _final_chunks(draw_pairs, cfg, seed, on_truth),
                     range(n_pairs))
