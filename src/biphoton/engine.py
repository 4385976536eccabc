"""Streaming event builder: turns a sorted time-tag stream into anode events,
signal-idler coincidences, 1-D spectra, the static joint spectrum, and
time-resolved joint-spectrum slices.

Every anode event is a pure function of the tags inside its lookahead window
and the latest preceding sync tag, so the stream can be processed as one
array, as bounded-memory blocks, or as per-thread partitions with bitwise
identical results. All three run the same step (`_build_step`).
"""

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .histograms import BinSpec, Histogram1D, Histogram2D
from .tagstream import ChannelMap, TagColumns

_ROLES = ("mcp", "dld_x1", "dld_x2", "dld_y1", "dld_y2", "snspd", "sync")


@dataclass
class EventBuildConfig:
    """Event-build parameters in stream ticks. `RunConfig.event_config()`
    derives them from the instrument description."""

    t_a_ticks: int
    dt_guard_ticks: int
    gate_center_ticks: int                   # coincidence-peak delay
    gate_half_width_ticks: int
    fold_period_ps: float | None             # None = raw sync offsets
    sync_period_ticks: int                   # displaced-gate offset for accidentals
    tick_ps: int
    jsi_x_spec: BinSpec
    jsi_y_spec: BinSpec
    dld_window_ticks: int | None = None      # default 4 * t_a
    signal_spec: BinSpec = field(init=False)
    idler_spec: BinSpec = field(init=False)
    irf_spec: BinSpec = field(init=False)

    def __post_init__(self):
        if self.dld_window_ticks is None:
            self.dld_window_ticks = 4 * self.t_a_ticks
        guard = self.t_a_ticks + self.dt_guard_ticks
        self.signal_spec = BinSpec(-guard - 1, 1, 2 * guard + 2)
        self.idler_spec = BinSpec(self.gate_center_ticks - self.gate_half_width_ticks,
                                  1, 2 * self.gate_half_width_ticks + 1)
        if self.fold_period_ps is not None:
            n = int(np.ceil(self.fold_period_ps / self.tick_ps))
        else:
            n = self.sync_period_ticks + 1
        self.irf_spec = BinSpec(0, 1, n)

    def lookahead_ticks(self):
        return max(self.dld_window_ticks,
                   self.gate_center_ticks + self.gate_half_width_ticks,
                   self.gate_center_ticks + self.gate_half_width_ticks
                   + self.sync_period_ticks) + 1


@dataclass
class DldEvents:
    """Column arrays, one entry per assembled anode event (MCP order)."""

    t_mcp: np.ndarray
    dt_x: np.ndarray
    dt_y: np.ndarray
    has_dt_y: np.ndarray
    sync_offset: np.ndarray
    has_sync: np.ndarray

    def __len__(self):
        return len(self.t_mcp)


@dataclass
class Coincidences:
    """Column arrays, one entry per gated signal-idler pair."""

    t_mcp: np.ndarray
    dt_x: np.ndarray
    sync_offset: np.ndarray
    has_sync: np.ndarray
    tau: np.ndarray

    def __len__(self):
        return len(self.t_mcp)


@dataclass
class SliceSet:
    window_width_ticks: int
    window_origin_ticks: int
    frames: list
    out_of_window: Histogram2D
    folded: bool


@dataclass
class BuildResult:
    events: DldEvents | None
    coincidences: Coincidences | None
    histograms: dict
    diagnostics: dict


def split_channels(tags: TagColumns, channel_map: ChannelMap):
    """Per-role sorted int64 timestamp arrays. Sync markers are most of a
    typical stream, so they are split off first and only the rest is
    demuxed by role."""
    t, ch = tags.timestamp, tags.channel
    is_sync = ch == channel_map.sync
    times = {"sync": t[is_sync]}
    rest = ~is_sync
    t_rest, ch_rest = t[rest], ch[rest]
    for role in _ROLES[:-1]:
        times[role] = t_rest[ch_rest == getattr(channel_map, role)]
    return times


def _fresh_diag():
    return {
        "mcp_triggers": 0, "events": 0, "no_x1": 0, "multi_x1": 0,
        "no_x2": 0, "multi_x2": 0, "out_of_guard": 0, "syncless_events": 0,
        "coincidences": 0, "multi_hit_gates": 0, "extra_gate_hits": 0,
        "displaced_gate_hits": 0,
        "tag_counts": {role: 0 for role in _ROLES},
    }


def _merge_diag(a, b):
    out = dict(a)
    for key, value in b.items():
        if key == "tag_counts":
            out[key] = {r: a[key][r] + value[r] for r in value}
        else:
            out[key] = a[key] + value
    return out


def _match_events(times, cfg: EventBuildConfig, mcp_lo, mcp_hi, prev_sync=None):
    """Assemble events for the MCP triggers in [mcp_lo, mcp_hi).

    For each trigger, X1/X2 tags are searched in (t_mcp, t_mcp + window];
    an event is emitted iff exactly one candidate exists on each wire and
    the decoded difference is inside the guard band. Y decoding is optional
    and never rejects an event.
    """
    diag = _fresh_diag()
    mcp = times["mcp"][mcp_lo:mcp_hi]
    diag["mcp_triggers"] = len(mcp)
    window_end = mcp + cfg.dld_window_ticks

    def exactly_one(arr):
        lo = np.searchsorted(arr, mcp, side="right")
        hi = np.searchsorted(arr, window_end, side="right")
        return lo, hi - lo

    lo1, n1 = exactly_one(times["dld_x1"])
    lo2, n2 = exactly_one(times["dld_x2"])
    good = (n1 == 1) & (n2 == 1)
    diag["no_x1"] = int((n1 == 0).sum())
    diag["multi_x1"] = int((n1 > 1).sum())
    diag["no_x2"] = int((n2 == 0).sum())
    diag["multi_x2"] = int((n2 > 1).sum())

    t_mcp = mcp[good]
    dt_x = times["dld_x1"][lo1[good]] - times["dld_x2"][lo2[good]]
    in_guard = np.abs(dt_x) <= cfg.t_a_ticks + cfg.dt_guard_ticks
    diag["out_of_guard"] = int((~in_guard).sum())
    t_mcp = t_mcp[in_guard]
    dt_x = dt_x[in_guard]

    keep = np.flatnonzero(good)[in_guard]
    loy1, ny1 = exactly_one(times["dld_y1"])
    loy2, ny2 = exactly_one(times["dld_y2"])
    has_y = (ny1[keep] == 1) & (ny2[keep] == 1)
    dt_y = np.zeros(len(t_mcp), dtype=np.int64)
    if has_y.any():
        dt_y[has_y] = (times["dld_y1"][loy1[keep][has_y]]
                       - times["dld_y2"][loy2[keep][has_y]])

    sync = times["sync"]
    si = np.searchsorted(sync, t_mcp, side="right") - 1
    has_sync = si >= 0
    sync_offset = np.zeros(len(t_mcp), dtype=np.int64)
    sync_offset[has_sync] = t_mcp[has_sync] - sync[si[has_sync]]
    if prev_sync is not None and (~has_sync).any():
        miss = ~has_sync
        sync_offset[miss] = t_mcp[miss] - prev_sync
        has_sync = np.ones_like(has_sync)
    diag["syncless_events"] = int((~has_sync).sum())
    diag["events"] = len(t_mcp)
    return DldEvents(t_mcp, dt_x, dt_y, has_y, sync_offset, has_sync), diag


def _expand_gate(snspd, starts, counts):
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    owner = np.repeat(np.arange(len(counts)), counts)
    prefix = np.concatenate(([0], np.cumsum(counts)))[:-1]
    within = np.arange(total) - np.repeat(prefix, counts)
    return owner, snspd[np.repeat(starts, counts) + within]


def _match_coincidences(times, events: DldEvents, cfg: EventBuildConfig):
    """Pair each event with every SNSPD tag inside the idler gate. Multi-hit
    gates yield one coincidence per hit (accidentals, tallied separately)."""
    diag = _fresh_diag()
    snspd = times["snspd"]
    gate_lo = events.t_mcp + cfg.gate_center_ticks - cfg.gate_half_width_ticks
    gate_hi = events.t_mcp + cfg.gate_center_ticks + cfg.gate_half_width_ticks
    lo = np.searchsorted(snspd, gate_lo, side="left")
    hi = np.searchsorted(snspd, gate_hi, side="right")
    counts = hi - lo
    owner, sn_t = _expand_gate(snspd, lo, counts)
    tau = sn_t - events.t_mcp[owner]
    coinc = Coincidences(events.t_mcp[owner], events.dt_x[owner],
                         events.sync_offset[owner], events.has_sync[owner], tau)
    diag["coincidences"] = len(coinc)
    diag["multi_hit_gates"] = int((counts > 1).sum())
    diag["extra_gate_hits"] = int(np.clip(counts - 1, 0, None).sum())

    disp = cfg.sync_period_ticks
    dlo = np.searchsorted(snspd, gate_lo + disp, side="left")
    dhi = np.searchsorted(snspd, gate_hi + disp, side="right")
    diag["displaced_gate_hits"] = int((dhi - dlo).sum())
    return coinc, diag


def fold_offset_values(sync_offset_ticks, cfg: EventBuildConfig):
    """Sync offsets mapped to histogram tick indices, folding the offset
    into one laser period when folding is enabled."""
    offsets = np.asarray(sync_offset_ticks, dtype=np.int64)
    if cfg.fold_period_ps is None:
        return offsets
    phase_ps = np.mod(offsets.astype(np.float64) * cfg.tick_ps, cfg.fold_period_ps)
    return np.floor(phase_ps / cfg.tick_ps).astype(np.int64)


def new_histograms(cfg: EventBuildConfig):
    return {
        "irf": Histogram1D(cfg.irf_spec),
        "signal_spectrum": Histogram1D(cfg.signal_spec),
        "idler_spectrum": Histogram1D(cfg.idler_spec),
        "dld_y_spectrum": Histogram1D(cfg.signal_spec),
        "jsi": Histogram2D(cfg.jsi_x_spec, cfg.jsi_y_spec),
    }


def accumulate_histograms(coincidences: Coincidences, events: DldEvents,
                          cfg: EventBuildConfig, into=None):
    """Fill the standard histogram set; the instrument-response histogram is
    built from every anode event with a sync reference, the idler spectrum
    and joint spectrum from coincidences."""
    hists = into if into is not None else new_histograms(cfg)
    hists["irf"].add(fold_offset_values(events.sync_offset[events.has_sync], cfg))
    hists["signal_spectrum"].add(events.dt_x)
    hists["dld_y_spectrum"].add(events.dt_y[events.has_dt_y])
    hists["idler_spectrum"].add(coincidences.tau)
    hists["jsi"].add(coincidences.dt_x, coincidences.tau)
    return hists


def slice_time_resolved(coincidences: Coincidences, cfg: EventBuildConfig,
                        window_width_ticks, window_origin_ticks, n_windows):
    """Partition coincidences into contiguous sync-offset windows.

    Every coincidence lands in exactly one frame or in out_of_window
    (including sync-less ones), so per-cell counts across frames plus
    out_of_window reproduce the static joint spectrum exactly.
    """
    width = int(window_width_ticks)
    if width < 1:
        raise ValueError("window width must be at least 1 tick")
    origin = int(window_origin_ticks)
    n_windows = int(n_windows)
    if n_windows < 1:
        raise ValueError("need at least one window")

    values = fold_offset_values(coincidences.sync_offset, cfg)
    frame_idx = np.floor_divide(values - origin, width)
    in_any = coincidences.has_sync & (frame_idx >= 0) & (frame_idx < n_windows)

    frames = []
    for k in range(n_windows):
        hist = Histogram2D(cfg.jsi_x_spec, cfg.jsi_y_spec)
        sel = in_any & (frame_idx == k)
        hist.add(coincidences.dt_x[sel], coincidences.tau[sel])
        frames.append(hist)
    out = Histogram2D(cfg.jsi_x_spec, cfg.jsi_y_spec)
    out.add(coincidences.dt_x[~in_any], coincidences.tau[~in_any])
    return SliceSet(width, origin, frames, out, folded=cfg.fold_period_ps is not None)


def rates_report(diagnostics, duration_s):
    """Singles, coincidence and accidental rates from build diagnostics."""
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    singles = {role: n / duration_s for role, n in diagnostics["tag_counts"].items()}
    coincidence_rate = diagnostics["coincidences"] / duration_s
    accidental_rate = diagnostics["displaced_gate_hits"] / duration_s
    figure = (diagnostics["coincidences"] / diagnostics["displaced_gate_hits"]
              if diagnostics["displaced_gate_hits"] else None)
    return {
        "duration_s": duration_s,
        "singles_hz": singles,
        "coincidence_rate_hz": coincidence_rate,
        "accidental_rate_hz": accidental_rate,
        "coincidence_to_accidental": figure,
    }


def _concat_columns(parts):
    """Concatenate column dataclasses (DldEvents or Coincidences) field by field."""
    if len(parts) == 1:
        return parts[0]
    return type(parts[0])(*(np.concatenate([getattr(p, f.name) for p in parts])
                            for f in fields(parts[0])))


def _build_step(tags: TagColumns, channel_map: ChannelMap, cfg: EventBuildConfig,
                threads=1, cutoff=None, prev_sync=None):
    """Demux `tags`, then match the events of the MCP triggers at or before
    `cutoff` (all when None) and their coincidences, in `threads`
    contiguous trigger ranges run concurrently against the same demuxed
    arrays. `tag_counts` counts the tags at or before the cutoff. Returns
    (per-role times, events, coincidences, diagnostics)."""
    times = split_channels(tags, channel_map)
    if cutoff is None:
        counts = {role: len(times[role]) for role in _ROLES}
    else:
        counts = {role: int(np.searchsorted(times[role], cutoff, side="right"))
                  for role in _ROLES}
    n_mcp = counts["mcp"]
    ranges = threads if n_mcp >= 2 * threads else 1
    bounds = np.linspace(0, n_mcp, ranges + 1).astype(int)

    def match(k):
        events, diag = _match_events(times, cfg, bounds[k], bounds[k + 1], prev_sync)
        coinc, cdiag = _match_coincidences(times, events, cfg)
        return events, coinc, _merge_diag(diag, cdiag)

    with ThreadPoolExecutor(max_workers=ranges) as pool:
        parts = list(pool.map(match, range(ranges)))
    diag = functools.reduce(_merge_diag, (p[2] for p in parts))
    diag["tag_counts"] = counts
    return (times, _concat_columns([p[0] for p in parts]),
            _concat_columns([p[1] for p in parts]), diag)


def build(tags: TagColumns, channel_map: ChannelMap, cfg: EventBuildConfig, threads=1):
    """One-shot build of events, coincidences, histograms and diagnostics.

    With threads > 1 the MCP triggers are partitioned into contiguous ranges
    processed concurrently; results are identical to the single-threaded
    pass by construction.
    """
    _, events, coinc, diag = _build_step(tags, channel_map, cfg, threads=max(1, threads))
    hists = accumulate_histograms(coinc, events, cfg)
    diag["jsi_out_of_range"] = hists["jsi"].out_of_range
    return BuildResult(events, coinc, hists, diag)


def fold_stream_blocks(blocks, channel_map: ChannelMap, cfg: EventBuildConfig):
    """Bounded-memory build over an iterator of TagColumns blocks.

    Keeps only a lookahead-sized tail between blocks; histogram and
    diagnostic output is identical to a whole-stream build for any block
    partition. Event and coincidence columns are not retained.
    """
    lookahead = cfg.lookahead_ticks()
    hists = new_histograms(cfg)
    diag = _fresh_diag()
    carry = TagColumns.empty()
    prev_sync = None

    def fold(tags, cutoff):
        nonlocal diag, prev_sync
        times, events, coinc, d = _build_step(tags, channel_map, cfg, cutoff=cutoff,
                                              prev_sync=prev_sync)
        accumulate_histograms(coinc, events, cfg, into=hists)
        diag = _merge_diag(diag, d)
        # MCP triggers <= cutoff are done; future triggers only need tags
        # strictly after the cutoff plus the scalar last-sync memory.
        n_sync = d["tag_counts"]["sync"]
        if n_sync:
            prev_sync = int(times["sync"][n_sync - 1])
        rest = tags[int(np.searchsorted(tags.timestamp, cutoff, side="right")):]
        # copied, so that the carry does not keep the whole block alive
        return TagColumns(rest.channel.copy(), rest.timestamp.copy())

    for block in blocks:
        if len(block) == 0:
            continue
        current = block if len(carry) == 0 else TagColumns.concatenate([carry, block])
        cutoff = int(current.timestamp[-1]) - lookahead
        if cutoff <= int(current.timestamp[0]):
            carry = current
            continue
        carry = fold(current, cutoff)

    if len(carry):
        fold(carry, int(carry.timestamp[-1]))
    diag["jsi_out_of_range"] = hists["jsi"].out_of_range
    return BuildResult(None, None, hists, diag)
