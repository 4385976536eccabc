"""Streaming event builder: turns a sorted time-tag stream into anode events,
signal-idler coincidences, 1-D spectra, the static joint spectrum, and
time-resolved joint-spectrum slices.

Every anode event is a pure function of the tags inside its lookahead window
and the latest preceding sync tag. One build loop (`_fold`) runs a block
stream as self-contained steps in stream order, on the calling thread or a
thread pool, with bitwise identical results for any block partition and
thread count.
"""

import functools
import os
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .histograms import BinSpec, Histogram1D, Histogram2D
from .tagstream import ChannelMap, TagColumns

_ROLES = tuple(f.name for f in fields(ChannelMap))

#: tags in (lo, hi] of one build step. Measured on a sync-heavy and a
#: dense stream at 1 to 8 threads: 2**18 held 4-33 MB more with 2 or more
#: threads and was no faster at 1; 2**16 was 15-28% slower at 4 and 8
#: (README, "Step budget")
_STEP_BUDGET = 1 << 17

#: most entries of an EventBuildConfig's fold table (8 MB)
_FOLD_TABLE_MAX = 1 << 20


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
        # a build step holds no tags before its triggers
        if self.gate_center_ticks < self.gate_half_width_ticks:
            raise ValueError("idler gate opens before the MCP trigger (center < half width)")
        if self.sync_period_ticks < 0:
            raise ValueError("sync_period_ticks must not be negative")
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

    @functools.cached_property
    def fold_table(self):
        """Folded sync offsets 0 .. sync_period_ticks (at most
        `_FOLD_TABLE_MAX` of them) for `fold_offset_values`, or None
        without folding."""
        if self.fold_period_ps is None:
            return None
        size = min(self.sync_period_ticks, _FOLD_TABLE_MAX - 1) + 1
        return _fold_by_formula(np.arange(size), self)

    def lookahead_ticks(self):
        return max(self.dld_window_ticks, self.gate_center_ticks + self.gate_half_width_ticks
                   + self.sync_period_ticks) + 1


@dataclass
class DldEvents:
    """Column arrays, one entry per assembled anode event (MCP order)."""

    t_mcp: np.ndarray
    dt_x: np.ndarray
    sync_offset: np.ndarray
    has_sync: np.ndarray

    def __len__(self):
        return len(self.t_mcp)


@dataclass
class Coincidences(DldEvents):
    """Column arrays, one entry per gated signal-idler pair: its event's columns and tau."""

    tau: np.ndarray


@dataclass
class BuildResult:
    coincidences: Coincidences | None
    histograms: dict
    diagnostics: dict


def split_channels(tags: TagColumns, channel_map: ChannelMap):
    """Per-role sorted int64 timestamp arrays. Sync markers are most of a
    typical stream, so they are split off first and only the rest is
    demuxed by role. np.compress measures up to 3x faster than boolean
    indexing on these masks, and faster than one stable sort by channel."""
    t, ch = tags.timestamp, tags.channel
    is_sync = ch == channel_map.sync
    times = {"sync": np.compress(is_sync, t)}
    rest = ~is_sync
    t_rest, ch_rest = np.compress(rest, t), np.compress(rest, ch)
    for role in _ROLES:
        if role != "sync":
            times[role] = np.compress(ch_rest == getattr(channel_map, role), t_rest)
    return times


def _count_hits(arr, lo, end, exact):
    """Per window, how many entries of sorted `arr` from index `lo` on are
    at most `end`, found by testing arr[lo] and arr[lo + 1] against `end`.
    With exact=False the count stops at 2, which tells the wire windows
    apart: no tag, one tag, more than one. With exact=True the windows that
    hold both are closed by one binary search over those windows only."""
    if not len(arr):
        return np.zeros(len(lo), dtype=np.int64)
    last = len(arr) - 1

    def hit(at, end):
        return (at <= last) & (arr.take(at, mode="clip") <= end)

    second = hit(lo + 1, end)
    n = hit(lo, end) + second.astype(np.int64)
    if exact:
        open_ = np.flatnonzero(second)
        n[open_] = np.searchsorted(arr, end[open_], side="right") - lo[open_]
    return n


def _match_events(times, cfg: EventBuildConfig, mcp_lo, mcp_hi, diag):
    """Assemble events for the MCP triggers in [mcp_lo, mcp_hi), writing
    their counts into the step's diagnostics `diag`. An event's sync tag is
    the last in `times["sync"]` at or before its trigger.

    For each trigger, X1/X2 tags are searched in (t_mcp, t_mcp + window];
    an event is emitted iff exactly one candidate exists on each wire and
    the decoded difference is inside the guard band. The Y wires are not
    read: no result uses the second anode axis.
    """
    mcp = times["mcp"][mcp_lo:mcp_hi]
    diag["mcp_triggers"] = len(mcp)
    window_end = mcp + cfg.dld_window_ticks

    def first_and_count(role):
        # 0, 1 or 2 (more than one) wire tags in each trigger's window
        arr = times[role]
        lo = np.searchsorted(arr, mcp, side="right")
        return lo, _count_hits(arr, lo, window_end, exact=False)

    lo1, n1 = first_and_count("dld_x1")
    lo2, n2 = first_and_count("dld_x2")
    good = (n1 == 1) & (n2 == 1)
    diag["no_x1"], _, diag["multi_x1"] = np.bincount(n1, minlength=3).tolist()
    diag["no_x2"], _, diag["multi_x2"] = np.bincount(n2, minlength=3).tolist()

    keep = np.flatnonzero(good)
    dt_x = times["dld_x1"][lo1[keep]] - times["dld_x2"][lo2[keep]]
    del lo1, n1, lo2, n2, good, window_end  # a step's largest arrays
    in_guard = np.abs(dt_x) <= cfg.t_a_ticks + cfg.dt_guard_ticks
    diag["out_of_guard"] = int((~in_guard).sum())
    t_mcp = mcp[keep[in_guard]]
    dt_x = dt_x[in_guard]
    del keep

    sync = times["sync"]
    si = np.searchsorted(sync, t_mcp, side="right") - 1
    has_sync = si >= 0
    sync_offset = np.zeros(len(t_mcp), dtype=np.int64)
    sync_offset[has_sync] = t_mcp[has_sync] - sync[si[has_sync]]
    diag["syncless_events"] = int((~has_sync).sum())
    diag["events"] = len(t_mcp)
    return DldEvents(t_mcp, dt_x, sync_offset, has_sync)


def _expand_gate(snspd, starts, counts):
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    owner = np.repeat(np.arange(len(counts)), counts)
    prefix = np.concatenate(([0], np.cumsum(counts)))[:-1]
    within = np.arange(total) - np.repeat(prefix, counts)
    return owner, snspd[np.repeat(starts, counts) + within]


def _match_coincidences(times, events: DldEvents, cfg: EventBuildConfig, diag):
    """Pair each event with every SNSPD tag inside the idler gate, writing
    the counts into `diag`. Multi-hit gates yield one coincidence per hit
    (accidentals, tallied separately)."""
    snspd = times["snspd"]
    gate_lo = events.t_mcp + cfg.gate_center_ticks - cfg.gate_half_width_ticks
    gate_hi = events.t_mcp + cfg.gate_center_ticks + cfg.gate_half_width_ticks
    disp = cfg.sync_period_ticks
    dlo = np.searchsorted(snspd, gate_lo + disp, side="left")
    diag["displaced_gate_hits"] = int(_count_hits(snspd, dlo, gate_hi + disp, exact=True).sum())
    del dlo

    lo = np.searchsorted(snspd, gate_lo, side="left")
    counts = _count_hits(snspd, lo, gate_hi, exact=True)
    del gate_lo, gate_hi    # not held beside the coincidence columns
    owner, sn_t = _expand_gate(snspd, lo, counts)
    diag["multi_hit_gates"] = int((counts > 1).sum())
    diag["extra_gate_hits"] = int(np.clip(counts - 1, 0, None).sum())
    del lo, counts
    tau = sn_t - events.t_mcp[owner]
    del sn_t
    coinc = Coincidences(events.t_mcp[owner], events.dt_x[owner],
                         events.sync_offset[owner], events.has_sync[owner], tau)
    diag["coincidences"] = len(coinc)
    return coinc


def _fold_by_formula(offsets, cfg: EventBuildConfig):
    phase_ps = np.mod(offsets.astype(np.float64) * cfg.tick_ps, cfg.fold_period_ps)
    return np.floor(phase_ps / cfg.tick_ps).astype(np.int64)


def fold_offset_values(sync_offset_ticks, cfg: EventBuildConfig):
    """Sync offsets mapped to histogram tick indices, folding the offset
    into one laser period when folding is enabled. Offsets within one sync
    period are looked up in `cfg.fold_table`; the rest are folded by the
    same float expression that made the table."""
    offsets = np.asarray(sync_offset_ticks, dtype=np.int64)
    if cfg.fold_period_ps is None:
        return offsets
    table = cfg.fold_table
    values = table.take(offsets, mode="clip")
    # a negative offset is a huge unsigned one, so one test finds both ends
    beyond = np.flatnonzero(offsets.view(np.uint64) >= len(table))
    if len(beyond):
        values[beyond] = _fold_by_formula(offsets[beyond], cfg)
    return values


def new_histograms(cfg: EventBuildConfig):
    return {
        "irf": Histogram1D(cfg.irf_spec),
        "signal_spectrum": Histogram1D(cfg.signal_spec),
        "idler_spectrum": Histogram1D(cfg.idler_spec),
        "jsi": Histogram2D(cfg.jsi_x_spec, cfg.jsi_y_spec),
    }


def accumulate_histograms(coincidences: Coincidences, events: DldEvents,
                          cfg: EventBuildConfig):
    """One step's `new_histograms` set: the instrument-response histogram
    counts every anode event with a sync reference, the idler spectrum and
    joint spectrum the coincidences."""
    hists = new_histograms(cfg)
    hists["irf"].add(fold_offset_values(events.sync_offset[events.has_sync], cfg))
    hists["signal_spectrum"].add(events.dt_x)
    hists["idler_spectrum"].add(coincidences.tau)
    hists["jsi"].add(coincidences.dt_x, coincidences.tau)
    return hists


def slice_time_resolved(coincidences: Coincidences, cfg: EventBuildConfig,
                        window_width_ticks, window_origin_ticks, n_windows):
    """Partition coincidences into contiguous sync-offset windows; returns
    (frames, out_of_window), one Histogram2D per window and one for the rest,
    all counted by one `bincount` over (frame, cell) slots.

    Every coincidence lands in exactly one frame or in out_of_window
    (including sync-less ones), so per-cell counts across frames plus
    out_of_window reproduce the static joint spectrum exactly.
    """
    width = int(window_width_ticks)
    if width < 1:
        raise ValueError("window width must be at least 1 tick")
    n_windows = int(n_windows)
    if n_windows < 1:
        raise ValueError("need at least one window")

    frame = (fold_offset_values(coincidences.sync_offset, cfg) - int(window_origin_ticks)) // width
    # frames 0 .. n_windows - 1, then the out-of-window slot
    frame = np.where(coincidences.has_sync & (frame.view(np.uint64) < n_windows),
                     frame, n_windows)
    hists = [Histogram2D(cfg.jsi_x_spec, cfg.jsi_y_spec) for _ in range(n_windows + 1)]
    slots = hists[0].counts.size + 1    # each frame's cells and out-of-range slot
    cells = hists[0].cells(coincidences.dt_x, coincidences.tau)
    counts = np.bincount(frame * slots + cells, minlength=len(hists) * slots)
    for hist, n in zip(hists, counts.reshape(len(hists), slots)):
        hist.add_cell_counts(n)
    return hists[:-1], hists[-1]


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


def _join_columns(parts):
    """Join column dataclasses of one class field by field, taking each
    field out of the parts as it is joined, so that at most one field is
    held twice."""
    cls = type(parts[0])
    return cls(**{f.name: np.concatenate([vars(p).pop(f.name) for p in parts])
                  for f in fields(cls)})


def _build_step(channel_map: ChannelMap, cfg: EventBuildConfig, tags: TagColumns, lo, hi,
                sync_before):
    """Demux one step's tags, match the events of the MCP triggers in
    (lo, hi] and their coincidences, and count them into the step's own
    `new_histograms` set. `tags` must hold every tag in (lo, hi + lookahead);
    `sync_before`, the last sync tag at or before `lo` (or None), leads the
    sync column once `tag_counts` counts the tags in (lo, hi]. Returns
    (histograms, diagnostics, coincidences); no anode event leaves the step."""
    times = split_channels(tags, channel_map)
    bounds = {role: np.searchsorted(times[role], (lo, hi), side="right") for role in _ROLES}
    diag = {"tag_counts": {role: int(b - a) for role, (a, b) in bounds.items()}}
    if sync_before is not None:
        times["sync"] = np.insert(times["sync"], 0, sync_before)
    events = _match_events(times, cfg, *bounds["mcp"], diag)
    coinc = _match_coincidences(times, events, cfg, diag)
    return accumulate_histograms(coinc, events, cfg), diag, coinc


def _steps(blocks, sync_channel, lookahead):
    """Cut an iterator of TagColumns blocks into self-contained steps
    (tags, lo, hi, sync_before): every tag in (lo, hi + lookahead), at most
    `_STEP_BUDGET` of them in (lo, hi] unless one tick holds more, and the
    time of the last sync tag at or before `lo` (or None), taken from each
    step's tags in (lo, hi] once the step is handed out. A step is a view
    of its block, or of the carry: a copy of the tags after a block's last
    cutoff, joined to the next block's head up to their last tag plus the
    lookahead. Only the steps cut from the carry span a block boundary, and
    no block is held once its steps are handed out, so the next one is read
    beside the carry only. The last cutoff is the last tag; an empty stream
    is one empty step."""
    lo = np.iinfo(np.int64).min
    sync_before = None
    carry = TagColumns.empty()          # a copy of the tags after lo

    def cut(tags, limit):
        # steps of `tags`, which holds every tag after lo before
        # limit + lookahead, with cutoffs up to `limit`
        nonlocal lo, sync_before
        ts = tags.timestamp
        pos = int(np.searchsorted(ts, lo, side="right"))
        while lo < limit:
            hi = min(int(ts[min(pos + _STEP_BUDGET, len(ts)) - 1]), limit)
            end = int(np.searchsorted(ts, hi + lookahead, side="left"))
            yield tags[pos:end], lo, hi, sync_before
            stop = int(np.searchsorted(ts, hi, side="right"))
            is_sync = tags.channel[pos:stop] == sync_channel
            if is_sync.any():
                sync_before = int(ts[stop - 1 - is_sync[::-1].argmax()])
            lo, pos = hi, stop

    def take(block):
        # the steps that the non-empty `block` completes; leaves the tags
        # after the last cutoff in the carry
        nonlocal carry
        ts = block.timestamp
        if len(carry):
            hi = int(carry.timestamp[-1])
            end = np.searchsorted(ts, hi + lookahead, side="left")
            carry = TagColumns.concatenate([carry, block[:end]])
            if end == len(ts):      # the block ends inside the carry's lookahead
                return
            yield from cut(carry, hi)
        yield from cut(block, int(ts[-1]) - lookahead)
        carry = block[np.searchsorted(ts, lo, side="right"):].copy()

    for block in blocks:
        if len(block):
            yield from take(block)
        del block   # not held while the next block is read
    if len(carry):
        yield from cut(carry, int(carry.timestamp[-1]))
    else:
        yield carry, lo, lo, sync_before


def _fold(blocks, channel_map: ChannelMap, cfg: EventBuildConfig, threads, keep=None):
    """The one build loop: cut the block stream into steps, run each, and
    add its histograms and diagnostics into the run's, and its coincidences
    to `keep` (if given), as it finishes. One thread runs the steps as views
    and drops each before the next is cut; a pool runs at most threads + 1,
    each on its own copy of its tags, so that no step holds a block and
    memory grows with one block, the thread count and the step budget, not
    with the stream. Returns a BuildResult without columns."""
    hists, diag, tag_counts = new_histograms(cfg), Counter(), Counter()

    def add(step_hists, step_diag, coinc):
        for name in hists:
            hists[name] += step_hists[name]
        tag_counts.update(step_diag.pop("tag_counts"))
        diag.update(step_diag)
        if keep is not None:
            keep(coinc)

    steps = _steps(blocks, channel_map.sync, cfg.lookahead_ticks())
    run = functools.partial(_build_step, channel_map, cfg)
    if threads <= 1:
        for step in steps:
            add(*run(*step))
            del step
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            in_flight = deque()
            for tags, lo, hi, sync_before in steps:
                in_flight.append(pool.submit(run, tags.copy(), lo, hi, sync_before))
                del tags
                if len(in_flight) > threads:
                    add(*in_flight.popleft().result())
            while in_flight:
                add(*in_flight.popleft().result())
    return BuildResult(None, hists, {**diag, "tag_counts": dict(tag_counts),
                                     "jsi_out_of_range": hists["jsi"].out_of_range})


def build(tags: TagColumns, channel_map: ChannelMap, cfg: EventBuildConfig):
    """One-shot build of coincidences, histograms and diagnostics: the fold
    of `tags` as one block on the calling thread, keeping the coincidence
    columns (the anode events go into the histograms only)."""
    kept = []
    result = _fold([tags], channel_map, cfg, 1, kept.append)
    result.coincidences = _join_columns(kept)
    return result


def fold_stream_blocks(blocks, channel_map: ChannelMap, cfg: EventBuildConfig, threads=None):
    """Bounded-memory build over an iterator of TagColumns blocks: the
    fold on `threads` workers (None: every CPU this process may use).
    Histograms and diagnostics are identical to `build` for any block
    partition and thread count; coincidence columns are not retained."""
    if threads is None:
        threads = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                   else os.cpu_count() or 1)
    return _fold(blocks, channel_map, cfg, threads)
