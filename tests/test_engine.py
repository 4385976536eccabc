import dataclasses
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import engine
from biphoton.histograms import BinSpec
from biphoton.tagstream import ChannelMap, TagColumns

CMAP = ChannelMap()

#: the diagnostics of a build that saw no tag
ZERO_DIAGNOSTICS = {
    "mcp_triggers": 0, "events": 0, "no_x1": 0, "multi_x1": 0, "no_x2": 0, "multi_x2": 0,
    "out_of_guard": 0, "syncless_events": 0, "coincidences": 0, "multi_hit_gates": 0,
    "extra_gate_hits": 0, "displaced_gate_hits": 0,
    "tag_counts": {"mcp": 0, "dld_x1": 0, "dld_x2": 0, "dld_y1": 0, "dld_y2": 0, "snspd": 0,
                   "sync": 0},
}


def tags_from(rows):
    """rows: iterable of (channel_role_or_id, timestamp)."""
    out = TagColumns([getattr(CMAP, ch) if isinstance(ch, str) else ch for ch, _ in rows],
                     [t for _, t in rows])
    return out[np.lexsort((out.channel, out.timestamp))]


def build_events(tags, cfg, cmap=CMAP, threads=1):
    """The anode events of a whole-array build and its diagnostics. No
    event leaves a build step, so each step's events are taken from
    engine._match_events; the non-empty parts are joined in stream order
    (pool steps finish in any order)."""
    parts = []
    match_events = engine._match_events

    def wrapped(*args):
        events = match_events(*args)
        parts.append(events)
        return events

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_match_events", wrapped)
        diagnostics = engine.fold_stream_blocks([tags], cmap, cfg, threads=threads).diagnostics
    ordered = sorted((p for p in parts if len(p)), key=lambda p: p.t_mcp[0]) or parts[:1]
    return engine._join_columns(ordered), diagnostics


def small_cfg(**kw):
    defaults = dict(t_a_ticks=40, dt_guard_ticks=4, gate_center_ticks=1000,
                    gate_half_width_ticks=50, fold_period_ps=None,
                    sync_period_ticks=5000, tick_ps=25,
                    jsi_x_spec=BinSpec(-48, 2, 48), jsi_y_spec=BinSpec(952, 2, 48))
    defaults.update(kw)
    return engine.EventBuildConfig(**defaults)


def brute_force_events(tags, cfg):
    """O(n^2) oracle: per-MCP window scan with the same acceptance rules."""
    pairs = [(int(c), int(t)) for c, t in zip(tags.channel, tags.timestamp)]
    by = lambda role: sorted(t for c, t in pairs if c == getattr(CMAP, role))
    events = []
    for t0 in by("mcp"):
        w = cfg.dld_window_ticks
        x1 = [t for t in by("dld_x1") if t0 < t <= t0 + w]
        x2 = [t for t in by("dld_x2") if t0 < t <= t0 + w]
        if len(x1) != 1 or len(x2) != 1:
            continue
        dt = x1[0] - x2[0]
        if abs(dt) > cfg.t_a_ticks + cfg.dt_guard_ticks:
            continue
        syncs = [t for t in by("sync") if t <= t0]
        events.append((t0, dt, syncs[-1] if syncs else None))
    return events


class TestBuildDldEvents:
    def test_direct_construction(self):
        cfg = small_cfg()
        tags = tags_from([("mcp", 1000), ("dld_x1", 1010), ("dld_x2", 1030),
                          ("sync", 900)])
        events, diag = build_events(tags, cfg)
        assert len(events) == 1
        assert events.dt_x[0] == -20
        assert events.sync_offset[0] == 100
        assert diag["events"] == 1

    def test_two_x1_candidates_rejected(self):
        cfg = small_cfg()
        tags = tags_from([("mcp", 1000), ("dld_x1", 1010), ("dld_x1", 1020),
                          ("dld_x2", 1030)])
        events, diag = build_events(tags, cfg)
        assert len(events) == 0
        assert diag["multi_x1"] == 1

    def test_trigger_counted_under_its_first_cause(self):
        # no wire tag: no_x1 only; two X1 tags and no X2 tag: multi_x1 only
        tags = tags_from([("mcp", 1000), ("mcp", 2000), ("dld_x1", 2010), ("dld_x1", 2020)])
        _, diag = build_events(tags, small_cfg())
        assert [diag[c] for c in ("no_x1", "multi_x1", "no_x2", "multi_x2")] == [1, 1, 0, 0]

    def test_out_of_guard_dropped(self):
        cfg = small_cfg()
        # dt = +46 > t_a + guard = 44
        tags = tags_from([("mcp", 1000), ("dld_x1", 1096), ("dld_x2", 1050)])
        events, diag = build_events(tags, cfg)
        assert len(events) == 0
        assert diag["out_of_guard"] == 1

    def test_window_boundaries(self):
        cfg = small_cfg()
        w = cfg.dld_window_ticks
        # X1 exactly at t_mcp is outside (window is left-open)
        tags = tags_from([("mcp", 1000), ("dld_x1", 1000), ("dld_x2", 1010)])
        events, _ = build_events(tags, cfg)
        assert len(events) == 0
        # X1 exactly at t_mcp + w is inside
        tags = tags_from([("mcp", 1000), ("dld_x1", 1000 + w), ("dld_x2", 1000 + w - 20)])
        events, _ = build_events(tags, cfg)
        assert len(events) == 1

    def test_y_channels_optional(self):
        cfg = small_cfg()
        tags = tags_from([("mcp", 1000), ("dld_x1", 1010), ("dld_x2", 1030),
                          ("dld_y1", 1012), ("dld_y2", 1024)])
        events, diag = build_events(tags, cfg)
        assert len(events) == 1
        # counted as tags, but no Y spectrum is built from them
        assert diag["tag_counts"]["dld_y1"] == diag["tag_counts"]["dld_y2"] == 1
        assert "dld_y_spectrum" not in engine.build(tags, CMAP, cfg).histograms

    def test_matches_brute_force_oracle(self):
        rng = np.random.Generator(np.random.Philox(key=17))
        cfg = small_cfg()
        rows = []
        t = 1000
        for _ in range(400):
            t += int(rng.integers(50, 2000))
            kind = rng.random()
            if kind < 0.55:  # planted triple
                rows.append(("mcp", t))
                rows.append(("dld_x1", t + int(rng.integers(1, 80))))
                rows.append(("dld_x2", t + int(rng.integers(1, 80))))
            elif kind < 0.8:  # distractors on random channels
                for _ in range(int(rng.integers(1, 4))):
                    rows.append((int(rng.integers(0, 5)), t + int(rng.integers(0, 300))))
            else:
                rows.append(("sync", t))
        tags = tags_from(rows)
        events, _ = build_events(tags, cfg)
        oracle = brute_force_events(tags, cfg)
        assert len(events) == len(oracle)
        for k, (t0, dt, sync) in enumerate(oracle):
            assert events.t_mcp[k] == t0
            assert events.dt_x[k] == dt
            if sync is None:
                assert not events.has_sync[k]
            else:
                assert events.has_sync[k]
                assert events.sync_offset[k] == t0 - sync

    def test_monotone_in_appended_tags(self):
        rng = np.random.Generator(np.random.Philox(key=23))
        cfg = small_cfg()
        rows = [("sync", 10)]
        t = 100
        for _ in range(60):
            t += int(rng.integers(100, 900))
            rows += [("mcp", t), ("dld_x1", t + 9), ("dld_x2", t + 21)]
        tags = tags_from(rows)
        base_events, _ = build_events(tags, cfg)
        extra = tags_from([("mcp", t + cfg.dld_window_ticks + 10),
                           ("dld_x1", t + cfg.dld_window_ticks + 15)])
        grown, _ = build_events(TagColumns.concatenate([tags, extra]), cfg)
        n = len(base_events)
        assert np.array_equal(grown.t_mcp[:n], base_events.t_mcp)
        assert np.array_equal(grown.dt_x[:n], base_events.dt_x)


class TestBuildCoincidences:
    def test_exact_gate_center(self):
        cfg = small_cfg()
        tags = tags_from([("mcp", 100), ("dld_x1", 110), ("dld_x2", 130),
                          ("snspd", 1100)])
        result = engine.build(tags, CMAP, cfg)
        coinc, diag = result.coincidences, result.diagnostics
        assert len(coinc) == 1
        assert coinc.tau[0] == cfg.gate_center_ticks
        assert diag["coincidences"] == 1

    def test_gate_boundaries(self):
        cfg = small_cfg()
        lo = cfg.gate_center_ticks - cfg.gate_half_width_ticks
        hi = cfg.gate_center_ticks + cfg.gate_half_width_ticks
        for tau, expected in ((lo - 1, 0), (lo, 1), (hi, 1), (hi + 1, 0)):
            tags = tags_from([("mcp", 100), ("dld_x1", 110), ("dld_x2", 130),
                              ("snspd", 100 + tau)])
            coinc = engine.build(tags, CMAP, cfg).coincidences
            assert len(coinc) == expected, f"tau {tau}"

    def test_multi_hit_gate_counts_accidentals(self):
        cfg = small_cfg()
        tags = tags_from([("mcp", 100), ("dld_x1", 110), ("dld_x2", 130),
                          ("snspd", 1090), ("snspd", 1105)])
        result = engine.build(tags, CMAP, cfg)
        coinc, diag = result.coincidences, result.diagnostics
        assert len(coinc) == 2
        assert diag["multi_hit_gates"] == 1
        assert diag["extra_gate_hits"] == 1


def synthetic_stream(n_triples=3000, seed=31, with_snspd=True):
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = []
    t = 0
    for _ in range(n_triples):
        t += int(rng.integers(400, 3000))
        if rng.random() < 0.08:
            rows.append(("sync", t - int(rng.integers(1, 300))))
        rows.append(("mcp", t))
        rows.append(("dld_x1", t + int(rng.integers(1, 80))))
        rows.append(("dld_x2", t + int(rng.integers(1, 80))))
        if with_snspd and rng.random() < 0.6:
            rows.append(("snspd", t + 1000 + int(rng.integers(-60, 60))))
    return tags_from(rows)


class TestHistogramsAndConservation:
    def test_zero_coincidences_zero_histograms(self):
        cfg = small_cfg()
        result = engine.build(tags_from([("sync", 5)]), CMAP, cfg)
        for h in result.histograms.values():
            assert int(h.counts.sum()) == 0

    def test_jsi_total_equals_in_range_coincidences(self):
        cfg = small_cfg()
        tags = synthetic_stream()
        result = engine.build(tags, CMAP, cfg)
        jsi = result.histograms["jsi"]
        assert jsi.total_in_range + jsi.out_of_range == len(result.coincidences)


class TestSliceTimeResolved:
    def test_single_wide_window_equals_static(self):
        cfg = small_cfg()
        result = engine.build(synthetic_stream(), CMAP, cfg)
        static = result.histograms["jsi"]
        (frame,), out_of_window = engine.slice_time_resolved(result.coincidences, cfg,
                                                              window_width_ticks=10**7,
                                                              window_origin_ticks=0,
                                                              n_windows=1)
        # sync-less coincidences fall outside any frame by definition
        synced = result.coincidences.has_sync
        assert frame.total_in_range + out_of_window.total_in_range == static.total_in_range
        assert int(out_of_window.counts.sum()) == \
            int(static.counts.sum()) - int(frame.counts.sum())
        if synced.all():
            assert np.array_equal(frame.counts, static.counts)

    def test_per_cell_conservation_exact(self):
        cfg = small_cfg()
        result = engine.build(synthetic_stream(), CMAP, cfg)
        static = result.histograms["jsi"]
        for width in (1, 6, 16):
            frames, out_of_window = engine.slice_time_resolved(result.coincidences, cfg,
                                                               width, 40, n_windows=7)
            total = out_of_window.counts.copy()
            for frame in frames:
                total += frame.counts
            assert np.array_equal(total, static.counts), f"width {width}"

    def test_invalid_window(self):
        cfg = small_cfg()
        result = engine.build(synthetic_stream(n_triples=50), CMAP, cfg)
        with pytest.raises(ValueError):
            engine.slice_time_resolved(result.coincidences, cfg, 0, 0, 5)

    def test_no_window_rejected(self):
        cfg = small_cfg()
        result = engine.build(synthetic_stream(n_triples=50), CMAP, cfg)
        with pytest.raises(ValueError, match="need at least one window"):
            engine.slice_time_resolved(result.coincidences, cfg, 10, 0, 0)


    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(-12, 12), st.integers(8, 34),
                                   st.integers(0, 200), st.booleans()), max_size=60),
           fold_period_ps=st.sampled_from([None, 250.0]), width=st.integers(1, 12),
           origin=st.integers(-20, 40), n_windows=st.integers(1, 6))
    def test_each_coincidence_in_its_frame(self, rows, fold_period_ps, width, origin,
                                           n_windows):
        # rows: (dt_x, tau, sync offset, has sync) per coincidence
        cfg = tiny_cfg(fold_period_ps)
        dt_x, tau, offset, has_sync = (np.array([row[i] for row in rows], dtype=dtype)
                                       for i, dtype in enumerate((np.int64,) * 3 + (bool,)))
        coinc = engine.Coincidences(np.zeros(len(rows), np.int64), dt_x, offset, has_sync, tau)
        frames, out_of_window = engine.slice_time_resolved(coinc, cfg, width, origin,
                                                           n_windows)

        xs, ys = cfg.jsi_x_spec, cfg.jsi_y_spec
        counts = np.zeros((n_windows + 1, xs.count, ys.count), dtype=np.uint64)
        out_of_range = [0] * (n_windows + 1)
        for x, y, off, synced in rows:
            k = (int(engine.fold_offset_values([off], cfg)[0]) - origin) // width
            slot = k if synced and 0 <= k < n_windows else n_windows
            ix, iy = (x - xs.start) // xs.width, (y - ys.start) // ys.width
            if 0 <= ix < xs.count and 0 <= iy < ys.count:
                counts[slot, ix, iy] += 1
            else:
                out_of_range[slot] += 1
        for slot, hist in enumerate([*frames, out_of_window]):
            assert np.array_equal(hist.counts, counts[slot]), slot
            assert hist.out_of_range == out_of_range[slot], slot


class TestChunkingAndThreads:
    def test_fold_blocks_matches_single_pass(self):
        cfg = small_cfg()
        tags = synthetic_stream(n_triples=4000, seed=41)
        whole = engine.build(tags, CMAP, cfg)
        assert whole.diagnostics["tag_counts"] == {
            role: int((tags.channel == getattr(CMAP, role)).sum()) for role in engine._ROLES}
        for block_size in (len(tags), 4096, 997, 64):
            blocks = [tags[i:i + block_size] for i in range(0, len(tags), block_size)]
            folded = engine.fold_stream_blocks(blocks, CMAP, cfg)
            for name in whole.histograms:
                assert np.array_equal(folded.histograms[name].counts,
                                      whole.histograms[name].counts), (name, block_size)
            for key in ("events", "coincidences", "mcp_triggers", "displaced_gate_hits"):
                assert folded.diagnostics[key] == whole.diagnostics[key], (key, block_size)
            assert folded.diagnostics["tag_counts"] == whole.diagnostics["tag_counts"]

    def test_threads_produce_identical_results(self):
        cfg = small_cfg()
        tags = synthetic_stream(n_triples=5000, seed=53)
        single = engine.build(tags, CMAP, cfg)
        single_events, _ = build_events(tags, cfg, threads=1)
        for threads in (2, 4, 8):
            multi = engine.fold_stream_blocks([tags], CMAP, cfg, threads=threads)
            multi_events, _ = build_events(tags, cfg, threads=threads)
            assert np.array_equal(single_events.t_mcp, multi_events.t_mcp)
            assert np.array_equal(single_events.dt_x, multi_events.dt_x)
            for name in single.histograms:
                assert np.array_equal(single.histograms[name].counts,
                                      multi.histograms[name].counts)
            assert single.diagnostics == multi.diagnostics

    def test_pool_steps_fill_their_histograms_on_workers(self, monkeypatch):
        # the fold only adds: each step is counted on the worker that built
        # it and hands out counts and coincidences, no events
        cfg = small_cfg()
        tags = synthetic_stream(n_triples=2000, seed=61)
        steps = []
        build_step = engine._build_step

        def wrapped(*args):
            result = build_step(*args)
            steps.append((threading.current_thread(), [type(part) for part in result]))
            return result

        monkeypatch.setattr(engine, "_build_step", wrapped)
        monkeypatch.setattr(engine, "_STEP_BUDGET", 256)
        folded = engine.fold_stream_blocks([tags], CMAP, cfg, threads=2)
        assert folded.diagnostics["coincidences"] > 0
        assert len(steps) > 2
        for thread, types in steps:
            assert thread is not threading.current_thread()
            assert types == [dict, dict, engine.Coincidences]

    def test_no_step_outlives_its_addition(self, monkeypatch):
        # each step's histograms and coincidences are added as it finishes
        # and dropped before the next step starts
        cfg = small_cfg()
        tags = synthetic_stream(n_triples=2000, seed=61)
        refs, alive = [], []
        build_step = engine._build_step

        def wrapped(*args):
            alive.append([ref() is not None for ref in refs])
            step_hists, diag, coinc = build_step(*args)
            refs.extend((weakref.ref(coinc), weakref.ref(step_hists["jsi"])))
            return step_hists, diag, coinc

        monkeypatch.setattr(engine, "_build_step", wrapped)
        monkeypatch.setattr(engine, "_STEP_BUDGET", 256)
        folded = engine.fold_stream_blocks([tags], CMAP, cfg, threads=1)
        assert folded.diagnostics["coincidences"] > 0
        assert len(alive) > 2
        assert not any(any(step) for step in alive), alive


def tiny_cfg(fold_period_ps):
    """Lookahead of 56 ticks, so that streams of a few hundred ticks span
    many steps."""
    return small_cfg(t_a_ticks=4, dt_guard_ticks=2, gate_center_ticks=20,
                     gate_half_width_ticks=5, sync_period_ticks=30,
                     fold_period_ps=fold_period_ps,
                     jsi_x_spec=BinSpec(-8, 1, 16), jsi_y_spec=BinSpec(14, 2, 7))


@st.composite
def random_streams(draw):
    """Sorted streams of planted MCP/X1/X2/SNSPD groups plus noise on every
    channel (sync included), some of them empty."""
    noise = draw(st.lists(st.tuples(st.sampled_from(engine._ROLES), st.integers(0, 700)),
                          max_size=80))
    planted = draw(st.lists(st.tuples(st.integers(0, 700), st.integers(1, 12),
                                      st.integers(1, 12), st.integers(12, 30)), max_size=30))
    rows = list(noise)
    for t, x1, x2, tau in planted:
        rows += [("mcp", t), ("dld_x1", t + x1), ("dld_x2", t + x2), ("snspd", t + tau)]
    return tags_from(rows)


def brute_force_coincidences(tags, cfg, events):
    snspd = tags.timestamp[tags.channel == CMAP.snspd]
    lo, hi = (cfg.gate_center_ticks - cfg.gate_half_width_ticks,
              cfg.gate_center_ticks + cfg.gate_half_width_ticks)
    return [(t0, int(s) - t0) for t0, _, _ in events for s in snspd
            if lo <= s - t0 <= hi]


class TestDriverProperties:
    def test_gate_before_trigger_rejected(self):
        # a build step holds no tags before its first trigger, so a gate
        # reaching back past the trigger would depend on the block partition
        with pytest.raises(ValueError, match="before the MCP trigger"):
            small_cfg(gate_center_ticks=40, gate_half_width_ticks=41)
        assert small_cfg(gate_center_ticks=40, gate_half_width_ticks=40).idler_spec.start == 0

    @settings(max_examples=150, deadline=None)
    @given(tags=random_streams(), cuts=st.lists(st.integers(0, 300), max_size=12),
           threads=st.sampled_from([1, 2, 4]),
           fold_period_ps=st.sampled_from([None, 250.0]),
           window=st.tuples(st.integers(1, 12), st.integers(-5, 40), st.integers(1, 5)))
    def test_build_equals_fold_equals_oracle(self, tags, cuts, threads, fold_period_ps,
                                             window):
        cfg = tiny_cfg(fold_period_ps)
        whole = engine.build(tags, CMAP, cfg)

        edges = [0, *sorted(c for c in cuts if c < len(tags)), len(tags)]
        folded = engine.fold_stream_blocks((tags[a:b] for a, b in zip(edges, edges[1:])),
                                           CMAP, cfg, threads=threads)
        assert folded.diagnostics == whole.diagnostics
        for name, hist in whole.histograms.items():
            assert np.array_equal(folded.histograms[name].counts, hist.counts), name
        assert whole.diagnostics["tag_counts"] == {
            role: int((tags.channel == getattr(CMAP, role)).sum()) for role in engine._ROLES}

        oracle = brute_force_events(tags, cfg)
        events, _ = build_events(tags, cfg, threads=threads)
        assert events.t_mcp.tolist() == [t0 for t0, _, _ in oracle]
        assert events.dt_x.tolist() == [dt for _, dt, _ in oracle]
        assert events.has_sync.tolist() == [sync is not None for _, _, sync in oracle]
        assert events.sync_offset[events.has_sync].tolist() == [
            t0 - sync for t0, _, sync in oracle if sync is not None]
        coinc = whole.coincidences
        assert list(zip(coinc.t_mcp.tolist(), coinc.tau.tolist())) == \
            brute_force_coincidences(tags, cfg, oracle)

        frames, out_of_window = engine.slice_time_resolved(coinc, cfg, *window)
        total = out_of_window.counts.copy()
        for frame in frames:
            total += frame.counts
        assert np.array_equal(total, whole.histograms["jsi"].counts)

    @settings(max_examples=100, deadline=None)
    @given(tags=random_streams(), cuts=st.lists(st.integers(0, 300), max_size=12),
           threads=st.sampled_from([1, 2, 4]))
    def test_fold_accounts_for_every_record(self, tags, cuts, threads):
        cfg = tiny_cfg(250.0)
        whole = engine.build(tags, CMAP, cfg).diagnostics
        edges = [0, *sorted(c for c in cuts if c < len(tags)), len(tags)]
        folded = engine.fold_stream_blocks((tags[a:b] for a, b in zip(edges, edges[1:])),
                                           CMAP, cfg, threads=threads).diagnostics
        assert whole["records"] == folded["records"] == len(tags)
        assert sum(folded["tag_counts"].values()) == len(tags)
        if len(tags):
            ts = tags.timestamp
            duration_s = (int(ts[-1]) - int(ts[0]) + 1) * cfg.tick_ps * 1e-12
            assert whole["rates"] == folded["rates"] == engine.rates_report(folded, duration_s)
        else:
            assert "rates" not in whole and "rates" not in folded

    @settings(max_examples=100, deadline=None)
    @given(tags=random_streams(), cuts=st.lists(st.integers(0, 300), max_size=12),
           threads=st.sampled_from([1, 2, 4]))
    def test_each_rejected_trigger_counted_once(self, tags, cuts, threads):
        edges = [0, *sorted(c for c in cuts if c < len(tags)), len(tags)]
        diag = engine.fold_stream_blocks((tags[a:b] for a, b in zip(edges, edges[1:])),
                                         CMAP, tiny_cfg(None), threads=threads).diagnostics
        causes = ("no_x1", "multi_x1", "no_x2", "multi_x2", "out_of_guard")
        assert diag["mcp_triggers"] == diag["events"] + sum(diag[c] for c in causes)


class TestRatesReport:
    def test_singles_arithmetic(self):
        diag = {**ZERO_DIAGNOSTICS, "tag_counts": {**ZERO_DIAGNOSTICS["tag_counts"],
                                                   "mcp": 61000}}
        diag["coincidences"] = 500
        diag["displaced_gate_hits"] = 100
        rates = engine.rates_report(diag, duration_s=1.0)
        assert rates["singles_hz"]["mcp"] == pytest.approx(6.1e4)
        assert rates["coincidence_to_accidental"] == pytest.approx(5.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            engine.rates_report(ZERO_DIAGNOSTICS, 0.0)

    def test_uncorrelated_streams_figure_near_one(self):
        # planted triples plus an independent Poisson SNSPD stream: the gated
        # count is pure accidentals, so the displaced-gate figure is ~1
        rng = np.random.Generator(np.random.Philox(key=67))
        duration_ticks = 40_000_000
        rows = []
        t = 0
        while t < duration_ticks:
            t += int(rng.integers(1500, 2500))
            rows += [("mcp", t), ("dld_x1", t + 10), ("dld_x2", t + 25)]
        n_sn = rng.poisson(duration_ticks * 0.02)
        for ts in np.sort(rng.integers(0, duration_ticks, n_sn)):
            rows.append(("snspd", int(ts)))
        tags = tags_from(rows)
        cfg = small_cfg(gate_center_ticks=40000, gate_half_width_ticks=400,
                        sync_period_ticks=33158,
                        jsi_y_spec=BinSpec(39600, 17, 48))
        result = engine.build(tags, CMAP, cfg)
        rates = engine.rates_report(result.diagnostics,
                                    duration_s=duration_ticks * 25e-12)
        assert result.diagnostics["coincidences"] > 1000
        assert rates["coincidence_to_accidental"] == pytest.approx(1.0, abs=0.15)


sorted_ticks = st.lists(st.integers(-5, 25), max_size=40).map(sorted)


def split_by_masks(tags, channel_map):
    """The boolean-indexing demux that split_channels applies with
    np.compress, kept as its oracle."""
    t, ch = tags.timestamp, tags.channel
    is_sync = ch == channel_map.sync
    times = {"sync": t[is_sync]}
    rest = ~is_sync
    t_rest, ch_rest = t[rest], ch[rest]
    for role in engine._ROLES:
        if role != "sync":
            times[role] = t_rest[ch_rest == getattr(channel_map, role)]
    return times


@st.composite
def channel_maps(draw):
    """Distinct ids up to the u16 limit, the sync id the lowest or highest."""
    ids = sorted(draw(st.sets(st.sampled_from([0, 1, 2, 5, 9, 300, 0xFFFE, 0xFFFF])
                              | st.integers(0, 0xFFFF), min_size=7, max_size=7)))
    sync = ids.pop(0) if draw(st.booleans()) else ids.pop()
    others = draw(st.permutations(ids))
    return ChannelMap(*others, sync=sync)


class TestMatchKernels:
    @settings(max_examples=300, deadline=None)
    @given(arr=st.lists(st.integers(0, 12), max_size=60).map(sorted), keys=sorted_ticks,
           width=st.integers(0, 8), side=st.sampled_from(["left", "right"]))
    def test_count_hits_equals_two_searches(self, arr, keys, width, side):
        # up to 60 tags on 13 ticks: many tags per tick and gates far past
        # the two forward tests
        arr, keys = np.array(arr, dtype=np.int64), np.array(keys, dtype=np.int64)
        lo = np.searchsorted(arr, keys, side=side)
        end = keys + width
        expected = np.searchsorted(arr, end, side="right") - lo
        assert engine._count_hits(arr, lo, end, exact=True).tolist() == expected.tolist()
        assert engine._count_hits(arr, lo, end, exact=False).tolist() == \
            np.minimum(expected, 2).tolist()

    def test_count_hits_many_tags_per_tick(self):
        n = 12
        arr = np.repeat(np.arange(4, dtype=np.int64), n)   # n tags on each tick
        keys = np.array([0, 1, 2, 3, 3], dtype=np.int64)
        lo = np.searchsorted(arr, keys, side="left")
        end = keys + np.array([0, 1, 5, 0, -1])
        assert engine._count_hits(arr, lo, end, exact=True).tolist() == [n, 2 * n, 2 * n, n, 0]
        assert engine._count_hits(arr, lo, end, exact=False).tolist() == [2, 2, 2, 2, 0]

    @settings(max_examples=200, deadline=None)
    @given(cmap=channel_maps(),
           rows=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 50)), max_size=80))
    def test_split_channels_matches_mask_oracle(self, cmap, rows):
        # role index 7 is a channel outside the map, which both must ignore
        ids = [*cmap.ids(), next(c for c in range(9) if c not in cmap.ids())]
        tags = TagColumns([ids[r] for r, _ in rows], [t for _, t in rows])
        tags = tags[np.lexsort((tags.channel, tags.timestamp))]
        got, want = engine.split_channels(tags, cmap), split_by_masks(tags, cmap)
        assert list(got) == list(want)
        for role in engine._ROLES:
            assert got[role].dtype == np.int64
            assert got[role].tolist() == want[role].tolist(), role


class TestWindowEdges:
    def test_wire_tag_on_trigger_tick_not_counted(self):
        cfg = small_cfg()
        # the X1 tag on the trigger's tick sorts before the trigger's window
        tags = tags_from([("mcp", 1000), ("dld_x1", 1000), ("dld_x1", 1010),
                          ("dld_x2", 1030)])
        events, diag = build_events(tags, cfg)
        assert events.dt_x.tolist() == [-20]
        assert diag["multi_x1"] == 0

    def test_wire_tag_on_window_end_counted(self):
        cfg = small_cfg()
        w = cfg.dld_window_ticks
        tags = tags_from([("mcp", 1000), ("dld_x1", 1000 + w), ("dld_x1", 1001 + w),
                          ("dld_x2", 1000 + w - 20)])
        events, diag = build_events(tags, cfg)
        assert events.dt_x.tolist() == [20]
        # a second tag on the end tick makes two candidates
        tags = tags_from([("mcp", 1000), ("dld_x1", 1000 + w), ("dld_x1", 1000 + w),
                          ("dld_x2", 1000 + w - 20)])
        events, diag = build_events(tags, cfg)
        assert len(events) == 0 and diag["multi_x1"] == 1

    def test_snspd_tags_on_both_gate_edges_counted(self):
        cfg = small_cfg()
        lo = cfg.gate_center_ticks - cfg.gate_half_width_ticks
        hi = cfg.gate_center_ticks + cfg.gate_half_width_ticks
        disp = cfg.sync_period_ticks
        tags = tags_from([("mcp", 100), ("dld_x1", 110), ("dld_x2", 130),
                          ("snspd", 99 + lo), ("snspd", 100 + lo), ("snspd", 100 + hi),
                          ("snspd", 101 + hi),
                          ("snspd", 100 + lo + disp), ("snspd", 100 + hi + disp)])
        result = engine.build(tags, CMAP, cfg)
        assert result.coincidences.tau.tolist() == [lo, hi]
        assert result.diagnostics["multi_hit_gates"] == 1
        assert result.diagnostics["displaced_gate_hits"] == 2

    def test_many_snspd_tags_on_one_tick(self):
        cfg = small_cfg()
        n = 20
        tags = tags_from([("mcp", 100), ("dld_x1", 110), ("dld_x2", 130)]
                         + [("snspd", 100 + cfg.gate_center_ticks)] * n
                         + [("snspd", 100 + cfg.gate_center_ticks + cfg.sync_period_ticks)] * n)
        result = engine.build(tags, CMAP, cfg)
        assert result.coincidences.tau.tolist() == [cfg.gate_center_ticks] * n
        assert result.diagnostics["extra_gate_hits"] == n - 1
        assert result.diagnostics["displaced_gate_hits"] == n

    @pytest.mark.parametrize("cmap", [CMAP, ChannelMap(mcp=6, dld_x1=1, dld_x2=2, dld_y1=3,
                                                       dld_y2=4, snspd=5, sync=0)])
    def test_sync_on_trigger_tick_gives_offset_zero(self, cmap):
        cfg = small_cfg()
        tags = TagColumns([cmap.sync, cmap.mcp, cmap.dld_x1, cmap.dld_x2],
                          [900, 1000, 1010, 1030])
        tags = TagColumns.concatenate([tags, TagColumns([cmap.sync], [1000])])
        tags = tags[np.lexsort((tags.channel, tags.timestamp))]
        events, _ = build_events(tags, cfg, cmap)
        assert events.has_sync.tolist() == [True]
        assert events.sync_offset.tolist() == [0]


def record_steps(mp):
    """Wrap engine._steps so that each step's (tags, lo, hi) is kept as it
    is cut."""
    steps = []
    cut = engine._steps

    def wrapped(*args):
        for step in cut(*args):
            steps.append(step)
            yield step

    mp.setattr(engine, "_steps", wrapped)
    return steps


def record_sync_before(mp):
    """Wrap engine._build_step so that the (lo, hi, sync_before) the fold
    passes each step is kept."""
    passed = []
    build_step = engine._build_step

    def wrapped(cfg, times, lo, hi, sync_before):
        passed.append((lo, hi, sync_before))
        return build_step(cfg, times, lo, hi, sync_before)

    mp.setattr(engine, "_build_step", wrapped)
    return passed


def assert_same_result(got, want):
    assert got.diagnostics == want.diagnostics
    for name, hist in want.histograms.items():
        assert np.array_equal(got.histograms[name].counts, hist.counts), name


def assert_steps_tile(steps, tags):
    """The steps' (lo, hi] intervals follow each other from the start of
    the stream, and the last one ends at the last tag."""
    cuts = sorted((lo, hi) for _, lo, hi in steps)
    assert cuts[0][0] == np.iinfo(np.int64).min
    assert all(a[1] == b[0] for a, b in zip(cuts, cuts[1:]))
    assert cuts[-1][1] == (tags.timestamp[-1] if len(tags) else cuts[0][0])


class TestStepCutter:
    @settings(max_examples=100, deadline=None)
    @given(tags=random_streams(), budget=st.integers(1, 8),
           cuts=st.lists(st.integers(0, 300), max_size=12),
           threads=st.sampled_from([1, 2, 4]),
           fold_period_ps=st.sampled_from([None, 250.0]))
    def test_any_budget_equals_oracle(self, tags, budget, cuts, threads, fold_period_ps):
        cfg = tiny_cfg(fold_period_ps)
        edges = [0, *sorted(c for c in cuts if c < len(tags)), len(tags)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_STEP_BUDGET", budget)
            steps = record_steps(mp)
            whole = engine.build(tags, CMAP, cfg)
            assert_steps_tile(steps, tags)
            steps.clear()
            one_block = engine.fold_stream_blocks([tags], CMAP, cfg, threads=threads)
            assert_steps_tile(steps, tags)
            steps.clear()
            folded = engine.fold_stream_blocks(
                (tags[a:b] for a, b in zip(edges, edges[1:])), CMAP, cfg, threads=threads)
            assert_steps_tile(steps, tags)
            events, _ = build_events(tags, cfg, threads=threads)
        assert_same_result(folded, whole)
        assert_same_result(one_block, whole)

        oracle = brute_force_events(tags, cfg)
        assert events.t_mcp.tolist() == [t0 for t0, _, _ in oracle]
        assert events.dt_x.tolist() == [dt for _, dt, _ in oracle]
        assert events.sync_offset[events.has_sync].tolist() == [
            t0 - sync for t0, _, sync in oracle if sync is not None]
        coinc = whole.coincidences
        assert list(zip(coinc.t_mcp.tolist(), coinc.tau.tolist())) == \
            brute_force_coincidences(tags, cfg, oracle)

    @settings(max_examples=150, deadline=None)
    @given(tags=random_streams(), budget=st.integers(1, 8),
           cuts=st.lists(st.integers(0, 300), max_size=12))
    def test_steps_are_windows_with_the_last_sync_before(self, tags, budget, cuts):
        cfg = tiny_cfg(None)
        lookahead = cfg.lookahead_ticks()
        ts = tags.timestamp
        syncs = ts[tags.channel == CMAP.sync]
        edges = [0, *sorted(c for c in cuts if c < len(tags)), len(tags)]
        blocks = [(a, b) for a, b in zip(edges, edges[1:]) if a < b]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_STEP_BUDGET", budget)
            steps, passed = record_steps(mp), record_sync_before(mp)
            engine.build(tags, CMAP, cfg)
            whole, whole_passed = list(steps), list(passed)
            steps.clear()
            passed.clear()
            engine.fold_stream_blocks([tags[a:b] for a, b in blocks], CMAP, cfg, threads=1)
        # the whole array is one block
        one_block = [(0, len(tags))] if len(tags) else []
        for got, got_passed, parts in ((whole, whole_passed, one_block),
                                       (steps, passed, blocks)):
            assert_steps_tile(got, tags)
            # each step is run once, in stream order, with the last sync
            # tag at or before its lo
            assert [(lo, hi) for _, lo, hi in got] == [(lo, hi) for lo, hi, _ in got_passed]
            for lo, hi, sync_before in got_passed:
                k = np.searchsorted(syncs, lo, side="right")
                assert sync_before == (int(syncs[k - 1]) if k else None), (lo, hi)
                assert sync_before is None or type(sync_before) is int
            for step, lo, hi in got:
                assert (step.timestamp > lo).all(), (lo, hi)
                # exactly the tags in (lo, hi + lookahead)
                i, j = np.searchsorted(ts, lo, side="right"), np.searchsorted(ts, hi + lookahead)
                assert step.timestamp.tolist() == ts[i:j].tolist(), (lo, hi)
                assert step.channel.tolist() == tags.channel[i:j].tolist(), (lo, hi)
                # a step that starts in a block and whose window closes by
                # the block's last tag needed no other block: it is a view
                # of it
                for a, b in parts:
                    if a <= i and hi + lookahead <= ts[b - 1] and i < j:
                        assert np.shares_memory(step.timestamp, tags.timestamp[a:b]), (lo, hi)

    def test_tick_with_more_tags_than_budget(self):
        cfg = tiny_cfg(250.0)
        # 40 wire tags on one tick, inside the windows of the triggers before it
        rows = [("sync", 0), ("mcp", 10), ("dld_x1", 12), ("dld_x2", 14),
                ("snspd", 30), ("mcp", 95)]
        rows += [(role, 100) for role in ("dld_x1", "dld_x2") for _ in range(20)]
        rows += [("mcp", 300), ("dld_x1", 302), ("dld_x2", 303), ("snspd", 320),
                 ("sync", 400), ("mcp", 500), ("dld_x1", 501), ("dld_x2", 504)]
        tags = tags_from(rows)
        want = engine.build(tags, CMAP, cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_STEP_BUDGET", 3)
            steps = record_steps(mp)
            got = engine.build(tags, CMAP, cfg)
            assert (95, 100) in [(lo, hi) for _, lo, hi in steps]
            assert_steps_tile(steps, tags)
            folded = engine.fold_stream_blocks([tags[:20], tags[20:]], CMAP, cfg, threads=2)
        assert_same_result(got, want)
        assert_same_result(folded, want)
        assert want.diagnostics["multi_x1"] == 1 and want.diagnostics["events"] == 3

    @pytest.mark.parametrize("block", [7, 50, 10**6])
    def test_steps_after_one_early_sync_stay_within_budget(self, block):
        # a sync tag, then 400 triggers: a step that reached back to the
        # sync tag would hold every tag before it
        cfg = tiny_cfg(None)
        rows = [("sync", 0)]
        for k in range(400):
            rows += [("mcp", 100 * k + 10), ("dld_x1", 100 * k + 12),
                     ("dld_x2", 100 * k + 14), ("snspd", 100 * k + 30)]
        tags = tags_from(rows)
        want = engine.build(tags, CMAP, cfg)
        budget = 16
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_STEP_BUDGET", budget)
            steps, passed = record_steps(mp), record_sync_before(mp)
            got = engine.fold_stream_blocks(
                (tags[i:i + block] for i in range(0, len(tags), block)), CMAP, cfg,
                threads=1)
        assert_same_result(got, want)
        assert want.diagnostics["events"] == 400
        assert len(steps) >= 1600 // budget
        for step, lo, hi in steps:
            tail = int((step.timestamp > hi).sum())
            assert len(step) <= budget + tail, (lo, hi)
        # every step after the first is passed the one sync tag
        assert [sync_before for _, _, sync_before in passed] == [None] + [0] * (len(steps) - 1)

    def test_empty_blocks_and_last_step(self):
        cfg = small_cfg()
        tags = synthetic_stream(n_triples=60, seed=5)
        want = engine.build(tags, CMAP, cfg)
        empty = TagColumns.empty()
        blocks = [empty, tags[:50], empty, empty, tags[50:51], empty, tags[51:], empty]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_STEP_BUDGET", 4)
            steps = record_steps(mp)
            got = engine.fold_stream_blocks(iter(blocks), CMAP, cfg, threads=2)
            assert_steps_tile(steps, tags)
            steps.clear()
            passed = record_sync_before(mp)
            none = engine.fold_stream_blocks([empty, empty], CMAP, cfg)
            start = np.iinfo(np.int64).min
            assert [(len(t), lo, hi) for t, lo, hi in steps] == [(0, start, start)]
            assert passed == [(start, start, None)]
        assert_same_result(got, want)
        assert none.diagnostics == {**ZERO_DIAGNOSTICS, "jsi_out_of_range": 0, "records": 0}


def pulse_blocks(n_blocks, groups=(1 << 20) // 5, syncs=1):
    """Blocks of about 1M tags: per 64-tick pulse a sync tag, an MCP
    trigger, its two wire tags and an SNSPD tag in the idler gate of
    tiny_cfg, then syncs - 1 more sync tags, made one block at a time.
    Nothing but the shared channel column is held between blocks, so a
    fold's peak is its own."""
    roles = ("sync", "mcp", "dld_x1", "dld_x2", "snspd") + ("sync",) * (syncs - 1)
    channel = np.tile(np.array([getattr(CMAP, r) for r in roles], dtype=np.uint16), groups)
    offsets = np.array([0, 2, 4, 6, 22] + [24 + 2 * k for k in range(syncs - 1)])
    for k in range(n_blocks):
        yield TagColumns(channel, np.add.outer(
            np.arange(k * groups, (k + 1) * groups, dtype=np.int64) * 64, offsets).ravel())


class TestFoldMemory:
    def test_pool_peak_is_bounded_and_flat(self):
        cfg = tiny_cfg(250.0)
        peaks = []
        tracemalloc.start()
        try:
            for n_blocks in (3, 6):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                result = engine.fold_stream_blocks(pulse_blocks(n_blocks), CMAP, cfg,
                                                   threads=4)
                peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2**20)
                assert result.diagnostics["coincidences"] == n_blocks * ((1 << 20) // 5)
        finally:
            tracemalloc.stop()
        # one 1M-tag block (10 MB) and five steps in flight
        assert peaks[0] < 64, peaks
        assert peaks[1] < peaks[0] * 1.1 + 1, peaks

    @pytest.mark.parametrize("threads", [1, 2])
    def test_fold_holds_one_block(self, threads):
        # the traced peak over 1M-tag blocks is one block and threads + 1
        # steps in flight, a step costing what one costs demuxed and built
        # alone; a block held while the next is read breaks the bound
        cfg = tiny_cfg(250.0)
        block = next(pulse_blocks(1))
        block_mb = (block.channel.nbytes + block.timestamp.nbytes) / 2**20
        tags, lo, hi = next(engine._steps([block], cfg.lookahead_ticks(), {"records": 0}))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            engine._build_step(cfg, engine.split_channels(tags, CMAP), lo, hi, None)
            step_mb = (tracemalloc.get_traced_memory()[1] - base) / 2**20
            del block, tags
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            engine.fold_stream_blocks(pulse_blocks(3), CMAP, cfg, threads=threads)
            peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            tracemalloc.stop()
        assert peak < block_mb + (threads + 1) * step_mb, (peak, block_mb, step_mb)

    def test_pool_steps_hold_role_columns_only(self):
        # 84% sync tags, as in the template stream: at 4 threads the traced
        # peak is one block, threads + 1 steps demuxed on the calling
        # thread and one step's build temporaries; a pool step that also
        # held a copy of its tags read 22.5-23.2 MB against 19.4 MB
        cfg, threads = tiny_cfg(250.0), 4
        sync_heavy = dict(groups=(1 << 20) // 25, syncs=21)
        block = next(pulse_blocks(1, **sync_heavy))
        block_mb = (block.channel.nbytes + block.timestamp.nbytes) / 2**20
        tags, lo, hi = next(engine._steps([block], cfg.lookahead_ticks(), {"records": 0}))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            times = engine.split_channels(tags, CMAP)
            demux_mb = (tracemalloc.get_traced_memory()[1] - base) / 2**20
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            engine._build_step(cfg, times, lo, hi, None)
            build_mb = (tracemalloc.get_traced_memory()[1] - base) / 2**20
            del block, tags, times
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = engine.fold_stream_blocks(pulse_blocks(3, **sync_heavy), CMAP, cfg,
                                               threads=threads)
            peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            tracemalloc.stop()
        assert result.diagnostics["coincidences"] == 3 * ((1 << 20) // 25)
        assert peak < block_mb + (threads + 1) * demux_mb + build_mb, (
            peak, block_mb, demux_mb, build_mb)

    def test_dense_step_temporaries_per_trigger(self):
        # the first budget step of a dense block (26,215 MCP triggers, each
        # an event with one coincidence): the traced peak of running it on
        # its role columns read 91.5 B per trigger with int64 wire counts
        # and a second pair of displaced-gate arrays, 76.5 B without them
        cfg = tiny_cfg(250.0)
        tags, lo, hi = next(engine._steps(pulse_blocks(1), cfg.lookahead_ticks(),
                                          {"records": 0}))
        times = engine.split_channels(tags, CMAP)
        del tags
        triggers = int(np.diff(np.searchsorted(times["mcp"], (lo, hi), side="right"))[0])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, diag, _ = engine._build_step(cfg, times, lo, hi, None)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert diag["mcp_triggers"] == diag["coincidences"] == triggers > 20000
        assert peak / triggers < 84, peak / triggers

    def test_dense_steps_in_flight_are_small(self):
        # 80% non-sync tags: the budget counts every tag, so five dense
        # steps in flight on their role columns cost about 12 MB beside
        # the one block (21.0-22.1 MB in all; 26.7-28.4 MB when each pool
        # step held a copy of its tags); 2**18-tag steps held 43-46 MB
        # beside two blocks
        cfg = tiny_cfg(250.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            engine.fold_stream_blocks(pulse_blocks(3), CMAP, cfg, threads=4)
            peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        finally:
            tracemalloc.stop()
        assert peak < 31, peak


class TestBuildMemory:
    def test_build_holds_its_results_once(self):
        cfg = tiny_cfg(250.0)
        # about 2M tags, a coincidence per pulse
        tags = next(pulse_blocks(1, groups=(1 << 21) // 5))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = engine.build(tags, CMAP, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        coinc = result.coincidences
        columns = sum(getattr(coinc, f.name).nbytes for f in dataclasses.fields(coinc))
        assert columns > 10 * 2**20
        # joined field by field: the step parts of one field at most are
        # held beside the joined columns
        assert peak - columns < columns / 2, (peak, columns)


class TestFoldTable:
    @pytest.mark.parametrize("fold_period_ps", [None, 250.0])
    def test_negative_sync_period_rejected(self, fold_period_ps):
        # with folding on, it made an empty fold table that no lookup could use
        with pytest.raises(ValueError, match="sync_period_ticks"):
            small_cfg(sync_period_ticks=-1, fold_period_ps=fold_period_ps)

    @staticmethod
    def formula(offsets, cfg):
        # the fold as computed for every offset before the table
        phase_ps = np.mod(offsets.astype(np.float64) * cfg.tick_ps, cfg.fold_period_ps)
        return np.floor(phase_ps / cfg.tick_ps).astype(np.int64)

    @settings(max_examples=200, deadline=None)
    @given(tick_ps=st.sampled_from([1, 3, 25, 100]),
           period=st.floats(1.0, 5000.0, allow_nan=False),
           sync_period=st.integers(0, 400), data=st.data())
    def test_lookup_equals_formula(self, tick_ps, period, sync_period, data):
        cfg = small_cfg(tick_ps=tick_ps, fold_period_ps=period,
                        sync_period_ticks=sync_period)
        n = len(cfg.fold_table)
        assert n == sync_period + 1
        # negative offsets do not occur in a build, but must not hit the table
        offsets = np.array(data.draw(st.lists(st.integers(-n, 3 * n), max_size=50)),
                           dtype=np.int64)
        got = engine.fold_offset_values(offsets, cfg)
        assert got.dtype == np.int64
        assert got.tolist() == self.formula(offsets, cfg).tolist()
        assert engine.fold_offset_values(np.arange(n), cfg).tolist() == \
            self.formula(np.arange(n), cfg).tolist()

    def test_default_config_table_and_unfolded(self):
        from biphoton.config import RunConfig

        cfg = RunConfig().event_config()
        offsets = np.arange(3 * (cfg.sync_period_ticks + 1), dtype=np.int64)
        assert np.array_equal(engine.fold_offset_values(offsets, cfg),
                              self.formula(offsets, cfg))
        raw = small_cfg()
        assert raw.fold_table is None
        assert engine.fold_offset_values(offsets, raw).tolist() == offsets.tolist()
