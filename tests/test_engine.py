import numpy as np
import pytest

from biphoton import engine
from biphoton.histograms import BinSpec, Histogram1D, Histogram2D, merge_histograms
from biphoton.tagstream import ChannelMap, TagColumns

CMAP = ChannelMap()


def tags_from(rows):
    """rows: iterable of (channel_role_or_id, timestamp)."""
    out = TagColumns([getattr(CMAP, ch) if isinstance(ch, str) else ch for ch, _ in rows],
                     [t for _, t in rows])
    return out[np.lexsort((out.channel, out.timestamp))]


def build_events(tags, cfg):
    result = engine.build(tags, CMAP, cfg)
    return result.events, result.diagnostics


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
        events, _ = build_events(tags, cfg)
        assert len(events) == 1
        assert events.has_dt_y[0]
        assert events.dt_y[0] == -12

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

    def test_merge_identity_and_commutativity(self):
        cfg = small_cfg()
        result = engine.build(synthetic_stream(), CMAP, cfg)
        h = result.histograms["jsi"]
        zeros = Histogram2D(h.x_spec, h.y_spec)
        assert np.array_equal(merge_histograms(h, zeros).counts, h.counts)
        other = engine.build(synthetic_stream(seed=77), CMAP, cfg).histograms["jsi"]
        ab = merge_histograms(h, other)
        ba = merge_histograms(other, h)
        assert np.array_equal(ab.counts, ba.counts)

    def test_merge_shape_mismatch_rejected(self):
        a = Histogram1D(BinSpec(0, 1, 4))
        b = Histogram1D(BinSpec(0, 2, 4))
        with pytest.raises(ValueError):
            merge_histograms(a, b)


class TestSliceTimeResolved:
    def test_single_wide_window_equals_static(self):
        cfg = small_cfg()
        result = engine.build(synthetic_stream(), CMAP, cfg)
        static = result.histograms["jsi"]
        slices = engine.slice_time_resolved(result.coincidences, cfg,
                                            window_width_ticks=10**7,
                                            window_origin_ticks=0, n_windows=1)
        # sync-less coincidences fall outside any frame by definition
        synced = result.coincidences.has_sync
        assert slices.frames[0].total_in_range + slices.out_of_window.total_in_range \
            == static.total_in_range
        assert int(slices.out_of_window.counts.sum()) == \
            int(static.counts.sum()) - int(slices.frames[0].counts.sum())
        if synced.all():
            assert np.array_equal(slices.frames[0].counts, static.counts)

    def test_per_cell_conservation_exact(self):
        cfg = small_cfg()
        result = engine.build(synthetic_stream(), CMAP, cfg)
        static = result.histograms["jsi"]
        for width in (1, 6, 16):
            slices = engine.slice_time_resolved(result.coincidences, cfg,
                                                width, 40, n_windows=7)
            total = slices.out_of_window.counts.copy()
            for frame in slices.frames:
                total += frame.counts
            assert np.array_equal(total, static.counts), f"width {width}"

    def test_invalid_window(self):
        cfg = small_cfg()
        result = engine.build(synthetic_stream(n_triples=50), CMAP, cfg)
        with pytest.raises(ValueError):
            engine.slice_time_resolved(result.coincidences, cfg, 0, 0, 5)


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
        single = engine.build(tags, CMAP, cfg, threads=1)
        for threads in (2, 4, 8):
            multi = engine.build(tags, CMAP, cfg, threads=threads)
            assert np.array_equal(single.events.t_mcp, multi.events.t_mcp)
            assert np.array_equal(single.events.dt_x, multi.events.dt_x)
            assert np.array_equal(single.coincidences.tau, multi.coincidences.tau)
            for name in single.histograms:
                assert np.array_equal(single.histograms[name].counts,
                                      multi.histograms[name].counts)
            assert single.diagnostics == multi.diagnostics


class TestRatesReport:
    def test_singles_arithmetic(self):
        diag = engine._fresh_diag()
        diag["tag_counts"]["mcp"] = 61000
        diag["coincidences"] = 500
        diag["displaced_gate_hits"] = 100
        rates = engine.rates_report(diag, duration_s=1.0)
        assert rates["singles_hz"]["mcp"] == pytest.approx(6.1e4)
        assert rates["coincidence_to_accidental"] == pytest.approx(5.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            engine.rates_report(engine._fresh_diag(), 0.0)

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
