import hashlib
import io
import math
import re
import tracemalloc
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from biphoton import engine, simgen, spdc, tagstream
from biphoton.calibration import fit_peak, idler_delay_ps
from biphoton.config import RunConfig
from conftest import clean_acquisition, expected_jsi_probabilities, normalized_cross_correlation

CMAP = tagstream.ChannelMap()


def single_point_jsa(lam_s=515.0, lam_i=1550.0):
    """All amplitude in one essentially point-like cell."""
    grid = spdc.FrequencyGrid(signal_center_nm=lam_s, idler_center_nm=lam_i,
                              signal_span_nm=1e-8, idler_span_nm=1e-8,
                              n_signal=3, n_idler=3)
    amp = np.zeros((3, 3), dtype=complex)
    amp[1, 1] = 1.0
    return spdc.JsaGrid(grid.signal_omega, grid.idler_omega, amp).normalize()


def event_cfg_for(acq):
    return RunConfig(acquisition=acq).event_config()


def joined(batches):
    """One GroundTruth of truth batches, in arrival order."""
    empty = simgen.GroundTruth.from_records(np.zeros(0, simgen.TRUTH_RECORD))
    return simgen.GroundTruth(*(np.concatenate([getattr(batch, f.name)
                                                for batch in (empty, *batches)])
                                for f in fields(simgen.GroundTruth)))


def generated(jsa, cfg):
    """(tags, truth) of `generate`, its chunks joined and its truth batches
    joined; the batches hold every pair row once the chunks are pulled."""
    batches = []
    result = simgen.generate(jsa, cfg, batches.append)
    tags = tagstream.TagColumns.concatenate(result.chunks)
    truth = joined(batches)
    assert len(truth) == len(result.truth)
    return tags, truth


class TestGenerateBasics:
    def test_sync_only_stream(self, model_jsa):
        cfg = clean_acquisition(pair_prob_per_pulse=0.0, eta_signal=0.0,
                                eta_idler=0.0, duration_s=0.001)
        tags, _ = generated(model_jsa, cfg)
        assert np.all(tags.channel == CMAP.sync)
        expected = int(np.floor(cfg.duration_s * cfg.rep_rate_hz / cfg.sync_divider)) + 1
        assert len(tags) == expected

    def test_deterministic_given_seed(self, model_jsa):
        cfg = clean_acquisition(duration_s=0.005, seed=777,
                                mcp_jitter_fwhm_ps=263.0, dtx_jitter_fwhm_ps=263.0,
                                snspd_mcp_conv_jitter_fwhm_ps=310.0,
                                dld_dark_rate_hz=2000.0, snspd_dark_rate_hz=200.0)
        a, _ = generated(model_jsa, cfg)
        b, _ = generated(model_jsa, cfg)
        assert np.array_equal(a.channel, b.channel)
        assert np.array_equal(a.timestamp, b.timestamp)
        buf_a, buf_b = io.BytesIO(), io.BytesIO()
        tagstream.write_stream(cfg.header(), a, buf_a)
        tagstream.write_stream(cfg.header(), b, buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_stream_is_sorted_and_mapped(self, model_jsa):
        cfg = clean_acquisition(duration_s=0.005, dld_dark_rate_hz=5000.0)
        tags, _ = generated(model_jsa, cfg)
        assert tagstream.first_order_violation(tags) is None
        assert set(np.unique(tags.channel)) <= set(CMAP.ids())

    def test_point_source_zero_jitter_is_exact(self):
        cfg = clean_acquisition(pair_prob_per_pulse=0.01, duration_s=0.005)
        tags, _ = generated(single_point_jsa(), cfg)
        ecfg = event_cfg_for(cfg)
        built = engine.build(tags, CMAP, ecfg)
        assert len(built.coincidences) > 100
        assert np.all(built.coincidences.dt_x == built.coincidences.dt_x[0])
        assert np.all(built.coincidences.tau == built.coincidences.tau[0])
        from biphoton.calibration import dld_position, idler_wavelength, signal_wavelength
        lam_s = signal_wavelength(dld_position(built.coincidences.dt_x[0],
                                               cfg.dld_cal), cfg.dld_cal)
        lam_i = idler_wavelength(built.coincidences.tau[0], cfg.fibre_cal, cfg.tick_ps)
        assert lam_s == pytest.approx(515.0, abs=0.011)  # half-tick quantization
        assert lam_i == pytest.approx(1550.0, abs=0.005)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            clean_acquisition(eta_signal=1.5)
        with pytest.raises(ValueError):
            clean_acquisition(sync_divider=0)
        with pytest.raises(ValueError):
            clean_acquisition(duration_s=-1.0)
        with pytest.raises(ValueError):
            clean_acquisition(mcp_jitter_fwhm_ps=300.0,
                              snspd_mcp_conv_jitter_fwhm_ps=200.0)


class TestGroundTruth:
    def test_every_detection_tag_referenced_exactly_once(self, model_jsa):
        cfg = clean_acquisition(duration_s=0.01, eta_signal=0.7, eta_idler=0.5)
        tags, truth = generated(model_jsa, cfg)
        referenced = np.concatenate([
            col[col >= 0] for col in (truth.mcp_index, truth.x1_index,
                                      truth.x2_index, truth.snspd_index)])
        detection_channels = (CMAP.mcp, CMAP.dld_x1, CMAP.dld_x2, CMAP.snspd)
        detection_tags = np.flatnonzero(np.isin(tags.channel, detection_channels))
        assert np.array_equal(np.sort(referenced), detection_tags)

    def test_dark_tags_unreferenced(self, model_jsa):
        cfg = clean_acquisition(duration_s=0.01, dld_dark_rate_hz=3000.0,
                                snspd_dark_rate_hz=1000.0)
        tags, truth = generated(model_jsa, cfg)
        referenced = sum(int((col >= 0).sum()) for col in
                         (truth.mcp_index, truth.x1_index, truth.x2_index,
                          truth.snspd_index))
        detection_channels = (CMAP.mcp, CMAP.dld_x1, CMAP.dld_x2, CMAP.snspd)
        n_detection = int(np.isin(tags.channel, detection_channels).sum())
        assert referenced < n_detection  # darks exist and are unlabeled

    def test_labels_point_at_consistent_channels(self, model_jsa):
        cfg = clean_acquisition(duration_s=0.005)
        tags, truth = generated(model_jsa, cfg)
        ch = tags.channel
        for col, chan in ((truth.mcp_index, CMAP.mcp), (truth.x1_index, CMAP.dld_x1),
                          (truth.x2_index, CMAP.dld_x2), (truth.snspd_index, CMAP.snspd)):
            idx = col[col >= 0]
            assert np.all(ch[idx] == chan)

    def test_jsonl_roundtrip(self, tmp_path, model_jsa):
        cfg = clean_acquisition(duration_s=0.001)
        _, truth = generated(model_jsa, cfg)
        path = tmp_path / "truth.jsonl"
        truth.write_jsonl(path)
        import json
        with open(path) as fh:
            lines = [json.loads(line) for line in fh]
        assert len(lines) == len(truth)
        if lines:
            assert set(lines[0]) == {"pulse", "lambda_s_nm", "lambda_i_nm",
                                     "signal_detected", "idler_detected",
                                     "mcp", "x1", "x2", "snspd"}

    def test_jsonl_bytes_match_json_dumps_oracle(self, tmp_path, model_jsa):
        import json
        cfg = clean_acquisition(duration_s=0.002, eta_signal=0.5, eta_idler=0.5)
        _, truth = generated(model_jsa, cfg)
        assert truth.signal_detected.any() and not truth.signal_detected.all()
        assert truth.idler_detected.any() and not truth.idler_detected.all()
        assert (truth.mcp_index == -1).any() and (truth.snspd_index == -1).any()
        oracle = "".join(json.dumps({
            "pulse": int(truth.pulse_index[k]),
            "lambda_s_nm": float(truth.lambda_s[k]),
            "lambda_i_nm": float(truth.lambda_i[k]),
            "signal_detected": bool(truth.signal_detected[k]),
            "idler_detected": bool(truth.idler_detected[k]),
            "mcp": int(truth.mcp_index[k]),
            "x1": int(truth.x1_index[k]),
            "x2": int(truth.x2_index[k]),
            "snspd": int(truth.snspd_index[k]),
        }) + "\n" for k in range(len(truth)))
        path = tmp_path / "truth.jsonl"
        truth.write_jsonl(path)
        assert path.read_bytes() == oracle.encode()


class TestGroundTruthAcrossBlocks:
    """Generation runs in pulse blocks; shrunken blocks put a short run's
    pairs into many of them, so truth indices must hold across blocks."""

    BLOCK = 20_000

    def test_indices_exact_over_many_blocks(self, monkeypatch, model_jsa):
        monkeypatch.setattr(simgen, "_BLOCK_PULSES", self.BLOCK)
        cfg = clean_acquisition(duration_s=0.002, pair_prob_per_pulse=0.01,
                                eta_signal=0.7, eta_idler=0.6)
        tags, truth = generated(model_jsa, cfg)
        assert len(np.unique(truth.pulse_index // self.BLOCK)) >= 5

        # zero jitter: every detection lands exactly on its pulse's timing
        t_mcp_ps = truth.pulse_index.astype(np.float64) * cfg.pulse_period_ps + cfg.mcp_delay_ps
        t_sn_ps = t_mcp_ps + idler_delay_ps(truth.lambda_i, cfg.fibre_cal)
        for col, detected, chan, t_ps in (
                (truth.mcp_index, truth.signal_detected, CMAP.mcp, t_mcp_ps),
                (truth.x1_index, truth.signal_detected, CMAP.dld_x1, None),
                (truth.x2_index, truth.signal_detected, CMAP.dld_x2, None),
                (truth.snspd_index, truth.idler_detected, CMAP.snspd, t_sn_ps)):
            assert np.array_equal(col >= 0, detected)
            idx = col[detected]
            assert np.all(tags.channel[idx] == chan)
            if t_ps is not None:
                expected = np.rint(t_ps[detected] / cfg.tick_ps).astype(np.int64)
                assert np.array_equal(tags.timestamp[idx], expected)

        referenced = np.concatenate([col[col >= 0] for col in (
            truth.mcp_index, truth.x1_index, truth.x2_index, truth.snspd_index)])
        detection = np.flatnonzero(tags.channel != CMAP.sync)
        assert np.array_equal(np.sort(referenced), detection)

    def test_multi_block_bytes_pinned(self, monkeypatch, tmp_path, model_jsa):
        # seven blocks with jitter, darks on both detectors and dead time on
        # three channels: the stream and truth bytes must not move
        monkeypatch.setattr(simgen, "_BLOCK_PULSES", 25_000)
        cfg = simgen.AcquisitionConfig(
            duration_s=0.002, seed=5, pair_prob_per_pulse=0.02,
            dld_dark_rate_hz=2e5, snspd_dark_rate_hz=5e4,
            dead_time_ps={"mcp": 40000.0, "dld_x1": 10000.0, "snspd": 20000.0})
        tags, truth = generated(model_jsa, cfg)
        assert ((truth.mcp_index < 0) & truth.signal_detected).any()  # dead time acted
        stream = io.BytesIO()
        tagstream.write_stream(cfg.header(), tags, stream)
        truth.write_jsonl(tmp_path / "truth.jsonl")
        assert (len(tags), len(truth)) == (8150, 3126)
        assert hashlib.sha256(stream.getvalue()).hexdigest() == \
            "e27f1c042c29442c38c88f479a9e63f81ae777d912195dce939859b4d7eae2a0"
        assert hashlib.sha256((tmp_path / "truth.jsonl").read_bytes()).hexdigest() == \
            "15136545815a63b343c15cc60d638c288d12337ae6c206444ef9cca0958abdbd"


def oracle_blocks(jsa, cfg):
    """Each pulse block's tags and pairs as the synthesizer emitted them
    when it sorted every tag: its pair and dark tags (`_emit_block`), then
    its sync markers (float64 pulse times on the sync channel, labelled
    -1). Each block's generator is keyed by (seed, block) and draws its
    pair count first."""
    draw_pairs = spdc.pair_sampler(jsa) if cfg.pair_prob_per_pulse > 0 else None
    parts, n_pairs = [], 0
    for block, lo in enumerate(range(0, cfg.n_pulses, simgen._BLOCK_PULSES)):
        hi = min(lo + simgen._BLOCK_PULSES, cfg.n_pulses)
        rng = simgen._block_rng(cfg.seed, block)
        count = int(rng.poisson(cfg.pair_prob_per_pulse * (hi - lo)))
        tags, pairs = simgen._emit_block(draw_pairs, cfg, rng, count, lo, hi, n_pairs)
        sync_pulses = np.arange(-(-lo // cfg.sync_divider) * cfg.sync_divider, hi,
                                cfg.sync_divider)
        tags = {"t_ps": np.concatenate([tags["t_ps"],
                                        sync_pulses.astype(np.float64) * cfg.pulse_period_ps]),
                "channel": np.concatenate([tags["channel"], np.full(
                    len(sync_pulses), cfg.channel_map.sync, np.uint16)]),
                "label": np.concatenate([tags["label"], np.full(len(sync_pulses), -1, np.int64)])}
        parts.append((tags, pairs))
        n_pairs += len(pairs["pulse_index"])
    return parts


def whole_array_generate(jsa, cfg):
    """The synthesizer as one whole-array pass, the reference for its
    chunked stream: every block's tags (`oracle_blocks`) concatenated,
    ticks below 0 dropped, one stable lexsort, the greedy dead-time loop,
    then one scatter of the labels into the truth index columns."""
    tag_parts, pair_parts = zip(*oracle_blocks(jsa, cfg))
    n_pairs = sum(len(pairs["pulse_index"]) for pairs in pair_parts)
    t_ps, channel, label = (np.concatenate([part[key] for part in tag_parts])
                            for key in ("t_ps", "channel", "label"))
    ticks = np.rint(t_ps / cfg.tick_ps).astype(np.int64)
    keep = ticks >= 0
    ticks, channel, label = ticks[keep], channel[keep], label[keep]
    order = np.lexsort((channel, ticks))
    ticks, channel, label = ticks[order], channel[order], label[order]
    alive = greedy_dead_time_mask(ticks, channel, cfg)
    ticks, channel, label = ticks[alive], channel[alive], label[alive]
    index = np.full((n_pairs, 4), -1, dtype=np.int64)
    labelled = np.flatnonzero(label >= 0)
    index.reshape(-1)[label[labelled]] = labelled
    pairs = {key: np.concatenate([part[key] for part in pair_parts]) for key in pair_parts[0]}
    truth = simgen.GroundTruth(**pairs, mcp_index=index[:, 0], x1_index=index[:, 1],
                               x2_index=index[:, 2], snspd_index=index[:, 3])
    return tagstream.TagColumns(channel, ticks), truth


def truth_bytes(truth):
    return [getattr(truth, f.name).tobytes() for f in fields(simgen.GroundTruth)]


def streamed(jsa, cfg):
    """(stream bytes, truth) of `generate`'s chunks written as `gen-tags`
    writes them, and its truth batches joined."""
    batches = []
    result = simgen.generate(jsa, cfg, batches.append)
    sink = io.BytesIO()
    tagstream.write_stream(result.header, result.chunks, sink)
    truth = joined(batches)
    assert len(truth) == len(result.truth)
    return sink.getvalue(), truth


def whole_array_stream(jsa, cfg):
    """(stream bytes, truth) of `whole_array_generate`."""
    tags, truth = whole_array_generate(jsa, cfg)
    sink = io.BytesIO()
    tagstream.write_stream(cfg.header(), tags, sink)
    return sink.getvalue(), truth


_JITTER_PS = st.one_of(st.just(0.0), st.floats(1.0, 3000.0), st.floats(3000.0, 2e5))
_DEAD_TIME_PS = st.one_of(st.just(0.0), st.floats(25.0, 50_000.0))


class TestChunkedStream:
    """`generate` makes the sorted stream in chunks, each final once the
    next pulse block is emitted; written, they must be the whole-array
    pass's stream and truth exactly, or raise."""

    @settings(max_examples=60, deadline=None)
    @given(block=st.one_of(st.integers(1, 16), st.integers(1, 3000)),
           n_blocks=st.integers(1, 40),
           seed=st.integers(0, 2**32), pair_prob=st.floats(0.0, 0.3),
           eta=st.floats(0.3, 1.0), mcp=_JITTER_PS, dtx=_JITTER_PS, extra=_JITTER_PS,
           dld_dark=st.one_of(st.just(0.0), st.floats(1e4, 3e7)),
           snspd_dark=st.one_of(st.just(0.0), st.floats(1e4, 3e7)),
           dead=st.fixed_dictionaries({"mcp": _DEAD_TIME_PS, "dld_x1": _DEAD_TIME_PS,
                                       "snspd": _DEAD_TIME_PS, "sync": _DEAD_TIME_PS}))
    def test_streamed_equals_whole_array_or_raises(self, model_jsa, block, n_blocks, seed,
                                                   pair_prob, eta, mcp, dtx, extra, dld_dark,
                                                   snspd_dark, dead):
        cfg = simgen.AcquisitionConfig(
            duration_s=block * n_blocks / 76e6, seed=seed, pair_prob_per_pulse=pair_prob,
            eta_signal=eta, eta_idler=eta, mcp_jitter_fwhm_ps=mcp, dtx_jitter_fwhm_ps=dtx,
            snspd_mcp_conv_jitter_fwhm_ps=mcp + extra, dld_dark_rate_hz=dld_dark,
            snspd_dark_rate_hz=snspd_dark, dead_time_ps=dead)
        with mock.patch.object(simgen, "_BLOCK_PULSES", block):
            oracle, truth = whole_array_stream(model_jsa, cfg)
            try:
                raw, streamed_truth = streamed(model_jsa, cfg)
            except ValueError as exc:
                assert "pulse block" in str(exc)
                event("raised")
                return
        assert raw == oracle
        assert truth_bytes(streamed_truth) == truth_bytes(truth)

    def test_tag_before_written_stream_raises(self, model_jsa):
        # one-pulse blocks (13 ns) and MCP jitter of 1 us: a later block's
        # trigger lands before tags already final. `generate` itself only
        # sets up; the error comes while the chunks are pulled.
        cfg = simgen.AcquisitionConfig(duration_s=2e-6, pair_prob_per_pulse=0.5,
                                       mcp_jitter_fwhm_ps=1e6,
                                       snspd_mcp_conv_jitter_fwhm_ps=1e6)
        with mock.patch.object(simgen, "_BLOCK_PULSES", 1):
            pulled = []
            chunks = simgen.generate(model_jsa, cfg).chunks
            with pytest.raises(ValueError, match=r"pulse block \d+ has a tag at tick"):
                pulled.extend(chunks)
            assert pulled
            result = simgen.generate(model_jsa, cfg)
            with pytest.raises(ValueError, match="pulse block"):
                tagstream.write_stream(result.header, result.chunks, io.BytesIO())

    @pytest.mark.parametrize("cfg", [
        simgen.AcquisitionConfig(duration_s=0.0),
        simgen.AcquisitionConfig(duration_s=0.05, pair_prob_per_pulse=0.0, eta_signal=0.0,
                                 eta_idler=0.0),
        simgen.AcquisitionConfig(duration_s=0.25, pair_prob_per_pulse=0.02,
                                 dead_time_ps={"mcp": 40000.0, "snspd": 20000.0}),
    ], ids=["0s", "sync-only", "dead-time"])
    def test_streamed_equals_whole_array_at_full_blocks(self, model_jsa, cfg):
        raw, truth = streamed(model_jsa, cfg)
        oracle, whole_truth = whole_array_stream(model_jsa, cfg)
        assert raw == oracle
        assert truth_bytes(truth) == truth_bytes(whole_truth)

    def test_sink_memory_follows_block_not_duration(self, monkeypatch, tmp_path):
        # tracemalloc peak of generating and writing a run to a file, with
        # no truth callback and so no truth: the same at d and 8d. A
        # one-cell amplitude keeps the sampler's own arrays out of the peak,
        # and a first run keeps out what numpy sets up on first use.
        monkeypatch.setattr(simgen, "_BLOCK_PULSES", 20_000)
        peaks = []
        for duration in (0.002, 0.002, 0.016):
            cfg = simgen.AcquisitionConfig(duration_s=duration, pair_prob_per_pulse=0.05)
            with open(tmp_path / "run.ttag", "w+b") as fh:
                tracemalloc.start()
                try:
                    result = simgen.generate(single_point_jsa(), cfg)
                    tagstream.write_stream(result.header, result.chunks, fh)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            peaks.append(peak)
        assert abs(peaks[2] - peaks[1]) <= 0.2 * peaks[1], peaks

    def test_sync_marker_memory_per_block(self, monkeypatch, tmp_path):
        # tracemalloc peak of generating and writing a sync-only run of four
        # blocks of 16384 markers, per marker of one block: measured 59 B
        # with each block's markers merged into its sorted tags, 142 B when
        # they were emitted, labelled and sorted with them. The second run
        # counts: the first sets up what numpy allocates on first use.
        markers = 1 << 14
        monkeypatch.setattr(simgen, "_BLOCK_PULSES", 63 * markers)
        cfg = clean_acquisition(pair_prob_per_pulse=0.0, eta_signal=0.0, eta_idler=0.0,
                                duration_s=4 * 63 * markers / 76e6)
        for _ in range(2):
            with open(tmp_path / "run.ttag", "w+b") as fh:
                tracemalloc.start()
                try:
                    result = simgen.generate(None, cfg)
                    tagstream.write_stream(result.header, result.chunks, fh)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert peak / markers <= 80, peak / markers

    @pytest.mark.parametrize("markers", [1 << 14, 1 << 16])
    def test_sync_only_write_peak_per_marker(self, monkeypatch, tmp_path, markers):
        # the run of test_sync_marker_memory_per_block, also at 65536
        # markers a block, bounded tighter: measured 35 and 31 B a marker
        # with the carry cut as each block arrives and each chunk freed by
        # the writer before the next is made, 59 and 55 B with the next
        # block's markers computed ahead and the last chunk held
        monkeypatch.setattr(simgen, "_BLOCK_PULSES", 63 * markers)
        cfg = clean_acquisition(pair_prob_per_pulse=0.0, eta_signal=0.0, eta_idler=0.0,
                                duration_s=4 * 63 * markers / 76e6)
        for _ in range(2):
            with open(tmp_path / "run.ttag", "w+b") as fh:
                tracemalloc.start()
                try:
                    result = simgen.generate(None, cfg)
                    tagstream.write_stream(result.header, result.chunks, fh)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert peak / markers <= 45, peak / markers

    def test_dense_write_peak_per_pair(self, monkeypatch, tmp_path):
        # the tracemalloc peak of generating and writing four blocks at 2%
        # pairs per pulse (5287 pairs a block), per pair of one block:
        # measured 230 B with each arm emitted and each per-pair column
        # deleted once used, 285 B with every arm's jitter and times held
        # until all four arms were emitted
        monkeypatch.setattr(simgen, "_BLOCK_PULSES", 1 << 18)
        cfg = simgen.AcquisitionConfig(duration_s=4 * (1 << 18) / 76e6,
                                       pair_prob_per_pulse=0.02)
        for _ in range(2):
            with open(tmp_path / "run.ttag", "w+b") as fh:
                tracemalloc.start()
                try:
                    result = simgen.generate(single_point_jsa(), cfg)
                    tagstream.write_stream(result.header, result.chunks, fh)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        pairs = len(result.truth) / 4
        assert pairs > 5000
        assert peak / pairs <= 255, peak / pairs


def with_sync_id(sync):
    """A channel map with the sync channel at id `sync` and the other six
    roles permuted over the remaining ids."""
    return st.permutations([c for c in range(7) if c != sync]).map(
        lambda rest: tagstream.ChannelMap(*rest, sync))


def emitted_tags(part, cfg):
    """The (tick, channel) pairs of one `oracle_blocks` block."""
    return set(zip(np.rint(part["t_ps"] / cfg.tick_ps).astype(np.int64).tolist(),
                   part["channel"].tolist()))


def assert_names_its_block(exc, jsa, cfg):
    """A block error names a tag that block emitted, sorting before a tag
    that an earlier block emitted."""
    found = re.fullmatch(r"pulse block (\d+) has a tag at tick (\d+) on channel (\d+), which "
                         r"sorts before tick (\d+) on channel (\d+) of the stream already "
                         r"final: .*", str(exc))
    assert found, str(exc)
    block, tick, channel, final_tick, final_channel = map(int, found.groups())
    assert (tick, channel) < (final_tick, final_channel)
    parts = oracle_blocks(jsa, cfg)
    assert (tick, channel) in emitted_tags(parts[block][0], cfg)
    assert any((final_tick, final_channel) in emitted_tags(tags, cfg)
               for tags, _ in parts[:block])
    return block, channel


class TestSyncMerge:
    """Sync markers are computed per block and merged into the sorted pair
    and dark tags by (tick, channel): on every tie the stream and truth
    must be the whole-array sort's, or the block that sorts before the
    final stream is named."""

    @settings(max_examples=150, deadline=None)
    @given(block=st.one_of(st.integers(1, 16), st.integers(1, 600)),
           n_blocks=st.integers(1, 12), seed=st.integers(0, 2**32),
           channel_map=st.sampled_from([0, 3, 6]).flatmap(with_sync_id),
           rep_rate=st.sampled_from([76e6, 1e9, 4e9]),
           tick=st.one_of(st.just(25), st.integers(1, 5000)),
           divider=st.one_of(st.just(1), st.integers(1, 70)),
           pair_prob=st.floats(0.0, 0.5), mcp_delay=st.sampled_from([0.0, 5000.0]),
           jitter=st.one_of(st.just(0.0), st.floats(1.0, 3000.0)),
           dark=st.one_of(st.just(0.0), st.floats(1e5, 3e7)),
           dead=st.fixed_dictionaries({"sync": _DEAD_TIME_PS, "mcp": _DEAD_TIME_PS}))
    def test_ties_with_markers_equal_whole_array_or_raise(self, model_jsa, block, n_blocks,
                                                          seed, channel_map, rep_rate, tick,
                                                          divider, pair_prob, mcp_delay,
                                                          jitter, dark, dead):
        # zero jitter with no MCP delay puts triggers on sync ticks; a tick
        # longer than the marker spacing puts several markers, and dark
        # tags, on one tick
        cfg = simgen.AcquisitionConfig(
            rep_rate_hz=rep_rate, sync_divider=divider, tick_ps=tick,
            duration_s=block * n_blocks / rep_rate, seed=seed, pair_prob_per_pulse=pair_prob,
            mcp_delay_ps=mcp_delay, mcp_jitter_fwhm_ps=jitter, dtx_jitter_fwhm_ps=jitter,
            snspd_mcp_conv_jitter_fwhm_ps=jitter, dld_dark_rate_hz=dark,
            snspd_dark_rate_hz=dark, dead_time_ps=dead, channel_map=channel_map)
        with mock.patch.object(simgen, "_BLOCK_PULSES", block):
            oracle, truth = whole_array_stream(model_jsa, cfg)
            tags, _ = whole_array_generate(model_jsa, replace(cfg, dead_time_ps={}))
            marker_ticks = tags.timestamp[tags.channel == channel_map.sync]
            if np.isin(tags.timestamp[tags.channel != channel_map.sync], marker_ticks).any():
                event("a pair or dark tag on a marker's tick")
            if len(np.unique(marker_ticks)) < len(marker_ticks):
                event("markers sharing a tick")
            try:
                raw, streamed_truth = streamed(model_jsa, cfg)
            except ValueError as exc:
                assert_names_its_block(exc, model_jsa, cfg)
                event("raised")
                return
        assert raw == oracle
        assert truth_bytes(streamed_truth) == truth_bytes(truth)

    @pytest.mark.parametrize("sync", [0, 3, 6], ids=["sync-lowest", "sync-middle",
                                                     "sync-highest"])
    def test_tags_on_marker_ticks_equal_whole_array(self, monkeypatch, model_jsa, sync):
        # 250 ps pulses on 1 ns ticks: four markers a tick, and every
        # trigger, X1, X2 and dark tag on a marker's tick, on both sides of
        # the sync channel, with dead time on sync and MCP, over 40 blocks
        others = iter([5, 0, 6, 1, 4, 2] if sync == 3 else [c for c in range(7) if c != sync])
        cmap = tagstream.ChannelMap(*others, sync)
        cfg = simgen.AcquisitionConfig(
            rep_rate_hz=4e9, sync_divider=1, tick_ps=1000, duration_s=2e-6,
            pair_prob_per_pulse=0.2, mcp_delay_ps=0.0, mcp_jitter_fwhm_ps=0.0,
            dtx_jitter_fwhm_ps=0.0, snspd_mcp_conv_jitter_fwhm_ps=0.0, dld_dark_rate_hz=1e8,
            dead_time_ps={"sync": 1000.0, "mcp": 2000.0}, channel_map=cmap)
        monkeypatch.setattr(simgen, "_BLOCK_PULSES", 200)
        tags, _ = whole_array_generate(model_jsa, replace(cfg, dead_time_ps={}))
        on_marker = np.isin(tags.timestamp, tags.timestamp[tags.channel == sync])
        assert np.bincount(tags.timestamp[tags.channel == sync]).max() >= 4
        for side in (tags.channel < sync, tags.channel > sync):
            if side.any():
                assert (on_marker & side).sum() > 100
        oracle, truth = whole_array_stream(model_jsa, cfg)
        raw, streamed_truth = streamed(model_jsa, cfg)
        assert raw == oracle
        assert truth_bytes(streamed_truth) == truth_bytes(truth)

    def test_marker_sorting_before_final_stream_raises(self, monkeypatch, model_jsa):
        # one-pulse blocks, a marker every second pulse and only idler
        # detections 7.7 us late: block 1, with no marker, makes final its
        # predecessor's idler tag, and block 2's marker sorts before it
        cmap = tagstream.ChannelMap(0, 1, 2, 4, 5, 6, 3)
        cfg = clean_acquisition(sync_divider=2, duration_s=3e-8, pair_prob_per_pulse=1.0,
                                eta_signal=0.0, seed=3, channel_map=cmap)
        monkeypatch.setattr(simgen, "_BLOCK_PULSES", 1)
        with pytest.raises(ValueError, match="pulse block") as raised:
            tagstream.write_stream(cfg.header(), simgen.generate(model_jsa, cfg).chunks,
                                   io.BytesIO())
        block, channel = assert_names_its_block(raised.value, model_jsa, cfg)
        assert (block, channel) == (2, cmap.sync)


class TestStreamedTruth:
    """`generate` hands the ground truth to its callback in batches of pair
    rows, each once all of its rows' records are final: joined, they must be
    the whole-array pass's truth, in row order, every row once."""

    @settings(max_examples=60, deadline=None)
    @given(block=st.one_of(st.integers(1, 16), st.integers(1, 3000)),
           n_blocks=st.integers(1, 30), seed=st.integers(0, 2**32),
           pair_prob=st.floats(0.0, 0.3),
           dead=st.fixed_dictionaries({"mcp": _DEAD_TIME_PS, "snspd": _DEAD_TIME_PS}))
    def test_batches_join_to_whole_array_truth(self, model_jsa, block, n_blocks, seed,
                                               pair_prob, dead):
        cfg = simgen.AcquisitionConfig(duration_s=block * n_blocks / 76e6, seed=seed,
                                       pair_prob_per_pulse=pair_prob, dead_time_ps=dead)
        arrivals, sizes = [], []  # (chunks yielded before the batch, batch)
        with mock.patch.object(simgen, "_BLOCK_PULSES", block):
            tags, truth = whole_array_generate(model_jsa, cfg)
            result = simgen.generate(model_jsa, cfg,
                                     lambda batch: arrivals.append((len(sizes), batch)))
            chunks = []
            try:
                for chunk in result.chunks:
                    sizes.append(len(chunk))
                    chunks.append(chunk)
            except ValueError as exc:
                assert "pulse block" in str(exc)
                event("raised")
                return
        streamed_tags = tagstream.TagColumns.concatenate(chunks)
        assert np.array_equal(streamed_tags.channel, tags.channel)
        assert np.array_equal(streamed_tags.timestamp, tags.timestamp)
        assert all(len(batch) for _, batch in arrivals)
        # one batch per pulse block with pairs, of its pair count, in block order
        counts = np.bincount(truth.pulse_index // block)
        assert [len(batch) for _, batch in arrivals] == counts[counts > 0].tolist()
        assert sum(len(batch) for _, batch in arrivals) == len(result.truth) == len(truth)
        assert truth_bytes(joined([batch for _, batch in arrivals])) == truth_bytes(truth)
        # a batch's indices lie in the chunks yielded so far or the one in flight
        ends = np.cumsum([0, *sizes])
        for before, batch in arrivals:
            bound = ends[min(before + 1, len(sizes))]
            for col in (batch.mcp_index, batch.x1_index, batch.x2_index, batch.snspd_index):
                assert (col < bound).all()

    def test_no_callback_same_stream_and_pair_count(self, model_jsa):
        cfg = clean_acquisition(duration_s=0.002)
        result = simgen.generate(model_jsa, cfg)
        tags = tagstream.TagColumns.concatenate(result.chunks)
        with_truth, truth = generated(model_jsa, cfg)
        assert result.truth == range(len(truth)) and len(truth) > 0
        assert np.array_equal(tags.channel, with_truth.channel)
        assert np.array_equal(tags.timestamp, with_truth.timestamp)

    def test_records_round_trip_and_appended_lines(self, tmp_path, model_jsa):
        _, truth = generated(model_jsa, clean_acquisition(duration_s=0.002, eta_signal=0.5))
        records = truth.to_records()
        assert records.dtype.itemsize == 58
        assert truth_bytes(simgen.GroundTruth.from_records(records)) == truth_bytes(truth)
        path = tmp_path / "truth.jsonl"
        with open(path, "wb") as fh:
            for lo in range(0, len(records), 1000):
                simgen.GroundTruth.from_records(records[lo:lo + 1000]).write_jsonl(fh)
        assert path.read_bytes() == json_lines_oracle(truth)

    def test_spilled_jsonl_peak_small_and_flat(self, tmp_path):
        # the tracemalloc peak of writing a spill of 4 and 16 formatting
        # chunks, and of 100k rows and a partial chunk, as JSON lines:
        # measured 3.3 MB at each with 4096-row chunks, 15.3 MB with
        # 16384-row chunks. The first run sets up the digit tables.
        chunk = simgen._TRUTH_CHUNK_ROWS
        peaks = []
        for rows in (4 * chunk, 4 * chunk, 16 * chunk, 100_000 + chunk // 2):
            rng = np.random.default_rng(rows)

            def index():
                return np.where(rng.random(rows) < 0.36, rng.integers(0, 10**7, rows), -1)
            truth = simgen.GroundTruth(
                np.sort(rng.integers(0, 152_000_000, rows)), 515.0 + rng.normal(size=rows),
                1550.0 + 5 * rng.normal(size=rows), rng.random(rows) < 0.36,
                rng.random(rows) < 0.36, index(), index(), index(), index())
            with open(tmp_path / "spill", "w+b") as spill:
                simgen.spill_truth(spill, truth)
                tracemalloc.start()
                try:
                    simgen.write_spilled_jsonl(spill, tmp_path / "truth.jsonl")
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        truth.write_jsonl(tmp_path / "whole.jsonl")
        assert (tmp_path / "truth.jsonl").read_bytes() == (tmp_path / "whole.jsonl").read_bytes()
        assert max(peaks[1:]) < 6e6, peaks
        assert max(peaks[1:]) <= 1.1 * min(peaks[1:]), peaks


def json_lines_oracle(truth):
    import json
    return "".join(json.dumps({
        "pulse": int(truth.pulse_index[k]),
        "lambda_s_nm": float(truth.lambda_s[k]),
        "lambda_i_nm": float(truth.lambda_i[k]),
        "signal_detected": bool(truth.signal_detected[k]),
        "idler_detected": bool(truth.idler_detected[k]),
        "mcp": int(truth.mcp_index[k]),
        "x1": int(truth.x1_index[k]),
        "x2": int(truth.x2_index[k]),
        "snspd": int(truth.snspd_index[k]),
    }) + "\n" for k in range(len(truth))).encode()


def field_text(field, values):
    """Each value as the truth writer formats it, through one chunk's
    words; words the field leaves unwritten would show as "AAAA"."""
    k, fill = field(values)
    words = np.full((len(values), k), 0x41414141, dtype=np.uint32)
    fill(words)
    return [bytes(row[row != 0]).decode() for row in words.view(np.uint8)]


def float_edges():
    # values whose scaled form x * 10**s is an exact half: 6e14 + 0.75 is
    # one tenth-ulp-spaced tie that half-even rounding (repr) takes up
    halves = [6e14 + 0.25, 6e14 + 0.75, 7e14 + 0.75, 1e14 + 0.125, 1e14 + 0.375,
              30000000000000.0625, 2.5, 1.25, 0.5, 1.5]
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
             1.7976931348623157e308, -1.7976931348623157e308, 2.0**53 - 1, 2.0**53,
             2.0**53 + 2, 1e15, 1e16, 1e-4, 1.0, 2.0, 3.0, 515.0, 1550.0, -515.25, 0.1, 0.3]
    edges += [2.0**k for k in range(-30, 64)] + [10.0**k for k in range(-8, 24)]
    edges += [math.nextafter(v, toward) for v in edges[:] + halves
              for toward in (-math.inf, math.inf) if math.isfinite(math.nextafter(v, toward))]
    return halves + edges


class TestTruthFormatting:
    """The ground-truth writer formats its columns in numpy; each field
    must read exactly as `repr` (floats) and `str` (integers) do."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                              st.floats(1.0, 1e15)), min_size=1, max_size=40))
    def test_float_matches_repr(self, values):
        assert field_text(simgen._float_field, np.array(values)) == [repr(v) for v in values]

    def test_float_edges_match_repr(self):
        values = float_edges()
        assert field_text(simgen._float_field, np.array(values)) == [repr(v) for v in values]
        for v in values:  # alone, so each chunk width comes from the one value
            assert field_text(simgen._float_field, np.array([v])) == [repr(v)]

    def test_wavelength_digits_found_without_repr(self):
        rng = np.random.default_rng(5)
        values = np.concatenate([515.0 + rng.normal(size=2000), 1550.0 + 5 * rng.normal(size=2000)])
        _, _, exact = simgen._shortest_digits(values)
        assert exact.all()
        assert field_text(simgen._float_field, values) == [repr(v) for v in values.tolist()]

    def test_int_matches_str(self):
        values = [-1, 0, 9, 10, 2**63 - 1, 9999, 10000, 123456789, -10000, -(2**63 - 1)]
        assert field_text(simgen._int_field, np.array(values, dtype=np.int64)) == \
            [str(v) for v in values]
        for v in values:
            assert field_text(simgen._int_field, np.array([v], dtype=np.int64)) == [str(v)]

    @pytest.mark.parametrize("chunk_rows", [1, 7, None])
    def test_jsonl_matches_oracle_at_chunk_sizes(self, monkeypatch, tmp_path, model_jsa,
                                                 chunk_rows):
        if chunk_rows is not None:
            monkeypatch.setattr(simgen, "_TRUTH_CHUNK_ROWS", chunk_rows)
        cfg = clean_acquisition(duration_s=0.002, eta_signal=0.5, eta_idler=0.5)
        _, truth = generated(model_jsa, cfg)
        assert len(truth) > 7 and (truth.snspd_index == -1).any()
        truth.write_jsonl(tmp_path / "truth.jsonl")
        assert (tmp_path / "truth.jsonl").read_bytes() == json_lines_oracle(truth)

    def test_no_pairs_writes_empty_file(self, tmp_path, model_jsa):
        _, truth = generated(model_jsa, clean_acquisition(pair_prob_per_pulse=0.0,
                                                          duration_s=0.001))
        assert len(truth) == 0
        truth.write_jsonl(tmp_path / "truth.jsonl")
        assert (tmp_path / "truth.jsonl").read_bytes() == b""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_wavelength_rejected(self, tmp_path, bad):
        n = 5
        index = np.full(n, -1, dtype=np.int64)
        lam_s, lam_i = np.full(n, 515.0), np.full(n, 1550.0)
        lam_i[3] = bad
        lam_s[4] = np.nan
        truth = simgen.GroundTruth(np.arange(n), lam_s, lam_i, np.zeros(n, bool),
                                   np.zeros(n, bool), index, index, index, index)
        path = tmp_path / "truth.jsonl"
        with pytest.raises(ValueError, match="pair row 3"):
            truth.write_jsonl(path)
        assert not path.exists()


class TestRateAlgebra:
    def test_mcp_singles_within_poisson(self, model_jsa):
        cfg = simgen.AcquisitionConfig(duration_s=1.0)
        tags, _ = generated(model_jsa, cfg)
        n_mcp = int((tags.channel == CMAP.mcp).sum())
        expected = (cfg.rep_rate_hz * cfg.pair_prob_per_pulse * cfg.eta_signal
                    + cfg.dld_dark_rate_hz) * cfg.duration_s
        assert abs(n_mcp - expected) < 3 * np.sqrt(expected)

    def test_dead_time_suppresses_close_tags(self, model_jsa):
        cfg = clean_acquisition(duration_s=0.005, pair_prob_per_pulse=0.05,
                                dead_time_ps={"mcp": 100000.0})
        tags, _ = generated(model_jsa, cfg)
        mcp_t = tags.timestamp[tags.channel == CMAP.mcp]
        gaps = np.diff(mcp_t.astype(np.int64)) * cfg.tick_ps
        assert np.all(gaps >= 100000.0 - cfg.tick_ps)


def greedy_dead_time_mask(ticks, channels, cfg):
    """Reference for simgen._dead_time_mask: the per-tag greedy loop."""
    mask = np.ones(len(ticks), dtype=bool)
    for role, dead_ps in cfg.dead_time_ps.items():
        if dead_ps <= 0:
            continue
        dead_ticks = dead_ps / cfg.tick_ps
        last = None
        for i in np.flatnonzero(channels == getattr(cfg.channel_map, role)):
            if last is not None and ticks[i] - last < dead_ticks:
                mask[i] = False
            else:
                last = ticks[i]
    return mask


_DEAD_PS = st.one_of(st.integers(0, 8).map(lambda k: 25.0 * k), st.floats(0.0, 250.0))


@settings(max_examples=300, deadline=None)
@given(tags=st.lists(st.tuples(st.integers(0, 6),
                               st.sampled_from([CMAP.mcp, CMAP.snspd, CMAP.sync])), max_size=80),
       dead=st.fixed_dictionaries({"mcp": _DEAD_PS, "snspd": _DEAD_PS, "sync": _DEAD_PS}))
@example(tags=[(0, CMAP.mcp), (5, CMAP.mcp), (5, CMAP.mcp)],  # the third tag ties the first
         dead={"mcp": 250.0, "snspd": 0.0, "sync": 0.0})
def test_dead_time_mask_matches_greedy_loop(tags, dead):
    # (gap to the previous tag in ticks, channel): gaps of 0..6 ticks give
    # runs of close tags and equal ticks; dead times of whole ticks (25 ps
    # each) give ties at exactly the dead time
    gaps, channels = zip(*tags) if tags else ((), ())
    ticks = np.cumsum(np.asarray(gaps, dtype=np.int64))
    channels = np.asarray(channels, dtype=np.uint16)
    cfg = simgen.AcquisitionConfig(dead_time_ps=dead)
    np.testing.assert_array_equal(simgen._dead_time_mask(ticks, channels, cfg, {}),
                                  greedy_dead_time_mask(ticks, channels, cfg))


class TestIrfReference:
    def test_generated_irf_fit_recovers_jitter(self, model_jsa):
        cfg = simgen.AcquisitionConfig(duration_s=0.3)
        tags, _ = generated(model_jsa, cfg)
        built = engine.build(tags, CMAP, event_cfg_for(cfg))
        irf = built.histograms["irf"]
        assert irf.total_accumulated > 10_000
        fit = fit_peak((irf.spec.centers() * cfg.tick_ps, irf.counts.astype(float)),
                       model="gaussian")
        assert fit.converged
        assert fit.fwhm == pytest.approx(cfg.mcp_jitter_fwhm_ps, rel=0.05)


class TestReconstruction:
    def test_clean_roundtrip_matches_model(self, model_jsa):
        cfg = clean_acquisition(duration_s=0.3)
        tags, _ = generated(model_jsa, cfg)
        ecfg = event_cfg_for(cfg)
        built = engine.build(tags, CMAP, ecfg)
        assert len(built.coincidences) > 50_000
        expected = expected_jsi_probabilities(model_jsa, cfg, ecfg)
        ncc = normalized_cross_correlation(built.histograms["jsi"].counts, expected)
        assert ncc > 0.97


@pytest.fixture(scope="module")
def default_build(model_jsa):
    cfg = simgen.AcquisitionConfig(duration_s=1.0)
    tags, _ = generated(model_jsa, cfg)
    return cfg, engine.build(tags, CMAP, event_cfg_for(cfg))


class TestOneDimensionalSpectra:
    """Default (jittered) instrument run against the reported projection
    widths; the idler time width in ps over the fibre dispersion must agree
    with the model's spectral marginal."""

    def test_signal_spatial_width(self, default_build):
        cfg, built = default_build
        hist = built.histograms["signal_spectrum"]
        fit = fit_peak((hist.spec.centers(), hist.counts.astype(float)),
                       model="gaussian")
        assert fit.converged
        spatial_fwhm_mm = fit.fwhm * cfg.dld_cal.v_mm_per_tick / 2
        assert spatial_fwhm_mm == pytest.approx(1.86, rel=0.10)

    def test_idler_time_width_consistent_with_marginal(self, default_build, model_jsa):
        cfg, built = default_build
        hist = built.histograms["idler_spectrum"]
        x_ps = (hist.spec.centers() - cfg.fibre_cal.reference_delay_ps / cfg.tick_ps) \
            * cfg.tick_ps
        fit = fit_peak((x_ps, hist.counts.astype(float)), model="sinc_squared")
        assert fit.converged
        width_nm = fit.fwhm / abs(cfg.fibre_cal.dispersion_ps_per_nm)
        assert width_nm == pytest.approx(model_jsa.marginal_fwhm_nm("idler"), rel=0.05)
