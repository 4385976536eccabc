import io

import numpy as np
import pytest

from biphoton import engine, simgen, spdc, tagstream
from biphoton.calibration import fit_peak
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


class TestGenerateBasics:
    def test_sync_only_stream(self, model_jsa):
        cfg = clean_acquisition(pair_prob_per_pulse=0.0, eta_signal=0.0,
                                eta_idler=0.0, duration_s=0.001)
        result = simgen.generate(model_jsa, cfg)
        assert np.all(result.tags.channel == CMAP.sync)
        expected = int(np.floor(cfg.duration_s * cfg.rep_rate_hz / cfg.sync_divider)) + 1
        assert len(result.tags) == expected

    def test_deterministic_given_seed(self, model_jsa):
        cfg = clean_acquisition(duration_s=0.005, seed=777,
                                mcp_jitter_fwhm_ps=263.0, dtx_jitter_fwhm_ps=263.0,
                                snspd_mcp_conv_jitter_fwhm_ps=310.0,
                                dld_dark_rate_hz=2000.0, snspd_dark_rate_hz=200.0)
        a = simgen.generate(model_jsa, cfg)
        b = simgen.generate(model_jsa, cfg)
        assert np.array_equal(a.tags.channel, b.tags.channel)
        assert np.array_equal(a.tags.timestamp, b.tags.timestamp)
        buf_a, buf_b = io.BytesIO(), io.BytesIO()
        tagstream.write_stream(a.header, a.tags, buf_a)
        tagstream.write_stream(b.header, b.tags, buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_stream_is_sorted_and_mapped(self, model_jsa):
        cfg = clean_acquisition(duration_s=0.005, dld_dark_rate_hz=5000.0)
        result = simgen.generate(model_jsa, cfg)
        assert tagstream.first_order_violation(result.tags) is None
        assert set(np.unique(result.tags.channel)) <= set(CMAP.ids())

    def test_point_source_zero_jitter_is_exact(self):
        cfg = clean_acquisition(pair_prob_per_pulse=0.01, duration_s=0.005)
        result = simgen.generate(single_point_jsa(), cfg)
        ecfg = event_cfg_for(cfg)
        built = engine.build(result.tags, CMAP, ecfg)
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
        result = simgen.generate(model_jsa, cfg)
        truth = result.truth
        referenced = np.concatenate([
            col[col >= 0] for col in (truth.mcp_index, truth.x1_index,
                                      truth.x2_index, truth.snspd_index)])
        detection_channels = (CMAP.mcp, CMAP.dld_x1, CMAP.dld_x2, CMAP.snspd)
        detection_tags = np.flatnonzero(np.isin(result.tags.channel, detection_channels))
        assert np.array_equal(np.sort(referenced), detection_tags)

    def test_dark_tags_unreferenced(self, model_jsa):
        cfg = clean_acquisition(duration_s=0.01, dld_dark_rate_hz=3000.0,
                                snspd_dark_rate_hz=1000.0)
        result = simgen.generate(model_jsa, cfg)
        truth = result.truth
        referenced = sum(int((col >= 0).sum()) for col in
                         (truth.mcp_index, truth.x1_index, truth.x2_index,
                          truth.snspd_index))
        detection_channels = (CMAP.mcp, CMAP.dld_x1, CMAP.dld_x2, CMAP.snspd)
        n_detection = int(np.isin(result.tags.channel, detection_channels).sum())
        assert referenced < n_detection  # darks exist and are unlabeled

    def test_labels_point_at_consistent_channels(self, model_jsa):
        cfg = clean_acquisition(duration_s=0.005)
        result = simgen.generate(model_jsa, cfg)
        truth = result.truth
        ch = result.tags.channel
        for col, chan in ((truth.mcp_index, CMAP.mcp), (truth.x1_index, CMAP.dld_x1),
                          (truth.x2_index, CMAP.dld_x2), (truth.snspd_index, CMAP.snspd)):
            idx = col[col >= 0]
            assert np.all(ch[idx] == chan)

    def test_jsonl_roundtrip(self, tmp_path, model_jsa):
        cfg = clean_acquisition(duration_s=0.001)
        result = simgen.generate(model_jsa, cfg)
        path = tmp_path / "truth.jsonl"
        result.truth.write_jsonl(path)
        import json
        lines = [json.loads(line) for line in open(path)]
        assert len(lines) == len(result.truth)
        if lines:
            assert set(lines[0]) == {"pulse", "lambda_s_nm", "lambda_i_nm",
                                     "signal_detected", "idler_detected",
                                     "mcp", "x1", "x2", "snspd"}

    def test_jsonl_bytes_match_json_dumps_oracle(self, tmp_path, model_jsa):
        import json
        cfg = clean_acquisition(duration_s=0.002, eta_signal=0.5, eta_idler=0.5)
        truth = simgen.generate(model_jsa, cfg).truth
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


class TestRateAlgebra:
    def test_mcp_singles_within_poisson(self, model_jsa):
        cfg = simgen.AcquisitionConfig(duration_s=1.0)
        result = simgen.generate(model_jsa, cfg)
        n_mcp = int((result.tags.channel == CMAP.mcp).sum())
        expected = (cfg.rep_rate_hz * cfg.pair_prob_per_pulse * cfg.eta_signal
                    + cfg.dld_dark_rate_hz) * cfg.duration_s
        assert abs(n_mcp - expected) < 3 * np.sqrt(expected)

    def test_dead_time_suppresses_close_tags(self, model_jsa):
        cfg = clean_acquisition(duration_s=0.005, pair_prob_per_pulse=0.05,
                                dead_time_ps={"mcp": 100000.0})
        result = simgen.generate(model_jsa, cfg)
        mcp_t = result.tags.timestamp[result.tags.channel == CMAP.mcp]
        gaps = np.diff(mcp_t.astype(np.int64)) * cfg.tick_ps
        assert np.all(gaps >= 100000.0 - cfg.tick_ps)


class TestIrfReference:
    def test_half_max_crossings_within_tick(self):
        cfg = simgen.AcquisitionConfig()
        hist = simgen.irf_reference(cfg)
        counts = hist.counts.astype(float)
        peak = counts.max()
        above = np.flatnonzero(counts >= peak / 2)
        width_ps = (above[-1] - above[0] + 1) * cfg.tick_ps
        assert abs(width_ps - 263.0) <= cfg.tick_ps

    def test_zero_jitter_single_bin(self):
        cfg = clean_acquisition()
        hist = simgen.irf_reference(cfg)
        assert int((hist.counts > 0).sum()) == 1
        assert int(np.argmax(hist.counts)) == int(cfg.mcp_delay_ps // cfg.tick_ps)

    def test_generated_irf_fit_recovers_jitter(self, model_jsa):
        cfg = simgen.AcquisitionConfig(duration_s=0.3)
        result = simgen.generate(model_jsa, cfg)
        built = engine.build(result.tags, CMAP, event_cfg_for(cfg))
        irf = built.histograms["irf"]
        assert irf.total_accumulated > 10_000
        fit = fit_peak((irf.spec.centers() * cfg.tick_ps, irf.counts.astype(float)),
                       model="gaussian")
        assert fit.converged
        assert fit.fwhm == pytest.approx(cfg.mcp_jitter_fwhm_ps, rel=0.05)


class TestReconstruction:
    def test_clean_roundtrip_matches_model(self, model_jsa):
        cfg = clean_acquisition(duration_s=0.3)
        result = simgen.generate(model_jsa, cfg)
        ecfg = event_cfg_for(cfg)
        built = engine.build(result.tags, CMAP, ecfg)
        assert len(built.coincidences) > 50_000
        expected = expected_jsi_probabilities(model_jsa, cfg, ecfg)
        ncc = normalized_cross_correlation(built.histograms["jsi"].counts, expected)
        assert ncc > 0.97


@pytest.fixture(scope="module")
def default_build(model_jsa):
    cfg = simgen.AcquisitionConfig(duration_s=1.0)
    result = simgen.generate(model_jsa, cfg)
    return cfg, engine.build(result.tags, CMAP, event_cfg_for(cfg))


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
