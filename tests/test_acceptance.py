"""End-to-end acceptance suite. Each test covers one release criterion at its
stated tolerance and reports a PASS/FAIL line in the terminal summary."""

import hashlib
import json
import time

import numpy as np
import pytest

from biphoton import calibration, engine, schmidt, simgen, spdc
from biphoton.tagstream import TagColumns
from biphoton.units import sinc
from conftest import (clean_acquisition, criterion, expected_jsi_probabilities,
                      normalized_cross_correlation)
from test_schmidt import synthetic_jsa
from test_simgen import event_cfg_for

SEED_CLEAN = 4242


@pytest.fixture(scope="module")
def jsa512():
    return spdc.compute_jsa(spdc.PumpSpec(), spdc.CrystalSpec(), spdc.FrequencyGrid())


def reconstructed_schmidt_number(jsi_hist, acq, ecfg):
    """K of a measured joint spectrum via the analysis path (calibrated
    wavelength axes, intensity root, decomposition)."""
    lam_s = calibration.signal_wavelength(
        calibration.dld_position(ecfg.jsi_x_spec.centers(), acq.dld_cal,
                                 guard_ticks=ecfg.dt_guard_ticks), acq.dld_cal)
    lam_i = calibration.idler_wavelength(ecfg.jsi_y_spec.centers(), acq.fibre_cal,
                                         acq.tick_ps)
    rebuilt = schmidt.jsa_from_jsi(jsi_hist.counts.astype(float), lam_s, lam_i)
    return schmidt.schmidt_decompose(rebuilt).schmidt_number


@pytest.fixture(scope="module")
def clean_run(jsa512):
    acq = clean_acquisition(duration_s=3.5)
    ecfg = event_cfg_for(acq)
    sim = simgen.generate(jsa512, acq, SEED_CLEAN)
    built = engine.build(TagColumns.concatenate(sim.chunks), sim.header.channel_map, ecfg)
    return acq, ecfg, built


@pytest.fixture(scope="module")
def jittered_run(jsa512):
    acq = clean_acquisition(duration_s=3.5,
                            mcp_jitter_fwhm_ps=263.0, dtx_jitter_fwhm_ps=263.0,
                            snspd_mcp_conv_jitter_fwhm_ps=310.0)
    ecfg = event_cfg_for(acq)
    sim = simgen.generate(jsa512, acq, SEED_CLEAN)
    built = engine.build(TagColumns.concatenate(sim.chunks), sim.header.channel_map, ecfg)
    return acq, ecfg, built


def test_c01_schmidt_identity_on_random_amplitudes():
    with criterion(1, "K*P = 1 and sum(lambda^2) = 1 within 1e-9 on 100 random "
                      "amplitudes, under 10 s"):
        rng = np.random.Generator(np.random.Philox(key=1))
        start = time.time()
        for _ in range(100):
            rank = int(rng.integers(1, 9))
            coeffs = rng.random(rank) + 0.05
            report = schmidt.schmidt_decompose(synthetic_jsa(coeffs, n=48))
            assert abs(np.sum(report.eigenvalues**2) - 1.0) < 1e-9
            assert abs(report.schmidt_number * report.purity - 1.0) < 1e-9
        assert time.time() - start < 10.0


def test_c02_source_model_reproduces_published_values(jsa512):
    with criterion(2, "default source model: marginals 1.55/13.6 nm, K 5.60, "
                      "P 0.18 within 15%; linearized widths within 2%"):
        start = time.time()
        report = schmidt.schmidt_decompose(jsa512)
        sig = jsa512.marginal_fwhm_nm("signal")
        idl = jsa512.marginal_fwhm_nm("idler")
        assert sig == pytest.approx(1.55, rel=0.15)
        assert idl == pytest.approx(13.6, rel=0.15)
        assert report.schmidt_number == pytest.approx(5.60, rel=0.15)
        assert report.purity == pytest.approx(0.18, rel=0.15)

        linear = spdc.compute_jsa(spdc.PumpSpec(),
                                  spdc.CrystalSpec(pm_model="linearized"),
                                  spdc.FrequencyGrid())
        assert linear.marginal_fwhm_nm("signal") == pytest.approx(1.55, rel=0.02)
        assert linear.marginal_fwhm_nm("idler") == pytest.approx(13.6, rel=0.02)
        assert time.time() - start < 30.0


def test_c03_clean_roundtrip_fidelity(jsa512, clean_run):
    with criterion(3, "zero-jitter round trip at 1e6 pairs: JSI cross-correlation "
                      ">= 0.99 and analysis K within 5% of the direct K"):
        start = time.time()
        acq, ecfg, built = clean_run
        assert len(built.coincidences) >= 1_000_000
        expected = expected_jsi_probabilities(jsa512, acq, ecfg)
        ncc = normalized_cross_correlation(built.histograms["jsi"].counts, expected)
        assert ncc >= 0.99
        k_direct = schmidt.schmidt_decompose(jsa512).schmidt_number
        k_reco = reconstructed_schmidt_number(built.histograms["jsi"], acq, ecfg)
        assert k_reco == pytest.approx(k_direct, rel=0.05)
        assert time.time() - start < 120.0


def test_c04_jitter_degrades_mode_count(clean_run, jittered_run):
    with criterion(4, "published jitters reduce the reconstructed K below "
                      "0.8x the clean value (directional)"):
        acq_c, ecfg_c, built_c = clean_run
        acq_j, ecfg_j, built_j = jittered_run
        k_clean = reconstructed_schmidt_number(built_c.histograms["jsi"], acq_c, ecfg_c)
        k_jittered = reconstructed_schmidt_number(built_j.histograms["jsi"], acq_j, ecfg_j)
        assert k_jittered < k_clean          # strict reduction
        assert k_jittered < 0.8 * k_clean


def test_c05_slice_conservation_exact(jittered_run):
    with criterion(5, "per-cell slice conservation, exact integers, for 25/150/400 ps "
                      "windows"):
        _, ecfg, built = jittered_run
        static = built.histograms["jsi"]
        for width_ticks in (1, 6, 16):
            frames, out_of_window = engine.slice_time_resolved(built.coincidences, ecfg,
                                                               width_ticks, 180, n_windows=10)
            total = out_of_window.counts.copy()
            for frame in frames:
                total += frame.counts
            assert np.array_equal(total, static.counts), f"width {width_ticks}"
            assert out_of_window.out_of_range + sum(
                f.out_of_range for f in frames) == static.out_of_range


@pytest.fixture(scope="module")
def irf_run(jsa512):
    acq = clean_acquisition(pair_prob_per_pulse=0.01, eta_signal=1.0, eta_idler=0.5,
                            duration_s=1.4,
                            mcp_jitter_fwhm_ps=263.0, dtx_jitter_fwhm_ps=263.0,
                            snspd_mcp_conv_jitter_fwhm_ps=310.0)
    ecfg = event_cfg_for(acq)
    sim = simgen.generate(jsa512, acq, 606)
    built = engine.build(TagColumns.concatenate(sim.chunks), sim.header.channel_map, ecfg)
    return acq, ecfg, built


def test_c06_irf_recovery_and_contrast_pattern(irf_run):
    with criterion(6, "response-function fit recovers 263 ps within 5% at >= 1e6 "
                      "events; five 150 ps frames peak in the middle and fall off "
                      "monotonically"):
        acq, ecfg, built = irf_run
        irf = built.histograms["irf"]
        assert int(irf.counts.sum()) + irf.underflow + irf.overflow >= 1_000_000
        fit = calibration.fit_peak((irf.spec.centers() * acq.tick_ps,
                                    irf.counts.astype(float)), model="gaussian")
        assert fit.converged
        assert fit.fwhm == pytest.approx(263.0, rel=0.05)

        peak_tick = int(np.argmax(irf.counts))
        width = 6  # 150 ps
        origin = peak_tick - (5 * width) // 2
        frames, _ = engine.slice_time_resolved(built.coincidences, ecfg, width, origin, 5)
        totals = [f.total_in_range for f in frames]
        assert np.argmax(totals) == 2
        assert totals[0] <= totals[1] <= totals[2]
        assert totals[2] >= totals[3] >= totals[4]


def test_c07_default_rates_match_published_values(jsa512):
    with criterion(7, "tuned defaults over 1 s: singles ~6.1e4 Hz and coincidences "
                      "~2.2e4 Hz within 10%"):
        acq = simgen.AcquisitionConfig(duration_s=1.0)
        ecfg = event_cfg_for(acq)
        sim = simgen.generate(jsa512, acq, 11)
        built = engine.build(TagColumns.concatenate(sim.chunks), sim.header.channel_map, ecfg)
        rates = engine.rates_report(built.diagnostics, acq.duration_s)
        assert rates["singles_hz"]["mcp"] == pytest.approx(6.1e4, rel=0.10)
        assert rates["singles_hz"]["snspd"] == pytest.approx(6.1e4, rel=0.10)
        assert rates["coincidence_rate_hz"] == pytest.approx(2.2e4, rel=0.10)


def test_c08_calibration_fixed_points_exact():
    with criterion(8, "anode position edge cases and the fibre reference point are "
                      "exact; noiseless fits recover parameters to 1e-6"):
        dld = calibration.DldCalibration()
        assert calibration.dld_position(-dld.t_a_ticks, dld) == 0.0
        assert calibration.dld_position(dld.t_a_ticks, dld) == dld.t_a_ticks * dld.v_mm_per_tick
        fibre = calibration.FibreCalibration()
        tau_ref = fibre.reference_delay_ps / 25.0
        assert calibration.idler_wavelength(tau_ref, fibre, 25) == 1550.0

        x = np.linspace(-12, 12, 241)
        g = 50.0 * np.exp(-((x - 0.7) ** 2) / (2 * 1.9**2)) + 4.0
        fit = calibration.fit_peak((x, g), model="gaussian")
        assert fit.converged and fit.width == pytest.approx(1.9, rel=1e-6)
        s = 80.0 * sinc((x - 0.4) / 1.3) ** 2 + 2.0
        fit = calibration.fit_peak((x, s), model="sinc_squared")
        assert fit.converged and fit.width == pytest.approx(1.3, rel=1e-6)


@pytest.fixture(scope="module")
def big_stream_cli(tmp_path_factory):
    """Default-config CLI pipeline on a ~1e7-tag stream, generated twice for
    the hash comparison; the first stream feeds the build determinism check."""
    from test_cli import run_cli, small_config

    tmp = tmp_path_factory.mktemp("bigstream")
    cfg = small_config(tmp, **{"acquisition.duration_s": 6.9,
                               "grid.n_signal": 256, "grid.n_idler": 256})
    mp = pytest.MonkeyPatch()
    try:
        run_cli(mp, ["simulate-jsa", cfg, tmp / "jsa"])
        run_cli(mp, ["gen-tags", tmp / "jsa/jsa.jsag", cfg, tmp / "a.ttag"])
        run_cli(mp, ["gen-tags", tmp / "jsa/jsa.jsag", cfg, tmp / "b.ttag"])
        for threads in (1, 4, 8):
            run_cli(mp, ["build", tmp / "a.ttag", cfg, tmp / f"built_t{threads}",
                         "--threads", threads])
    finally:
        mp.undo()
    return tmp


def test_c09_determinism_and_thread_independence(big_stream_cli):
    with criterion(9, "same-seed generation hashes identically; builds with 1/4/8 "
                      "threads are byte-identical on a 1e7-tag stream"):
        tmp = big_stream_cli
        a = hashlib.sha256((tmp / "a.ttag").read_bytes()).hexdigest()
        b = hashlib.sha256((tmp / "b.ttag").read_bytes()).hexdigest()
        assert a == b
        n_tags = json.loads((tmp / "a.ttag.manifest.json").read_text())["tags"]
        assert n_tags >= 10_000_000
        reference = sorted((tmp / "built_t1").glob("*.csv"))
        assert reference
        # the diagnostics are documented as thread-independent too
        reference.append(tmp / "built_t1" / "diagnostics.json")
        for threads in (4, 8):
            for ref in reference:
                other = tmp / f"built_t{threads}" / ref.name
                assert other.read_bytes() == ref.read_bytes(), (threads, ref.name)


def test_c10_event_builder_throughput(big_stream_cli):
    with criterion(10, "single-threaded event building sustains >= 1e7 tags/s "
                       "(see python3 pipebench/run.py)"):
        from biphoton import tagstream
        from biphoton.config import load_run_config

        tmp = big_stream_cli
        with open(tmp / "a.ttag", "rb") as fh:
            header, tags = tagstream.read_stream_arrays(fh)
        cfg = load_run_config(tmp / "config.json")
        ecfg = cfg.event_config()
        best = 0.0
        for _ in range(2):
            start = time.time()
            engine.build(tags, header.channel_map, ecfg)
            best = max(best, len(tags) / (time.time() - start))
        print(f"\nevent builder throughput: {best/1e6:.1f} Mtags/s on {len(tags)} tags")
        assert best >= 1e7
