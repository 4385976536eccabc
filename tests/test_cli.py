import functools
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from biphoton import cli as cli_mod
from biphoton import engine, schmidt, simgen, spdc, tagstream
from biphoton.config import default_config_dict, load_run_config
from biphoton.histograms import read_matrix_csv
from conftest import assert_fit_matches_scipy
from test_engine import ZERO_DIAGNOSTICS


def run_cli(monkeypatch, args, expect=0):
    monkeypatch.setattr(sys, "argv", ["biphoton"] + [str(a) for a in args])
    with pytest.raises(SystemExit) as exc:
        cli_mod.main()
    code = exc.value.code or 0
    assert code == expect, f"exit {code}, expected {expect} for {args}"


def small_config(tmp_path, name="config.json", **updates):
    doc = default_config_dict()
    doc["grid"]["n_signal"] = 128
    doc["grid"]["n_idler"] = 128
    doc["acquisition"]["duration_s"] = 0.02
    for dotted, value in updates.items():
        node = doc
        *parents, leaf = dotted.split(".")
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """simulate-jsa + gen-tags once; reused by the downstream command tests."""
    tmp = tmp_path_factory.mktemp("pipeline")
    doc = default_config_dict()
    doc["grid"]["n_signal"] = 128
    doc["grid"]["n_idler"] = 128
    doc["acquisition"]["duration_s"] = 0.05
    cfg = tmp / "config.json"
    cfg.write_text(json.dumps(doc))
    monkeypatch = pytest.MonkeyPatch()
    try:
        run_args = lambda args: run_cli(monkeypatch, args)
        run_args(["simulate-jsa", cfg, tmp / "jsa"])
        run_args(["gen-tags", tmp / "jsa/jsa.jsag", cfg, tmp / "tags.ttag"])
        run_args(["build", tmp / "tags.ttag", cfg, tmp / "built"])
    finally:
        monkeypatch.undo()
    return tmp, cfg


class TestSimulateJsa:
    def test_outputs_and_schmidt_report(self, pipeline):
        tmp, _ = pipeline
        assert (tmp / "jsa/jsa.jsag").exists()
        assert (tmp / "jsa/jsi_model.csv").exists()
        report = json.loads((tmp / "jsa/schmidt.json").read_text())
        assert report["schmidt_number"] * report["purity"] == pytest.approx(1.0, abs=1e-9)
        assert report["schmidt_number"] == pytest.approx(5.60, rel=0.15)
        manifest = json.loads((tmp / "jsa/manifest.json").read_text())
        assert "config_sha256" in manifest

    def test_rank_limited_tiny_grid(self, monkeypatch, tmp_path):
        cfg = small_config(tmp_path, **{"grid.n_signal": 2})
        run_cli(monkeypatch, ["simulate-jsa", cfg, tmp_path / "out"])
        report = json.loads((tmp_path / "out/schmidt.json").read_text())
        assert report["schmidt_number"] <= 2.0 + 1e-9

    def test_corrupt_config_exits_2_no_partial_outputs(self, monkeypatch, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        out = tmp_path / "out"
        run_cli(monkeypatch, ["simulate-jsa", bad, out], expect=2)
        assert not out.exists()

    def test_unknown_key_exits_2(self, monkeypatch, tmp_path):
        cfg = small_config(tmp_path, **{"pump.bandwidth": 1.0})
        run_cli(monkeypatch, ["simulate-jsa", cfg, tmp_path / "out"], expect=2)
        assert not (tmp_path / "out").exists()

    def test_sidecar_records_every_source_parameter(self, monkeypatch, tmp_path):
        # the sidecar used to omit the grid centers, so these two were equal
        sidecars = []
        for center in (515.0, 516.0):
            cfg = small_config(tmp_path, **{"grid.n_signal": 16, "grid.n_idler": 16,
                                            "grid.signal_center_nm": center})
            run_cli(monkeypatch, ["simulate-jsa", cfg, tmp_path / "out"])
            doc = json.loads(cfg.read_text())
            sidecar = json.loads((tmp_path / "out/jsa.jsag.json").read_text())
            assert sidecar == {key: doc[key] for key in ("pump", "crystal", "grid", "seed")}
            sidecars.append(sidecar)
        assert sidecars[0] != sidecars[1]


class TestGenTags:
    def test_same_seed_identical_hashes(self, monkeypatch, tmp_path, pipeline):
        src, cfg = pipeline
        for name in ("a.ttag", "b.ttag"):
            run_cli(monkeypatch, ["gen-tags", src / "jsa/jsa.jsag", cfg, tmp_path / name])
        a = hashlib.sha256((tmp_path / "a.ttag").read_bytes()).hexdigest()
        b = hashlib.sha256((tmp_path / "b.ttag").read_bytes()).hexdigest()
        assert a == b
        manifest = json.loads((tmp_path / "a.ttag.manifest.json").read_text())
        assert manifest["sha256"] == a

    def test_env_seed_changes_output(self, monkeypatch, tmp_path, pipeline):
        src, cfg = pipeline
        run_cli(monkeypatch, ["gen-tags", src / "jsa/jsa.jsag", cfg, tmp_path / "a.ttag"])
        monkeypatch.setenv("BIPHOTON_SEED", "31337")
        run_cli(monkeypatch, ["gen-tags", src / "jsa/jsa.jsag", cfg, tmp_path / "b.ttag"])
        assert (tmp_path / "a.ttag").read_bytes() != (tmp_path / "b.ttag").read_bytes()

    @pytest.mark.parametrize("target", ["{out}/run.ttag", "{out}/../out/run.ttag.manifest.json",
                                        "{jsa}", "{cfg}"])
    def test_truth_on_output_or_input_exits_2(self, monkeypatch, capsys, tmp_path, pipeline,
                                              target):
        src, _ = pipeline
        cfg = small_config(tmp_path)
        jsa = tmp_path / "jsa.jsag"
        jsa.write_bytes((src / "jsa/jsa.jsag").read_bytes())
        inputs = {path: path.read_bytes() for path in (jsa, cfg)}
        out = tmp_path / "out"
        out.mkdir()
        run_cli(monkeypatch, ["gen-tags", jsa, cfg, out / "run.ttag",
                              "--truth", target.format(out=out, jsa=jsa, cfg=cfg)], expect=2)
        assert "--truth" in capsys.readouterr().err
        assert list(out.iterdir()) == []
        assert {path: path.read_bytes() for path in inputs} == inputs

    @pytest.mark.parametrize("config_name, target", [
        ("config.json", "{cfg}"), ("config.json", "{jsa}"),
        ("run.ttag.manifest.json", "{out}"), ("run.ttag.partial", "{out}")])
    def test_output_on_input_exits_2(self, monkeypatch, capsys, tmp_path, pipeline,
                                     config_name, target):
        src, _ = pipeline
        cfg = small_config(tmp_path, name=config_name)
        jsa = tmp_path / "jsa.jsag"
        jsa.write_bytes((src / "jsa/jsa.jsag").read_bytes())

        def files():
            return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in tmp_path.iterdir()}
        before = files()
        capsys.readouterr()
        run_cli(monkeypatch, ["gen-tags", jsa, cfg,
                              target.format(out=tmp_path / "run.ttag", jsa=jsa, cfg=cfg)],
                expect=2)
        assert "OUT_PATH" in capsys.readouterr().err
        # the inputs are unchanged, and no partial stream or manifest is left
        assert files() == before

    def test_bytes_after_jsa_exit_1_before_writing(self, monkeypatch, capsys, tmp_path,
                                                  pipeline):
        src, _ = pipeline
        cfg = small_config(tmp_path)
        jsa = tmp_path / "jsa.jsag"
        jsa.write_bytes((src / "jsa/jsa.jsag").read_bytes() + bytes(7))
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        run_cli(monkeypatch, ["gen-tags", jsa, cfg, out / "run.ttag",
                              "--truth", out / "truth.jsonl"], expect=1)
        assert "7 bytes after its amplitude" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("field, index, bad, message", [
        ("amplitude", (10, 20), np.nan,
         "JSA container has a non-finite amplitude at index [10, 20]"),
        ("amplitude", (10, 20), np.inf,
         "JSA container has a non-finite amplitude at index [10, 20]"),
        (None, None, None, "JSA container truncated"),
        ("signal_omega", 0, 0.0, "JSA grid has a non-positive signal axis at index [0] (0.0)"),
        ("idler_omega", 0, -2.0, "JSA grid has a non-positive idler axis at index [0] (-2.0)")],
        ids=["nan", "inf", "oversized-header", "zero-axis", "negative-axis"])
    def test_bad_jsa_exits_1_before_writing(self, monkeypatch, capsys, tmp_path, pipeline,
                                            field, index, bad, message):
        # a non-finite cell would draw every pair into one grid cell, a
        # header declaring 2**31 x 2**31 cells would ask for that much
        # memory, and an axis reaching zero or below would give pairs
        # infinite or negative wavelengths
        src, _ = pipeline
        jsa = tmp_path / "jsa.jsag"
        if field is None:
            jsa.write_bytes(spdc._JSA_HEADER.pack(spdc.JSA_MAGIC, spdc.JSA_VERSION,
                                                  2**31, 2**31, 1) + bytes(64))
        else:
            grid = spdc.read_jsa_file(src / "jsa/jsa.jsag")
            getattr(grid, field)[index] = bad
            spdc.write_jsa_file(jsa, grid)
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        run_cli(monkeypatch, ["gen-tags", jsa, small_config(tmp_path), out / "run.ttag",
                              "--truth", out / "truth.jsonl"], expect=1)
        assert f"error: {message}" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("env_seed, file_seed, source", [
        ("-5", 1, "BIPHOTON_SEED"), (str(2**64), 1, "BIPHOTON_SEED"), (None, 2**64, "seed")])
    def test_bad_seed_exits_2_before_work(self, monkeypatch, capsys, tmp_path, pipeline,
                                          env_seed, file_seed, source):
        src, _ = pipeline
        cfg = small_config(tmp_path, seed=file_seed)
        if env_seed is not None:
            monkeypatch.setenv("BIPHOTON_SEED", env_seed)
        out = tmp_path / "out"
        out.mkdir()
        for args in (["simulate-jsa", cfg, out / "jsa"],
                     ["gen-tags", src / "jsa/jsa.jsag", cfg, out / "run.ttag"]):
            capsys.readouterr()
            run_cli(monkeypatch, args, expect=2)
            err = capsys.readouterr().err
            assert f"{source} must be an integer in [0, 2**64)" in err
            assert "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("key, value", [
        ("acquisition.tick_ps", True), ("acquisition.sync_divider", 63.5),
        ("event_build.fold_sync", "no"), ("acquisition.dld_cal.t_a_ticks", 800.5),
        ("event_build.jsi_signal_count", True), ("grid.n_signal", 64.5)])
    def test_value_of_wrong_type_exits_2_before_work(self, monkeypatch, capsys, tmp_path,
                                                     pipeline, key, value):
        src, _ = pipeline
        cfg = small_config(tmp_path, **{key: value})
        out = tmp_path / "out"
        out.mkdir()
        for args in (["simulate-jsa", cfg, out / "jsa"],
                     ["gen-tags", src / "jsa/jsa.jsag", cfg, out / "run.ttag"],
                     ["build", src / "tags.ttag", cfg, out / "built"]):
            capsys.readouterr()
            run_cli(monkeypatch, args, expect=2)
            err = capsys.readouterr().err
            assert f"{key} must be" in err
            assert "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("key, value", [
        ("acquisition.mcp_jitter_fwhm_ps", float("nan")),
        ("acquisition.dld_cal.grating_dispersion_nm_per_mm", float("nan")),
        ("acquisition.dead_time_ps.mcp", float("nan")),
        ("acquisition.duration_s", float("inf")),
        ("acquisition.duration_s", 10**400),
        ("crystal.linearized_coeffs", [1.0, float("-inf")])])
    def test_non_finite_number_exits_2_before_work(self, monkeypatch, capsys, tmp_path,
                                                   pipeline, key, value):
        # JSON as Python reads it takes NaN, Infinity and integers beyond a
        # float: they had dropped every pair tag, applied no dead time or
        # overflowed the pulse count
        src, _ = pipeline
        cfg = small_config(tmp_path, **{key: value})
        out = tmp_path / "out"
        out.mkdir()
        for args in (["simulate-jsa", cfg, out / "jsa"],
                     ["gen-tags", src / "jsa/jsa.jsag", cfg, out / "run.ttag"],
                     ["build", src / "tags.ttag", cfg, out / "built"]):
            capsys.readouterr()
            run_cli(monkeypatch, args, expect=2)
            err = capsys.readouterr().err
            assert f"error: {key} must be a number" in err or \
                f"error: {key} must be a list of 2 (a number, a number)" in err
            assert "Traceback" not in err
        assert list(out.iterdir()) == []

    def test_tick_beyond_u32_exits_2_before_work(self, monkeypatch, capsys, tmp_path, pipeline):
        # the stream header holds the tick as a u32: a larger tick must fail
        # at the config, not once the whole stream is generated
        src, _ = pipeline
        cfg = small_config(tmp_path, **{"acquisition.tick_ps": 2**32})
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        run_cli(monkeypatch, ["gen-tags", src / "jsa/jsa.jsag", cfg, out / "run.ttag"], expect=2)
        err = capsys.readouterr().err
        assert "tick_ps must be an integer in [1, 2**32)" in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    def test_zero_duration_minimal_file(self, monkeypatch, tmp_path, pipeline):
        src, _ = pipeline
        cfg = small_config(tmp_path, **{"acquisition.duration_s": 0.0})
        run_cli(monkeypatch, ["gen-tags", src / "jsa/jsa.jsag", cfg, tmp_path / "z.ttag"])
        from biphoton import tagstream
        with open(tmp_path / "z.ttag", "rb") as fh:
            header, tags = tagstream.read_stream_arrays(fh)
        assert len(tags) == 1
        assert tags.channel[0] == header.channel_map.sync

    def test_truth_sidecar(self, monkeypatch, tmp_path, pipeline):
        src, cfg = pipeline
        run_cli(monkeypatch, ["gen-tags", src / "jsa/jsa.jsag", cfg,
                              tmp_path / "t.ttag", "--truth", tmp_path / "truth.jsonl"])
        lines = (tmp_path / "truth.jsonl").read_text().splitlines()
        assert lines and json.loads(lines[0])["mcp"] >= -1
        # every line's keys are the record's field names, in order
        assert all(list(json.loads(line)) == list(simgen.TRUTH_RECORD.names) for line in lines)

    def test_manifest_counts_match_outputs(self, monkeypatch, tmp_path, pipeline):
        src, cfg = pipeline
        stream, truth = tmp_path / "m.ttag", tmp_path / "truth.jsonl"
        run_cli(monkeypatch, ["gen-tags", src / "jsa/jsa.jsag", cfg, stream, "--truth", truth])
        manifest = json.loads((tmp_path / "m.ttag.manifest.json").read_text())
        from biphoton import tagstream
        with open(stream, "rb") as fh:
            header = tagstream.StreamHeader.from_bytes(fh.read(tagstream.HEADER_SIZE))
        assert manifest["tags"] == header.record_count > 0
        assert manifest["bytes"] == stream.stat().st_size
        assert manifest["pairs"] == truth.read_bytes().count(b"\n") > 0

    def test_rate_algebra_short_run(self, monkeypatch, tmp_path, pipeline):
        src, cfg = pipeline
        run_cli(monkeypatch, ["gen-tags", src / "jsa/jsa.jsag", cfg, tmp_path / "r.ttag"])
        from biphoton import tagstream
        from biphoton.config import load_run_config
        with open(tmp_path / "r.ttag", "rb") as fh:
            header, tags = tagstream.read_stream_arrays(fh)
        acq = load_run_config(cfg).acquisition
        n_mcp = int((tags.channel == header.channel_map.mcp).sum())
        expected = (acq.rep_rate_hz * acq.pair_prob_per_pulse * acq.eta_signal
                    + acq.dld_dark_rate_hz) * acq.duration_s
        assert abs(n_mcp - expected) <= 3 * np.sqrt(expected) + 1


    def test_failed_generation_leaves_no_stream(self, monkeypatch, tmp_path, pipeline):
        # six pulse blocks, the third fails: the first chunks are already
        # written by then, to a path that never becomes the output
        src, _ = pipeline
        cfg = small_config(tmp_path)
        emit_block = simgen._emit_block

        def fail_third(draw_pairs, acq, rng, n_pairs, pulse_lo, *args):
            if pulse_lo == 2 * 300_000:
                raise ValueError("injected failure in block 2")
            return emit_block(draw_pairs, acq, rng, n_pairs, pulse_lo, *args)
        monkeypatch.setattr(simgen, "_BLOCK_PULSES", 300_000)
        monkeypatch.setattr(simgen, "_emit_block", fail_third)
        out = tmp_path / "out"
        out.mkdir()
        run_cli(monkeypatch, ["gen-tags", src / "jsa/jsa.jsag", cfg, out / "run.ttag",
                              "--truth", out / "truth.jsonl"], expect=1)
        assert list(out.iterdir()) == []

    def test_failed_truth_leaves_no_stream(self, monkeypatch, tmp_path, pipeline):
        # the stream is complete before the truth is written, but takes its
        # name only once the truth is complete too
        src, _ = pipeline
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        run_cli(monkeypatch, ["gen-tags", src / "jsa/jsa.jsag", cfg, out / "run.ttag",
                              "--truth", tmp_path / "missing" / "truth.jsonl"], expect=1)
        assert list(out.iterdir()) == []
        assert not (tmp_path / "missing").exists()

    def test_truth_equals_whole_array_oracle(self, monkeypatch, tmp_path, pipeline):
        # six pulse blocks, and 1000-row read-back batches and formatting
        # chunks: the JSON lines are those of the whole-array truth, and the
        # stream its records
        from test_simgen import json_lines_oracle, whole_array_generate
        src, _ = pipeline
        cfg = small_config(tmp_path)
        monkeypatch.setattr(simgen, "_BLOCK_PULSES", 300_000)
        monkeypatch.setattr(simgen, "_TRUTH_CHUNK_ROWS", 1000)
        stream, truth = tmp_path / "run.ttag", tmp_path / "truth.jsonl"
        run_cli(monkeypatch, ["gen-tags", src / "jsa/jsa.jsag", cfg, stream, "--truth", truth])
        from biphoton.config import load_run_config
        from biphoton.spdc import read_jsa_file
        run = load_run_config(cfg)
        tags, whole = whole_array_generate(read_jsa_file(src / "jsa/jsa.jsag"),
                                           run.acquisition, run.seed)
        assert len(whole) > 3000
        assert truth.read_bytes() == json_lines_oracle(whole)
        with open(stream, "rb") as fh:
            _, streamed = tagstream.read_stream_arrays(fh)
        assert np.array_equal(streamed.channel, tags.channel)
        assert np.array_equal(streamed.timestamp, tags.timestamp)
        assert json.loads((tmp_path / "run.ttag.manifest.json").read_text())["pairs"] == \
            len(whole)

    def test_non_finite_wavelength_exits_1_before_truth_opens(self, monkeypatch, capsys,
                                                              tmp_path, pipeline):
        # block 2 of six gets a non-finite idler wavelength at its fourth
        # pair (its tags are already made): the error names the global row
        src, _ = pipeline
        cfg = small_config(tmp_path)
        emit_block, bad_rows, opened = simgen._emit_block, [], []
        builtin_open = open

        def bad_third(draw_pairs, acq, rng, n_pairs, pulse_lo, pulse_hi, first_row):
            tags, pairs = emit_block(draw_pairs, acq, rng, n_pairs, pulse_lo, pulse_hi,
                                     first_row)
            if pulse_lo == 2 * 300_000:
                pairs["lambda_i_nm"][3] = np.inf
                bad_rows.append(first_row + 3)
            return tags, pairs

        def recording_open(path, *args, **kwargs):
            opened.append(str(path))
            return builtin_open(path, *args, **kwargs)
        monkeypatch.setattr(simgen, "_BLOCK_PULSES", 300_000)
        monkeypatch.setattr(simgen, "_emit_block", bad_third)
        monkeypatch.setattr("builtins.open", recording_open)
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        run_cli(monkeypatch, ["gen-tags", src / "jsa/jsa.jsag", cfg, out / "run.ttag",
                              "--truth", out / "truth.jsonl"], expect=1)
        assert bad_rows and bad_rows[0] > 3
        assert f"ground truth pair row {bad_rows[0]} has a non-finite wavelength" in \
            capsys.readouterr().err
        assert list(out.iterdir()) == []
        assert [path for path in opened if path.startswith(str(out))] == \
            [str(out / "run.ttag.partial")]

    def test_truth_peak_is_flat_in_stream_length(self, monkeypatch, tmp_path, pipeline):
        # traced peak of `gen-tags --truth` at d and 4d, 16k pairs per
        # 158k-pulse block (2**16 expected tags): the truth (58 bytes a
        # pair) must not be held
        src, _ = pipeline
        monkeypatch.setattr(simgen, "_BLOCK_PULSES", 200_000)
        peaks = []
        for duration in (0.02, 0.02, 0.08):
            cfg = small_config(tmp_path, **{"acquisition.duration_s": duration,
                                            "acquisition.pair_prob_per_pulse": 0.1})
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                cli_mod.cmd_gen_tags.callback(str(src / "jsa/jsa.jsag"), str(cfg),
                                              str(tmp_path / "run.ttag"),
                                              str(tmp_path / "truth.jsonl"))
                peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2**20)
            finally:
                tracemalloc.stop()
        pairs = json.loads((tmp_path / "run.ttag.manifest.json").read_text())["pairs"]
        assert pairs > 500_000  # over 29 MB of truth at 4d
        assert peaks[2] < peaks[1] * 1.1 + 1, peaks


class TestBuild:
    def test_outputs_exist_and_conserve(self, pipeline):
        tmp, _ = pipeline
        for name in ("irf.csv", "signal_spectrum.csv", "idler_spectrum.csv",
                     "jsi.csv", "diagnostics.json", "manifest.json"):
            assert (tmp / "built" / name).exists()
        assert not (tmp / "built" / "dld_y_spectrum.csv").exists()
        diag = json.loads((tmp / "built/diagnostics.json").read_text())
        jsi, meta = read_matrix_csv(tmp / "built/jsi.csv")
        assert int(jsi.sum()) == diag["coincidences"] - diag["jsi_out_of_range"]
        assert "rates" in diag

    def test_diagnostics_count_every_record(self, pipeline):
        tmp, _ = pipeline
        diag = json.loads((tmp / "built/diagnostics.json").read_text())
        with open(tmp / "tags.ttag", "rb") as fh:
            header = tagstream.StreamHeader.from_bytes(fh.read(tagstream.HEADER_SIZE))
        assert sum(diag["tag_counts"].values()) == diag["records"] == header.record_count > 0

    def test_thread_count_does_not_change_bytes(self, monkeypatch, tmp_path, pipeline):
        tmp, cfg = pipeline
        outputs = {}
        for threads in (1, 4):
            out = tmp_path / f"t{threads}"
            run_cli(monkeypatch, ["build", tmp / "tags.ttag", cfg, out,
                                  "--threads", threads])
            outputs[threads] = {name.name: name.read_bytes()
                                for name in out.glob("*.csv")}
        assert outputs[1] == outputs[4]

    def test_empty_stream_zero_histograms(self, monkeypatch, tmp_path, pipeline):
        src, _ = pipeline
        cfg = small_config(tmp_path, **{"acquisition.duration_s": 0.0})
        run_cli(monkeypatch, ["gen-tags", src / "jsa/jsa.jsag", cfg, tmp_path / "z.ttag"])
        run_cli(monkeypatch, ["build", tmp_path / "z.ttag", cfg, tmp_path / "out"])
        jsi, _ = read_matrix_csv(tmp_path / "out/jsi.csv")
        assert jsi.sum() == 0

    def test_header_only_stream_writes_no_rates(self, monkeypatch, tmp_path):
        stream = tmp_path / "empty.ttag"
        with open(stream, "wb") as fh:
            tagstream.write_stream(tagstream.StreamHeader(), tagstream.TagColumns.empty(), fh)
        run_cli(monkeypatch, ["build", stream, small_config(tmp_path), tmp_path / "out"])
        diag = json.loads((tmp_path / "out/diagnostics.json").read_text())
        assert "rates" not in diag
        assert diag == {**ZERO_DIAGNOSTICS, "jsi_out_of_range": 0, "records": 0,
                        "irf_fit": {"converged": False}}

    @pytest.mark.parametrize("jitter_ps", [150.0, 263.0])
    def test_irf_fit_states_the_configured_jitter(self, monkeypatch, tmp_path, pipeline,
                                                  jitter_ps):
        # 0.3 s streams of two seeds: the response's gaussian FWHM is the
        # MCP jitter, since sync markers are exact
        src, _ = pipeline
        for seed in (1, 2):
            cfg = small_config(tmp_path, seed=seed,
                               **{"acquisition.duration_s": 0.3,
                                  "acquisition.mcp_jitter_fwhm_ps": jitter_ps})
            run_cli(monkeypatch, ["gen-tags", src / "jsa/jsa.jsag", cfg, tmp_path / "run.ttag"])
            run_cli(monkeypatch, ["build", tmp_path / "run.ttag", cfg, tmp_path / "out"])
            fit = json.loads((tmp_path / "out/diagnostics.json").read_text())["irf_fit"]
            assert fit["converged"] is True
            assert fit["fwhm_ps"] == pytest.approx(jitter_ps, rel=0.05), (seed, fit)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_block_fold_equals_whole_array_build(self, monkeypatch, tmp_path, pipeline,
                                                 threads):
        tmp, cfg = pipeline
        stream = tmp / "tags.ttag"
        whole = tmp_path / "whole"
        fold = engine.fold_stream_blocks
        with monkeypatch.context() as mp:
            mp.setattr(engine, "fold_stream_blocks",
                       lambda blocks, channel_map, event_cfg, threads: fold(
                           [tagstream.TagColumns.concatenate(blocks)], channel_map, event_cfg,
                           threads=threads))
            run_cli(mp, ["build", stream, cfg, whole])
        # 997-record blocks and 500-tag steps: many steps span a block boundary
        monkeypatch.setattr(tagstream, "iter_stream_blocks",
                            functools.partial(tagstream.iter_stream_blocks, block_records=997))
        monkeypatch.setattr(engine, "_STEP_BUDGET", 500)
        out = tmp_path / "folded"
        run_cli(monkeypatch, ["build", stream, cfg, out, "--threads", threads])
        names = sorted(path.name for path in whole.iterdir())
        assert names == sorted(path.name for path in out.iterdir())
        for name in names:
            if name != "manifest.json":
                assert (out / name).read_bytes() == (whole / name).read_bytes(), name
        with open(stream, "rb") as fh:
            header, tags = tagstream.read_stream_arrays(fh)
        assert len(tags) > 20 * 997
        t = tags.timestamp
        rates = json.loads((out / "diagnostics.json").read_text())["rates"]
        assert rates["duration_s"] == (int(t[-1]) - int(t[0]) + 1) * header.tick_ps * 1e-12

    def test_build_peak_is_flat_in_stream_length(self, tmp_path):
        # 1M-tag blocks of 3500-tick pulses, longer than the anode window: a
        # sync tag, an MCP trigger, an SNSPD tag in the idler gate of the
        # trigger 88 pulses earlier (88 * 3500 ticks is the template's gate
        # center) and two wire tags
        cfg = small_config(tmp_path)
        cmap = tagstream.ChannelMap()
        roles = ("sync", "mcp", "snspd", "dld_x1", "dld_x2")
        offsets = np.array([0, 10, 12, 20, 30])
        pulses = (1 << 20) // len(roles)
        channel = np.tile(np.array([getattr(cmap, r) for r in roles], dtype=np.uint16), pulses)

        def blocks(n_blocks):
            for k in range(n_blocks):
                start = (k * pulses + np.arange(pulses, dtype=np.int64)) * 3500
                yield tagstream.TagColumns(channel, (start[:, None] + offsets).ravel())

        peaks = []
        for n_blocks in (2, 4):
            stream = tmp_path / f"{n_blocks}.ttag"
            with open(stream, "wb") as fh:
                tagstream.write_stream(tagstream.StreamHeader(), blocks(n_blocks), fh)
            out = tmp_path / f"out{n_blocks}"
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                cli_mod.cmd_build.callback(str(stream), str(cfg), str(out), threads=1)
                peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2**20)
            finally:
                tracemalloc.stop()
            diag = json.loads((out / "diagnostics.json").read_text())
            assert diag["coincidences"] == n_blocks * pulses - 88
            stream.unlink()
        # one 1M-record block (10 MB) and its steps, whatever the stream length
        assert peaks[0] < 18, peaks
        assert peaks[1] < peaks[0] * 1.1 + 1, peaks

    @pytest.mark.parametrize("command", ["build", "slice"])
    def test_tick_checked_before_any_record(self, monkeypatch, capsys, tmp_path, command):
        # the junk body is not a whole record: the tick must be named first
        stream = tmp_path / "junk.ttag"
        stream.write_bytes(tagstream.StreamHeader(tick_ps=10).to_bytes() + b"junk body")
        capsys.readouterr()
        run_cli(monkeypatch, [command, stream, small_config(tmp_path), tmp_path / "out"],
                expect=1)
        err = capsys.readouterr().err
        assert f"{stream} has 10 ps ticks but the config's acquisition.tick_ps is 25 ps" in err
        assert not (tmp_path / "out").exists()

    def test_bad_stream_exits_1(self, monkeypatch, tmp_path, pipeline):
        _, cfg = pipeline
        bad = tmp_path / "junk.ttag"
        bad.write_bytes(b"XTAG" + bytes(40))
        run_cli(monkeypatch, ["build", bad, cfg, tmp_path / "out"], expect=1)

    def test_stream_with_swapped_halves_exits_1(self, monkeypatch, capsys, tmp_path, pipeline):
        from biphoton import tagstream
        tmp, cfg = pipeline
        raw = (tmp / "tags.ttag").read_bytes()
        header, body = raw[:tagstream.HEADER_SIZE], raw[tagstream.HEADER_SIZE:]
        n = len(body) // tagstream.RECORD_SIZE
        half = (n // 2) * tagstream.RECORD_SIZE
        swapped = tmp_path / "swapped.ttag"
        swapped.write_bytes(header + body[half:] + body[:half])
        capsys.readouterr()
        run_cli(monkeypatch, ["build", swapped, cfg, tmp_path / "out"], expect=1)
        err = capsys.readouterr().err
        # the first record of the old first half now follows the last record
        assert f"byte offset {tagstream.HEADER_SIZE + len(body) - half}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["build", "slice"])
    def test_config_tick_must_match_stream(self, monkeypatch, capsys, tmp_path, pipeline,
                                           command):
        tmp, _ = pipeline
        cfg = small_config(tmp_path, **{"acquisition.tick_ps": 50})
        capsys.readouterr()
        run_cli(monkeypatch, [command, tmp / "tags.ttag", cfg, tmp_path / "out"], expect=1)
        err = capsys.readouterr().err
        assert "25 ps" in err and "50 ps" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, section", [("acquisition.tick_ps", "acquisition"),
                                              ("event_build.jsi_signal_count", "event_build")])
    def test_invalid_config_value_exits_2(self, monkeypatch, capsys, tmp_path, pipeline,
                                          key, section):
        tmp, _ = pipeline
        cfg = small_config(tmp_path, **{key: 0})
        capsys.readouterr()
        run_cli(monkeypatch, ["build", tmp / "tags.ttag", cfg, tmp_path / "out"], expect=2)
        err = capsys.readouterr().err
        assert section in err and key.split(".")[1] in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["build", "slice"])
    def test_gate_before_trigger_exits_2(self, monkeypatch, capsys, tmp_path, pipeline,
                                         command):
        # a 5000 ps reference delay is 200 ticks, inside the 400-tick half width
        tmp, _ = pipeline
        cfg = small_config(tmp_path, **{"acquisition.fibre_cal.reference_delay_ps": 5000.0})
        capsys.readouterr()
        run_cli(monkeypatch, [command, tmp / "tags.ttag", cfg, tmp_path / "out"], expect=2)
        err = capsys.readouterr().err
        assert "acquisition.fibre_cal.reference_delay_ps" in err
        assert "event_build.gate_half_width_ticks" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["build", "slice"])
    @pytest.mark.parametrize("width, edge", [(13, 832), (20, 1280)])
    def test_jsi_signal_edges_beyond_anode_exit_2_before_reading(self, monkeypatch, capsys,
                                                                 tmp_path, command, width,
                                                                 edge):
        # 128 signal bins centred on the anode: at 13 ticks their edges lie
        # inside the 840-tick guard but beyond the anode's ends at 800 ticks
        junk = tmp_path / "junk.ttag"
        junk.write_bytes(b"XTAG" + bytes(40))  # reading it would exit 1
        cfg = small_config(tmp_path, **{"event_build.jsi_signal_width_ticks": width})
        capsys.readouterr()
        run_cli(monkeypatch, [command, junk, cfg, tmp_path / "out"], expect=2)
        err = capsys.readouterr().err
        for text in ("event_build.jsi_signal_width_ticks", "event_build.jsi_signal_count",
                     f"[-{edge}, {edge}]", "acquisition.dld_cal.t_a_ticks (800 ticks)"):
            assert text in err
        assert not (tmp_path / "out").exists()

    def test_timestamp_beyond_int64_exits_1(self, monkeypatch, capsys, tmp_path, pipeline):
        from biphoton import tagstream
        _, cfg = pipeline
        records = np.zeros(3, dtype=tagstream.RECORD_DTYPE)
        records["timestamp"] = [2**63 + 5, 2**63 + 9, 2**63 + 100]
        bad = tmp_path / "huge.ttag"
        bad.write_bytes(tagstream.StreamHeader(record_count=3).to_bytes() + records.tobytes())
        capsys.readouterr()
        run_cli(monkeypatch, ["build", bad, cfg, tmp_path / "out"], expect=1)
        err = capsys.readouterr().err
        assert "int64" in err and f"byte offset {tagstream.HEADER_SIZE}" in err
        assert not (tmp_path / "out").exists()

    def test_unmapped_channel_exits_1(self, monkeypatch, capsys, tmp_path, pipeline):
        from biphoton import tagstream
        tmp, cfg = pipeline
        raw = bytearray((tmp / "tags.ttag").read_bytes())
        record = 1000
        offset = tagstream.HEADER_SIZE + record * tagstream.RECORD_SIZE
        raw[offset:offset + 2] = (9).to_bytes(2, "little")
        bad = tmp_path / "unmapped.ttag"
        bad.write_bytes(bytes(raw))
        capsys.readouterr()
        run_cli(monkeypatch, ["build", bad, cfg, tmp_path / "out"], expect=1)
        err = capsys.readouterr().err
        assert "channel 9" in err and f"byte offset {offset}" in err
        assert not (tmp_path / "out").exists()


class TestProvenance:
    def test_every_manifest_records_provenance(self, monkeypatch, tmp_path, pipeline):
        tmp, cfg = pipeline
        run_cli(monkeypatch, ["slice", tmp / "tags.ttag", cfg, tmp_path / "sliced"])
        manifests = [json.loads(path.read_text()) for path in (
            tmp / "jsa/manifest.json", tmp / "tags.ttag.manifest.json",
            tmp / "built/manifest.json", tmp_path / "sliced/manifest.json")]
        assert [m["command"] for m in manifests] == ["simulate-jsa", "gen-tags", "build", "slice"]
        for manifest in manifests:
            assert {"command", "config_sha256", "seed", "biphoton_version",
                    "numpy_version"} <= manifest.keys()
            assert manifest["numpy_version"] == np.__version__
            assert manifest["config_sha256"] == manifests[0]["config_sha256"]
        assert manifests[0]["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()

    def test_every_csv_header_value_is_json(self, monkeypatch, tmp_path, pipeline):
        tmp, cfg = pipeline
        run_cli(monkeypatch, ["slice", tmp / "tags.ttag", cfg, tmp_path / "sliced"])
        paths = [*(tmp / "built").glob("*.csv"), *(tmp_path / "sliced").glob("*.csv")]
        assert {"signal_axis.csv", "idler_axis.csv", "frame_00.csv"} <= {p.name for p in paths}
        for path in paths:
            for line in path.read_text().splitlines():
                if line.startswith("#"):
                    key, colon, value = line[1:].partition(":")
                    assert colon, (path.name, line)
                    json.loads(value)


class TestCountOptions:
    @pytest.mark.parametrize("command,option,value", [("build", "--threads", 0),
                                                      ("build", "--threads", -3),
                                                      ("slice", "--frames", 0),
                                                      # 89 windows of 150 ps
                                                      ("slice", "--frames", 89)])
    def test_bad_count_exits_2_before_reading(self, monkeypatch, capsys, tmp_path, pipeline,
                                              command, option, value):
        _, cfg = pipeline
        # reading this stream would fail with exit 1
        junk = tmp_path / "junk.ttag"
        junk.write_bytes(b"XTAG" + bytes(40))
        capsys.readouterr()
        run_cli(monkeypatch, [command, junk, cfg, tmp_path / "out", option, value], expect=2)
        assert option in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sub_tick_window_exits_1_before_reading(self, monkeypatch, capsys, tmp_path,
                                                   pipeline):
        _, cfg = pipeline
        junk = tmp_path / "junk.ttag"
        junk.write_bytes(b"XTAG" + bytes(40))
        capsys.readouterr()
        run_cli(monkeypatch, ["slice", junk, cfg, tmp_path / "out", "--window", 10], expect=1)
        err = capsys.readouterr().err
        assert "window must be at least one tick" in err
        assert "magic" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option,value", [("--window", "inf"), ("--window", "nan"),
                                              ("--origin", "inf"), ("--origin", "-inf"),
                                              ("--origin", "nan"), ("--window", "1e30"),
                                              ("--origin", "1e30"), ("--origin", "-1e30"),
                                              # widths and origins in int64 ticks, but
                                              # a window edge beyond them: the default
                                              # origin is 2.5 windows before the peak
                                              ("--window", "2e20"),
                                              ("--origin", "1e20 --window 1e20")])
    def test_non_finite_window_exits_2_before_reading(self, monkeypatch, capsys, tmp_path,
                                                      pipeline, option, value):
        _, cfg = pipeline
        junk = tmp_path / "junk.ttag"
        junk.write_bytes(b"XTAG" + bytes(40))
        capsys.readouterr()
        run_cli(monkeypatch, ["slice", junk, cfg, tmp_path / "out", option, *value.split()],
                expect=2)
        err = capsys.readouterr().err
        # a finite value whose tick count does not fit the int64 columns
        assert option in err and ("finite" if value.lstrip("-") in ("inf", "nan")
                                  else "int64") in err
        assert not (tmp_path / "out").exists()

    def test_most_frames_accepted(self, monkeypatch, tmp_path, pipeline):
        # offsets fold into the 527 ticks of the response function, which
        # 88 windows of 150 ps (6 ticks) cover and 89 overrun by more than one
        tmp, cfg = pipeline
        ecfg = load_run_config(cfg).event_config()
        assert ecfg.tick_ps == 25 and ecfg.irf_spec.count == 527
        run_cli(monkeypatch, ["slice", tmp / "tags.ttag", cfg, tmp_path / "most",
                              "--window", 150, "--frames", 88])
        assert (tmp_path / "most/frame_87.csv").exists()

    def test_least_counts_accepted(self, monkeypatch, tmp_path, pipeline):
        tmp, cfg = pipeline
        run_cli(monkeypatch, ["build", tmp / "tags.ttag", cfg, tmp_path / "b", "--threads", 1])
        run_cli(monkeypatch, ["slice", tmp / "tags.ttag", cfg, tmp_path / "s", "--frames", 1])
        assert json.loads((tmp_path / "b/manifest.json").read_text())["threads"] == 1
        assert (tmp_path / "s/frame_00.csv").exists()


class TestSlice:
    def test_single_wide_frame_reproduces_static(self, monkeypatch, tmp_path, pipeline):
        tmp, cfg = pipeline
        out = tmp_path / "slices"
        run_cli(monkeypatch, ["slice", tmp / "tags.ttag", cfg, out,
                              "--window", 20000, "--origin", 0, "--frames", 1])
        frame, _ = read_matrix_csv(out / "frame_00.csv")
        static, _ = read_matrix_csv(out / "jsi.csv")
        assert np.array_equal(frame, static)

    def test_per_cell_conservation(self, monkeypatch, tmp_path, pipeline):
        tmp, cfg = pipeline
        out = tmp_path / "slices5"
        run_cli(monkeypatch, ["slice", tmp / "tags.ttag", cfg, out,
                              "--window", 150, "--frames", 5])
        static, _ = read_matrix_csv(out / "jsi.csv")
        total, _ = read_matrix_csv(out / "out_of_window.csv")
        for k in range(5):
            frame, _ = read_matrix_csv(out / f"frame_{k:02d}.csv")
            total = total + frame
        assert np.array_equal(total, static)

    def test_default_origin_centers_peak_frames(self, monkeypatch, tmp_path, pipeline):
        tmp, cfg = pipeline
        out = tmp_path / "centered"
        run_cli(monkeypatch, ["slice", tmp / "tags.ttag", cfg, out,
                              "--window", 150, "--frames", 5])
        totals = json.loads((out / "slices.json").read_text())["frame_totals"]
        assert int(np.argmax(totals)) == 2

    def test_sub_tick_window_rejected(self, monkeypatch, tmp_path, pipeline):
        tmp, cfg = pipeline
        run_cli(monkeypatch, ["slice", tmp / "tags.ttag", cfg, tmp_path / "w",
                              "--window", 10], expect=1)


class TestAnalyze:
    def test_model_jsi_recovers_mode_count(self, monkeypatch, capsys, pipeline):
        tmp, _ = pipeline
        run_cli(monkeypatch, ["analyze", tmp / "jsa/jsi_model.csv"])
        out = json.loads(capsys.readouterr().out)
        assert out["schmidt_number"] == pytest.approx(5.60, rel=0.15)
        assert out["signal_marginal_fwhm_nm"] == pytest.approx(1.58, rel=0.1)

    def test_rank_one_csv(self, monkeypatch, capsys, tmp_path):
        lam_s = [514.0, 515.0, 516.0]
        lam_i = [1540.0, 1550.0, 1560.0]
        rows = np.outer([1.0, 4.0, 1.0], [2.0, 5.0, 2.0])
        path = tmp_path / "rank1.csv"
        with open(path, "w") as fh:
            fh.write(f"# x_wavelength_centers_nm: {json.dumps(lam_s)}\n")
            fh.write(f"# y_wavelength_centers_nm: {json.dumps(lam_i)}\n")
            for row in rows:
                fh.write(",".join(str(v) for v in row) + "\n")
        run_cli(monkeypatch, ["analyze", path])
        out = json.loads(capsys.readouterr().out)
        assert out["schmidt_number"] == pytest.approx(1.0, abs=1e-9)

    def test_slice_outputs_analyzable(self, monkeypatch, capsys, tmp_path, pipeline):
        tmp, cfg = pipeline
        out = tmp_path / "sliced"
        run_cli(monkeypatch, ["slice", tmp / "tags.ttag", cfg, out,
                              "--window", 150, "--frames", 5])
        for name in ("frame_02.csv", "jsi.csv"):
            capsys.readouterr()
            run_cli(monkeypatch, ["analyze", out / name])
            report = json.loads(capsys.readouterr().out)
            assert np.isfinite(report["schmidt_number"]) and report["schmidt_number"] >= 1
            assert 0 < report["purity"] <= 1
        _, frame_meta = read_matrix_csv(out / "frame_02.csv")
        _, built_meta = read_matrix_csv(tmp / "built/jsi.csv")
        for key in ("x_wavelength_centers_nm", "y_wavelength_centers_nm",
                    "x_wavelength_edges_nm", "y_wavelength_edges_nm"):
            assert frame_meta[key] == built_meta[key]

    @pytest.mark.parametrize("name", ["jsa/jsi_model.csv", "built/jsi.csv"])
    def test_marginal_fits_match_scipy(self, pipeline, name):
        pytest.importorskip("scipy")
        tmp, _ = pipeline
        counts, meta = read_matrix_csv(tmp / name)
        jsa = schmidt.jsa_from_jsi(counts, np.asarray(meta["x_wavelength_centers_nm"]),
                                   np.asarray(meta["y_wavelength_centers_nm"]))
        for axis, model in (("signal", "gaussian"), ("idler", "sinc_squared")):
            assert_fit_matches_scipy(*jsa.marginal(axis), model)

    def test_background_reports_the_unsubtracted_mode_count(self, monkeypatch, capsys,
                                                            pipeline):
        tmp, _ = pipeline
        capsys.readouterr()
        reports = []
        for extra in ([], ["--background", 2]):
            run_cli(monkeypatch, ["analyze", tmp / "built/jsi.csv", *extra])
            reports.append(json.loads(capsys.readouterr().out))
        plain, subtracted = reports
        assert plain["background_subtracted"] == 0.0 and "no_subtraction" not in plain
        assert subtracted["background_subtracted"] == 2.0
        assert subtracted["no_subtraction"]["schmidt_number"] == plain["schmidt_number"]
        assert subtracted["no_subtraction"]["purity"] == plain["purity"]
        assert subtracted["schmidt_number"] != plain["schmidt_number"]

    @pytest.mark.parametrize("value", ["-5", "nan", "inf", "-inf"])
    def test_bad_background_exits_2_before_reading(self, monkeypatch, capsys, tmp_path, value):
        # reading this file would fail with exit 1
        junk = tmp_path / "junk.csv"
        junk.write_text("not,a,matrix\n")
        capsys.readouterr()
        run_cli(monkeypatch, ["analyze", junk, "--background", value], expect=2)
        assert "--background" in capsys.readouterr().err

    def test_missing_axis_metadata_exits_1(self, monkeypatch, tmp_path):
        path = tmp_path / "noaxis.csv"
        path.write_text("1,2\n3,4\n")
        run_cli(monkeypatch, ["analyze", path], expect=1)

    def test_header_value_not_json_exits_1_naming_the_line(self, monkeypatch, capsys,
                                                             tmp_path):
        path = tmp_path / "bad_header.csv"
        path.write_text("# x_wavelength_centers_nm: [514.0, 515.0, 516.0]\n"
                        "# y_wavelength_centers_nm: 1540.0; 1550.0; 1560.0\n"
                        "1,2,1\n2,4,2\n1,2,1\n")
        capsys.readouterr()
        run_cli(monkeypatch, ["analyze", path], expect=1)
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path} line 2: the value of header key 'y_wavelength_centers_nm' "
            "is not JSON"]

    def test_mismatched_axes_exit_1_naming_the_file(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "short_axis.csv"
        path.write_text("# x_wavelength_centers_nm: [514.0, 515.0]\n"
                        "# y_wavelength_centers_nm: [1540.0, 1550.0, 1560.0]\n"
                        "1,2,1\n2,4,2\n1,2,1\n")
        capsys.readouterr()
        run_cli(monkeypatch, ["analyze", path], expect=1)
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: counts shape does not match wavelength axes"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_cell_exits_1_naming_it(self, tmp_path, value):
        # a child process with default warning filters: no numpy warning
        # comes before the error line
        path = tmp_path / "bad.csv"
        path.write_text("# x_wavelength_centers_nm: [514.0, 515.0, 516.0]\n"
                        "# y_wavelength_centers_nm: [1540.0, 1550.0, 1560.0]\n"
                        f"1,2,1\n2,4,{value}\n1,2,1\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-W", "default", "-c",
                              "from biphoton.cli import main; main()", "analyze", path],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 1
        assert out.stderr.splitlines() == [
            f"error: {path}: counts hold a non-finite value ({value}) at row 1, column 2 "
            "(counted from 0)"]

    @pytest.mark.parametrize("axis, centres, index, flaw", [
        ("x", "-516.0, -515.0, -514.0", 0, "non-positive"),
        ("x", "0.0, 515.0, 516.0", 0, "non-positive"),
        ("y", "1540.0, NaN, 1560.0", 1, "non-finite")], ids=["negative", "zero", "nan"])
    def test_bad_wavelength_centre_exits_1_naming_it(self, tmp_path, axis, centres, index,
                                                     flaw):
        # a child process with default warning filters: the centres are
        # checked before they are converted, so no numpy warning comes first
        axes = {"x": "514.0, 515.0, 516.0", "y": "1540.0, 1550.0, 1560.0", axis: centres}
        path = tmp_path / "bad.csv"
        path.write_text(f"# x_wavelength_centers_nm: [{axes['x']}]\n"
                        f"# y_wavelength_centers_nm: [{axes['y']}]\n"
                        "1,2,1\n2,4,2\n1,2,1\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-W", "default", "-c",
                              "from biphoton.cli import main; main()", "analyze", path],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 1
        name = {"x": "signal", "y": "idler"}[axis]
        value = float(centres.split(", ")[index])
        assert out.stderr.splitlines() == [
            f"error: {path}: the intensity map has a {flaw} {name} wavelength centre "
            f"at index [{index}] ({value})"]


def run_child(code, **env):
    """stdout lines of `code` run in a fresh interpreter on this test's path,
    with `env` set over the test's environment (a None value unsets it)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **env}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={k: v for k, v in env.items() if v is not None})
    return out.stdout.strip().splitlines()


class TestImport:
    # what a process loads is part of every child's start-up: scipy never,
    # OpenSSL only where a digest is taken, the thread pool only at threads > 1
    LOADED = ("\nimport sys\n"
              "print([m for m in ('scipy', '_hashlib', 'concurrent.futures') "
              "if m in sys.modules])")

    def test_cli_import_loads_no_scipy_openssl_or_pool(self):
        assert run_child("import biphoton.cli" + self.LOADED) == ["[]"]

    @pytest.mark.parametrize("threads, loaded", [(1, "[]"), (2, "['concurrent.futures']")],
                             ids=["1-thread", "2-threads"])
    def test_fold_loads_the_pool_only_on_more_threads(self, pipeline, threads, loaded):
        tmp, cfg = pipeline
        code = ("from biphoton import config, engine, tagstream\n"
                f"event_cfg = config.load_run_config({str(cfg)!r}).event_config()\n"
                f"with open({str(tmp / 'tags.ttag')!r}, 'rb') as fh:\n"
                "    header, blocks = tagstream.iter_stream_blocks(fh, block_records=4096)\n"
                "    result = engine.fold_stream_blocks(blocks, header.channel_map, event_cfg,\n"
                f"                                       threads={threads})\n"
                "print(result.diagnostics['records'])" + self.LOADED)
        records, modules = run_child(code)
        stream_bytes = (tmp / "tags.ttag").stat().st_size
        assert int(records) == (stream_bytes - tagstream.HEADER_SIZE) // tagstream.RECORD_SIZE > 0
        assert modules == loaded

    def test_analyze_takes_no_digest(self, pipeline):
        tmp, _ = pipeline
        code = ("from biphoton import cli\n"
                f"cli.cli(['analyze', {str(tmp / 'built/jsi.csv')!r}], standalone_mode=False)"
                + self.LOADED)
        lines = run_child(code)
        assert '"schmidt_number"' in "".join(lines)
        assert lines[-1] == "[]"

    def test_commands_do_not_load_scipy(self, tmp_path):
        # the solved phase-matching angle and the peak fits of analyze run
        # without scipy
        cfg = small_config(tmp_path, **{"crystal.phase_matching_angle_deg": None})
        steps = [["simulate-jsa", cfg, tmp_path / "jsa"],
                 ["gen-tags", tmp_path / "jsa/jsa.jsag", cfg, tmp_path / "tags.ttag"],
                 ["analyze", tmp_path / "jsa/jsi_model.csv"]]
        code = ("from biphoton import cli\n"
                f"for args in {[[str(a) for a in step] for step in steps]!r}:\n"
                "    cli.cli(args, standalone_mode=False)" + self.LOADED)
        lines = run_child(code)
        assert '"signal_fit"' in "".join(lines)
        assert lines[-1] == "['_hashlib']"     # gen-tags hashes its stream

    @pytest.mark.parametrize("given, seen", [(None, "1"), ("3", "3")])
    def test_cli_runs_one_blas_thread_unless_told(self, given, seen):
        code = "import os, biphoton.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert run_child(code, OPENBLAS_NUM_THREADS=given) == [seen]


class TestTracedNames:
    def test_benchmark_trace_targets_exist(self, tmp_path):
        # the benchmark's tracer wraps functions by name and lists a missing
        # one as "absent" instead of failing
        root = Path(__file__).resolve().parents[1]
        spans = tmp_path / "spans.json"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, root / "pipebench/trace.py", spans, "cli",
                        "init-config", tmp_path / "config.json"],
                       capture_output=True, check=True, env=env)
        assert json.loads(spans.read_text())["absent"] == []


class TestGolden:
    def test_checked_in_golden_hashes(self, monkeypatch, capsys):
        capsys.readouterr()
        run_cli(monkeypatch, ["--golden"], expect=0)
        assert capsys.readouterr().out.count("golden PASS") == len(cli_mod._GOLDEN_FILES)

    def test_golden_update_then_check(self, monkeypatch, tmp_path):
        monkeypatch.setattr(cli_mod, "_GOLDEN_FILES", ("tags.ttag", "built/jsi.csv"))
        target = tmp_path / "golden_hashes.json"
        real_files = cli_mod.resources.files("biphoton").joinpath("data/golden_hashes.json")
        monkeypatch.setattr(cli_mod.resources, "files",
                            lambda pkg: _FakeResources(tmp_path))
        run_cli(monkeypatch, ["--update-golden"])
        assert json.loads(target.read_text())
        run_cli(monkeypatch, ["--golden"], expect=0)

    def test_one_differing_hash_fails(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setattr(cli_mod, "_GOLDEN_FILES", ("tags.ttag", "built/jsi.csv"))
        real = cli_mod.resources.files("biphoton").joinpath("data/golden_hashes.json")
        hashes = json.loads(real.read_text())
        hashes["built/jsi.csv"] = "0" * 64
        (tmp_path / "golden_hashes.json").write_text(json.dumps(hashes))
        monkeypatch.setattr(cli_mod.resources, "files", lambda pkg: _FakeResources(tmp_path))
        capsys.readouterr()
        run_cli(monkeypatch, ["--golden"], expect=1)
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == ["golden PASS: tags.ttag", "golden FAIL: built/jsi.csv"]


class _FakeResources:
    def __init__(self, base):
        self.base = base

    def joinpath(self, rel):
        return self.base / rel.split("/")[-1]
