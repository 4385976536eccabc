import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from biphoton import cli as cli_mod
from biphoton.config import default_config_dict
from biphoton.histograms import read_matrix_csv


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


class TestBuild:
    def test_outputs_exist_and_conserve(self, pipeline):
        tmp, _ = pipeline
        for name in ("irf.csv", "signal_spectrum.csv", "idler_spectrum.csv",
                     "jsi.csv", "diagnostics.json", "manifest.json"):
            assert (tmp / "built" / name).exists()
        diag = json.loads((tmp / "built/diagnostics.json").read_text())
        jsi, meta = read_matrix_csv(tmp / "built/jsi.csv")
        assert int(jsi.sum()) == diag["coincidences"] - diag["jsi_out_of_range"]
        assert "rates" in diag

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

    def test_missing_axis_metadata_exits_1(self, monkeypatch, tmp_path):
        path = tmp_path / "noaxis.csv"
        path.write_text("1,2\n3,4\n")
        run_cli(monkeypatch, ["analyze", path], expect=1)


class TestImport:
    def test_cli_import_does_not_load_scipy(self):
        code = ("import sys, biphoton.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout.strip() == "[]"


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


class _FakeResources:
    def __init__(self, base):
        self.base = base

    def joinpath(self, rel):
        return self.base / rel.split("/")[-1]
