import hashlib
import json
import typing
from dataclasses import asdict, fields, is_dataclass

import numpy as np
import pytest

from biphoton.config import (ConfigError, RunConfig, default_config_dict, file_sha256,
                             load_run_config, run_config_from_dict)
from biphoton.simgen import AcquisitionConfig, generate


def leaf_paths(cls, prefix=()):
    """Key paths (tuples) of every non-dataclass field in a dataclass tree."""
    types = typing.get_type_hints(cls)
    for f in fields(cls):
        path = prefix + (f.name,)
        if is_dataclass(types[f.name]):
            yield from leaf_paths(types[f.name], path)
        else:
            yield path


def doc_paths(doc, cls, prefix=()):
    """Key paths (tuples) of a config document, descending only into the
    sections that are dataclasses (so `dead_time_ps` is one key)."""
    types = typing.get_type_hints(cls)
    for key, value in doc.items():
        path = prefix + (key,)
        if is_dataclass(types[key]):
            yield from doc_paths(value, types[key], path)
        else:
            yield path


def nested_doc(path, value):
    doc = value
    for key in reversed(path):
        doc = {key: doc}
    return doc


def parses(doc):
    try:
        run_config_from_dict(doc)
    except ConfigError:
        return False
    return True


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


class TestStrictParsing:
    def test_defaults_load(self):
        cfg = run_config_from_dict({})
        assert cfg.pump.center_wavelength_nm == 386.6
        assert cfg.acquisition.rep_rate_hz == 76e6

    def test_template_loads(self, monkeypatch):
        monkeypatch.delenv("BIPHOTON_SEED", raising=False)
        cfg = run_config_from_dict(default_config_dict())
        assert cfg.crystal.pm_model == "sellmeier"
        assert cfg.grid.n_signal == 512
        assert cfg == RunConfig()
        assert run_config_from_dict(json.loads(json.dumps(default_config_dict()))) == cfg

    def test_template_lists_every_accepted_key(self, monkeypatch):
        monkeypatch.delenv("BIPHOTON_SEED", raising=False)
        defaults = asdict(RunConfig())
        accepted = set()
        for path in leaf_paths(RunConfig):
            value = defaults
            for key in path:
                value = value[key]
            if parses(nested_doc(path, value)):
                accepted.add(path)
        template = set(doc_paths(default_config_dict(), RunConfig))
        assert template == accepted
        assert ("acquisition", "dead_time_ps") in template
        assert ("acquisition", "channel_map", "sync") in template

    def test_acquisition_seed_rejected(self):
        with pytest.raises(ConfigError, match="unknown key.*seed.*acquisition"):
            run_config_from_dict({"seed": 5, "acquisition": {"seed": 5}})

    def test_dead_time_unknown_role_rejected(self):
        cfg = run_config_from_dict({"acquisition": {"dead_time_ps": {"snspd": 1e6}}})
        assert cfg.acquisition.dead_time_ps == {"snspd": 1e6}
        with pytest.raises(ConfigError, match="acquisition.*snpsd"):
            run_config_from_dict({"acquisition": {"dead_time_ps": {"snpsd": 1e6}}})
        with pytest.raises(ConfigError, match="acquisition.*dead_time_ps"):
            run_config_from_dict({"acquisition": {"dead_time_ps": ["mcp"]}})

    @pytest.mark.parametrize("value", [True, "x", None, [1]])
    def test_dead_time_value_of_wrong_type_named(self, value):
        # true had loaded as a 1 ps dead time; the others failed naming no key
        with pytest.raises(ConfigError,
                           match=r"^acquisition\.dead_time_ps\.mcp must be a number, got "):
            run_config_from_dict({"acquisition": {"dead_time_ps": {"mcp": value}}})

    @pytest.mark.parametrize("key, value", [
        ("jsi_signal_count", 0), ("jsi_idler_count", 0), ("jsi_signal_width_ticks", 0),
        ("jsi_idler_width_ticks", -2), ("gate_half_width_ticks", -5), ("dt_guard_ticks", -1),
        ("dld_window_ticks", 0), ("jsi_signal_count", 12.5)])
    def test_invalid_event_build_rejected_at_load(self, key, value):
        with pytest.raises(ConfigError, match=f"event_build.*{key}"):
            run_config_from_dict({"event_build": {key: value}})

    def test_event_build_bounds_inclusive(self):
        cfg = run_config_from_dict({"event_build": {
            "gate_half_width_ticks": 0, "dt_guard_ticks": 0, "dld_window_ticks": 1,
            "jsi_signal_count": 1, "jsi_signal_width_ticks": 1}})
        assert cfg.event_config().dld_window_ticks == 1

    @pytest.mark.parametrize("tick_ps", [0, -25, 12.5])
    def test_tick_must_be_positive_integer(self, tick_ps):
        with pytest.raises(ConfigError, match="acquisition.*tick_ps"):
            run_config_from_dict({"acquisition": {"tick_ps": tick_ps}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown top-level"):
            run_config_from_dict({"pumpp": {}})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            run_config_from_dict({"pump": {"fwhm": 0.2}})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            run_config_from_dict({"acquisition": {"dld_cal": {"speed": 1.0}}})

    def test_invalid_value_reported_with_section(self):
        with pytest.raises(ConfigError, match="acquisition"):
            run_config_from_dict({"acquisition": {"eta_signal": 2.0}})

    @pytest.mark.parametrize("doc, message", [
        ({"pump": 3}, "section 'pump' must be an object"),
        ([1], "top-level config must be a JSON object")], ids=["section", "top-level"])
    def test_non_object_rejected(self, doc, message):
        with pytest.raises(ConfigError, match=message):
            run_config_from_dict(doc)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config .*missing.json"):
            load_run_config(tmp_path / "missing.json")

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_run_config(path)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ConfigError):
            run_config_from_dict({"seed": -3})

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.5, "7", True])
    def test_config_seed_outside_the_seed_rule(self, monkeypatch, seed):
        monkeypatch.delenv("BIPHOTON_SEED", raising=False)
        with pytest.raises(ConfigError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
            run_config_from_dict({"seed": seed})

    @pytest.mark.parametrize("value", ["-5", str(2**64), "seven", "1.5"])
    def test_env_seed_outside_the_seed_rule(self, monkeypatch, value):
        monkeypatch.setenv("BIPHOTON_SEED", value)
        with pytest.raises(ConfigError,
                           match=r"BIPHOTON_SEED must be an integer in \[0, 2\*\*64\)"):
            run_config_from_dict({"seed": 1})

    def test_seed_rule_ends(self, monkeypatch):
        monkeypatch.delenv("BIPHOTON_SEED", raising=False)
        for seed in (0, 2**64 - 1):
            assert run_config_from_dict({"seed": seed}).seed == seed
        monkeypatch.setenv("BIPHOTON_SEED", str(2**64 - 1))
        assert run_config_from_dict({"seed": 0}).seed == 2**64 - 1
        assert len(generate(None, AcquisitionConfig(pair_prob_per_pulse=0.0), 2**64 - 1).truth) == 0
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
                generate(None, AcquisitionConfig(), seed)

    @pytest.mark.parametrize("seed", [1.5, True, False, np.True_, np.float64(1.0), "7", None,
                                      np.int64(-1)])
    def test_generate_keeps_the_config_seed_rule(self, monkeypatch, seed):
        # 1.5 and True once passed generate's range check and keyed Philox with 1
        monkeypatch.delenv("BIPHOTON_SEED", raising=False)
        rule = r"seed must be an integer in \[0, 2\*\*64\)"
        with pytest.raises(ValueError, match=rule):
            generate(None, AcquisitionConfig(pair_prob_per_pulse=0.0), seed)
        with pytest.raises(ConfigError, match=rule):
            run_config_from_dict({"seed": seed})

    @pytest.mark.parametrize("seed", [np.uint64(2**64 - 1), np.int64(7), np.uint8(0)])
    def test_numpy_integer_seed_is_its_value(self, seed):
        acq = AcquisitionConfig(pair_prob_per_pulse=0.0, duration_s=1e-3)

        def stream(seed):
            return np.concatenate([c.timestamp for c in generate(None, acq, seed).chunks])
        assert RunConfig(seed=seed).seed == seed
        assert np.array_equal(stream(seed), stream(int(seed)))
        assert len(stream(seed))

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("BIPHOTON_SEED", "777")
        cfg = run_config_from_dict({"seed": 1})
        assert cfg.seed == 777

    def test_linearized_coeffs_list_accepted(self):
        cfg = run_config_from_dict({"crystal": {
            "pm_model": "linearized", "linearized_coeffs": [0.06, 0.17]}})
        assert cfg.crystal.linearized_coeffs == (0.06, 0.17)


class TestDerivedEventConfig:
    def test_default_event_config_values(self):
        ecfg = RunConfig().event_config()
        assert asdict(ecfg) == {
            "t_a_ticks": 800,
            "dt_guard_ticks": 40,
            "gate_center_ticks": 308000,
            "gate_half_width_ticks": 400,
            "fold_period_ps": 1e12 / 76e6,
            "sync_period_ticks": 33158,
            "tick_ps": 25,
            "jsi_x_spec": {"start": -192, "width": 3, "count": 128},
            "jsi_y_spec": {"start": 308000 - 64 * 6, "width": 6, "count": 128},
            "dld_window_ticks": 3200,
            "signal_spec": {"start": -841, "width": 1, "count": 1682},
            "idler_spec": {"start": 307600, "width": 1, "count": 801},
            "irf_spec": {"start": 0, "width": 1, "count": 527},
        }

    def test_gate_and_anode_follow_calibrations(self):
        cfg = run_config_from_dict({"acquisition": {
            "dld_cal": {"t_a_ticks": 400, "x_center_mm": 10.0},  # the 20 mm anode's middle
            "fibre_cal": {"reference_delay_ps": 5.0e6}}})
        ecfg = cfg.event_config()
        assert ecfg.t_a_ticks == 400
        assert ecfg.dld_window_ticks == 1600
        assert ecfg.gate_center_ticks == 200000
        assert ecfg.jsi_y_spec.centers().mean() == pytest.approx(200000)

    def test_jsi_signal_edges_must_lie_on_the_anode(self):
        # 64 bins of 25 ticks reach the anode's ends at +-800 ticks exactly
        spec = run_config_from_dict({"event_build": {
            "jsi_signal_width_ticks": 25, "jsi_signal_count": 64}}).event_config().jsi_x_spec
        assert spec.edges()[[0, -1]].tolist() == [-800, 800]
        cfg = run_config_from_dict({"event_build": {"jsi_signal_width_ticks": 25,
                                                    "jsi_signal_count": 65}})
        with pytest.raises(ConfigError, match=r"dt_x \[-812, 813\] ticks"):
            cfg.event_config()

    def test_fold_period_from_rep_rate(self):
        cfg = run_config_from_dict({"acquisition": {"rep_rate_hz": 80e6}})
        ecfg = cfg.event_config()
        assert ecfg.fold_period_ps == pytest.approx(12500.0)
        cfg2 = run_config_from_dict({"event_build": {"fold_sync": False}})
        assert cfg2.event_config().fold_period_ps is None


@pytest.mark.parametrize("size", [0, 1 << 20, (5 << 19) + 3])
def test_file_sha256_is_the_digest_of_every_byte(tmp_path, size):
    # the file is read in 1 MiB pieces: none, exactly one, and a part piece
    data = np.random.Generator(np.random.Philox(key=5)).bytes(size)
    path = tmp_path / "blob"
    path.write_bytes(data)
    assert file_sha256(path) == hashlib.sha256(data).hexdigest()
