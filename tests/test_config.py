import json
import typing
from dataclasses import asdict, fields, is_dataclass

import pytest

from biphoton.config import (ConfigError, RunConfig, default_config_dict, load_run_config,
                             run_config_from_dict)


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

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_run_config(path)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ConfigError):
            run_config_from_dict({"seed": -3})

    def test_env_seed_override(self, monkeypatch):
        monkeypatch.setenv("BIPHOTON_SEED", "777")
        cfg = run_config_from_dict({"seed": 1})
        assert cfg.seed == 777
        assert cfg.acquisition.seed == 777

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
            "dld_cal": {"t_a_ticks": 400},
            "fibre_cal": {"reference_delay_ps": 5.0e6}}})
        ecfg = cfg.event_config()
        assert ecfg.t_a_ticks == 400
        assert ecfg.dld_window_ticks == 1600
        assert ecfg.gate_center_ticks == 200000
        assert ecfg.jsi_y_spec.centers().mean() == pytest.approx(200000)

    def test_fold_period_from_rep_rate(self):
        cfg = run_config_from_dict({"acquisition": {"rep_rate_hz": 80e6}})
        ecfg = cfg.event_config()
        assert ecfg.fold_period_ps == pytest.approx(12500.0)
        cfg2 = run_config_from_dict({"event_build": {"fold_sync": False}})
        assert cfg2.event_config().fold_period_ps is None
