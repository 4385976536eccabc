"""Run configuration: strict JSON parsing into the component dataclasses.

Unknown keys anywhere in the document are rejected so a typo cannot
silently fall back to a default. Values are validated by the component
dataclasses themselves; validation problems surface as ConfigError.
"""

import hashlib
import json
import os
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass

from .engine import EventBuildConfig
from .histograms import BinSpec
from .simgen import AcquisitionConfig
from .spdc import CrystalSpec, FrequencyGrid, PumpSpec

SEED_ENV_VAR = "BIPHOTON_SEED"

#: Field left out of the template and rejected by the parser: the top-level
#: `seed` is the one seed of a run and is copied into the acquisition.
_SEED_COPY = ("acquisition", "seed")


class ConfigError(ValueError):
    pass


@dataclass
class EventBuildOverrides:
    """User-facing subset of the event-build knobs; the remaining fields are
    derived from the acquisition block (anode propagation, gate center,
    sync folding period)."""

    dld_window_ticks: int | None = None
    dt_guard_ticks: int = 40
    gate_half_width_ticks: int = 400
    fold_sync: bool = True
    jsi_signal_width_ticks: int = 3
    jsi_signal_count: int = 128
    jsi_idler_width_ticks: int = 6
    jsi_idler_count: int = 128


@dataclass
class RunConfig:
    seed: int = 12345
    pump: PumpSpec = field(default_factory=PumpSpec)
    crystal: CrystalSpec = field(default_factory=CrystalSpec)
    grid: FrequencyGrid = field(default_factory=FrequencyGrid)
    acquisition: AcquisitionConfig = field(default_factory=AcquisitionConfig)
    event_build: EventBuildOverrides = field(default_factory=EventBuildOverrides)

    def __post_init__(self):
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError("seed must be a non-negative integer")

    def event_config(self):
        """The event build this instrument implies: the anode propagation
        time, the coincidence gate at the fibre reference delay, the sync
        period (folded modulo the laser period unless `fold_sync` is off),
        and joint-spectrum bins centred on the calibration references."""
        acq = self.acquisition
        ov = self.event_build
        period_ps = acq.pulse_period_ps
        gate_center = int(round(acq.fibre_cal.reference_delay_ps / acq.tick_ps))
        dt_center = int(round(2.0 * acq.dld_cal.x_center_mm / acq.dld_cal.v_mm_per_tick
                              - acq.dld_cal.t_a_ticks))
        return EventBuildConfig(
            t_a_ticks=acq.dld_cal.t_a_ticks,
            dt_guard_ticks=ov.dt_guard_ticks,
            gate_center_ticks=gate_center,
            gate_half_width_ticks=ov.gate_half_width_ticks,
            fold_period_ps=period_ps if ov.fold_sync else None,
            sync_period_ticks=int(round(acq.sync_divider * period_ps / acq.tick_ps)),
            tick_ps=acq.tick_ps,
            jsi_x_spec=_centered_spec(dt_center, ov.jsi_signal_width_ticks,
                                      ov.jsi_signal_count),
            jsi_y_spec=_centered_spec(gate_center, ov.jsi_idler_width_ticks,
                                      ov.jsi_idler_count),
            dld_window_ticks=ov.dld_window_ticks,
        )


def _centered_spec(center, width, count):
    return BinSpec(center - width * count // 2, width, count)


def _build(cls, data, where=None):
    """Instantiate dataclass `cls` from a JSON object (`where` is its dotted
    section name, None at the top level), recursing into the fields whose
    type is itself a dataclass. JSON arrays become tuples for tuple-typed
    fields."""
    if not isinstance(data, dict):
        raise ConfigError(f"section {where!r} must be an object" if where
                          else "top-level config must be a JSON object")
    known = {f.name for f in fields(cls)}
    if where == _SEED_COPY[0]:
        known.discard(_SEED_COPY[1])
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where!r}" if where
                          else f"unknown top-level key(s) {unknown}")
    types = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        if is_dataclass(types[key]):
            value = _build(types[key], value, f"{where}.{key}" if where else key)
        elif typing.get_origin(types[key]) is tuple and isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value in {where or 'top-level'!r}: {exc}") from exc


def run_config_from_dict(doc):
    cfg = _build(RunConfig, doc)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer") from exc
    cfg.acquisition.seed = cfg.seed
    return cfg


def load_run_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return run_config_from_dict(doc)


def config_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return digest.hexdigest()


def default_config_dict():
    """Template document: every key the parser accepts, at its default."""
    doc = asdict(RunConfig())
    section, key = _SEED_COPY
    del doc[section][key]
    return doc
