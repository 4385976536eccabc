"""Run configuration: strict JSON parsing into the component dataclasses.

Unknown keys anywhere in the document are rejected so a typo cannot
silently fall back to a default. Values are validated by the component
dataclasses themselves; validation problems surface as ConfigError.
"""

import json
import os
import sys
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass

from .engine import EventBuildConfig
from .histograms import BinSpec
from .simgen import AcquisitionConfig, check_seed
from .spdc import CrystalSpec, FrequencyGrid, PumpSpec

SEED_ENV_VAR = "BIPHOTON_SEED"


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

    def __post_init__(self):
        least = {"dt_guard_ticks": 0, "gate_half_width_ticks": 0,
                 "jsi_signal_width_ticks": 1, "jsi_signal_count": 1,
                 "jsi_idler_width_ticks": 1, "jsi_idler_count": 1}
        if self.dld_window_ticks is not None:
            least["dld_window_ticks"] = 1
        for name, low in least.items():
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value!r}")


@dataclass
class RunConfig:
    seed: int = 12345
    pump: PumpSpec = field(default_factory=PumpSpec)
    crystal: CrystalSpec = field(default_factory=CrystalSpec)
    grid: FrequencyGrid = field(default_factory=FrequencyGrid)
    acquisition: AcquisitionConfig = field(default_factory=AcquisitionConfig)
    event_build: EventBuildOverrides = field(default_factory=EventBuildOverrides)

    def __post_init__(self):
        check_seed(self.seed)

    def event_config(self):
        """The event build this instrument implies: the anode propagation
        time, the coincidence gate at the fibre reference delay, the sync
        period (folded modulo the laser period unless `fold_sync` is off),
        and joint-spectrum bins centred on the calibration references."""
        acq = self.acquisition
        ov = self.event_build
        period_ps = acq.pulse_period_ps
        gate_center = int(round(acq.fibre_cal.reference_delay_ps / acq.tick_ps))
        t_a = acq.dld_cal.t_a_ticks
        dt_center = int(round(2.0 * acq.dld_cal.x_center_mm / acq.dld_cal.v_mm_per_tick - t_a))
        x_spec = _centered_spec(dt_center, ov.jsi_signal_width_ticks, ov.jsi_signal_count)
        # an edge beyond the anode's ends has no position, and so no wavelength
        first, last = x_spec.edges()[[0, -1]].tolist()
        if not -t_a <= first <= last <= t_a:
            raise ConfigError(
                f"event_build.jsi_signal_width_ticks ({ov.jsi_signal_width_ticks}) and "
                f"event_build.jsi_signal_count ({ov.jsi_signal_count}) put the joint-spectrum "
                f"signal edges at dt_x [{first}, {last}] ticks, beyond the anode's ends at "
                f"+-acquisition.dld_cal.t_a_ticks ({t_a} ticks)")
        try:
            return EventBuildConfig(
                t_a_ticks=t_a,
                dt_guard_ticks=ov.dt_guard_ticks,
                gate_center_ticks=gate_center,
                gate_half_width_ticks=ov.gate_half_width_ticks,
                fold_period_ps=period_ps if ov.fold_sync else None,
                sync_period_ticks=int(round(acq.sync_divider * period_ps / acq.tick_ps)),
                tick_ps=acq.tick_ps,
                jsi_x_spec=x_spec,
                jsi_y_spec=_centered_spec(gate_center, ov.jsi_idler_width_ticks,
                                          ov.jsi_idler_count),
                dld_window_ticks=ov.dld_window_ticks,
            )
        except ValueError as exc:
            # the coincidence gate is the one value the two sections share
            raise ConfigError(
                f"acquisition.fibre_cal.reference_delay_ps ({gate_center} ticks) and "
                f"event_build.gate_half_width_ticks ({ov.gate_half_width_ticks}) "
                f"give an invalid event build: {exc}") from exc


def _centered_spec(center, width, count):
    return BinSpec(center - width * count // 2, width, count)


#: what each annotated type is in a config document
_JSON_FORMS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               dict: "an object", type(None): "null"}


def _fits(value, hint):
    """Whether a config value has a non-dataclass field's annotated type: a
    boolean is neither an int nor a float, an int is also a float, a number
    must be finite as a float, `X | None` also takes None, a tuple takes a
    list (or tuple) of its length, and a dict an object whose values fit."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(map(_fits, value, args)))
    if typing.get_origin(hint) is dict:
        return isinstance(value, dict) and all(_fits(v, args[1]) for v in value.values())
    if args:
        return any(_fits(value, arg) for arg in args)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:  # false for NaN, infinities and ints beyond a float
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, hint)


def _form(hint):
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return f"a list of {len(args)} ({', '.join(map(_form, args))})"
    if typing.get_origin(hint) is dict:
        return _JSON_FORMS[dict]
    return " or ".join(map(_form, args)) if args else _JSON_FORMS[hint]


def _check(value, hint, dotted):
    """Raise a ConfigError unless `value` fits `hint` (`_fits`), naming the
    dotted key of the value, or of the first value of an object that does
    not fit."""
    if typing.get_origin(hint) is dict and isinstance(value, dict):
        for key, item in value.items():
            _check(item, typing.get_args(hint)[1], f"{dotted}.{key}")
    elif not _fits(value, hint):
        raise ConfigError(f"{dotted} must be {_form(hint)}, "
                          f"got {json.dumps(value, default=repr)}")


def _build(cls, data, where=None):
    """Instantiate dataclass `cls` from a JSON object (`where` is its dotted
    section name, None at the top level), recursing into the fields whose
    type is itself a dataclass. Every other value must have its field's
    annotated type (`_check`); JSON arrays become tuples for tuple-typed
    fields."""
    if not isinstance(data, dict):
        raise ConfigError(f"section {where!r} must be an object" if where
                          else "top-level config must be a JSON object")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where!r}" if where
                          else f"unknown top-level key(s) {unknown}")
    types = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        hint, dotted = types[key], f"{where}.{key}" if where else key
        if is_dataclass(hint):
            value = _build(hint, value, dotted)
        # the seed has its own rule, which also names its range
        elif dotted != "seed":
            _check(value, hint, dotted)
            if typing.get_origin(hint) is tuple:
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
            seed = int(env_seed)
        except ValueError:
            seed = env_seed     # not an integer: the rule rejects it
        try:
            check_seed(seed, SEED_ENV_VAR)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        cfg.seed = seed
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


def file_sha256(path):
    """SHA-256 hex digest of a file's bytes, read 1 MiB at a time."""
    import hashlib
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def default_config_dict():
    """Template document: every key the parser accepts, at its default."""
    return asdict(RunConfig())
