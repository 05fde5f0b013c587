"""Key = value run configuration with typed validation and defaults.

The file format is UTF-8 text, one `key = value` per line, `#` comments.
Every key has a default; command-line overrides win over file values.
Float values must be finite: `nan` and `inf` are refused at their key.

Each section is a frozen dataclass; `train` and `dropout` are the engine's
own TrainConfig and DropoutSpec. Every key is set through
`dataclasses.replace`, so the section's `__post_init__` rejects a bad value
at its key and location, as unknown keys and type mismatches are. Checks
that span keys run once the whole config is read, by building the
simulator and network objects the commands build. All of it happens at
parse time, before a command does any work.
"""

import hashlib
import math
from dataclasses import dataclass, field, fields, replace

from .dropout import DropoutSpec
from .network import NetworkConfig
from .sim import CAMERA_ORDER, ScenarioSpec, WorldConfig, default_cameras
from .training import TrainConfig


class ConfigError(ValueError):
    """Bad configuration input; message carries key and location."""


def _parse_bool(text):
    low = text.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _list_parser(item):
    def parse(text):
        parts = [p.strip() for p in text.split(",") if p.strip()]
        return tuple(item(p) for p in parts)

    return parse


MAX_EPISODES_PER_SCENARIO = 100_000  # gen-data draws and holds each scenario's delays at once
MAX_BINS = 10_000  # each histogram bin is a CSV row and an SVG bar


@dataclass(frozen=True)
class SimSettings:
    dt: float = 0.05
    max_duration: float = 12.0
    top_speed: float = 10.0
    max_accel: float = 5.0
    start_distance: float = 40.0
    lane_offset: float = 2.0
    vehicle_length: float = 4.5
    vehicle_width: float = 2.0
    vehicle_height: float = 1.5
    image_size: int = 32
    fov_deg: float = 90.0
    episodes_per_scenario: int = 10
    scenarios: tuple = (1, 2, 3, 4)
    delay_window: float = 0.25
    cameras: tuple = CAMERA_ORDER

    def __post_init__(self):
        for name in ("max_duration", "top_speed", "max_accel", "start_distance",
                     "vehicle_length", "vehicle_width", "vehicle_height"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.delay_window < 0:
            raise ValueError("delay window must be >= 0")
        if self.image_size > 65535:  # DPMD stores rows and cols in u16 fields
            raise ValueError(f"image size must be <= 65535, got {self.image_size}")
        if not 0 <= self.episodes_per_scenario <= MAX_EPISODES_PER_SCENARIO:
            raise ValueError(f"episodes per scenario must lie in [0, {MAX_EPISODES_PER_SCENARIO}]")
        # a repeated scenario would draw the same delays and duplicate its windows
        if len(set(self.scenarios)) != len(self.scenarios):
            raise ValueError(f"scenarios must be distinct, got {self.scenarios}")
        for cam in self.cameras:
            if cam not in CAMERA_ORDER:
                raise ValueError(f"unknown camera {cam!r}; choose from {CAMERA_ORDER}")
        # a DPMD file names its n cameras by the first n of CAMERA_ORDER
        if self.cameras != CAMERA_ORDER[: len(self.cameras)]:
            raise ValueError(f"cameras must be the first n of {CAMERA_ORDER} in that "
                             f"order, got {self.cameras}")


@dataclass(frozen=True)
class DataSettings:
    seq_len: int = 5
    window_stride: int = 1
    horizon: float = 5.0
    split: tuple = (0.8, 0.1, 0.1)

    def __post_init__(self):
        if self.seq_len < 1 or self.window_stride < 1:
            raise ValueError("window length and stride must be >= 1")
        if self.seq_len > 255:  # DPMD stores the window length in a u8 field
            raise ValueError(f"window length must be <= 255, got {self.seq_len}")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if len(self.split) != 3 or min(self.split) < 0 or abs(sum(self.split) - 1.0) > 1e-9:
            raise ValueError("split must be three non-negative fractions summing to 1")


@dataclass(frozen=True)
class NetSettings:
    input_mode: str = "images_state_action"
    cameras: tuple = CAMERA_ORDER
    conv_filters: tuple = (8, 8)
    conv_kernels: tuple = (3, 3)
    conv_strides: tuple = (1, 2)
    lstm_units: int = 16
    merge_units: int = 32


@dataclass(frozen=True)
class EvalSettings:
    threshold: float = 0.5
    sfp_passes: int = 1000
    bins: int = 20
    sigma_lo: float = 0.10
    peak_mass_frac: float = 0.10
    valley_ratio: float = 0.5
    fold_k: int = 10
    fold_unit: str = "episodes"
    val_fraction: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("validation fraction must lie in [0, 1)")
        # out of these ranges an uncertainty verdict class cannot occur
        if self.sigma_lo < 0 or not (0.0 <= self.peak_mass_frac <= 1.0
                                     and 0.0 <= self.valley_ratio <= 1.0):
            raise ValueError("need sigma_lo >= 0, and peak_mass_frac and valley_ratio in [0, 1]")
        if min(self.sfp_passes, self.bins) < 1:
            raise ValueError("pass and bin counts must be >= 1")
        if self.bins > MAX_BINS:
            raise ValueError(f"bin count must be <= {MAX_BINS}, got {self.bins}")
        if self.fold_k < 2:
            raise ValueError("k-fold needs k >= 2")
        if self.fold_unit not in ("episodes", "samples"):
            raise ValueError("fold unit must be 'episodes' or 'samples'")


@dataclass
class RunConfig:
    sim: SimSettings = field(default_factory=SimSettings)
    data: DataSettings = field(default_factory=DataSettings)
    net: NetSettings = field(default_factory=NetSettings)
    dropout: DropoutSpec = field(default_factory=DropoutSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalSettings = field(default_factory=EvalSettings)

    def items(self):
        """Canonical (key, value-as-text) pairs covering every field."""
        out = []
        for s in fields(self):
            section = getattr(self, s.name)
            for f in fields(section):
                out.append((f"{s.name}.{f.name}", _canonical(getattr(section, f.name))))
        return out

    def config_hash(self):
        text = "\n".join(f"{k} = {v}" for k, v in self.items())
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(value):
    if isinstance(value, tuple):
        return ",".join(_canonical(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text.strip()!r}")
    return value


# int() and float() ignore surrounding whitespace
_PARSERS = {
    int: int,
    float: _parse_float,
    str: str.strip,
    bool: _parse_bool,
}


def _registry():
    """key -> (section name, field name, parser) for every known key."""
    reg = {}
    defaults = RunConfig()
    for s in fields(defaults):
        section = getattr(defaults, s.name)
        for f in fields(section):
            key = f"{s.name}.{f.name}"
            default = getattr(section, f.name)
            if isinstance(default, tuple):  # every tuple default is non-empty
                parser = _list_parser(_PARSERS[type(default[0])])
            else:
                parser = _PARSERS[type(default)]
            reg[key] = (s.name, f.name, parser)
    return reg


REGISTRY = _registry()


def _apply(cfg, key, raw, where):
    if key not in REGISTRY:
        raise ConfigError(f"unknown configuration key {key!r} at {where}")
    section_name, field_name, parser = REGISTRY[key]
    try:
        section = replace(getattr(cfg, section_name), **{field_name: parser(raw)})
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r} at {where}: {exc}") from None
    setattr(cfg, section_name, section)


def parse_config(text, overrides=(), source="<config>"):
    """Defaults, then file values, then overrides; returns a RunConfig."""
    cfg = RunConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"expected 'key = value' at {source}:{lineno}, got {line.strip()!r}")
        key, raw = body.split("=", 1)
        _apply(cfg, key.strip(), raw, f"{source}:{lineno}")
    for i, item in enumerate(overrides, start=1):
        if "=" not in item:
            raise ConfigError(f"override #{i} must look like key=value, got {item!r}")
        key, raw = item.split("=", 1)
        _apply(cfg, key.strip(), raw, f"override #{i}")
    _validate(cfg)
    return cfg


def load_config(path=None, overrides=()):
    if path is None:
        return parse_config("", overrides, source="<defaults>")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(text, overrides, source=str(path))


def _validate(cfg):
    """Builds the engine objects the commands build; their checks span keys."""
    try:
        # gen-data bisects scenario 1 whatever sim.scenarios holds
        for sid in (1, *cfg.sim.scenarios):
            ScenarioSpec(sid, 0.0, cfg.sim.dt, cfg.sim.max_duration)
        camera_specs(cfg)
    except ValueError as exc:
        raise ConfigError(f"bad sim settings: {exc}") from None
    try:
        network_config(cfg)
    except ValueError as exc:
        raise ConfigError(f"bad net settings: {exc}") from None
    if not set(cfg.net.cameras) <= set(cfg.sim.cameras):
        raise ConfigError("net.cameras must be a subset of sim.cameras")


# --- conversion into engine objects ------------------------------------------

def world_config(cfg):
    return WorldConfig(
        start_distance=cfg.sim.start_distance,
        lane_offset=cfg.sim.lane_offset,
        vehicle_length=cfg.sim.vehicle_length,
        vehicle_width=cfg.sim.vehicle_width,
        vehicle_height=cfg.sim.vehicle_height,
        top_speed=cfg.sim.top_speed,
        max_accel=cfg.sim.max_accel,
    )


def camera_specs(cfg):
    fov = math.radians(cfg.sim.fov_deg)
    base = {c.name: c for c in default_cameras(rows=cfg.sim.image_size, cols=cfg.sim.image_size)}
    return tuple(replace(base[name], fov=fov) for name in cfg.sim.cameras)


def network_config(cfg, input_mode=None, cameras=None):
    return NetworkConfig(
        input_mode=input_mode or cfg.net.input_mode,
        cameras=tuple(cameras) if cameras is not None else tuple(cfg.net.cameras),
        image_rows=cfg.sim.image_size,
        image_cols=cfg.sim.image_size,
        seq_len=cfg.data.seq_len,
        conv_filters=tuple(cfg.net.conv_filters),
        conv_kernels=tuple(cfg.net.conv_kernels),
        conv_strides=tuple(cfg.net.conv_strides),
        lstm_units=cfg.net.lstm_units,
        merge_units=cfg.net.merge_units,
    )

