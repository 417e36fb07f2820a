"""Run configuration: plain-text key=value files with dotted sections.

Unknown keys are rejected so typos fail loudly. Values are coerced to the
type of the dataclass field they target; list-of-int fields take
comma-separated values and booleans take true/false.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from .metrics import NsdConfig
from .model import ModelConfig
from .sama import AblationFlags
from .train import TrainConfig


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: NsdConfig = field(default_factory=NsdConfig)


def desk_default() -> RunConfig:
    """Desk-scale recipe: 64x64 images, C0=16, 200 epochs x 8 iterations."""
    return RunConfig()


def _coerce(raw: str, current):
    raw = raw.strip()
    if isinstance(current, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    if isinstance(current, int):
        return int(raw)
    if isinstance(current, float):
        return float(raw)
    if isinstance(current, list):
        return [int(x) for x in raw.split(",") if x.strip()]
    if isinstance(current, str):
        return raw
    raise ValueError(f"cannot assign to field of type {type(current).__name__}")


def apply_setting(cfg: RunConfig, key: str, raw: str):
    parts = key.strip().split(".")
    obj = cfg
    for p in parts[:-1]:
        if not dataclasses.is_dataclass(obj) or p not in {f.name for f in dataclasses.fields(obj)}:
            raise KeyError(f"unknown config section '{p}' in key '{key}'")
        obj = getattr(obj, p)
    leaf = parts[-1]
    if not dataclasses.is_dataclass(obj) or leaf not in {f.name for f in dataclasses.fields(obj)}:
        raise KeyError(f"unknown config key '{key}'")
    setattr(obj, leaf, _coerce(raw, getattr(obj, leaf)))


def parse_config(text: str, cfg: RunConfig | None = None) -> RunConfig:
    cfg = cfg or desk_default()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = line.split("=", 1)
        apply_setting(cfg, key, raw)
    # re-run each section's checks after the overrides
    for f in dataclasses.fields(cfg):
        check = getattr(getattr(cfg, f.name), "__post_init__", None)
        if check is not None:
            check()
    return cfg


def load_config(path) -> RunConfig:
    return parse_config(Path(path).read_text())
