"""Experiment configuration: a strict JSON schema for grid runs.

Unknown keys anywhere in the file are hard errors carrying the offending
field path, so typos in grid definitions cannot silently change a run.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import get_args, get_origin, get_type_hints

from . import volio
from .data import check_fold_sizes
from .models import BACKBONES, MODES, ModelSpec
from .training import TrainConfig

NORMALIZATIONS = ("zscore", "ct", "none")


class ConfigError(ValueError):
    """Invalid configuration; message includes the field path."""


def _check_keys(d: dict, allowed, path: str) -> None:
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key '{path}.{unknown[0]}'"
                          f" (allowed: {', '.join(sorted(allowed))})")


@dataclass(frozen=True)
class SourceConfig:
    """Where volumes come from: a named phantom preset or a directory of
    serialized cases."""
    kind: str = "phantom"
    preset: str = "organ_and_lesion"
    num_volumes: int = 8
    seed: int = 0
    directory: str = ""
    normalization: str = "zscore"

    def __post_init__(self):
        if self.kind not in ("phantom", "volumes"):
            raise ConfigError(f"'source.kind' must be phantom or volumes, got {self.kind!r}")
        if self.normalization not in NORMALIZATIONS:
            raise ConfigError(f"'source.normalization' must be one of {NORMALIZATIONS}")
        if self.kind == "phantom" and self.num_volumes < 1:
            raise ConfigError("'source.num_volumes' must be positive")
        if self.kind == "volumes" and not self.directory:
            raise ConfigError("'source.directory' required when kind is volumes")
        if self.seed < 0:
            raise ConfigError(f"'source.seed' must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class GridConfig:
    modes: tuple[str, ...] = tuple(MODES)
    backbones: tuple[str, ...] = ("unet",)
    d_values: tuple[int, ...] = (3, 5, 7, 9, 11, 13)
    base_filters: int = 16
    patch_depth: int = 16

    def __post_init__(self):
        if not self.modes:
            raise ConfigError("'grid.modes' must not be empty")
        for m in self.modes:
            if m not in MODES:
                raise ConfigError(f"'grid.modes' entry {m!r} not in {MODES}")
        for b in self.backbones:
            if b not in BACKBONES:
                raise ConfigError(f"'grid.backbones' entry {b!r} not in {BACKBONES}")
        if not self.backbones:
            raise ConfigError("'grid.backbones' must not be empty")
        needs_d = any(m in ("proposed", "channel_based") for m in self.modes)
        if needs_d and not self.d_values:
            raise ConfigError("'grid.d_values' must not be empty for pseudo-3D modes")
        # ModelSpec's rule per cell; channel and class counts come with the data
        cells = [("base_filters", "end2end_2d", 1)] + [
            ("patch_depth" if mode == "end2end_3d" else "d_values", mode, d)
            for mode in self.modes for d in _mode_depths(self, mode)]
        for name, mode, d in cells:
            try:
                ModelSpec(mode=mode, backbone=self.backbones[0], d=d, in_channels=1,
                          num_classes=2, base_filters=self.base_filters)
            except ValueError as e:
                raise ConfigError(f"'grid.{name}': {e}") from e


@dataclass(frozen=True)
class FoldConfig:
    count: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.count < 2:
            raise ConfigError("'folds.count' must be at least 2")
        if self.seed < 0:
            raise ConfigError(f"'folds.seed' must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class ExperimentConfig:
    source: SourceConfig = field(default_factory=SourceConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    folds: FoldConfig = field(default_factory=FoldConfig)
    output_dir: str = "runs"

    def __post_init__(self):
        if self.source.kind == "phantom":
            try:
                check_fold_sizes(self.source.num_volumes, self.folds.count)
            except ValueError as e:
                raise ConfigError(f"'folds.count': {e}") from e


# ---------------------------------------------------------------------------
# dict <-> dataclass, with path-carrying validation

# accepted JSON types and their description, per scalar annotation
_SCALARS = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    bool: ((bool,), "true or false"),
    str: ((str,), "a string"),
}


def _parse_value(tp, v, path: str):
    if is_dataclass(tp):
        return _parse_dataclass(tp, v, path)
    if get_origin(tp) is tuple:
        if not isinstance(v, (list, tuple)):
            raise ConfigError(f"'{path}' must be a list, got {v!r}")
        args = get_args(tp)
        if args[-1] is Ellipsis:
            args = (args[0],) * len(v)
        elif len(v) != len(args):
            raise ConfigError(f"'{path}' must be a {len(args)}-element list, got {v!r}")
        return tuple(_parse_value(t, x, path) for t, x in zip(args, v))
    accepted, description = _SCALARS[tp]
    if not isinstance(v, accepted) or (isinstance(v, bool) and tp is not bool):
        raise ConfigError(f"'{path}' must be {description}, got {v!r}")
    if tp is not float:
        return v
    try:
        value = float(v)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):  # json.load reads NaN and Infinity
        raise ConfigError(f"'{path}' must be a finite number, got {v!r}")
    return value


def _parse_dataclass(cls, d, path: str):
    """Build ``cls`` from a JSON object, type-checking each given field
    against its annotation; absent fields keep their defaults. ``path`` is
    the dotted field path for messages, empty at the top level."""
    if not isinstance(d, dict):
        raise ConfigError(f"'{path}' must be an object" if path
                          else "top-level config must be an object")
    names = [f.name for f in fields(cls)]
    _check_keys(d, names, path or "config")
    hints = get_type_hints(cls)
    kw = {name: _parse_value(hints[name], d[name], f"{path}.{name}" if path else name)
          for name in names if name in d}
    try:
        return cls(**kw)
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"'{path}': {e}") from e


def _json_fields(items) -> dict:
    """``asdict`` factory writing tuple fields as JSON lists."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in items}


def config_from_dict(d: dict) -> ExperimentConfig:
    return _parse_dataclass(ExperimentConfig, d, "")


def config_to_dict(c: ExperimentConfig) -> dict:
    return asdict(c, dict_factory=_json_fields)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path} is not valid JSON: {e}") from e
    return config_from_dict(raw)


def save_config(c: ExperimentConfig, path: str) -> None:
    volio.write_json(path, config_to_dict(c))


def expand_grid(grid: GridConfig, in_channels: int, num_classes: int) -> list[ModelSpec]:
    """Expand the grid to concrete model specs, one per experiment cell.

    Pseudo-3D modes get one cell per d value; the end-to-end modes
    contribute a single cell each (d=1 and d=patch_depth). The default
    grid over one backbone yields 14 cells.
    """
    return [ModelSpec(mode=mode, backbone=backbone, d=d, in_channels=in_channels,
                      num_classes=num_classes, base_filters=grid.base_filters)
            for backbone in grid.backbones for mode in grid.modes
            for d in _mode_depths(grid, mode)]


def _mode_depths(grid: GridConfig, mode: str) -> tuple[int, ...]:
    return {"end2end_2d": (1,), "end2end_3d": (grid.patch_depth,)}.get(mode, grid.d_values)
