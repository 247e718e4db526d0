"""Flat key = value configuration files.

One scalar per line, `#` starts a comment, blank lines ignored. Every key
maps to one field of TrainConfig or DatasetSpec; unknown keys and
out-of-range values are reported with their line number. A check that
spans several keys runs after the last line and carries no line. Defaults
are the dataclass defaults (alpha_f = 0.999, alpha_b = 0.99).
"""

from __future__ import annotations

from dataclasses import fields
from functools import partial

from .datasets import DatasetSpec, check_spec_field
from .net import TrainConfig


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


# Every TrainConfig field is a key, parsed as the type of its default.
_TRAIN_KEYS = {f.name: type(f.default) for f in fields(TrainConfig)}

_DATASET_KEYS = {
    "dataset": ("kind", str),
    "classes": ("classes", int),
    "samples": ("samples", int),
    "dim": ("dim", int),
    "image_side": ("image_side", int),
    "class_scale": ("class_scale", float),
    "dataset_noise": ("noise", float),
    "brightness": ("brightness", float),
    "images_path": ("images_path", str),
    "labels_path": ("labels_path", str),
}


def _convert(raw: str, kind, key: str, line: int):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"value {raw!r} for {key} is not a {kind.__name__}", line) from None


def parse_config(text: str) -> tuple[TrainConfig, DatasetSpec]:
    """Parse config text into (TrainConfig, DatasetSpec) with range checks."""
    cfg = TrainConfig()
    spec = DatasetSpec()
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {rawline!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in _TRAIN_KEYS:
            setattr(cfg, key, _convert(value, _TRAIN_KEYS[key], key, lineno))
            check = cfg.validate
        elif key in _DATASET_KEYS:
            attr, kind = _DATASET_KEYS[key]
            setattr(spec, attr, _convert(value, kind, key, lineno))
            check = partial(check_spec_field, attr, getattr(spec, attr))
        else:
            raise ConfigError(f"unknown key {key!r}", lineno)
        try:
            check()
        except ValueError as exc:
            raise ConfigError(str(exc), lineno) from None
    try:
        cfg.validate()
        spec.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg, spec


def _writable(value) -> bool:
    """Whether parse_config reads the line `key = value` back as value."""
    text = str(value)
    return "#" not in text and text == text.strip() and len(text.splitlines()) <= 1


def serialize_config(cfg: TrainConfig, spec: DatasetSpec) -> str:
    """Emit config text that parse_config maps back to equal objects.

    Raises ConfigError for a value the format cannot hold: one with a `#`,
    a line break, or leading or trailing whitespace.
    """
    reverse = {attr: key for key, (attr, _) in _DATASET_KEYS.items()}
    pairs = [(f.name, getattr(cfg, f.name)) for f in fields(TrainConfig)]
    for f in fields(DatasetSpec):
        value = getattr(spec, f.name)
        if f.name in ("images_path", "labels_path") and not value:
            continue
        pairs.append((reverse[f.name], value))
    for key, value in pairs:
        if not _writable(value):
            raise ConfigError(f"value {value!r} for {key} cannot be written as a config line")
    return "".join(f"{key} = {value}\n" for key, value in pairs)
