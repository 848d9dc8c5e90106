"""Run configuration: INI-style key/value files with a JSON alternate."""

from __future__ import annotations

import configparser
import json
import math
import os
from dataclasses import dataclass, field, fields

from . import classify, sgwt
from .errors import DataIOError, ValidationError, utf8_text
from .gat import TrainConfig


@dataclass
class SgwtSection:
    filters: int = sgwt.DEFAULT_FILTERS
    cheb_order: int = sgwt.DEFAULT_CHEB_ORDER
    scale_lo: float = sgwt.SCALE_LO
    scale_hi: float = sgwt.SCALE_HI
    quad_points: int = sgwt.DEFAULT_QUAD_POINTS


@dataclass
class ClassifySection:
    theta_hi: float = classify.THETA_HI
    theta_lo: float = classify.THETA_LO


@dataclass
class IoSection:
    nodes: str = "nodes.csv"
    edges: str = "edges.csv"
    cases: str = "cases.csv"
    out: str = "out"


_SECTIONS = {"gat": TrainConfig, "sgwt": SgwtSection, "classify": ClassifySection,
             "io": IoSection}


@dataclass
class RunConfig:
    gat: TrainConfig = field(default_factory=TrainConfig)
    sgwt: SgwtSection = field(default_factory=SgwtSection)
    classify: ClassifySection = field(default_factory=ClassifySection)
    io: IoSection = field(default_factory=IoSection)

    def validate(self) -> "RunConfig":
        for name, values in self.resolved().items():
            for key, value in values.items():
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValidationError(f"[{name}] {key} must be finite, got {value}")
        for name in ("gat", "sgwt"):
            section = getattr(self, name)
            for f in fields(section):
                value = getattr(section, f.name)
                if isinstance(value, (int, float)) and value <= 0 and f.name != "seed":
                    raise ValidationError(f"[{name}] {f.name} must be positive, got {value}")
        if self.gat.seed < 0:
            raise ValidationError("[gat] seed must be non-negative")
        if self.classify.theta_hi <= 0 or self.classify.theta_lo <= 0:
            raise ValidationError("[classify] thresholds must be positive")
        if self.sgwt.scale_lo >= self.sgwt.scale_hi:
            raise ValidationError("[sgwt] scale_lo must be below scale_hi")
        return self

    def resolved(self) -> dict[str, dict]:
        """Every tunable with its resolved value, by section (manifest fodder)."""
        out = {}
        for name in _SECTIONS:
            section = getattr(self, name)
            out[name] = {f.name: getattr(section, f.name) for f in fields(section)}
        return out


def _apply(cfg: RunConfig, data: dict) -> RunConfig:
    for section_name, values in data.items():
        if section_name not in _SECTIONS:
            raise ValidationError(f"unknown config section [{section_name}]")
        section = getattr(cfg, section_name)
        known = {f.name for f in fields(section)}
        for key, raw in values.items():
            if key not in known:
                raise ValidationError(f"unknown config key {key!r} in [{section_name}]")
            current = getattr(section, key)
            if isinstance(current, (int, float)) and isinstance(raw, bool):
                raise ValidationError(f"[{section_name}] {key} must be a number, got {raw!r}")
            if isinstance(current, int) and isinstance(raw, float) and not raw.is_integer():
                raise ValidationError(f"[{section_name}] {key} must be an integer, got {raw!r}")
            try:
                if isinstance(current, int):
                    value = int(raw)
                elif isinstance(current, float):
                    value = float(raw)
                else:
                    value = str(raw)
            except (TypeError, ValueError):
                raise ValidationError(f"bad value for {key} in [{section_name}]: {raw!r}")
            setattr(section, key, value)
    return cfg


def load_config(path: str | None) -> RunConfig:
    """Defaults, optionally overridden by an INI or JSON file."""
    cfg = RunConfig()
    if path is None:
        return cfg.validate()
    if not os.path.exists(path):
        raise DataIOError(f"config file not found: {path}")
    with utf8_text(path), open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON config: {exc}")
    else:
        parser = configparser.ConfigParser()
        parser.optionxform = str
        try:
            parser.read_string(text, source=path)
        except configparser.Error as exc:
            raise ValidationError(f"{path}: invalid config: {exc}")
        data = {name: dict(parser.items(name)) for name in parser.sections()}
    return _apply(cfg, data).validate()
