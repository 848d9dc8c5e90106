"""Run configuration: INI-style key/value files with a JSON alternate."""

from __future__ import annotations

import configparser
import json
import os
from dataclasses import dataclass, field, fields, replace

from . import classify, sgwt
from .errors import DataIOError, ValidationError, check_section, utf8_text
from .gat import TrainConfig


@dataclass
class SgwtSection:
    filters: int = sgwt.DEFAULT_FILTERS
    cheb_order: int = sgwt.DEFAULT_CHEB_ORDER
    scale_lo: float = sgwt.SCALE_LO
    scale_hi: float = sgwt.SCALE_HI
    quad_points: int = sgwt.DEFAULT_QUAD_POINTS

    def __post_init__(self):
        check_section("sgwt", self, ("filters", "cheb_order", "scale_lo", "scale_hi",
                                     "quad_points"))
        if self.scale_lo >= self.scale_hi:
            raise ValidationError("[sgwt] scale_lo must be below scale_hi")
        least = sgwt.QUAD_MARGIN * (self.cheb_order + 1)  # for the error bounds
        if self.quad_points < least:
            raise ValidationError(f"[sgwt] quad_points must be at least {least} for "
                                  f"cheb_order {self.cheb_order}, got {self.quad_points}")
        if self.filters != classify.TORQUE_WEIGHTS.size:  # the torque weighs 8 bands
            raise ValidationError(f"[sgwt] filters must be {classify.TORQUE_WEIGHTS.size}, "
                                  f"got {self.filters}")


@dataclass
class ClassifySection:
    theta_hi: float = classify.THETA_HI
    theta_lo: float = classify.THETA_LO

    def __post_init__(self):
        check_section("classify", self, ("theta_hi", "theta_lo"))
        if self.theta_lo >= self.theta_hi:
            raise ValidationError("[classify] theta_lo must be below theta_hi")


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

    def check(self) -> None:
        """Re-run every section's checks, which a value assigned after the section was
        built has skipped."""
        for name in _SECTIONS:
            replace(getattr(self, name))

    def resolved(self) -> dict[str, dict]:
        """Every tunable with its resolved value, by section (manifest fodder)."""
        out = {}
        for name in _SECTIONS:
            section = getattr(self, name)
            out[name] = {f.name: getattr(section, f.name) for f in fields(section)}
        return out


def _apply(cfg: RunConfig, data: dict) -> RunConfig:
    """`cfg` with each section rebuilt from its parsed values, so it checks them."""
    sections = {}
    for section_name, values in data.items():
        if section_name not in _SECTIONS:
            raise ValidationError(f"unknown config section [{section_name}]")
        if not isinstance(values, dict):
            raise ValidationError(f"[{section_name}] must hold keys, got {values!r}")
        section = getattr(cfg, section_name)
        known = {f.name for f in fields(section)}
        parsed = {}
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
            parsed[key] = value
        sections[section_name] = replace(section, **parsed)
    return replace(cfg, **sections)


def load_config(path: str | None) -> RunConfig:
    """Defaults, optionally overridden by an INI or JSON file."""
    cfg = RunConfig()
    if path is None:
        return cfg
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
    return _apply(cfg, data)
