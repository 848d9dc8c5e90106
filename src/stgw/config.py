"""Run configuration: INI key/value files, read by `dataio`, the one file-system module."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar

from . import classify, dataio, sgwt
from .errors import DataIOError, ValidationError, check_section
from .gat import TrainConfig


@dataclass(frozen=True)
class SgwtSection:
    filters: ClassVar[int] = classify.TORQUE_WEIGHTS.size  # the torque weighs 8 bands
    cheb_order: int = sgwt.DEFAULT_CHEB_ORDER

    def __post_init__(self):
        check_section("sgwt", self, ("cheb_order",))


@dataclass(frozen=True)
class IoSection:
    nodes: str = "nodes.csv"
    edges: str = "edges.csv"
    cases: str = "cases.csv"
    out: str = "out"


_SECTIONS = {"gat": TrainConfig, "sgwt": SgwtSection, "io": IoSection}


@dataclass
class RunConfig:
    gat: TrainConfig = field(default_factory=TrainConfig)
    sgwt: SgwtSection = field(default_factory=SgwtSection)
    io: IoSection = field(default_factory=IoSection)

    def resolved(self) -> dict[str, dict]:
        """Every tunable with its resolved value, by section (manifest fodder)."""
        out = {}
        for name in _SECTIONS:
            section = getattr(self, name)
            out[name] = {f.name: getattr(section, f.name) for f in fields(section)}
        return out


def _apply(cfg: RunConfig, data: dict[str, dict[str, str]]) -> RunConfig:
    """`cfg` with each section rebuilt from its parsed values, so it checks them."""
    sections = {}
    for section_name, values in data.items():
        if section_name not in _SECTIONS:
            raise ValidationError(f"unknown config section [{section_name}]")
        section = getattr(cfg, section_name)
        known = {f.name for f in fields(section)}
        parsed = {}
        for key, raw in values.items():
            if key not in known:
                raise ValidationError(f"unknown config key {key!r} in [{section_name}]")
            try:
                parsed[key] = type(getattr(section, key))(raw)
            except ValueError:
                raise ValidationError(f"bad value for {key} in [{section_name}]: {raw!r}")
        sections[section_name] = replace(section, **parsed)
    return replace(cfg, **sections)


def load_config(path: str | None) -> RunConfig:
    """Defaults, optionally overridden by an INI file; every rejection names the file."""
    cfg = RunConfig()
    if path is None:
        return cfg
    if not os.path.exists(path):
        raise DataIOError(f"config file not found: {path}")
    data = dataio.read_ini(path, "config")
    try:
        return _apply(cfg, data)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
