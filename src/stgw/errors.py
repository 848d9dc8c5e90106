"""Exception hierarchy shared by every stage; exit codes match the CLI contract.

Only `dataio` touches the file system; it raises these with the file named."""

import dataclasses
import math


class StgwError(Exception):
    """Base class; `exit_code` is what the CLI process returns."""

    exit_code = 1


class ValidationError(StgwError):
    """Rejected input: schema violations, bad preconditions, malformed config."""

    exit_code = 2


class NumericError(StgwError):
    """Numeric failure: NaN loss, divergence, degenerate spectrum."""

    exit_code = 3


class DataIOError(StgwError):
    """Missing or unreadable/unwritable files."""

    exit_code = 4


def check_section(name: str, section, positive: tuple[str, ...] = ()) -> None:
    """Reject the `[name]` config dataclass `section` if a float field is not finite,
    or else if a field named in `positive` is not above zero."""
    for f in dataclasses.fields(section):
        value = getattr(section, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"[{name}] {f.name} must be finite, got {value}")
    for key in positive:
        value = getattr(section, key)
        if value <= 0:
            raise ValidationError(f"[{name}] {key} must be positive, got {value}")

