"""Exception hierarchy shared by every stage; exit codes match the CLI contract."""

import dataclasses
import math
from contextlib import contextmanager


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


@contextmanager
def utf8_text(path):
    """Turn a UnicodeDecodeError inside the block into a ValidationError naming the
    first line of `path` that is not UTF-8, found by reading the file again as bytes."""
    try:
        yield
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ValidationError(f"{path}: line {line}: not valid UTF-8 "
                                  f"(byte {data[exc.start]:#04x})") from None
        raise
