"""Exception hierarchy shared by every stage; exit codes match the CLI contract."""

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
