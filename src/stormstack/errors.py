"""Exception taxonomy shared across the toolkit, plus the text-file
opener that maps unreadable input onto it.

The CLI maps these onto exit codes: UsageError -> 1, DataError (and its
subclasses) -> 2, NumericError -> 3.
"""

from contextlib import contextmanager


class StormError(Exception):
    """Base class for all toolkit errors."""


class UsageError(StormError):
    """Caller misuse: bad argument values, invalid invocation."""


class DataError(StormError):
    """Input data failed validation or could not be read."""


class ValidationError(DataError):
    """Structured data violated a documented invariant."""


class ParseError(DataError):
    """A file could not be parsed; message carries the line number."""


class DimensionError(DataError):
    """Array shapes incompatible with the requested operation."""


class NumericError(StormError):
    """A numeric procedure failed: a tensor value or op result is not finite."""


@contextmanager
def open_text(path, error=DataError, what="input"):
    """Open path for streaming UTF-8 reads (newline="" for csv).

    A file that cannot be opened raises `error`, a byte that is not
    UTF-8 raises ParseError; both messages name the path.
    """
    try:
        fh = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        reason = "file not found" if isinstance(exc, FileNotFoundError) else exc.strerror
        raise error(f"cannot read {what} {path}: {reason}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: byte {exc.object[exc.start]:#04x} is not UTF-8 text") from None
