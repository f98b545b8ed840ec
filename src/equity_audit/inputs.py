"""How an input file is opened and decoded.

Every file the CLI reads (CSV logs and cohorts, the student file, model
and spaces documents, TOML configs) is UTF-8 text. A path that cannot be
opened or bytes that do not decode are data errors, raised as
:class:`DataFormatError` (exit 2), never as a bare ``OSError`` or
``UnicodeDecodeError``. The JSON documents are shape-checked with
:func:`is_number` and :func:`is_list_of` before any value is converted.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import DataFormatError


def open_error(path, exc: OSError) -> DataFormatError:
    """The error for an input path that cannot be opened (missing, a directory, ...)."""
    if isinstance(exc, FileNotFoundError):
        return DataFormatError(f"input file not found: {path}")
    return DataFormatError(f"cannot open {path}: {exc.strerror or exc}")


def decode_error(path, exc: UnicodeDecodeError) -> DataFormatError:
    """The error for an input file whose bytes are not UTF-8."""
    return DataFormatError(f"{path} is not UTF-8 text ({exc.reason})")


def read_utf8(path) -> str:
    """Whole text of a UTF-8 input file; every read fault is a DataFormatError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise open_error(path, exc) from None
    except UnicodeDecodeError as exc:
        raise decode_error(path, exc) from None


def read_json(path) -> dict:
    """The JSON object in a UTF-8 file; any other content is a DataFormatError."""
    text = read_utf8(path)
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an integer over Python's digit limit, or nesting deeper than the stack
        raise DataFormatError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path} must hold a JSON object, got {type(doc).__name__}")
    return doc


def is_number(value) -> bool:
    """A JSON number that converts to a float; a bool is no number, as in ``RunConfig``."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:  # an integer beyond the float range
        return False
    return True


def is_list_of(value, check) -> bool:
    """A JSON list whose every item passes ``check``."""
    return isinstance(value, list) and all(map(check, value))


def is_index(value) -> bool:
    """A JSON integer; a bool is no index."""
    return isinstance(value, int) and not isinstance(value, bool)
