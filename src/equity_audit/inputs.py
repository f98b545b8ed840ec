"""How an input file is opened and decoded, and what a number and an index are.

Every file the CLI reads (CSV logs and cohorts, the student file, model
and spaces documents, TOML configs) is UTF-8 text. A path that cannot be
opened or bytes that do not decode are data errors, raised as
:class:`DataFormatError` (exit 2), never as a bare ``OSError`` or
``UnicodeDecodeError``. :func:`is_number` and :func:`is_index` are the one
rule for every input, documents and configs alike: a bool is never a
number, and numpy scalars count.
"""

from __future__ import annotations

import json
import math
import numbers
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
    """A real number, not a bool, that converts to a float."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:  # an integer beyond the float range
        return False
    return True


def is_finite_number(value) -> bool:
    """A number (:func:`is_number`) that is finite as a float."""
    return is_number(value) and math.isfinite(value)


def is_list_of(value, check) -> bool:
    """A JSON list whose every item passes ``check``."""
    return isinstance(value, list) and all(map(check, value))


def is_index(value) -> bool:
    """An integer, not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)
