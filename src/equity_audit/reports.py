"""Report emission: JSON documents and plot-ready long-format CSV.

Output is deterministic for a given input: keys are sorted, no timestamps
are embedded, and floats are written with ``repr`` so identical runs
produce byte-identical files. A result's JSON form is decided here alone,
by :func:`json_form`, and all JSON text is built by :func:`json_text`,
which holds no ``NaN`` or ``Infinity``.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from dataclasses import fields
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ValidationError

if TYPE_CHECKING:
    from .metrics import EquityReport

LONG_CSV_COLUMNS = ("regime", "metric", "group", "value")

_SCALARS = frozenset({bool, int, float, str, type(None)})
_CONTAINERS = (list, tuple, dict)


class Record:
    """A result with a report form: subclass it with a dataclass."""

    def to_dict(self) -> dict:
        return json_form(self)


def json_form(value):
    """A record as its fields by name, a tuple or list as a list, a dict key as ``str(key)``.

    Nested values convert the same way; a scalar or None is returned unchanged.
    """
    if type(value) in _SCALARS:
        return value
    if isinstance(value, Record):
        return {f.name: json_form(getattr(value, f.name)) for f in fields(value)}
    # items are mostly scalars: test each inline rather than by a call
    if isinstance(value, (tuple, list)):
        return [v if type(v) in _SCALARS else json_form(v) for v in value]
    if isinstance(value, dict):
        return {str(k): v if type(v) in _SCALARS else json_form(v) for k, v in value.items()}
    return value


def _csv_text(columns, rows) -> str:
    """CSV text of a header and rows of already formatted cells, one ``\\n`` per line."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def _fmt(value) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def equity_report_rows(regime: str, report: EquityReport) -> list[tuple]:
    """Flatten one report into (regime, metric, group, value) rows."""
    rows: list[tuple] = [
        (regime, "psi", "", report.access.psi),
    ]
    for g, v in sorted(report.access.per_group.items()):
        rows.append((regime, "psi", str(g), v))
    rows.append((regime, "eo_violation", "", report.outcome.eo_violation))
    for g, v in sorted(report.outcome.tpr_by_group.items()):
        rows.append((regime, "tpr", str(g), v))
    for g, v in sorted(report.outcome.fpr_by_group.items()):
        rows.append((regime, "fpr", str(g), v))
    rows.append((regime, "zeta", "", report.utilization.zeta))
    rows.append((regime, "true_positive_share", "", report.utilization.true_positive_share))
    rows.append((regime, "false_positive_share", "", report.utilization.false_positive_share))
    for g, v in sorted(report.utilization.per_group_fp_share.items()):
        rows.append((regime, "fp_share", str(g), v))
    rows.append((regime, "score", "", report.score))
    return rows


def long_csv(rows: list[tuple]) -> str:
    return _csv_text(
        LONG_CSV_COLUMNS,
        ((regime, metric, group, _fmt(value)) for regime, metric, group, value in rows),
    )


def json_text(doc, indent: int | None = None) -> str:
    """``doc`` as ``json.dumps(doc, sort_keys=True, indent=indent)`` writes it, byte for byte.

    Indented text is built by :func:`_indented` at the C encoder's speed,
    where ``json.dumps`` would fall back to its pure-Python encoder. JSON
    has no non-finite number, so a NaN or an infinity in ``doc`` is a
    ValidationError (exit 2) instead of the ``NaN``/``Infinity`` tokens
    Python's encoder writes by default.
    """
    try:
        if indent is not None:
            try:
                return _indented(doc, " " * indent, 0)
            except (ValueError, TypeError, RecursionError):
                pass  # json.dumps below writes it, or raises its own error naming the value
        return json.dumps(doc, sort_keys=True, indent=indent, allow_nan=False)
    except ValueError as exc:
        raise ValidationError(f"cannot write the report as JSON: {exc}") from None


@functools.cache
def _encoder(item_separator: str) -> json.JSONEncoder:
    """The C encoder, writing ``item_separator`` between the items of a container."""
    return json.JSONEncoder(sort_keys=True, allow_nan=False, separators=(item_separator, ": "))


def _key_text(key) -> str:
    """A str dict key as a JSON string; any other key raises, for ``json.dumps`` to write or refuse."""
    if not isinstance(key, str):
        raise TypeError(key)
    return _encoder(", ").encode(key)


def _indented(value, pad: str, depth: int) -> str:
    """``value`` as ``json.dumps`` writes it with indent ``pad``, ``depth`` levels in.

    A container whose items are all str, int, float, bool or None is one C
    encoder call, whose item separator holds the newline and padding of
    its items; only other containers are joined here, item by item.
    """
    if not isinstance(value, _CONTAINERS):
        return _encoder(", ").encode(value)
    inner = "\n" + pad * (depth + 1)
    is_dict = isinstance(value, dict)
    if _SCALARS.issuperset(map(type, value.values() if is_dict else value)):
        text = _encoder("," + inner).encode(value)
        return text if len(text) == 2 else f"{text[0]}{inner}{text[1:-1]}\n{pad * depth}{text[-1]}"
    if is_dict:
        parts = [f"{_key_text(k)}: {_indented(v, pad, depth + 1)}" for k, v in sorted(value.items())]
    else:
        parts = [_indented(v, pad, depth + 1) for v in value]
    opening, closing = "{}" if is_dict else "[]"
    return f"{opening}{inner}{(',' + inner).join(parts)}\n{pad * depth}{closing}"


def write_json(doc: dict, path: Path) -> str:
    """Write ``doc`` to ``path`` as indented JSON text and a newline; return the text without it."""
    text = json_text(doc, indent=2)
    path.write_text(text + "\n")
    return text
