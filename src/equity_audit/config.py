"""Run configuration and a strict reader for its TOML file format.

Python 3.10 has no stdlib TOML parser, so :func:`parse_toml_subset` reads
the flat subset these config files actually use: comments, one level of
``[section]`` headers, and ``key = value`` lines whose values are quoted
strings, integers, floats, booleans, or one-line arrays of those scalars.
Anything outside that subset is rejected with a line-numbered error.
"""

from __future__ import annotations

import functools
import numbers
import sys
import types
import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import DataFormatError, ValidationError
from .inputs import read_utf8


def _parse_scalar(token: str, lineno: int):
    token = token.strip()
    if not token:
        raise DataFormatError("empty value", row=lineno)
    if token in ("true", "false"):
        return token == "true"
    if token == "inf":
        return float("inf")
    if (token.startswith('"') and token.endswith('"') and len(token) >= 2) or (
        token.startswith("'") and token.endswith("'") and len(token) >= 2
    ):
        return token[1:-1]
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        raise DataFormatError(f"cannot parse value {token!r}", row=lineno) from None


def _split_array_items(body: str, lineno: int) -> list[str]:
    items, depth, current, quote = [], 0, "", None
    for ch in body:
        if quote:
            current += ch
            if ch == quote:
                quote = None
            continue
        if ch in "\"'":
            quote = ch
            current += ch
        elif ch == "," and depth == 0:
            items.append(current)
            current = ""
        else:
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            current += ch
    if quote is not None or depth != 0:
        raise DataFormatError("unterminated array or string", row=lineno)
    if current.strip():
        items.append(current)
    return items


def parse_toml_subset(text: str) -> dict:
    """Parse the supported TOML subset into nested dicts."""
    root: dict = {}
    target = root
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise DataFormatError(f"malformed section header {line!r}", row=lineno)
            section = line[1:-1].strip()
            if not section or "[" in section or "]" in section:
                raise DataFormatError(f"malformed section header {line!r}", row=lineno)
            target = root.setdefault(section, {})
            if not isinstance(target, dict):
                raise DataFormatError(f"section {section!r} clashes with a key", row=lineno)
            continue
        if "=" not in line:
            raise DataFormatError(f"expected 'key = value', got {line!r}", row=lineno)
        key, _, value = line.partition("=")
        key = key.strip().strip('"')
        value = value.strip()
        # strip trailing comments outside quotes
        hash_pos, quote = -1, None
        for i, ch in enumerate(value):
            if quote:
                if ch == quote:
                    quote = None
            elif ch in "\"'":
                quote = ch
            elif ch == "#":
                hash_pos = i
                break
        if hash_pos >= 0:
            value = value[:hash_pos].strip()
        if not key:
            raise DataFormatError("empty key", row=lineno)
        if value.startswith("["):
            if not value.endswith("]"):
                raise DataFormatError("arrays must close on the same line", row=lineno)
            target[key] = [
                _parse_scalar(itm, lineno) for itm in _split_array_items(value[1:-1], lineno)
            ]
        else:
            target[key] = _parse_scalar(value, lineno)
    return root


def _has_type(value, hint) -> bool:
    """``isinstance`` against an annotation; bool is no int, an int in the float range is a float."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_has_type(value, arg) for arg in args)
    if origin is tuple:  # tuple[T, ...]
        return isinstance(value, tuple) and all(_has_type(v, args[0]) for v in value)
    if hint in (int, float):
        number = numbers.Integral if hint is int else numbers.Real
        too_big = hint is float and isinstance(value, int) and abs(value) > sys.float_info.max
        return isinstance(value, number) and not isinstance(value, bool) and not too_big
    return isinstance(value, hint)


@dataclass(frozen=True)
class RunConfig:
    """Settings shared by the CLI commands.

    The three ``equal_*`` switches restrict which case-study regimes run;
    leaving one unset (None) runs both settings of that switch, so the
    default configuration runs all eight regimes.
    """

    equal_access: bool | None = None
    equal_outcome: bool | None = None
    equal_utilization: bool | None = None
    tau: float = 0.85
    tau_o: float = 0.15
    epsilon: float = 1e-9
    seed: int = 7
    out_dir: str = "reports"
    formats: tuple[str, ...] = ("json",)
    pass_mark: int = 10
    uplift_std_fraction: float = 0.5
    uplift_ordinal_step: int = 2
    train_fraction: float = 0.7

    def __post_init__(self):
        for name, hint, text in _field_types():
            value = getattr(self, name)
            if not _has_type(value, hint):
                raise DataFormatError(f"config value {name} must be {text}, got {value!r}")
        if not 0 < self.tau <= 1:
            raise ValidationError("tau must be in (0, 1]")
        if not 0 <= self.tau_o < 1:
            raise ValidationError("tau_o must be in [0, 1)")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValidationError(f"seed must be >= 0, got {self.seed!r}")
        if not self.epsilon >= 0:  # a NaN too
            raise ValidationError(f"epsilon must be >= 0, got {self.epsilon!r}")
        if self.epsilon == float("inf"):  # would call every log outcome-equal
            raise ValidationError(f"epsilon must be finite, got {self.epsilon!r}")
        if not 0 < self.train_fraction < 1:
            raise ValidationError("train_fraction must be in (0, 1)")
        if not 0 <= self.pass_mark <= 20:
            raise ValidationError("pass_mark must be within the 0-20 grade scale")
        for name, value in (("uplift_std_fraction", self.uplift_std_fraction),
                            ("uplift_ordinal_step", self.uplift_ordinal_step)):
            if not value >= 0:  # a NaN too
                raise ValidationError(f"{name} must be >= 0, got {value!r}")
        if self.uplift_std_fraction == float("inf"):  # would clip every flagged feature to its top
            raise ValidationError(f"uplift_std_fraction must be finite, got {self.uplift_std_fraction!r}")
        for fmt in self.formats:
            if fmt not in ("json", "csv"):
                raise ValidationError(f"unknown report format {fmt!r}")

    @classmethod
    def from_toml(cls, path: str | Path) -> "RunConfig":
        text = read_utf8(path)
        doc = parse_toml_subset(text)
        flat: dict = {}
        for key, value in doc.items():
            if isinstance(value, dict):
                flat.update(value)
            else:
                flat[key] = value
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(flat) - known)
        if unknown:
            raise DataFormatError(f"unknown config keys: {', '.join(unknown)}")
        if "formats" in flat:
            value = flat["formats"]
            flat["formats"] = tuple(value) if isinstance(value, list) else (value,)
        return cls(**flat)

    def override(self, **kwargs) -> "RunConfig":
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **updates) if updates else self


@functools.cache
def _field_types() -> tuple[tuple[str, object, str], ...]:
    """``(name, annotation, annotation text)`` of every RunConfig field.

    The annotations are strings until resolved; resolving them once per
    process keeps ``typing.get_type_hints`` out of every construction.
    """
    hints = typing.get_type_hints(RunConfig)
    return tuple((f.name, hints[f.name], f.type) for f in fields(RunConfig))
