"""Run configuration and its TOML file format.

A config file is TOML 1.0, read by the standard library's ``tomllib``.
Text that is not TOML is a DataFormatError naming its line and column.
The keys of one level of ``[section]`` tables are read as if they were
top-level keys, unless the section is named like a field; every key must
name a :class:`RunConfig` field, and every value must have its field's
type.
"""

# no ``from __future__ import annotations``: RunConfig checks values against its own annotations
import tomllib
import types
import typing
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import DataFormatError, ValidationError
from .inputs import is_index, is_number, read_utf8
from .metrics import DEFAULT_OUTCOME_EPSILON


def _has_type(value, hint) -> bool:
    """``isinstance`` against an annotation, with ``inputs``' rule for an int (an index) and a float (a number)."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_has_type(value, arg) for arg in args)
    if origin is tuple:  # tuple[T, ...]
        return isinstance(value, tuple) and all(_has_type(v, args[0]) for v in value)
    if hint is int:
        return is_index(value)
    if hint is float:
        return is_number(value)
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
    epsilon: float = DEFAULT_OUTCOME_EPSILON
    seed: int = 7
    out_dir: str = "reports"
    formats: tuple[str, ...] = ("json",)
    pass_mark: int = 10
    uplift_std_fraction: float = 0.5
    uplift_ordinal_step: int = 2
    train_fraction: float = 0.7

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _has_type(value, f.type):
                text = f.type.__name__ if isinstance(f.type, type) else str(f.type)
                raise DataFormatError(f"config value {f.name} must be {text}, got {value!r}")
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
        try:
            doc = tomllib.loads(read_utf8(path))
        except (ValueError, RecursionError) as exc:
            # a TOMLDecodeError, an integer over Python's digit limit, or nesting deeper than the stack
            raise DataFormatError(f"invalid TOML in {path}: {exc}") from None
        known = {f.name for f in fields(cls)}
        flat: dict = {}
        for key, value in doc.items():
            if isinstance(value, dict) and key not in known:
                flat.update(value)
            else:  # a table named like a field is that field's (ill-typed) value
                flat[key] = value
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
