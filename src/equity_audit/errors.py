"""Exception hierarchy for equity_audit.

Every error raised by the library derives from :class:`EquityAuditError`,
so callers can catch one base type. Metric errors that stem from a group
having no positives or no negatives are deliberately loud: silently
substituting 0 for an undefined rate hides exactly the kind of bias this
toolkit exists to surface.
"""

from __future__ import annotations


class EquityAuditError(Exception):
    """Base class for all equity_audit errors."""


class ValidationError(EquityAuditError, ValueError):
    """Inputs violate a documented contract (shape, domain, config)."""

    def __init__(self, message: str = "", *, row: int | None = None):
        super().__init__(message)
        self.row = row  # 0-based index of the offending row of a columnar input


class DominanceError(ValidationError):
    """Obstacle-free features must dominate obstacle-refrained features."""


class UndefinedRateError(EquityAuditError):
    """A group-conditional rate (TPR or FPR) is undefined for a group.

    Attributes:
        group: the offending group identifier
        rate: "tpr" or "fpr"
    """

    def __init__(self, group: int, rate: str):
        self.group = group
        self.rate = rate
        side = "positives" if rate == "tpr" else "negatives"
        super().__init__(
            f"{rate.upper()} undefined for group {group}: it has no {side}"
        )


class NoPositivesError(EquityAuditError):
    """Utilization is undefined because there are no proxy-positives."""


class SingleClassError(ValidationError):
    """Training data contains only one label class."""


class JoinError(EquityAuditError):
    """Proxy-positive rows could not be joined to intended-model rows."""


class DataFormatError(EquityAuditError):
    """An input file violates its documented format.

    Carries optional row/column context so CLI users can locate the
    offending cell.
    """

    def __init__(self, message: str, *, row: int | None = None, column: str | None = None):
        self.row = row
        self.column = column
        where = []
        if row is not None:
            where.append(f"row {row}")
        if column is not None:
            where.append(f"column {column!r}")
        if where:
            message = f"{message} ({', '.join(where)})"
        super().__init__(message)
