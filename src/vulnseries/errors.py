"""Exception types and the attrition record shared across the library.

A failure becomes a library error where it arises.  A stage that sets
an item aside instead of failing turns that error, or its own verdict,
into one :class:`AttritionRecord` with a stable reason code; a
:class:`RegistryError` carries its code as its ``reason`` attribute.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass


@dataclass(frozen=True)
class AttritionRecord:
    """One item a stage dropped, skipped or flagged, with a stable reason code.

    ``advisory_id`` names the advisory when the item is one; ``t`` names
    the forecast horizon when the item is a package-horizon pair.
    """

    package: str
    reason: str
    detail: str
    _: KW_ONLY
    advisory_id: str | None = None
    t: int | None = None


class VulnseriesError(Exception):
    """Base class for all library errors."""


class VersionParseError(VulnseriesError, ValueError):
    """Raised for version strings that cannot be accepted at all (empty input)."""


class SpecSyntaxError(VulnseriesError, ValueError):
    """A constraint token uses an operator outside the supported set.

    The message names the offending token.
    """

    def __init__(self, token: str, message: str):
        super().__init__(f"{message}: {token!r}")


class DatabaseLoadError(VulnseriesError):
    """The advisory database file is not valid JSON or has the wrong shape."""


class RegistryError(VulnseriesError):
    """A package index retrieval failure under its attrition ``reason`` code:
    ``not-found``, ``transport``, ``offline-miss`` or ``bad-payload``."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class SnapshotNotFoundError(VulnseriesError):
    """The snapshot file does not exist; the CLI reports it as an environment error."""


class SnapshotSchemaError(VulnseriesError):
    """The snapshot file is not valid JSON, has an unsupported schema version,
    or holds a malformed or out-of-order history."""


class ClauseInvalidError(VulnseriesError):
    """A constraint boundary version is absent from the release history.

    Callers drop the whole clause when this is raised.
    """


class InsufficientDataError(VulnseriesError, ValueError):
    """A series is too short for the requested operation."""


class SeparationError(VulnseriesError):
    """Perfect (or quasi) separation: the likelihood has no finite maximizer."""


class SingularModelError(VulnseriesError):
    """The weighted least-squares system is singular (collinear regressors)."""


class OrderSelectionError(VulnseriesError):
    """No candidate autoregression order produced a usable fit."""


class NotEligibleError(VulnseriesError):
    """The series fails the forecast eligibility filters; ``record`` says how."""

    def __init__(self, record: AttritionRecord):
        super().__init__(f"{record.package!r}: {record.reason}")
        self.record = record


class ForecastError(VulnseriesError):
    """The training-window fit failed; the cause is chained."""
