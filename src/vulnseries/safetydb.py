"""Parsing for Safety-DB-style advisory databases.

The database is a JSON object keyed by package name.  Each value is an
array of advisory objects carrying ``advisory`` (free text), ``cve``
(nullable), ``id``, ``specs`` (array of constraint strings, one per
alternative clause) and ``v`` (the comma-joined union of ``specs``).
Only ``specs`` is used here: its array elements are the alternatives,
and within one element comma-separated constraints form a conjunction.

Entries that cannot be parsed are skipped, never silently: each skip is
recorded with a reason so attrition stays accountable.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from typing import IO, Callable, Mapping, NamedTuple, Union

from .errors import AttritionRecord, DatabaseLoadError, SpecSyntaxError, VersionParseError
from .versions import Version, canonical_string, parse_version

# Longest first so prefix matching never mistakes "<=" for "<".
OPERATORS = ("<=", ">=", "==", "!=", "<", ">")

_CVE_RE = re.compile(r"^CVE-\d{4}-\d{4,}$")
_OPERATOR_CHARS = "<>=!~^"


class Constraint(NamedTuple):
    """One comparison against a boundary version."""

    op: str
    version: Version

    def text(self) -> str:
        return f"{self.op}{canonical_string(self.version)}"


class SpecClause(NamedTuple):
    """A conjunction of constraints; two or more form an interval."""

    constraints: tuple[Constraint, ...]

    def text(self) -> str:
        return ",".join(c.text() for c in self.constraints)


@dataclass(frozen=True)
class Advisory:
    """One vulnerability record with its alternative constraint clauses."""

    id: str
    package: str
    cve: str | None
    text: str
    clauses: tuple[SpecClause, ...]


@dataclass(frozen=True)
class DatabaseLoadResult:
    """Parsed advisories keyed by package, plus the attrition records."""

    advisories: Mapping[str, tuple[Advisory, ...]]
    skipped: tuple[AttritionRecord, ...]
    warnings: tuple[AttritionRecord, ...]

    @property
    def advisory_count(self) -> int:
        return sum(len(v) for v in self.advisories.values())


def parse_spec(text: str, *, parse: Callable[[str], Version] | None = None) -> SpecClause:
    """Parse one ``specs`` array element into a conjunction clause.

    Comma-separated tokens each carry an operator prefix and a version;
    a bare version means exact equality.  Unknown operator prefixes raise
    :class:`SpecSyntaxError` naming the offending token.
    ``parse`` replaces :func:`parse_version`, for a caller's memo.
    """
    parse = parse or parse_version
    if not text.strip():
        raise SpecSyntaxError(text, "empty spec string")
    constraints = []
    for token in text.split(","):
        tok = token.strip()
        if not tok:
            raise SpecSyntaxError(token, "empty constraint token")
        for op in OPERATORS:
            if tok.startswith(op):
                constraints.append(Constraint(op, parse(tok[len(op):].strip())))
                break
        else:
            if tok[0] in _OPERATOR_CHARS:
                raise SpecSyntaxError(tok, "unknown operator")
            constraints.append(Constraint("==", parse(tok)))
    return SpecClause(tuple(constraints))


def _parse_entry(
    package: str, index: int, entry: object, spec_parser: Callable[[str], SpecClause]
) -> AttritionRecord | tuple[Advisory, list[AttritionRecord]]:
    """The entry's advisory and warnings, or the record of why it is skipped."""
    if not isinstance(entry, dict):
        return AttritionRecord(package, "entry-not-an-object", f"index {index}")
    advisory_id = entry.get("id")
    warnings: list[AttritionRecord] = []
    if not isinstance(advisory_id, str) or not advisory_id:
        advisory_id = f"{package}[{index}]"
        warnings.append(
            AttritionRecord(package, "missing-id", "synthesized placeholder id", advisory_id=advisory_id)
        )

    def record(reason: str, detail: str) -> AttritionRecord:
        return AttritionRecord(package, reason, detail, advisory_id=advisory_id)

    specs = entry.get("specs")
    if specs is None:
        return record("missing-specs", "no specs field")
    if not isinstance(specs, list) or not specs:
        return record("empty-specs", "specs is not a non-empty array")
    clauses = []
    for spec in specs:
        if not isinstance(spec, str):
            return record("spec-not-a-string", repr(spec))
        try:
            clauses.append(spec_parser(spec))
        except SpecSyntaxError as exc:
            return record("spec-syntax", str(exc))
        except VersionParseError as exc:
            return record("bad-version", f"{spec!r}: {exc}")
    cve = entry.get("cve")
    if cve is not None:
        if isinstance(cve, str) and _CVE_RE.match(cve):
            pass
        else:
            warnings.append(record("malformed-cve", repr(cve)))
            cve = None
    advisory = Advisory(
        id=advisory_id,
        package=package,
        cve=cve,
        text=str(entry.get("advisory") or ""),
        clauses=tuple(clauses),
    )
    return advisory, warnings


def load_database(source: Union[bytes, str, IO[bytes]]) -> DatabaseLoadResult:
    """Parse a whole database from bytes, text, or a binary stream.

    Top-level keys starting with ``$`` are metadata and skipped without a
    diagnostic.  Malformed JSON raises :class:`DatabaseLoadError`.

    Each distinct spec string is parsed once, through a memo of
    :func:`parse_spec` over a memo of :func:`parse_version`; a spec that
    raises is parsed again, so each entry repeating it gets a skip record.
    The memos end with the call, so a long-lived process keeps no parsed
    specs between loads and each load costs what it would in a fresh one.
    """
    raw = source.read() if hasattr(source, "read") else source
    try:
        doc = json.loads(raw)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise DatabaseLoadError(f"database is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DatabaseLoadError("database top level must be a JSON object keyed by package name")

    parse = functools.lru_cache(maxsize=None)(parse_version)
    spec_parser = functools.lru_cache(maxsize=None)(functools.partial(parse_spec, parse=parse))
    advisories: dict[str, tuple[Advisory, ...]] = {}
    skipped: list[AttritionRecord] = []
    warnings: list[AttritionRecord] = []
    for package, entries in doc.items():
        if package.startswith("$"):
            continue
        if not isinstance(entries, list):
            skipped.append(AttritionRecord(package, "package-not-an-array", type(entries).__name__))
            continue
        kept: list[Advisory] = []
        for index, entry in enumerate(entries):
            result = _parse_entry(package, index, entry, spec_parser)
            if isinstance(result, AttritionRecord):
                skipped.append(result)
            else:
                advisory, entry_warnings = result
                kept.append(advisory)
                warnings.extend(entry_warnings)
        if kept:
            advisories[package] = tuple(kept)
    return DatabaseLoadResult(
        advisories=advisories,
        skipped=tuple(skipped),
        warnings=tuple(warnings),
    )


def load_database_path(path) -> DatabaseLoadResult:
    """Convenience wrapper reading the database from a file path."""
    with open(path, "rb") as handle:
        return load_database(handle)
