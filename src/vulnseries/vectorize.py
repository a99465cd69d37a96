"""From advisories and release histories to per-package binary series.

Every filled set is a release bitmask: a Python ``int`` in which bit i
stands for release i of the history.  One constraint covers a prefix, a
suffix, a point or everything but a point of the release order, as the
boundary version's index decides.  Constraints of a clause combine with
``&``, the clauses of an advisory with ``|``, and a package's advisory
masks add up bit by bit into counts that binarize into the final series
(1 = release affected by at least one advisory).

A constraint whose boundary version never appears in the history makes
the whole clause invalid; the advisory survives as long as one clause
remains.  Every drop is recorded in the attrition report.
"""

from __future__ import annotations

import bisect
import functools
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import AttritionRecord, ClauseInvalidError
from .registry import ReleaseHistory
from .safetydb import Advisory, Constraint, SpecClause

_version_key = operator.attrgetter("version.key")


@dataclass(frozen=True)
class BinarySeries:
    """The per-package 0/1 series: 1 where any advisory applies."""

    package: str
    values: tuple[int, ...]


@dataclass(frozen=True)
class AttritionReport:
    """Everything that fell out of the pipeline, and why."""

    clause_drops: tuple[AttritionRecord, ...]
    advisory_drops: tuple[AttritionRecord, ...]
    package_drops: tuple[AttritionRecord, ...]
    flags: tuple[AttritionRecord, ...]


@dataclass(frozen=True)
class PackageResult:
    """One package's per-release advisory counts, series and advisories."""

    package: str
    advisory_ids: tuple[str, ...]
    counts: tuple[int, ...]
    series: BinarySeries


@dataclass(frozen=True)
class Corpus:
    """All surviving packages (sorted by name) plus the attrition report."""

    packages: tuple[PackageResult, ...]
    attrition: AttritionReport

    def series(self) -> tuple[BinarySeries, ...]:
        return tuple(p.series for p in self.packages)


def fill_constraint(
    constraint: Constraint,
    history: ReleaseHistory,
    *,
    strict: bool = False,
) -> int:
    """Return the mask of the releases that satisfy one constraint.

    With boundary index b in a history of r releases, "<" marks [0, b),
    "<=" marks [0, b], ">" marks (b, r), ">=" marks [b, r), "==" marks
    only b, and "!=" marks everything except b; the history's keys strictly
    increase, so b is found by bisection.  A boundary version that is not in
    the history (under ``strict``, not with its trimmed text) raises
    :class:`ClauseInvalidError`.
    """
    boundary = constraint.version
    b = bisect.bisect_left(history.releases, boundary.key, key=_version_key)
    found = history.releases[b].version if b < len(history.releases) else None
    if found is None or found.key != boundary.key or (strict and found.raw != boundary.raw):
        raise ClauseInvalidError(
            f"boundary version {boundary.raw!r} absent from "
            f"{history.package!r} history"
        )
    op = constraint.op
    below, at = (1 << b) - 1, 1 << b
    if op == "<":
        return below
    if op == "<=":
        return below | at
    if op == "==":
        return at
    full = (1 << len(history.releases)) - 1
    if op == ">":
        return full & ~(below | at)
    if op == ">=":
        return full & ~below
    if op == "!=":
        return full & ~at
    raise KeyError(op)


def fill_clause(
    clause: SpecClause,
    history: ReleaseHistory,
    *,
    strict: bool = False,
) -> int:
    """Return the ``&`` of the masks of a clause's constraints."""
    if not clause.constraints:
        raise ClauseInvalidError("clause has no constraints")
    mask = -1
    for constraint in clause.constraints:
        mask &= fill_constraint(constraint, history, strict=strict)
    return mask


def bits(mask: int, r: int) -> tuple[int, ...]:
    """Expand a mask into its 0/1 marks over releases 0 .. r-1."""
    return tuple((mask >> i) & 1 for i in range(r))


def aggregate(
    package: str, masks: Sequence[int], r: int
) -> tuple[tuple[int, ...], BinarySeries]:
    """Count the advisory masks covering each release, then binarize (count > 0)."""
    if not masks:
        raise ValueError(f"no advisory masks for {package!r}")
    counts = [0] * r
    for mask in masks:
        mask &= (1 << r) - 1
        while mask:
            low = mask & -mask
            counts[low.bit_length() - 1] += 1
            mask ^= low
    return tuple(counts), BinarySeries(package, tuple(int(c > 0) for c in counts))


def build_corpus(
    advisories_by_package: Mapping[str, tuple[Advisory, ...]],
    histories: Mapping[str, ReleaseHistory],
    *,
    strict: bool = False,
) -> Corpus:
    """Run the full advisory-to-series pipeline over a database's advisories.

    Nothing raises here: clause, advisory, and package failures all turn
    into attrition records.  Output is sorted by package name.
    """
    clause_drops: list[AttritionRecord] = []
    advisory_drops: list[AttritionRecord] = []
    package_drops: list[AttritionRecord] = []
    flags: list[AttritionRecord] = []
    results: list[PackageResult] = []
    # Equal clauses render equal text, and loaded advisories repeat clauses: render each once.
    clause_text = functools.lru_cache(maxsize=None)(SpecClause.text)

    for package in sorted(advisories_by_package):
        advisories = advisories_by_package[package]
        history = histories.get(package)
        if history is None or len(history.releases) == 0:
            package_drops.append(
                AttritionRecord(
                    package,
                    "no-history",
                    f"{len(advisories)} advisories had no release history to fill",
                )
            )
            continue
        masks: list[int] = []
        advisory_ids: list[str] = []
        for advisory in advisories:
            mask: int | None = None
            for clause in advisory.clauses:
                for constraint in clause.constraints:
                    if constraint.op == "!=":
                        flags.append(
                            AttritionRecord(
                                package,
                                "not-equal-operator",
                                f"clause {clause_text(clause)!r} uses !=; filled as "
                                "all-but-boundary",
                                advisory_id=advisory.id,
                            )
                        )
                try:
                    filled = fill_clause(clause, history, strict=strict)
                except ClauseInvalidError as exc:
                    clause_drops.append(
                        AttritionRecord(
                            package,
                            "boundary-version-absent",
                            f"clause {clause_text(clause)!r}: {exc}",
                            advisory_id=advisory.id,
                        )
                    )
                    continue
                mask = filled if mask is None else mask | filled
            if mask is None:
                advisory_drops.append(
                    AttritionRecord(
                        package,
                        "no-valid-clause",
                        "every clause referenced versions missing from the history",
                        advisory_id=advisory.id,
                    )
                )
            else:
                masks.append(mask)
                advisory_ids.append(advisory.id)
        if not masks:
            package_drops.append(
                AttritionRecord(
                    package,
                    "no-surviving-advisory",
                    "all advisories of the package were dropped",
                )
            )
            continue
        counts, series = aggregate(package, masks, len(history.releases))
        results.append(
            PackageResult(
                package=package,
                advisory_ids=tuple(advisory_ids),
                counts=counts,
                series=series,
            )
        )

    report = AttritionReport(
        clause_drops=tuple(clause_drops),
        advisory_drops=tuple(advisory_drops),
        package_drops=tuple(package_drops),
        flags=tuple(flags),
    )
    return Corpus(tuple(results), report)


def corpus_rows(corpus: Corpus) -> list[dict]:
    """Flatten a corpus into export rows for JSON or CSV."""
    rows = []
    for result in corpus.packages:
        rows.append(
            {
                "package": result.package,
                "r": len(result.counts),
                "m": len(result.advisory_ids),
                "w": "".join(str(v) for v in result.series.values),
                "counts": list(result.counts),
            }
        )
    return rows
