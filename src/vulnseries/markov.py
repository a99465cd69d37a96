"""Unconditional and first-order transition probabilities for binary series.

The unconditional probability of a package is simply the mean of its 0/1
series.  Transition analysis walks consecutive release pairs into a 2x2
contingency table and normalizes each row; a state that never occurs as
a source yields an explicitly undefined row (None entries) instead of
NaNs.  Corpus-level summaries collect per-package records together with
distribution statistics and histogram bins for plotting.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

from .errors import InsufficientDataError
from .vectorize import BinarySeries

__all__ = [
    "TransitionTable",
    "PackageStats",
    "CorpusSummary",
    "unconditional_probability",
    "transition_table",
    "transition_probabilities",
    "corpus_summary",
    "histogram",
]


@dataclass(frozen=True)
class TransitionTable:
    """Counts over consecutive pairs, indexed [from-state][to-state]."""

    counts: tuple[tuple[int, int], tuple[int, int]]

    @property
    def total(self) -> int:
        return sum(self.counts[0]) + sum(self.counts[1])


@dataclass(frozen=True)
class PackageStats:
    """One package's probability record; None marks undefined entries."""

    package: str
    r: int
    p_uncond: float
    p_11: float | None
    p_00: float | None

    @property
    def p_11_defined(self) -> bool:
        return self.p_11 is not None

    @property
    def p_00_defined(self) -> bool:
        return self.p_00 is not None


@dataclass(frozen=True)
class CorpusSummary:
    """Per-package records plus corpus-level distribution statistics."""

    records: tuple[PackageStats, ...]
    release_stats: dict
    uncond_stats: dict
    p11_stats: dict
    p00_stats: dict
    histograms: dict


def unconditional_probability(w: BinarySeries) -> float:
    """Mean of the series: the share of affected releases."""
    if len(w.values) == 0:
        raise InsufficientDataError("series is empty")
    return sum(w.values) / len(w.values)


def transition_table(w: BinarySeries) -> TransitionTable:
    """Count the consecutive (previous, current) state pairs."""
    if len(w.values) < 2:
        raise InsufficientDataError(
            f"{w.package!r} has {len(w.values)} releases; transitions need 2"
        )
    counts = [[0, 0], [0, 0]]
    for previous, current in zip(w.values, w.values[1:]):
        counts[previous][current] += 1
    return TransitionTable(tuple(tuple(row) for row in counts))


def transition_probabilities(
    table: TransitionTable, alpha: float = 0.0
) -> tuple[tuple[float | None, float | None], tuple[float | None, float | None]]:
    """Row-normalize the table into conditional probabilities.

    A row whose source state never occurs is returned as (None, None)
    rather than smoothed away.  Passing alpha > 0 applies add-alpha
    smoothing, which also makes empty rows defined (uniform).
    """
    rows = []
    for row in table.counts:
        denominator = sum(row) + 2 * alpha
        if denominator == 0:
            rows.append((None, None))
        else:
            rows.append(tuple((c + alpha) / denominator for c in row))
    return tuple(rows)


def _describe(values: Sequence[float]) -> dict:
    if not values:
        return {"n": 0}
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    else:
        q1 = q3 = ordered[0]
    return {
        "n": len(ordered),
        "mean": statistics.fmean(ordered),
        "median": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "min": ordered[0],
        "max": ordered[-1],
    }


def histogram(
    values: Sequence[float], edges: Sequence[float]
) -> tuple[tuple[float, float, int], ...]:
    """Bin values into (left, right, count) rows.

    Bins are left-inclusive and right-exclusive, except that the final
    bin also includes its right edge so the maximum is never lost.
    """
    if len(edges) < 2:
        raise ValueError("need at least two bin edges")
    bins = [[edges[i], edges[i + 1], 0] for i in range(len(edges) - 1)]
    last = len(bins) - 1
    for value in values:
        for i, (left, right, _) in enumerate(bins):
            if left <= value < right or (i == last and value == right):
                bins[i][2] += 1
                break
    return tuple((left, right, count) for left, right, count in bins)


def _release_edges(max_r: int) -> list[float]:
    top = max(10, int(math.ceil(max_r / 10.0)) * 10)
    return [float(x) for x in range(0, top + 10, 10)]


def corpus_summary(series: Sequence[BinarySeries], alpha: float = 0.0) -> CorpusSummary:
    """Summarize a corpus: per-package probabilities and distributions.

    ``alpha`` is forwarded to the row normalization as add-alpha
    smoothing; the default leaves empty rows undefined.
    """
    if not series:
        raise InsufficientDataError("corpus is empty")
    records = []
    for w in series:
        p_11: float | None = None
        p_00: float | None = None
        if len(w.values) >= 2:
            probs = transition_probabilities(transition_table(w), alpha)
            p_00 = probs[0][0]
            p_11 = probs[1][1]
        records.append(
            PackageStats(
                package=w.package,
                r=len(w.values),
                p_uncond=unconditional_probability(w),
                p_11=p_11,
                p_00=p_00,
            )
        )
    records.sort(key=lambda rec: rec.package)
    release_counts = [rec.r for rec in records]
    unconds = [rec.p_uncond for rec in records]
    p11s = [rec.p_11 for rec in records if rec.p_11 is not None]
    p00s = [rec.p_00 for rec in records if rec.p_00 is not None]
    prob_edges = [i / 10 for i in range(11)]
    histograms = {
        "releases": histogram(release_counts, _release_edges(max(release_counts))),
        "p_uncond": histogram(unconds, prob_edges),
        "p_11": histogram(p11s, prob_edges) if p11s else (),
        "p_00": histogram(p00s, prob_edges) if p00s else (),
    }
    return CorpusSummary(
        records=tuple(records),
        release_stats=_describe(release_counts),
        uncond_stats=_describe(unconds),
        p11_stats=_describe(p11s),
        p00_stats=_describe(p00s),
        histograms=histograms,
    )
