"""Unconditional and first-order transition probabilities for binary series.

The unconditional probability of a package is simply the mean of its 0/1
series.  Transition analysis counts consecutive release pairs into a 2x2
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

import numpy as np

from .errors import InsufficientDataError
from .vectorize import BinarySeries


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
    """Per-package records plus corpus-level distribution statistics.

    ``stats`` and ``histograms`` share their keys: ``releases``,
    ``p_uncond``, ``p_11`` and ``p_00``.
    """

    records: tuple[PackageStats, ...]
    stats: dict
    histograms: dict


def unconditional_probability(w: BinarySeries) -> float:
    """Mean of the series: the share of affected releases."""
    if len(w.values) == 0:
        raise InsufficientDataError("series is empty")
    return sum(w.values) / len(w.values)


def transition_counts(
    previous: Sequence[int], current: Sequence[int]
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Count aligned 0/1 (previous, current) pairs as ``((n00, n01), (n10, n11))``."""
    codes = 2 * np.asarray(previous, dtype=np.intp) + np.asarray(current, dtype=np.intp)
    n00, n01, n10, n11 = np.bincount(codes, minlength=4).tolist()
    return (n00, n01), (n10, n11)


def transition_table(w: BinarySeries) -> tuple[tuple[int, int], tuple[int, int]]:
    """Count the consecutive (previous, current) state pairs, indexed [from][to]."""
    if len(w.values) < 2:
        raise InsufficientDataError(
            f"{w.package!r} has {len(w.values)} releases; transitions need 2"
        )
    values = np.asarray(w.values, dtype=np.intp)
    return transition_counts(values[:-1], values[1:])


def transition_probabilities(
    table: tuple[tuple[int, int], tuple[int, int]], alpha: float = 0.0
) -> tuple[tuple[float | None, float | None], tuple[float | None, float | None]]:
    """Row-normalize the table into conditional probabilities.

    A row whose source state never occurs is returned as (None, None)
    rather than smoothed away.  Passing alpha > 0 applies add-alpha
    smoothing, which also makes empty rows defined (uniform).
    """
    rows = []
    for row in table:
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
    """Bin values into (left, right, count) rows over increasing edges.

    Bins are left-inclusive and right-exclusive, except that the final
    bin also includes its right edge so the maximum is never lost;
    values outside the edges are dropped.
    """
    if len(edges) < 2:
        raise ValueError("need at least two bin edges")
    counts, _ = np.histogram(values, bins=edges)
    return tuple(zip(edges[:-1], edges[1:], counts.tolist()))


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
    prob_edges = [i / 10 for i in range(11)]
    columns = {
        "releases": (release_counts, _release_edges(max(release_counts))),
        "p_uncond": ([rec.p_uncond for rec in records], prob_edges),
        "p_11": ([rec.p_11 for rec in records if rec.p_11 is not None], prob_edges),
        "p_00": ([rec.p_00 for rec in records if rec.p_00 is not None], prob_edges),
    }
    return CorpusSummary(
        records=tuple(records),
        stats={key: _describe(values) for key, (values, _) in columns.items()},
        histograms={
            key: histogram(values, edges) if values else ()
            for key, (values, edges) in columns.items()
        },
    )
