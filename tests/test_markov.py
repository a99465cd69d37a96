"""First-order transition tables and corpus-level descriptive statistics."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vulnseries.errors import InsufficientDataError
from vulnseries.markov import (
    _release_edges,
    corpus_summary,
    histogram,
    transition_counts,
    transition_probabilities,
    transition_table,
    unconditional_probability,
)
from vulnseries.vectorize import BinarySeries


def series(values, package="pkg"):
    return BinarySeries(package, tuple(values))


def test_unconditional_probability_is_the_mean():
    assert unconditional_probability(series([0, 1, 1, 0])) == 0.5
    assert unconditional_probability(series([1])) == 1.0


def test_unconditional_probability_needs_data():
    with pytest.raises(InsufficientDataError):
        unconditional_probability(series([]))


def test_transition_counts_enumerate_consecutive_pairs():
    table = transition_table(series([1, 1, 0, 0, 1]))
    # pairs: (1,1), (1,0), (0,0), (0,1)
    assert table == ((1, 1), (1, 1))


def test_two_releases_make_one_pair():
    table = transition_table(series([1, 0]))
    assert table == ((0, 0), (1, 0))


def test_transitions_need_two_releases():
    with pytest.raises(InsufficientDataError):
        transition_table(series([1]))


def test_row_normalization_and_undefined_rows():
    # 1->0 once, 1->1 three times, state 0 never a source.
    probs = transition_probabilities(((0, 0), (1, 3)))
    assert probs[1] == (0.25, 0.75)
    assert probs[0] == (None, None)


def test_direct_normalization_example():
    probs = transition_probabilities(((9, 1), (0, 0)))
    assert probs[0] == (0.9, 0.1)


def test_smoothing_defines_empty_rows_uniformly():
    table = transition_table(series([1, 1, 1, 1]))
    smoothed = transition_probabilities(table, alpha=0.5)
    assert smoothed[0] == (0.5, 0.5)
    assert smoothed[1] == (0.125, 0.875)


def test_defined_rows_sum_to_one_within_tolerance():
    rng = random.Random(42)
    for _ in range(300):
        values = [rng.randint(0, 1) for _ in range(rng.randint(2, 60))]
        alpha = rng.choice([0.0, 0.1, 1.0])
        probs = transition_probabilities(transition_table(series(values)), alpha)
        for row in probs:
            if row[0] is not None:
                assert abs(row[0] + row[1] - 1.0) < 1e-12


def test_reversing_the_series_transposes_the_counts():
    rng = random.Random(7)
    for _ in range(200):
        values = [rng.randint(0, 1) for _ in range(rng.randint(2, 40))]
        forward = transition_table(series(values))
        backward = transition_table(series(list(reversed(values))))
        assert backward == tuple(zip(*forward))


def test_total_is_always_length_minus_one():
    rng = random.Random(11)
    for _ in range(100):
        values = [rng.randint(0, 1) for _ in range(rng.randint(2, 50))]
        assert sum(map(sum, transition_table(series(values)))) == len(values) - 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=40))
def test_transition_counts_tally_aligned_pairs(pairs):
    previous = [a for a, _ in pairs]
    current = [b for _, b in pairs]
    brute = [[0, 0], [0, 0]]
    for a, b in pairs:
        brute[a][b] += 1
    expected = tuple(tuple(row) for row in brute)
    assert transition_counts(previous, current) == expected
    # Float 0/1 arrays, as an order-1 lag design holds them, count alike.
    assert transition_counts(np.array(previous, float), np.array(current, float)) == expected


def test_histogram_bins_are_left_closed_and_last_right_closed():
    bins = histogram([0.0, 0.1, 0.95, 1.0], [i / 10 for i in range(11)])
    counts = [count for _, _, count in bins]
    assert counts[0] == 1  # 0.0 lands in [0.0, 0.1)
    assert counts[1] == 1  # 0.1 lands in [0.1, 0.2)
    assert counts[9] == 2  # 0.95 and the right edge 1.0 both land in [0.9, 1.0]
    assert sum(counts) == 4
    assert bins[0][:2] == (0.0, 0.1)


def _binned(values, edges):
    """The definition: left-closed bins, the last also right-closed, the rest dropped."""
    counts = [0] * (len(edges) - 1)
    last = len(counts) - 1
    for value in values:
        for i in range(len(counts)):
            if edges[i] <= value < edges[i + 1] or (i == last and value == edges[i + 1]):
                counts[i] += 1
                break
    return tuple(zip(edges[:-1], edges[1:], counts))


PROB_EDGES = [i / 10 for i in range(11)]
# Every edge, its neighbouring floats, values between the edges and values
# outside [0, 1] on both sides.
on_edges = st.sampled_from(PROB_EDGES).flatmap(
    lambda e: st.sampled_from([e, math.nextafter(e, -1.0), math.nextafter(e, 2.0)])
)
probabilities = st.one_of(on_edges, st.floats(-0.5, 1.5, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(probabilities, max_size=30))
@example([-0.1, 0.5, math.nextafter(1.0, 2.0), 2.0])
def test_histogram_is_the_binning_definition_on_probabilities(values):
    assert histogram(values, PROB_EDGES) == _binned(values, PROB_EDGES)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 120), st.lists(st.integers(-15, 150), max_size=30))
def test_histogram_is_the_binning_definition_on_release_counts(max_r, values):
    edges = _release_edges(max_r)
    assert histogram(values, edges) == _binned(values, edges)


def test_corpus_summary_records_and_stats():
    summary = corpus_summary(
        [series([0, 1, 1, 0], "beta"), series([1, 1, 1], "alpha")]
    )
    assert [rec.package for rec in summary.records] == ["alpha", "beta"]
    alpha, beta = summary.records
    assert alpha.r == 3 and alpha.p_uncond == 1.0
    assert alpha.p_11 == 1.0 and alpha.p_00 is None
    assert beta.p_11 == 0.5 and beta.p_00 == 0.0
    assert summary.stats["p_uncond"]["n"] == 2
    assert summary.stats["p_uncond"]["mean"] == pytest.approx(0.75)
    assert summary.stats["p_00"]["n"] == 1
    assert summary.stats.keys() == summary.histograms.keys()
    assert sum(count for _, _, count in summary.histograms["p_uncond"]) == 2


def test_corpus_summary_passes_alpha_through():
    summary = corpus_summary([series([1, 1, 1], "only")], alpha=0.5)
    (rec,) = summary.records
    assert rec.p_00 == 0.5
    assert rec.p_11 == pytest.approx(0.8333333333333334)


def test_corpus_summary_needs_at_least_one_series():
    with pytest.raises(InsufficientDataError):
        corpus_summary([])


def test_single_release_series_has_no_transition_rows():
    summary = corpus_summary([series([1], "solo")])
    (rec,) = summary.records
    assert rec.p_uncond == 1.0
    assert rec.p_11 is None and rec.p_00 is None
