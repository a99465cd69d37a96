"""Release-mask constraint fills, clause logic, and corpus assembly."""

import functools
import json
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import bits
from vulnseries.errors import ClauseInvalidError
from vulnseries.registry import order_history
from vulnseries.safetydb import Constraint, SpecClause, load_database, parse_spec
from vulnseries.versions import parse_version
from vulnseries.vectorize import (
    aggregate,
    build_corpus,
    corpus_rows,
    fill_clause,
    fill_constraint,
)


def history_of(raws, package="pkg"):
    history, warnings = order_history(package, [(raw, None) for raw in raws])
    assert not warnings
    return history


TEN = history_of(
    ["1.0", "1.1", "1.2", "1.3", "1.4", "1.4.18", "1.5", "1.6", "1.7", "2.0"]
)


def fill_one(spec_text, history=TEN):
    (constraint,) = parse_spec(spec_text).constraints
    return bits(fill_constraint(constraint, history), len(history))


def advisory_mask(advisory, history):
    """OR the clause masks of an advisory whose clauses all fill."""
    return functools.reduce(
        operator.or_, (fill_clause(c, history) for c in advisory.clauses)
    )


def test_upper_bound_marks_prefix_before_boundary():
    # "1.4.18" sits at index 5 of ten releases.
    assert fill_one("<1.4.18") == (1, 1, 1, 1, 1, 0, 0, 0, 0, 0)


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("<=1.4.18", (1, 1, 1, 1, 1, 1, 0, 0, 0, 0)),
        (">1.4.18", (0, 0, 0, 0, 0, 0, 1, 1, 1, 1)),
        (">=1.4.18", (0, 0, 0, 0, 0, 1, 1, 1, 1, 1)),
        ("==1.4.18", (0, 0, 0, 0, 0, 1, 0, 0, 0, 0)),
        ("!=1.4.18", (1, 1, 1, 1, 1, 0, 1, 1, 1, 1)),
    ],
)
def test_each_operator_fills_its_span(spec, expected):
    assert fill_one(spec) == expected


def test_boundary_not_in_history_invalidates_the_clause():
    with pytest.raises(ClauseInvalidError) as info:
        fill_one("<9.9.9")
    assert "'9.9.9'" in str(info.value)
    assert "'pkg'" in str(info.value)


def test_equivalent_spelling_still_finds_the_boundary():
    # "1.4.18.0" compares equal to "1.4.18", so the fill is identical.
    assert fill_one("<1.4.18.0") == fill_one("<1.4.18")


def test_strict_mode_matches_raw_strings_only():
    (constraint,) = parse_spec("<1.4.18.0").constraints
    with pytest.raises(ClauseInvalidError):
        fill_constraint(constraint, TEN, strict=True)
    (constraint,) = parse_spec("<1.4.18").constraints
    assert bits(fill_constraint(constraint, TEN, strict=True), 10) == fill_one("<1.4.18")


def test_strict_mode_matches_a_padded_release_string():
    # The release keeps " 1.0 " as published; strict mode compares the
    # trimmed strings that parsing gives both sides.
    history = history_of(["0.9", " 1.0 ", "1.1"], package="p")
    (constraint,) = parse_spec("<=1.0").constraints
    assert history.releases[1].raw == " 1.0 "
    assert fill_constraint(constraint, history) == 0b11
    assert fill_constraint(constraint, history, strict=True) == 0b11


@settings(max_examples=200, deadline=None)
@given(oracles.release_entries(), st.data())
def test_strict_fill_is_the_plain_fill_when_the_trimmed_text_matches(entries, data):
    # Every spelling the history was built from names one of its releases,
    # though not always one that kept that spelling.
    history, _ = order_history("pkg", entries)
    for text, _ in entries:
        boundary = parse_version(text)
        op = data.draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
        constraint = Constraint(op, boundary)
        plain = fill_constraint(constraint, history)
        direct = oracles.direct_clause_vector(SpecClause((constraint,)), history)
        assert bits(plain, len(history)) == direct
        if any(release.version.raw == boundary.raw for release in history.releases):
            assert fill_constraint(constraint, history, strict=True) == plain
        else:
            with pytest.raises(ClauseInvalidError, match="absent from 'pkg' history"):
                fill_constraint(constraint, history, strict=True)


def test_clause_intersects_left_and_right_bounds():
    left = fill_one(">=1.4")  # [0,0,0,0,1,1,1,1,1,1]
    right = fill_one("<1.5")  # [1,1,1,1,1,1,0,0,0,0]
    assert left == (0, 0, 0, 0, 1, 1, 1, 1, 1, 1)
    assert right == (1, 1, 1, 1, 1, 1, 0, 0, 0, 0)
    combined = bits(fill_clause(parse_spec(">=1.4,<1.5"), TEN), 10)
    assert combined == tuple(a & b for a, b in zip(left, right))
    assert combined == (0, 0, 0, 0, 1, 1, 0, 0, 0, 0)


def test_contradictory_clause_fills_nothing():
    clause = parse_spec(">=1.5,<1.5")
    assert fill_clause(clause, TEN) == 0


def test_bits_expands_release_zero_first():
    assert bits(0b1011, 6) == (1, 1, 0, 1, 0, 0)
    assert bits(0, 3) == (0, 0, 0)
    assert bits(0, 0) == ()


def test_advisory_mask_is_the_union_of_its_clauses():
    doc = {"pkg": [{"id": "ADV-1", "specs": ["<1.2", "==1.6"]}]}
    corpus = corpus_from(doc, {"pkg": TEN})
    assert only_package(corpus).counts == (1, 1, 0, 0, 0, 0, 0, 1, 0, 0)


def test_aggregate_rejects_an_empty_mask_list():
    with pytest.raises(ValueError):
        aggregate("pkg", [], 10)


def test_aggregate_sums_then_binarizes():
    mask_a = fill_clause(parse_spec("<1.2"), TEN)
    mask_b = fill_clause(parse_spec("<1.1"), TEN)
    counts, series = aggregate("pkg", [mask_a, mask_b], 10)
    assert counts == (2, 1, 0, 0, 0, 0, 0, 0, 0, 0)
    assert series.values == (1, 1, 0, 0, 0, 0, 0, 0, 0, 0)
    assert series.package == "pkg"


def corpus_from(doc, histories):
    return build_corpus(load_database(json.dumps(doc)).advisories, histories)


def only_package(corpus, name="pkg"):
    (result,) = [p for p in corpus.packages if p.package == name]
    return result


def test_build_corpus_happy_path_and_row_export():
    doc = {"pkg": [{"id": "A", "specs": ["<1.2"]}, {"id": "B", "specs": ["==1.6"]}]}
    corpus = corpus_from(doc, {"pkg": TEN})
    result = only_package(corpus)
    assert len(result.counts) == 10
    assert result.advisory_ids == ("A", "B")
    assert result.series.values == (1, 1, 0, 0, 0, 0, 0, 1, 0, 0)
    (row,) = corpus_rows(corpus)
    assert row["package"] == "pkg"
    assert row["r"] == 10 and row["m"] == 2
    assert row["w"] == "1100000100"
    assert row["counts"] == [1, 1, 0, 0, 0, 0, 0, 1, 0, 0]


def test_missing_history_drops_the_package():
    doc = {"pkg": [{"id": "A", "specs": ["<1.2"]}]}
    corpus = corpus_from(doc, {})
    assert not corpus.packages
    (drop,) = corpus.attrition.package_drops
    assert drop.reason == "no-history"
    assert len(corpus.attrition.package_drops) == 1


def test_invalid_clause_drops_only_that_clause():
    doc = {"pkg": [{"id": "A", "specs": ["<9.9.9", "<1.2"]}]}
    corpus = corpus_from(doc, {"pkg": TEN})
    assert only_package(corpus).series.values == (1, 1, 0, 0, 0, 0, 0, 0, 0, 0)
    (drop,) = corpus.attrition.clause_drops
    assert drop.reason == "boundary-version-absent"
    assert not corpus.attrition.advisory_drops


def test_advisory_with_no_valid_clause_is_dropped():
    doc = {
        "pkg": [
            {"id": "DEAD", "specs": ["<9.9.9"]},
            {"id": "LIVE", "specs": ["<1.1"]},
        ]
    }
    corpus = corpus_from(doc, {"pkg": TEN})
    assert only_package(corpus).advisory_ids == ("LIVE",)
    (drop,) = corpus.attrition.advisory_drops
    assert drop.advisory_id == "DEAD"
    assert drop.reason == "no-valid-clause"
    assert len(corpus.attrition.advisory_drops) == 1


def test_package_with_no_surviving_advisory_is_dropped():
    doc = {"pkg": [{"id": "DEAD", "specs": ["<9.9.9"]}]}
    corpus = corpus_from(doc, {"pkg": TEN})
    assert not corpus.packages
    reasons = {d.reason for d in corpus.attrition.package_drops}
    assert reasons == {"no-surviving-advisory"}


def test_not_equal_clauses_are_flagged_but_kept():
    doc = {"pkg": [{"id": "A", "specs": ["!=1.4.18"]}]}
    corpus = corpus_from(doc, {"pkg": TEN})
    assert only_package(corpus).series.values == (1, 1, 1, 1, 1, 0, 1, 1, 1, 1)
    (flag,) = corpus.attrition.flags
    assert flag.reason == "not-equal-operator"


def test_snapshot_only_packages_are_ignored():
    doc = {"pkg": [{"id": "A", "specs": ["<1.2"]}]}
    corpus = corpus_from(doc, {"pkg": TEN, "stranger": TEN})
    assert [p.package for p in corpus.packages] == ["pkg"]


def test_packages_come_out_sorted():
    doc = {
        "zeta": [{"id": "Z", "specs": ["<1.2"]}],
        "alpha": [{"id": "A", "specs": ["<1.2"]}],
    }
    corpus = corpus_from(doc, {"zeta": TEN, "alpha": TEN})
    assert [p.package for p in corpus.packages] == ["alpha", "zeta"]
    assert len(corpus.packages) == 2
    assert [w.package for w in corpus.series()] == ["alpha", "zeta"]


def test_dual_route_agreement_on_random_cases():
    rng = random.Random(1234)
    for _ in range(200):
        history = oracles.random_history(rng)
        advisories = [
            oracles.random_advisory(rng, history, f"ADV-{i}")
            for i in range(rng.randint(1, 4))
        ]
        r = len(history)
        direct_vectors = []
        pipeline_masks = []
        for advisory in advisories:
            pipeline_masks.append(advisory_mask(advisory, history))
            direct_vectors.append(oracles.direct_advisory_vector(advisory, history))
            assert bits(pipeline_masks[-1], r) == direct_vectors[-1]
        counts, series = aggregate(history.package, pipeline_masks, r)
        direct_count, direct_binary = oracles.direct_counts(direct_vectors)
        assert counts == direct_count
        assert series.values == direct_binary


def test_advisory_order_does_not_change_the_series():
    rng = random.Random(99)
    history = oracles.random_history(rng, min_r=8)
    advisories = [oracles.random_advisory(rng, history, f"A{i}") for i in range(4)]
    masks = [advisory_mask(adv, history) for adv in advisories]
    forward = aggregate("pkg", masks, len(history))
    backward = aggregate("pkg", list(reversed(masks)), len(history))
    assert forward[0] == backward[0]
    assert forward[1].values == backward[1].values


def test_adding_an_advisory_never_lowers_counts():
    rng = random.Random(5)
    history = oracles.random_history(rng, min_r=8)
    advisories = [oracles.random_advisory(rng, history, f"A{i}") for i in range(3)]
    masks = [advisory_mask(adv, history) for adv in advisories]
    small, _ = aggregate("pkg", masks[:2], len(history))
    grown, grown_series = aggregate("pkg", masks, len(history))
    assert all(g >= s for g, s in zip(grown, small))
    small_series = tuple(int(c > 0) for c in small)
    assert all(g >= s for g, s in zip(grown_series.values, small_series))
