"""Version grammar: examples, canonical form, and total-order laws."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from vulnseries.errors import VersionParseError
from vulnseries.safetydb import load_database_path
from vulnseries.versions import canonical_string, compare, parse_version

FIXTURES = Path(__file__).parent / "fixtures"


def _fixture_version_texts() -> list[str]:
    snapshot = json.loads((FIXTURES / "snapshot_fixture.json").read_text(encoding="utf-8"))
    texts = {row["version"] for rows in snapshot["histories"].values() for row in rows}
    database = load_database_path(FIXTURES / "safetydb_fixture.json")
    texts.update(
        constraint.version.raw
        for advisories in database.advisories.values()
        for advisory in advisories
        for clause in advisory.clauses
        for constraint in clause.constraints
    )
    return sorted(texts)


FIXTURE_VERSION_TEXTS = _fixture_version_texts()


def test_plain_release_parses_to_numeric_segments():
    v = parse_version("1.4.18")
    assert v.key[:3] == (1, 0, (1, 4, 18))  # canonical, epoch 0, integer segments
    assert canonical_string(v) == "1.4.18"  # no pre, post, dev or local part
    assert not v.legacy


def test_pre_release_without_number_defaults_to_zero():
    assert canonical_string(parse_version("1.2.3-alpha")) == "1.2.3-alpha.0"


def test_pre_release_with_dotted_number():
    assert canonical_string(parse_version("1.2.3-rc.0")) == "1.2.3-rc.0"


@pytest.mark.parametrize(
    "smaller,larger",
    [
        ("1.6.2", "1.6.10"),  # numeric, not lexicographic
        ("1.0rc1", "1.0"),  # pre-release precedes the final
        ("1.0a1", "1.0b1"),
        ("1.0b1", "1.0rc1"),
        ("1.0.dev1", "1.0a1"),  # dev precedes even the alphas
        ("1.0", "1.0.post1"),
        ("1.0", "1.0+local"),
        ("1.0+9", "1.0+10"),  # numeric local segments compare as integers
        ("1.0+abc", "1.0+5"),  # numeric after alphanumeric
        ("1.0+ubuntu", "1.0+ubuntu.1"),  # a label before its extensions
        ("2.0", "1!1.0"),  # epoch dominates
        ("0.9.9", "1.0"),
        ("not-a-version", "0.0.1"),  # legacy sorts before canonical
    ],
)
def test_documented_orderings(smaller, larger):
    assert compare(parse_version(smaller), parse_version(larger)) == -1
    assert compare(parse_version(larger), parse_version(smaller)) == 1


@pytest.mark.parametrize(
    "a,b",
    [
        ("1.0", "1.0.0"),  # trailing zeros are insignificant
        ("1.2.3RC1", "1.2.3rc1"),  # case-insensitive
        ("v1.2.3", "1.2.3"),  # leading v ignored
        ("1_2", "1-2"),  # separators interchangeable
        ("1.0alpha1", "1.0a1"),
        ("1.0c1", "1.0rc1"),
    ],
)
def test_equivalent_spellings(a, b):
    assert compare(parse_version(a), parse_version(b)) == 0
    assert canonical_string(parse_version(a)) == canonical_string(parse_version(b))


@pytest.mark.parametrize(
    "text,canon",
    [
        ("1.0.0", "1.0.0"),
        ("1.0", "1.0.0"),
        ("1_2", "1.2.0"),  # padded to three segments
        ("1.2.3-RC.1", "1.2.3-rc.1"),
        ("1.2.3.0", "1.2.3"),  # trailing zero stripped beyond three
        ("2!1.0", "2!1.0.0"),
        ("1.0.post1", "1.0.0.post1"),
        ("1.0.dev2", "1.0.0.dev2"),
        ("1.0+Ubuntu_1", "1.0.0+ubuntu.1"),
        ("Not A Version", "not a version"),
    ],
)
def test_canonical_strings(text, canon):
    assert canonical_string(parse_version(text)) == canon


def test_empty_input_is_rejected():
    with pytest.raises(VersionParseError):
        parse_version("")
    with pytest.raises(VersionParseError):
        parse_version("   ")


def test_junk_degrades_to_legacy_not_error():
    v = parse_version("definitely not a version !!!")
    assert v.legacy
    assert v.raw == "definitely not a version !!!"


def test_rich_comparison_operators_agree_with_compare():
    a, b = parse_version("1.0"), parse_version("1.1")
    assert a < b and a <= b and b > a and b >= a and a != b
    assert parse_version("1.0") == parse_version("1.0.0")
    assert hash(parse_version("1.0")) == hash(parse_version("1.0.0"))


@settings(max_examples=300, deadline=None)
@given(oracles.version_texts())
def test_canonical_round_trip(text):
    v = parse_version(text)
    canon = canonical_string(v)
    again = parse_version(canon)
    assert compare(v, again) == 0
    assert canonical_string(again) == canon  # idempotent


@settings(max_examples=300, deadline=None)
@given(oracles.version_texts(), oracles.version_texts())
def test_equality_iff_same_canonical_string(a_text, b_text):
    a, b = parse_version(a_text), parse_version(b_text)
    assert (compare(a, b) == 0) == (canonical_string(a) == canonical_string(b))


def test_total_order_laws_on_random_triples():
    rng = random.Random(20240817)
    for _ in range(2000):
        a, b, c = (
            parse_version(oracles.random_version_text(rng)) for _ in range(3)
        )
        assert compare(a, a) == 0
        assert compare(a, b) == -compare(b, a)
        if compare(a, b) <= 0 and compare(b, c) <= 0:
            assert compare(a, c) <= 0
        if compare(a, b) == 0 and compare(b, c) == 0:
            assert compare(a, c) == 0


def test_sorting_is_deterministic_and_stable():
    rng = random.Random(7)
    texts = [oracles.random_version_text(rng) for _ in range(200)]
    versions = [parse_version(t) for t in texts]
    once = sorted(versions)
    twice = sorted(list(reversed(versions)))
    assert [v.key for v in once] == [v.key for v in twice]


def assert_agrees_with_reference(text):
    v, ref = parse_version(text), oracles.reference_version(text)
    assert canonical_string(v) == oracles.reference_canonical_string(ref)
    assert v.key == oracles.reference_sort_key(ref)
    assert v.legacy == ref.legacy


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(oracles.version_texts(), st.sampled_from(FIXTURE_VERSION_TEXTS)),
    st.one_of(oracles.version_texts(), st.sampled_from(FIXTURE_VERSION_TEXTS)),
)
def test_versions_agree_with_the_component_reference(a_text, b_text):
    assert_agrees_with_reference(a_text)
    assert_agrees_with_reference(b_text)
    assert compare(parse_version(a_text), parse_version(b_text)) == oracles.reference_compare(
        oracles.reference_version(a_text), oracles.reference_version(b_text)
    )


def test_every_fixture_and_sampled_version_agrees_with_the_component_reference():
    rng = random.Random(11)
    texts = FIXTURE_VERSION_TEXTS + [oracles.random_version_text(rng) for _ in range(300)]
    assert len(FIXTURE_VERSION_TEXTS) > 100
    for text in texts:
        assert_agrees_with_reference(text)
    versions = [parse_version(text) for text in texts]
    references = [oracles.reference_version(text) for text in texts]
    for a, ra in zip(versions, references):
        for b, rb in zip(versions, references):
            assert compare(a, b) == oracles.reference_compare(ra, rb)
