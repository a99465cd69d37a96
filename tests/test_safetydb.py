"""Advisory database parsing: spec clauses, entries, and skip accounting."""

import dataclasses
import io
import json
from pathlib import Path

import pytest

from vulnseries import safetydb
from vulnseries.errors import DatabaseLoadError, SpecSyntaxError
from vulnseries.safetydb import (
    OPERATORS,
    load_database,
    load_database_path,
    parse_spec,
)
from vulnseries.versions import Version, canonical_string, parse_version

FIXTURES = Path(__file__).parent / "fixtures"


def spec_versions(result):
    return [
        constraint.version
        for entries in result.advisories.values()
        for advisory in entries
        for clause in advisory.clauses
        for constraint in clause.constraints
    ]


def test_single_upper_bound_clause():
    clause = parse_spec("<1.4.18")
    assert len(clause.constraints) == 1
    assert clause.constraints[0].op == "<"
    assert canonical_string(clause.constraints[0].version) == "1.4.18"


def test_comma_means_conjunction():
    clause = parse_spec(">=1.6,<1.6.10")
    assert [(c.op, c.version.raw) for c in clause.constraints] == [
        (">=", "1.6"),
        ("<", "1.6.10"),
    ]


def test_bare_version_means_exact_equality():
    clause = parse_spec("2.0.1")
    assert clause.constraints[0].op == "=="
    assert clause.constraints[0].version.raw == "2.0.1"


def test_whitespace_around_tokens_is_tolerated():
    clause = parse_spec(" <=1.0 , >0.5 ")
    assert [c.op for c in clause.constraints] == ["<=", ">"]


def test_longest_operator_wins():
    # "<=1.0" must not parse as "<" on "=1.0".
    clause = parse_spec("<=1.0")
    assert clause.constraints[0].op == "<="
    assert clause.constraints[0].version.raw == "1.0"


@pytest.mark.parametrize("bad", ["~=1.2", "^1.0", "=1.0", "!~1.0"])
def test_unknown_operator_prefix_is_a_syntax_error(bad):
    with pytest.raises(SpecSyntaxError):
        parse_spec(bad)


@pytest.mark.parametrize("bad", ["", "   ", ",", "<1.0,,<2.0"])
def test_empty_tokens_are_syntax_errors(bad):
    with pytest.raises(SpecSyntaxError):
        parse_spec(bad)


def test_clause_text_round_trips_through_the_parser():
    clause = parse_spec(">=1.6,<1.6.10")
    assert parse_spec(clause.text()).text() == clause.text()


def test_operator_table_prefers_two_character_forms():
    assert OPERATORS.index("<=") < OPERATORS.index("<")
    assert OPERATORS.index(">=") < OPERATORS.index(">")


DB = {
    "weblib": [
        {
            "advisory": "Fixed in 1.4.18.",
            "cve": "CVE-2019-11111",
            "id": "pyup.io-10001",
            "specs": ["<1.4.18"],
            "v": "<1.4.18",
        },
        {
            "advisory": "Affects two branches.",
            "cve": "CVE-2019-22222",
            "id": "pyup.io-10002",
            "specs": ["<1.4.18", ">=1.5,<1.5.2", ">=1.6,<1.6.10"],
            "v": "<1.4.18,>=1.5,<1.5.2,>=1.6,<1.6.10",
        },
    ],
    "$meta": {"advisory": "metadata sentinel", "timestamp": 1234567890},
}


def test_database_excerpt_parses_and_skips_dollar_keys():
    result = load_database(json.dumps(DB))
    assert result.advisory_count == 2
    assert sorted(a.id for a in result.advisories["weblib"]) == [
        "pyup.io-10001",
        "pyup.io-10002",
    ]
    multi = result.advisories["weblib"][1]
    assert len(multi.clauses) == 3
    assert multi.cve == "CVE-2019-22222"
    assert "$meta" not in result.advisories
    assert not result.skipped
    assert not result.warnings


def test_bytes_str_and_stream_inputs_agree():
    text = json.dumps(DB)
    for source in (text, text.encode("utf-8"), io.BytesIO(text.encode("utf-8"))):
        result = load_database(source)
        assert result.advisory_count == 2


def test_load_database_path(tmp_path):
    path = tmp_path / "db.json"
    path.write_text(json.dumps(DB), encoding="utf-8")
    assert load_database_path(path).advisory_count == 2


def test_missing_id_synthesizes_placeholder_and_warns():
    result = load_database(json.dumps({"pkg": [{"specs": ["<1.0"]}]}))
    (advisory,) = result.advisories["pkg"]
    assert advisory.id == "pkg[0]"
    assert any(w.reason == "missing-id" for w in result.warnings)


def test_null_cve_is_fine_without_warning():
    result = load_database(json.dumps({"pkg": [{"id": "x", "cve": None, "specs": ["<1.0"]}]}))
    (advisory,) = result.advisories["pkg"]
    assert advisory.cve is None
    assert not result.warnings


def test_malformed_cve_becomes_null_with_warning():
    result = load_database(
        json.dumps({"pkg": [{"id": "x", "cve": "CVE-BAD", "specs": ["<1.0"]}]})
    )
    (advisory,) = result.advisories["pkg"]
    assert advisory.cve is None
    assert any(w.reason == "malformed-cve" for w in result.warnings)


def test_well_formed_cve_is_kept():
    result = load_database(
        json.dumps({"pkg": [{"id": "x", "cve": "CVE-2015-12345", "specs": ["<1.0"]}]})
    )
    assert result.advisories["pkg"][0].cve == "CVE-2015-12345"


@pytest.mark.parametrize(
    "entry,reason",
    [
        ({"id": "x"}, "missing-specs"),
        ({"id": "x", "specs": []}, "empty-specs"),
        ({"id": "x", "specs": "nope"}, "empty-specs"),
        ({"id": "x", "specs": [123]}, "spec-not-a-string"),
        ({"id": "x", "specs": ["~=1.0"]}, "spec-syntax"),
        ("not an object", "entry-not-an-object"),
    ],
)
def test_bad_entries_are_skipped_with_reasons(entry, reason):
    result = load_database(json.dumps({"pkg": [entry]}))
    assert result.advisory_count == 0
    assert [s.reason for s in result.skipped] == [reason]
    assert result.skipped[0].package == "pkg"


@pytest.mark.parametrize(
    "entries,type_name", [({"id": "x", "specs": ["<1.0"]}, "dict"), ("<1.0", "str")]
)
def test_a_package_that_is_not_an_array_is_skipped_with_its_type(entries, type_name):
    doc = {"odd": entries, "pkg": [{"id": "good", "specs": ["<2.0"]}]}
    result = load_database(json.dumps(doc))
    assert list(result.advisories) == ["pkg"]
    assert [(s.package, s.reason, s.detail) for s in result.skipped] == [
        ("odd", "package-not-an-array", type_name)
    ]


def test_skips_do_not_poison_siblings():
    doc = {"pkg": [{"id": "bad"}, {"id": "good", "specs": ["<2.0"]}]}
    result = load_database(json.dumps(doc))
    assert [a.id for a in result.advisories["pkg"]] == ["good"]
    assert len(result.skipped) == 1


def test_invalid_json_raises_load_error():
    with pytest.raises(DatabaseLoadError):
        load_database(b"{ not json")


def test_database_that_is_not_utf8_raises_load_error(tmp_path):
    path = tmp_path / "db.json"
    path.write_bytes(b'{"pkg": [\xff]}')
    for load, source in ((load_database, path.read_bytes()), (load_database_path, path)):
        with pytest.raises(DatabaseLoadError, match="database is not valid JSON: "):
            load(source)


def test_non_object_document_raises_load_error():
    with pytest.raises(DatabaseLoadError):
        load_database(json.dumps(["a", "b"]))


def test_database_load_parses_each_distinct_spec_version_once():
    doc = {
        "a": [{"id": "a-1", "specs": ["<1.0", ">=1.0,<2.0"]}],
        "b": [{"id": "b-1", "specs": ["==1.0"]}],
    }
    first, second = load_database(json.dumps(doc)), load_database(json.dumps(doc))
    ones = [v for v in spec_versions(first) if v.raw == "1.0"]
    assert len(ones) == 3 and all(v is ones[0] for v in ones)
    # The memo lives for one call: a second load shares nothing with the first.
    assert {id(v) for v in spec_versions(first)}.isdisjoint(
        id(v) for v in spec_versions(second)
    )


def test_loaded_fixture_spec_versions_equal_fresh_parses_in_every_field():
    versions = spec_versions(load_database_path(FIXTURES / "safetydb_fixture.json"))
    assert versions

    def fields(version):
        return [getattr(version, f.name) for f in dataclasses.fields(Version)]

    for version in versions:
        assert fields(version) == fields(parse_version(version.raw))


def test_database_load_parses_each_distinct_spec_once(monkeypatch):
    calls = []

    def counted(text):
        calls.append(text)
        return parse_version(text)

    # Patched at the module attribute, where perfbench counts parse calls.
    monkeypatch.setattr(safetydb, "parse_version", counted)
    doc = {
        name: [{"id": f"{name}-1", "specs": [">=1.0,<2.0", "==3.0"]}]
        for name in ("a", "b", "c")
    }
    doc["d"] = [{"id": "d-1", "specs": ["<2.0"]}]
    result = load_database(json.dumps(doc))
    assert sorted(calls) == ["1.0", "2.0", "3.0"]
    clauses = [result.advisories[name][0].clauses for name in ("a", "b", "c")]
    assert all(c[0] is clauses[0][0] and c[1] is clauses[0][1] for c in clauses)


@pytest.mark.parametrize("bad,reason", [("~=1.0", "spec-syntax"), (">=1.0,<", "bad-version")])
def test_a_repeated_malformed_spec_is_skipped_once_per_entry(bad, reason):
    doc = {
        "a": [{"id": "a-1", "specs": [bad]}, {"id": "a-2", "specs": ["<1.0", bad]}],
        "b": [{"id": "b-1", "specs": [bad]}],
    }
    result = load_database(json.dumps(doc))
    assert result.advisory_count == 0
    assert [(s.package, s.advisory_id, s.reason) for s in result.skipped] == [
        ("a", "a-1", reason),
        ("a", "a-2", reason),
        ("b", "b-1", reason),
    ]
    assert len({s.detail for s in result.skipped}) == 1
    alone = load_database(json.dumps({"a": [{"id": "a-1", "specs": [bad]}]}))
    assert result.skipped[0] == alone.skipped[0]
