"""End-to-end tests for the command line interface.

Every test drives ``cli.main`` in-process and checks the exit code, the
emitted files, and the stderr diagnostics.  Network access is replaced
by an injected transport callable.
"""

import argparse
import gc
import json
import os
import re
import subprocess
import sys
import time
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impl
from vulnseries import cli
from vulnseries.registry import load_snapshot, order_history, save_snapshot

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parents[1] / "src"
DB = str(FIXTURES / "safetydb_fixture.json")
SNAPSHOT = str(FIXTURES / "snapshot_fixture.json")
EXPECTED_FORECAST = FIXTURES / "expected_forecast.json"

KEPT_PACKAGES = {
    "alphapkg",
    "brightpkg",
    "charliepkg",
    "deltapkg",
    "echopkg",
    "foxtrotpkg",
    "golfpkg",
    "julietpkg",
}


def run_json(tmp_path, argv):
    """Run the CLI with --out and --no-timestamp, returning the parsed doc."""
    out = tmp_path / "out.json"
    code = cli.main(argv + ["--no-timestamp", "--out", str(out)])
    assert code == 0
    return json.loads(out.read_text(encoding="utf-8"))


def write_corpus(tmp_path, db, versions_by_package):
    """Materialize a tiny advisory database and matching snapshot."""
    db_path = tmp_path / "db.json"
    db_path.write_text(json.dumps(db), encoding="utf-8")
    histories = {}
    for package, versions in versions_by_package.items():
        history, warnings = order_history(
            package, [(v, f"2020-01-{i + 1:02d}T00:00:00Z") for i, v in enumerate(versions)]
        )
        assert not warnings
        histories[package] = history
    snap_path = tmp_path / "snapshot.json"
    save_snapshot(snap_path, histories)
    return str(db_path), str(snap_path)


# -- argument handling and exit codes -------------------------------------


def test_no_arguments_is_a_usage_error(capsys):
    assert cli.main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_command_is_a_usage_error():
    assert cli.main(["frobnicate"]) == 1


def test_unknown_flag_is_a_usage_error():
    assert cli.main(["build", "--db", DB, "--wat"]) == 1


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "vulnseries" in capsys.readouterr().out


def run_python(*args):
    """Run a fresh interpreter that imports the program from ``src``."""
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def test_each_module_imports_on_its_own_and_the_cli_runs_as_a_module():
    # The package root imports nothing, so only a fresh interpreter shows
    # a submodule that depends on another having been imported first.
    modules = sorted(p.stem for p in (SRC / "vulnseries").glob("*.py") if p.stem != "__init__")
    assert "cli" in modules
    runs = [["-c", f"import vulnseries.{module}"] for module in modules]
    runs.append(["-m", "vulnseries.cli", "--help"])
    for args in runs:
        done = run_python(*args)
        assert done.returncode == 0, (args, done.stderr)


def test_build_requires_a_database():
    assert cli.main(["build", "--snapshot", SNAPSHOT]) == 1


def test_build_requires_a_snapshot():
    assert cli.main(["build", "--db", DB]) == 1


def test_missing_database_file_is_an_environment_error(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["build", "--db", missing, "--snapshot", SNAPSHOT]) == 3


def test_invalid_database_json_is_a_data_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cli.main(["build", "--db", str(bad), "--snapshot", SNAPSHOT]) == 2


def test_database_nested_past_the_recursion_limit_is_a_data_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_bytes(b"[" * 200000)
    assert cli.main(["build", "--db", str(deep), "--snapshot", SNAPSHOT]) == 2
    assert capsys.readouterr().err.startswith("data error: database is not valid JSON: ")


def test_wrong_database_shape_is_a_data_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]", encoding="utf-8")
    assert cli.main(["build", "--db", str(bad), "--snapshot", SNAPSHOT]) == 2


def test_missing_snapshot_is_an_environment_error(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["build", "--db", DB, "--snapshot", missing]) == 3


def test_corrupt_snapshot_is_a_data_error(tmp_path):
    bad = tmp_path / "snap.json"
    bad.write_text('{"schema_version": 99, "histories": {}}', encoding="utf-8")
    assert cli.main(["build", "--db", DB, "--snapshot", str(bad)]) == 2


def test_snapshot_nested_past_the_recursion_limit_is_a_data_error(tmp_path, capsys):
    deep = tmp_path / "snap.json"
    deep.write_bytes(b"[" * 200000)
    assert cli.main(["build", "--db", DB, "--snapshot", str(deep)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith(f"data error: snapshot {deep} is not valid JSON: ")


@pytest.mark.parametrize("version", [1.0, ["1.0"], None, ""])
def test_snapshot_row_without_a_version_string_is_a_data_error(tmp_path, capsys, version):
    bad = tmp_path / "snap.json"
    rows = [{"version": version, "upload_time": None}]
    bad.write_text(
        json.dumps({"schema_version": 1, "histories": {"alphapkg": rows}}), encoding="utf-8"
    )
    for command in ("build", "markov", "forecast"):
        assert cli.main([command, "--db", DB, "--snapshot", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        last = err.splitlines()[-1]
        assert last.startswith("data error: snapshot row for 'alphapkg'")


@pytest.mark.parametrize("command", ["ingest", "build", "markov", "forecast"])
def test_database_that_is_not_utf8_is_one_data_error_line(tmp_path, capsys, command):
    bad = tmp_path / "db.json"
    bad.write_bytes(b'{"pkg": [\xff]}')
    argv = [command, "--db", str(bad), "--snapshot", str(tmp_path / "snap.json")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: database is not valid JSON: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["build", "markov", "forecast"])
def test_snapshot_that_is_not_utf8_is_one_data_error_line(tmp_path, capsys, command):
    bad = tmp_path / "snap.json"
    bad.write_bytes(b'{"schema_version": 1, "histories": {"\xff": []}}')
    assert cli.main([command, "--db", DB, "--snapshot", str(bad)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith(f"data error: snapshot {bad} is not valid JSON: ")
    assert all(line.startswith("warning: ") for line in err[:-1])


def test_bad_horizon_list_is_a_usage_error():
    assert cli.main(["forecast", "--db", DB, "--snapshot", SNAPSHOT, "--t", "5,x"]) == 1
    assert cli.main(["forecast", "--db", DB, "--snapshot", SNAPSHOT, "--t", "5,5"]) == 1


def test_negative_aic_margin_is_a_usage_error():
    argv = ["forecast", "--db", DB, "--snapshot", SNAPSHOT, "--aic-margin", "-1"]
    assert cli.main(argv) == 1


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("forecast", "--aic-margin", "nan"),
        ("forecast", "--aic-margin", "inf"),
        ("forecast", "--min-std", "nan"),
        ("forecast", "--min-std", "-0.1"),
        ("forecast", "--min-releases", "0"),
        ("forecast", "--max-order-frac", "0"),
        ("forecast", "--max-order-frac", "nan"),
        ("forecast", "--max-order-frac", "1.5"),
        ("forecast", "--t", ","),
        ("markov", "--alpha", "inf"),
        ("markov", "--alpha", "nan"),
        ("markov", "--alpha", "-1"),
        ("ingest", "--workers", "0"),
        ("ingest", "--workers", "-3"),
        ("build", "--packages", ""),
        ("build", "--packages", ","),
        ("ingest", "--packages", ""),
        ("ingest", "--packages", " , "),
    ],
)
def test_out_of_range_value_is_one_usage_error_line(capsys, command, flag, value):
    def transport(url):
        raise AssertionError(f"the index was contacted: {url}")

    argv = [command, "--db", DB, "--snapshot", SNAPSHOT, flag, value]
    assert cli.main(argv, transport=transport) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and flag in err
    assert err.count("\n") == 1


def test_zero_horizon_is_a_usage_error():
    assert cli.main(["forecast", "--db", DB, "--snapshot", SNAPSHOT, "--t", "0"]) == 1


def test_seed_is_not_an_option(capsys):
    argv = ["forecast", "--db", DB, "--snapshot", SNAPSHOT, "--seed", "9"]
    assert cli.main(argv) == 1
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["build", "--snapshot", SNAPSHOT], "--db"),
        (["build", "--db", DB], "--snapshot"),
        (["forecast"], "--db, --snapshot"),
        (["ingest", "--db", DB], "--snapshot"),
    ],
)
def test_missing_input_is_the_only_line_printed(capsys, argv, flags):
    # The fixture database prints warnings when it loads; a usage error
    # comes before any file is read, so none of them appear.
    def transport(url):
        raise AssertionError(f"the index was contacted: {url}")

    assert cli.main(argv, transport=transport) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"usage error: vulnseries {argv[0]}: the following arguments are required: {flags}\n"
    )


@pytest.mark.parametrize("flag", ["--db", "--snapshot"])
def test_empty_input_path_is_a_usage_error(capsys, flag):
    argv = ["build", "--db", DB, "--snapshot", SNAPSHOT, flag, ""]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and flag in err and "non-empty path" in err
    assert err.count("\n") == 1


# -- build -----------------------------------------------------------------


def test_build_json_document(tmp_path, capsys):
    doc = run_json(tmp_path, ["build", "--db", DB, "--snapshot", SNAPSHOT])
    assert doc["meta"] == {"command": "build", "strict": False}
    rows = {row["package"]: row for row in doc["corpus"]}
    assert set(rows) == KEPT_PACKAGES
    alpha = rows["alphapkg"]
    assert alpha["r"] == 30
    assert len(alpha["w"]) == 30
    assert set(alpha["w"]) <= {"0", "1"}
    assert [c > 0 for c in alpha["counts"]] == [ch == "1" for ch in alpha["w"]]
    assert max(alpha["counts"]) == 2
    err = capsys.readouterr().err
    counts = doc["attrition"]["counts"]
    assert (
        f"build: 8 packages kept; dropped {counts['advisory_drops']} "
        f"advisories and {counts['package_drops']} packages"
    ) in err


def test_build_reports_attrition(tmp_path):
    doc = run_json(tmp_path, ["build", "--db", DB, "--snapshot", SNAPSHOT])
    attrition = doc["attrition"]
    package_drops = {(r["package"], r["reason"]) for r in attrition["package_drops"]}
    assert package_drops == {
        ("hotelpkg", "no-surviving-advisory"),
        ("indiapkg", "no-history"),
    }
    advisory_drops = {(r["package"], r["reason"]) for r in attrition["advisory_drops"]}
    assert ("golfpkg", "no-valid-clause") in advisory_drops
    assert ("hotelpkg", "no-valid-clause") in advisory_drops
    clause_drops = {(r["package"], r["reason"]) for r in attrition["clause_drops"]}
    assert ("foxtrotpkg", "boundary-version-absent") in clause_drops
    flags = {(r["package"], r["reason"]) for r in attrition["flags"]}
    assert ("julietpkg", "not-equal-operator") in flags


def test_database_skip_without_an_advisory_id_names_the_package_alone(tmp_path, capsys):
    db = {
        "pkg": [42, {"id": "pyup.io-1", "specs": ["<1.0"], "cve": "CVE-BAD"}],
        "mapped": {"id": "pyup.io-2", "specs": ["<1.0"]},
        "spelled": "<1.0",
    }
    db_path, snap_path = write_corpus(tmp_path, db, {"pkg": ["0.9", "1.0"]})
    run_json(tmp_path, ["build", "--db", db_path, "--snapshot", snap_path])
    err = capsys.readouterr().err
    warnings = [line for line in err.splitlines() if line.startswith("warning:")]
    assert warnings == [
        "warning: skipped pkg: entry-not-an-object (index 0)",
        "warning: skipped mapped: package-not-an-array (dict)",
        "warning: skipped spelled: package-not-an-array (str)",
        "warning: pkg/pyup.io-1: malformed-cve ('CVE-BAD')",
    ]


def test_build_package_filter(tmp_path):
    doc = run_json(
        tmp_path,
        ["build", "--db", DB, "--snapshot", SNAPSHOT, "--packages", "alphapkg,deltapkg"],
    )
    assert {row["package"] for row in doc["corpus"]} == {"alphapkg", "deltapkg"}


@pytest.mark.parametrize("command", ["build", "markov", "forecast"])
def test_package_filter_warns_once_per_unknown_name(tmp_path, capsys, command):
    base = [command, "--db", DB, "--snapshot", SNAPSHOT, "--no-timestamp"]
    base += ["--out", str(tmp_path / "out.json"), "--packages"]
    assert cli.main(base + ["alphapkg,deltapkg"]) == 0
    known_err = capsys.readouterr().err
    assert "--packages" not in known_err
    assert cli.main(base + ["zz-absent,alphapkg,aa-absent,deltapkg,zz-absent"]) == 0
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "--packages" in line] == [
        "warning: --packages names 'aa-absent', which has no advisory in the database",
        "warning: --packages names 'zz-absent', which has no advisory in the database",
    ]
    # Apart from those lines, stderr is what the known names alone give.
    assert [line for line in err.splitlines() if "--packages" not in line] == (
        known_err.splitlines()
    )


def test_build_csv_and_attrition_out(tmp_path):
    out = tmp_path / "corpus.csv"
    attrition_out = tmp_path / "attrition.csv"
    code = cli.main(
        [
            "build",
            "--db", DB,
            "--snapshot", SNAPSHOT,
            "--format", "csv",
            "--no-timestamp",
            "--out", str(out),
            "--attrition-out", str(attrition_out),
        ]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "package,r,m,w,counts"
    assert len(lines) == 1 + len(KEPT_PACKAGES)
    attrition_lines = attrition_out.read_text(encoding="utf-8").splitlines()
    assert attrition_lines[0] == "package,advisory_id,reason,detail"
    assert any("not-equal-operator" in line for line in attrition_lines)


def test_build_csv_starts_with_a_timestamp_line_by_default(tmp_path):
    plain, stamped = tmp_path / "plain.csv", tmp_path / "stamped.csv"
    argv = ["build", "--db", DB, "--snapshot", SNAPSHOT, "--format", "csv", "--out"]
    assert cli.main(argv + [str(plain), "--no-timestamp"]) == 0
    assert cli.main(argv + [str(stamped)]) == 0
    first, rest = stamped.read_text(encoding="utf-8").split("\n", 1)
    prefix = "# generated_at "
    assert first.startswith(prefix)
    assert datetime.fromisoformat(first[len(prefix):]).utcoffset().total_seconds() == 0
    assert rest == plain.read_text(encoding="utf-8")


def test_build_output_is_byte_stable_without_timestamp(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for path in (first, second):
        code = cli.main(
            ["build", "--db", DB, "--snapshot", SNAPSHOT, "--no-timestamp", "--out", str(path)]
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_build_records_a_timestamp_by_default(tmp_path):
    out = tmp_path / "out.json"
    code = cli.main(["build", "--db", DB, "--snapshot", SNAPSHOT, "--out", str(out)])
    assert code == 0
    assert "generated_at" in json.loads(out.read_text(encoding="utf-8"))


def test_timestamp_is_the_only_difference_and_sits_at_its_sorted_key(tmp_path):
    plain, stamped = tmp_path / "plain.json", tmp_path / "stamped.json"
    argv = ["build", "--db", DB, "--snapshot", SNAPSHOT, "--out"]
    assert cli.main(argv + [str(plain), "--no-timestamp"]) == 0
    assert cli.main(argv + [str(stamped)]) == 0
    doc = json.loads(plain.read_text(encoding="utf-8"))
    stamp = json.loads(stamped.read_text(encoding="utf-8"))["generated_at"]
    expected = json.dumps({**doc, "generated_at": stamp}, sort_keys=True, indent=2) + "\n"
    assert stamped.read_text(encoding="utf-8") == expected


def test_the_timestamp_is_not_written_into_the_callers_document(capsys):
    doc = {"meta": {"command": "build"}}
    cli._write_json(doc, argparse.Namespace(no_timestamp=False), None)
    assert doc == {"meta": {"command": "build"}}
    assert set(json.loads(capsys.readouterr().out)) == {"meta", "generated_at"}


# Floats json spells its own way, and ones whose sixth decimal a naive
# rounding gets wrong; a numpy scalar rounds differently from its float.
_floats = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e-7, 1e16, -1e16]),
    st.integers(-(10**9), 10**9).map(lambda n: n / 1e6 + 5e-7),
)
_texts = st.one_of(st.text(), st.text(alphabet='"\\\x00\x1f\x7f\u00e9\u2028\U0001f600a'))
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**70), 2**70),
    _floats,
    st.one_of(st.floats(-1e9, 1e9), _floats.filter(lambda x: abs(x) < 1e9)).map(np.float64),
    _texts,
)
_documents = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_texts, children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(_documents)
def test_document_text_is_the_stdlib_text_of_the_rounded_document(doc):
    expected = json.dumps(reference_impl._rounded(doc), sort_keys=True, indent=2)
    assert cli._json_text(doc) == expected


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes", np.int64(3), {"a": [1j]}])
def test_document_text_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value)
    with pytest.raises(TypeError):
        cli._json_text(value)


def test_build_writes_to_stdout_without_out(capsys):
    code = cli.main(["build", "--db", DB, "--snapshot", SNAPSHOT, "--no-timestamp"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert {row["package"] for row in doc["corpus"]} == KEPT_PACKAGES


# -- markov ----------------------------------------------------------------


def tiny_markov_corpus(tmp_path):
    db = {
        "tinypkg": [
            {"id": "t-1", "cve": None, "specs": [">=1.0,<=1.1", "==1.4"]},
        ],
        "onespkg": [
            {"id": "o-1", "cve": None, "specs": [">=2.0"]},
        ],
        "solopkg": [
            {"id": "s-1", "cve": None, "specs": ["==9.9"]},
        ],
    }
    versions = {
        "tinypkg": ["1.0", "1.1", "1.2", "1.3", "1.4"],
        "onespkg": ["2.0", "2.1", "2.2", "2.3"],
        "solopkg": ["9.9"],
    }
    return write_corpus(tmp_path, db, versions)


def test_markov_records_match_hand_counts(tmp_path):
    db_path, snap_path = tiny_markov_corpus(tmp_path)
    doc = run_json(tmp_path, ["markov", "--db", db_path, "--snapshot", snap_path])
    records = {rec["package"]: rec for rec in doc["records"]}
    # tinypkg is 1,1,0,0,1: transitions 11, 10, 00, 01.
    assert records["tinypkg"] == {
        "package": "tinypkg",
        "r": 5,
        "p_uncond": 0.6,
        "p_11": 0.5,
        "p_00": 0.5,
        "p_11_defined": True,
        "p_00_defined": True,
    }
    # onespkg is all ones: the from-zero row is undefined.
    assert records["onespkg"]["p_11"] == 1.0
    assert records["onespkg"]["p_00"] is None
    assert records["onespkg"]["p_00_defined"] is False
    # solopkg has a single release, so no transitions at all.
    assert records["solopkg"]["p_11"] is None
    assert records["solopkg"]["p_00"] is None
    assert [rec["package"] for rec in doc["records"]] == sorted(records)


def test_markov_smoothing_defines_empty_rows(tmp_path):
    db_path, snap_path = tiny_markov_corpus(tmp_path)
    doc = run_json(
        tmp_path,
        ["markov", "--db", db_path, "--snapshot", snap_path, "--alpha", "0.5"],
    )
    records = {rec["package"]: rec for rec in doc["records"]}
    # onespkg has three 1->1 transitions: (3 + 0.5) / (3 + 1) = 0.875.
    assert records["onespkg"]["p_11"] == 0.875
    assert records["onespkg"]["p_00"] == 0.5
    assert records["onespkg"]["p_00_defined"] is True
    assert doc["meta"]["alpha"] == 0.5


def test_markov_stats_and_histograms(tmp_path):
    db_path, snap_path = tiny_markov_corpus(tmp_path)
    doc = run_json(tmp_path, ["markov", "--db", db_path, "--snapshot", snap_path])
    assert set(doc["stats"]) == {"releases", "p_uncond", "p_11", "p_00"}
    assert doc["stats"]["releases"]["n"] == 3
    metrics = {row["metric"] for row in doc["histograms"]}
    assert "p_uncond" in metrics
    for row in doc["histograms"]:
        assert row["bin_left"] < row["bin_right"]
        assert row["count"] >= 0


def test_markov_csv_outputs(tmp_path):
    db_path, snap_path = tiny_markov_corpus(tmp_path)
    out = tmp_path / "records.csv"
    summary_out = tmp_path / "summary.csv"
    histogram_out = tmp_path / "bins.csv"
    code = cli.main(
        [
            "markov",
            "--db", db_path,
            "--snapshot", snap_path,
            "--format", "csv",
            "--no-timestamp",
            "--out", str(out),
            "--summary-out", str(summary_out),
            "--histogram-out", str(histogram_out),
        ]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "package,r,p_uncond,p_11,p_00,p_11_defined,p_00_defined"
    solor_row = next(line for line in lines if line.startswith("solopkg"))
    # Undefined probabilities serialize as empty cells, booleans as words.
    assert solor_row == "solopkg,1,1.0,,,false,false"
    assert summary_out.read_text(encoding="utf-8").splitlines()[0] == (
        "metric,n,mean,median,q1,q3,min,max"
    )
    assert histogram_out.read_text(encoding="utf-8").splitlines()[0] == (
        "metric,bin_left,bin_right,count"
    )


def test_markov_empty_corpus_notes_it(tmp_path):
    db_path, snap_path = write_corpus(
        tmp_path,
        {"ghostpkg": [{"id": "g-1", "cve": None, "specs": ["==5.5"]}]},
        {"ghostpkg": ["1.0", "1.1"]},
    )
    doc = run_json(tmp_path, ["markov", "--db", db_path, "--snapshot", snap_path])
    assert doc["records"] == []
    assert doc["note"] == "corpus is empty"
    assert doc["meta"] == {"command": "markov", "alpha": 0.0, "strict": False}
    out = tmp_path / "records.csv"
    summary_out = tmp_path / "summary.csv"
    histogram_out = tmp_path / "bins.csv"
    code = cli.main(
        [
            "markov",
            "--db", db_path,
            "--snapshot", snap_path,
            "--format", "csv",
            "--no-timestamp",
            "--out", str(out),
            "--summary-out", str(summary_out),
            "--histogram-out", str(histogram_out),
        ]
    )
    assert code == 0
    assert out.read_text(encoding="utf-8") == (
        "package,r,p_uncond,p_11,p_00,p_11_defined,p_00_defined\n"
    )
    assert summary_out.read_text(encoding="utf-8") == "metric,n,mean,median,q1,q3,min,max\n"
    assert histogram_out.read_text(encoding="utf-8") == "metric,bin_left,bin_right,count\n"


# -- forecast ---------------------------------------------------------------


def test_forecast_matches_the_frozen_document(tmp_path):
    out = tmp_path / "forecast.json"
    code = cli.main(
        ["forecast", "--db", DB, "--snapshot", SNAPSHOT, "--no-timestamp", "--out", str(out)]
    )
    assert code == 0
    assert out.read_bytes() == EXPECTED_FORECAST.read_bytes()


def test_forecast_run_as_a_module_matches_the_frozen_document(tmp_path):
    # A fresh interpreter enters main with the cyclic collector enabled,
    # as a console-script run does.
    out = tmp_path / "forecast.json"
    argv = ["forecast", "--db", DB, "--snapshot", SNAPSHOT, "--no-timestamp", "--out", str(out)]
    done = run_python("-m", "vulnseries.cli", *argv)
    assert done.returncode == 0, done.stderr
    assert out.read_bytes() == EXPECTED_FORECAST.read_bytes()


def test_forecast_meta_echoes_the_flags(tmp_path):
    doc = run_json(
        tmp_path,
        [
            "forecast",
            "--db", DB,
            "--snapshot", SNAPSHOT,
            "--t", "5",
            "--aic-margin", "2.5",
            "--min-releases", "20",
            "--min-std", "0.1",
            "--max-order-frac", "0.2",
            "--ridge",
            "--full-sample",
            "--tie", "0",
        ],
    )
    assert doc["meta"] == {
        "command": "forecast",
        "horizons": [5],
        "min_releases": 20,
        "min_std": 0.1,
        "max_order_fraction": 0.2,
        "aic_margin": 2.5,
        "ridge": True,
        "full_sample": True,
        "tie_value": 0,
        "strict": False,
    }
    assert {rep["t"] for rep in doc["reports"]} == {5}


def test_forecast_package_filter(tmp_path):
    doc = run_json(
        tmp_path,
        ["forecast", "--db", DB, "--snapshot", SNAPSHOT, "--packages", "alphapkg"],
    )
    assert {rep["package"] for rep in doc["reports"]} == {"alphapkg"}
    assert {row["package"] for row in doc["orders"]} == {"alphapkg"}
    assert sorted(doc["abs_errors"]) == ["alphapkg@10", "alphapkg@5"]


def test_forecast_with_nothing_eligible_notes_it(tmp_path):
    doc = run_json(
        tmp_path,
        ["forecast", "--db", DB, "--snapshot", SNAPSHOT, "--packages", "deltapkg"],
    )
    assert doc["reports"] == []
    assert doc["note"] == "no package passed the eligibility filters"
    assert doc["exclusions"][0]["reason"] == "too-few-releases"


def test_forecast_order_cap_of_one_excludes_instead_of_failing(tmp_path, capsys):
    doc = run_json(
        tmp_path,
        ["forecast", "--db", DB, "--snapshot", SNAPSHOT, "--max-order-frac", "1"],
    )
    assert doc["reports"] == []
    reasons = {row["reason"] for row in doc["exclusions"] if row["t"] is None}
    assert "order-selection-failed" in reasons
    assert "Traceback" not in capsys.readouterr().err


def test_forecast_csv_output(tmp_path):
    out = tmp_path / "reports.csv"
    summary_out = tmp_path / "summary.csv"
    code = cli.main(
        [
            "forecast",
            "--db", DB,
            "--snapshot", SNAPSHOT,
            "--format", "csv",
            "--no-timestamp",
            "--out", str(out),
            "--summary-out", str(summary_out),
        ]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        "package,t,order,mean_abs_error,median_abs_error,max_abs_error,"
        "accuracy,naive_accuracy,converged,flags"
    )
    assert len(lines) == 5
    assert all(",true," in line or ",false," in line for line in lines[1:])
    summary_lines = summary_out.read_text(encoding="utf-8").splitlines()
    assert summary_lines[0] == (
        "t,packages,mean_abs_error,median_abs_error,max_abs_error,accuracy,naive_accuracy"
    )
    assert len(summary_lines) == 3


def test_forecast_stderr_reports_counts(tmp_path, capsys):
    out = tmp_path / "out.json"
    code = cli.main(
        ["forecast", "--db", DB, "--snapshot", SNAPSHOT, "--no-timestamp", "--out", str(out)]
    )
    assert code == 0
    assert "forecast: 4 package-horizon reports, 7 exclusions" in capsys.readouterr().err


# -- ingest -----------------------------------------------------------------


def payload_for(versions):
    releases = {
        version: [{"upload_time_iso_8601": stamp}] for version, stamp in versions
    }
    return json.dumps({"releases": releases}).encode("utf-8")


def make_transport(responses):
    """A transport stub keyed by package name, recording every URL."""

    def transport(url):
        transport.calls.append(url)
        for package, reply in responses.items():
            if f"/{package}/json" in url:
                return reply
        return (404, b"not here")

    transport.calls = []
    return transport


def ingest_db(tmp_path, packages):
    db_path = tmp_path / "ingest-db.json"
    doc = {
        name: [{"id": f"{name}-1", "cve": None, "specs": ["<999"]}] for name in packages
    }
    db_path.write_text(json.dumps(doc), encoding="utf-8")
    return str(db_path)


def test_ingest_writes_an_ordered_snapshot(tmp_path, capsys):
    db_path = ingest_db(tmp_path, ["aaa", "bbb"])
    transport = make_transport(
        {
            "aaa": (200, payload_for([("1.10", "2021-02-01T00:00:00Z"), ("1.2", "2021-01-01T00:00:00Z")])),
            "bbb": (200, payload_for([("0.1", "2021-01-05T00:00:00Z")])),
        }
    )
    snap_path = tmp_path / "snap.json"
    code = cli.main(
        ["ingest", "--db", db_path, "--snapshot", str(snap_path)], transport=transport
    )
    assert code == 0
    histories = load_snapshot(snap_path)
    assert set(histories) == {"aaa", "bbb"}
    assert [rel.raw for rel in histories["aaa"].releases] == ["1.2", "1.10"]
    assert "ingest: 2 histories written" in capsys.readouterr().out


def test_ingest_warns_about_missing_packages_but_succeeds(tmp_path, capsys):
    db_path = ingest_db(tmp_path, ["aaa", "gone"])
    transport = make_transport(
        {"aaa": (200, payload_for([("1.0", "2021-01-01T00:00:00Z")]))}
    )
    snap_path = tmp_path / "snap.json"
    code = cli.main(
        ["ingest", "--db", db_path, "--snapshot", str(snap_path)], transport=transport
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "gone: not-found" in captured.err
    assert "(1 packages missing from the index)" in captured.out
    assert set(load_snapshot(snap_path)) == {"aaa"}


def test_ingest_warns_about_a_filtered_name_the_database_lacks(tmp_path, capsys):
    db_path = ingest_db(tmp_path, ["aaa", "bbb"])
    transport = make_transport(
        {"aaa": (200, payload_for([("1.0", "2021-01-01T00:00:00Z")]))}
    )
    snap_path = tmp_path / "snap.json"
    argv = ["ingest", "--db", db_path, "--snapshot", str(snap_path), "--packages", "aaa,ccc"]
    assert cli.main(argv, transport=transport) == 0
    assert capsys.readouterr().err == (
        "warning: --packages names 'ccc', which has no advisory in the database\n"
    )
    assert transport.calls == ["https://pypi.org/pypi/aaa/json"]
    assert set(load_snapshot(snap_path)) == {"aaa"}


@pytest.mark.parametrize(
    "versions,warning,kept",
    [
        (
            [("1.0", "2021-01-01T00:00:00Z"), ("1.0.0", "2021-01-02T00:00:00Z")],
            "warning: aaa: duplicate release '1.0.0' collapses into '1.0'",
            ["1.0"],
        ),
        (
            [("1.0", "2021-02-01T00:00:00Z"), ("1.1", "2021-01-01T00:00:00Z")],
            "warning: aaa: version order disagrees with upload order near '1.1'",
            ["1.0", "1.1"],
        ),
    ],
    ids=["duplicate", "upload-order"],
)
def test_ingest_forwards_history_warnings(tmp_path, capsys, versions, warning, kept):
    db_path = ingest_db(tmp_path, ["aaa"])
    transport = make_transport({"aaa": (200, payload_for(versions))})
    snap_path = tmp_path / "snap.json"
    code = cli.main(
        ["ingest", "--db", db_path, "--snapshot", str(snap_path)], transport=transport
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [warning]
    assert "ingest: 1 histories written" in captured.out
    assert [r.raw for r in load_snapshot(snap_path)["aaa"].releases] == kept


def test_ingest_bad_payload_is_a_data_error(tmp_path, capsys):
    db_path = ingest_db(tmp_path, ["aaa", "bbb"])
    transport = make_transport(
        {
            "aaa": (200, payload_for([("1.0", "2021-01-01T00:00:00Z")])),
            "bbb": (200, b"[1, 2, 3]"),
        }
    )
    snap_path = tmp_path / "snap.json"
    code = cli.main(
        ["ingest", "--db", db_path, "--snapshot", str(snap_path)], transport=transport
    )
    assert code == 2
    assert not snap_path.exists()
    assert "snapshot not written" in capsys.readouterr().err


def test_ingest_transport_failure_is_an_environment_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("vulnseries.registry.time.sleep", lambda seconds: None)
    db_path = ingest_db(tmp_path, ["aaa"])
    transport = make_transport({"aaa": (500, b"boom")})
    snap_path = tmp_path / "snap.json"
    code = cli.main(
        ["ingest", "--db", db_path, "--snapshot", str(snap_path)], transport=transport
    )
    assert code == 3
    assert not snap_path.exists()
    assert len(transport.calls) == 3
    assert "snapshot not written" in capsys.readouterr().err


def test_ingest_stops_at_a_failing_cache_write(tmp_path, capsys):
    names = [f"pkg{i:03d}" for i in range(200)]
    db_path = ingest_db(tmp_path, names)
    cache = tmp_path / "cache"
    cache.write_text("a regular file, so no cache file can be created under it")
    calls = []

    def transport(url):
        calls.append(url)
        time.sleep(0.01)
        return 200, payload_for([("1.0", "2021-01-01T00:00:00Z")])

    snap_path = tmp_path / "snap.json"
    argv = ["ingest", "--db", db_path, "--snapshot", str(snap_path), "--cache", str(cache),
            "--workers", "2"]
    assert cli.main(argv, transport=transport) == 3
    assert not snap_path.exists()
    assert len(calls) < 20
    assert capsys.readouterr().err.startswith("environment error: ")


def test_ingest_offline_without_cache_is_an_environment_error(tmp_path, capsys):
    db_path = ingest_db(tmp_path, ["aaa"])
    snap_path = tmp_path / "snap.json"
    code = cli.main(
        ["ingest", "--db", db_path, "--snapshot", str(snap_path), "--offline", "--cache", str(tmp_path / "cache")]
    )
    assert code == 3
    assert not snap_path.exists()
    assert "offline-miss" in capsys.readouterr().err


def test_ingest_offline_serves_from_a_warm_cache(tmp_path):
    db_path = ingest_db(tmp_path, ["aaa"])
    cache = tmp_path / "cache"
    transport = make_transport(
        {"aaa": (200, payload_for([("1.0", "2021-01-01T00:00:00Z")]))}
    )
    first = tmp_path / "first.json"
    code = cli.main(
        ["ingest", "--db", db_path, "--snapshot", str(first), "--cache", str(cache)],
        transport=transport,
    )
    assert code == 0
    assert len(transport.calls) == 1
    second = tmp_path / "second.json"
    code = cli.main(
        ["ingest", "--db", db_path, "--snapshot", str(second), "--cache", str(cache), "--offline"]
    )
    assert code == 0
    assert first.read_bytes() == second.read_bytes()


def test_ingest_requires_a_snapshot_path(tmp_path):
    db_path = ingest_db(tmp_path, ["aaa"])
    cache = tmp_path / "cache"
    transport = make_transport(
        {"aaa": (200, payload_for([("1.0", "2021-01-01T00:00:00Z")]))}
    )
    argv = ["ingest", "--db", db_path, "--cache", str(cache)]
    assert cli.main(argv, transport=transport) == 1
    # The usage error comes before any fetch: nothing is requested or cached.
    assert transport.calls == []
    assert not cache.exists()


@pytest.mark.parametrize("flag", [["--out", "x.json"], ["--format", "json"], ["--strict"]])
def test_ingest_rejects_the_document_flags(tmp_path, capsys, flag):
    transport = make_transport({})
    argv = ["ingest", "--db", DB, "--snapshot", str(tmp_path / "snap.json"), *flag]
    assert cli.main(argv, transport=transport) == 1
    assert transport.calls == []
    assert "unrecognized arguments" in capsys.readouterr().err


def test_ingest_help_lists_only_the_flags_it_reads(capsys):
    assert cli.main(["ingest", "--help"]) == 0
    options = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert options == {
        "--help",
        "--db",
        "--snapshot",
        "--packages",
        "--no-timestamp",
        "--cache",
        "--offline",
        "--workers",
    }


# -- every flag is read, and side files in either format -------------------

SIDE_FLAGS = {
    "build": ["--attrition-out"],
    "markov": ["--summary-out", "--histogram-out"],
    "forecast": ["--summary-out"],
}
VALUE_FLAGS = {
    "build": [],
    "markov": ["--alpha", "0.5"],
    "forecast": [
        "--t", "5",
        "--min-releases", "20",
        "--min-std", "0.1",
        "--max-order-frac", "0.2",
        "--aic-margin", "2",
        "--ridge",
        "--full-sample",
        "--tie", "0",
    ],
}


def document_argv(tmp_path, command, fmt):
    """A full argv for a document command, writing every file under ``tmp_path``."""
    argv = [
        command,
        "--db", DB,
        "--snapshot", SNAPSHOT,
        "--packages", "alphapkg,brightpkg,charliepkg,julietpkg",
        "--no-timestamp",
        "--format", fmt,
        "--out", str(tmp_path / f"{command}.{fmt}"),
        "--strict",
        *VALUE_FLAGS[command],
    ]
    for flag in SIDE_FLAGS[command]:
        argv += [flag, str(tmp_path / f"{command}{flag}.{fmt}.csv")]
    return argv


def reads_of(argv, transport=None):
    """Run ``argv`` in-process; return its exit code and the dests it never read."""
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    args = cli.build_parser(transport).parse_args(argv, namespace=Recording())
    reads.clear()
    code = args.run(args)
    return code, set(vars(args)) - {"run", "command"} - reads


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["build", "markov", "forecast"])
def test_every_parsed_flag_is_read(tmp_path, command, fmt):
    code, unread = reads_of(document_argv(tmp_path, command, fmt))
    assert code == 0
    assert unread == set()


def test_every_parsed_ingest_flag_is_read(tmp_path):
    transport = make_transport(
        {"alphapkg": (200, payload_for([("1.0", "2021-01-01T00:00:00Z")]))}
    )
    argv = [
        "ingest",
        "--db", DB,
        "--snapshot", str(tmp_path / "snap.json"),
        "--packages", "alphapkg",
        "--no-timestamp",
        "--cache", str(tmp_path / "cache"),
        "--workers", "2",
    ]
    code, unread = reads_of(argv, transport)
    assert code == 0
    assert transport.calls
    # A snapshot never carries a timestamp, so ingest has nothing to
    # suppress.  It keeps the flag because callers such as perfbench
    # pass one shared input argv to every subcommand.
    assert unread == {"no_timestamp"}


@pytest.mark.parametrize("command", ["build", "markov", "forecast"])
def test_side_files_are_the_same_in_either_format(tmp_path, command):
    sides = {}
    for fmt in ("json", "csv"):
        assert cli.main(document_argv(tmp_path, command, fmt)) == 0
        sides[fmt] = [
            (tmp_path / f"{command}{flag}.{fmt}.csv").read_bytes() for flag in SIDE_FLAGS[command]
        ]
    assert all(len(side.splitlines()) > 1 for side in sides["csv"])
    assert sides["json"] == sides["csv"]


# -- the collector pause ----------------------------------------------------


def exit_case(tmp_path, case):
    """``(argv, outcome)`` for one way out of ``main``: an exit code, or the
    exception that escapes it."""
    if case == "success":
        out = str(tmp_path / "build.json")
        return ["build", "--db", DB, "--snapshot", SNAPSHOT, "--no-timestamp", "--out", out], 0
    if case == "help":
        return ["--help"], 0
    if case == "usage":
        return [], 1
    if case == "data":
        bad = tmp_path / "snap.json"
        bad.write_text('{"schema_version": 99, "histories": {}}', encoding="utf-8")
        return ["build", "--db", DB, "--snapshot", str(bad)], 2
    if case == "environment":
        return ["build", "--db", str(tmp_path / "nope.json"), "--snapshot", SNAPSHOT], 3
    db_path = ingest_db(tmp_path, ["aaa"])
    return ["ingest", "--db", db_path, "--snapshot", str(tmp_path / "snap.json")], RuntimeError


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case", ["success", "help", "usage", "data", "environment", "escapes"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, case, enabled):
    argv, outcome = exit_case(tmp_path, case)
    seen = []

    def transport(url):
        seen.append(gc.isenabled())
        raise RuntimeError("transport bug")

    entry = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        if outcome is RuntimeError:
            with pytest.raises(RuntimeError, match="transport bug"):
                cli.main(argv, transport=transport)
            assert seen == [False]  # paused in ingest's worker thread too
        else:
            assert cli.main(argv, transport=transport) == outcome
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if entry else gc.disable)()


def fixture_index():
    """A transport serving the fixture snapshot's histories as index payloads."""
    return make_transport(
        {
            name: (200, payload_for([(rel.raw, rel.upload_time) for rel in history.releases]))
            for name, history in load_snapshot(SNAPSHOT).items()
        }
    )


def pipeline_runs(tmp_path, packages):
    """``(name, argv, transport)`` of every subcommand on the fixtures, in pipeline
    order, each given ``packages`` (all of them when empty)."""
    database = json.loads(Path(DB).read_text(encoding="utf-8"))
    indexed = ",".join(sorted(set(database) & set(load_snapshot(SNAPSHOT))))
    cache = ["--cache", str(tmp_path / "cache")]
    runs = [
        ("ingest", ["ingest", *cache, "--snapshot", str(tmp_path / "cold.json")], fixture_index()),
        # Offline, a package the index lacks is a miss, so name the ones it has.
        ("ingest --offline", ["ingest", *cache, "--offline", "--packages", indexed,
                              "--snapshot", str(tmp_path / "warm.json")], None),
    ]
    for name, flags in [
        ("build", []),
        ("markov", []),
        ("forecast", []),
        ("forecast --ridge", ["--ridge", "--max-order-frac", "0.3"]),
    ]:
        out = str(tmp_path / f"{name.replace(' ', '')}.json")
        argv = [name.split()[0], "--snapshot", SNAPSHOT, "--no-timestamp", "--out", out, *flags]
        runs.append((name, argv, None))
    return [(name, [*argv, "--db", DB, *packages], transport) for name, argv, transport in runs]


def collector_garbage(argv, transport=None):
    """Run ``argv`` with the collector paused and saving all it finds, then collect;
    returns the exit code, the garbage's size and the program's types in it."""
    entry = gc.isenabled()
    gc.collect()
    start = len(gc.garbage)
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        code = cli.main(argv, transport=transport)
        gc.collect()
        garbage = gc.garbage[start:]
        program = {
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in garbage
            if isinstance(obj, np.ndarray)
            or (type(obj).__module__.startswith("vulnseries") and type(obj) is not cli._Parser)
        }
        return code, len(garbage), sorted(program)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if entry:
            gc.enable()


def test_no_command_leaves_cyclic_garbage_but_its_parser(tmp_path, capsys):
    # Pausing the collector for a command is safe only because the
    # program's data holds no reference cycles: the one cyclic garbage
    # is the parser's, whose size does not grow with the data.
    sizes = {}
    for variant, packages in [("all", []), ("one", ["--packages", "alphapkg"])]:
        for name, argv, transport in pipeline_runs(tmp_path / variant, packages):
            code, size, program = collector_garbage(argv, transport)
            assert (code, program) == (0, []), name
            sizes.setdefault(name, []).append(size)
    assert all(len(set(pair)) == 1 for pair in sizes.values()), sizes


@pytest.mark.parametrize("offline", [False, True], ids=["not-found", "offline-miss"])
def test_a_package_failing_last_leaves_no_cyclic_garbage(tmp_path, capsys, offline):
    # The failure of the last package fetched is the one that outlives
    # its loop in fetch_many, where a kept exception would hold the frame
    # that holds it.
    argv = ["ingest", "--db", DB, "--snapshot", str(tmp_path / "snap.json"),
            "--packages", "alphapkg,indiapkg", "--cache", str(tmp_path / "cache")]
    if offline:
        assert cli.main(argv, transport=fixture_index()) == 0
        argv.append("--offline")
    code, _, program = collector_garbage(argv, None if offline else fixture_index())
    assert (code, program) == (3 if offline else 0, [])
