"""Generates the frozen end-to-end fixtures under tests/fixtures/.

Deterministic and self-checking.  A small seed bank supplies candidate
series; every candidate must clear numeric-comfort gates (no skipped
candidate order, agreement with the independent reference fits, AIC
band decisions away from their edges, and every reported float safely
distant from a six-decimal rounding boundary).  The chosen series are
rendered as version-range advisories, round-tripped through the real
corpus builder, and the shipped CLI output is compared byte-for-byte
against the independent reference document before anything is written.
Rerunning the script must reproduce the committed files exactly.

Usage: python3 tests/gen_fixtures.py
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from datetime import datetime, timedelta
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path[:0] = [str(TESTS), str(TESTS.parent / "src")]

import reference_impl
from vulnseries import autologistic, cli, safetydb, vectorize
from vulnseries.registry import load_snapshot, order_history, save_snapshot
from vulnseries.vectorize import BinarySeries

FIXTURES = TESTS / "fixtures"
HORIZONS = (5, 10)
EDGE_MARGIN = 0.05


def upload_time(i: int) -> str:
    return (datetime(2019, 1, 1) + timedelta(days=7 * i)).strftime("%Y-%m-%dT%H:%M:%SZ")


def rounding_safe(a: float, b: float) -> bool:
    """True when both values round to the same six-decimal string with room."""
    if round(a, 6) != round(b, 6):
        return False
    scaled = abs(a) * 1e6
    distance = abs(scaled % 1 - 0.5) * 1e-6
    return distance > max(1e-9, 50.0 * abs(a - b))


def comfortable(values: list[int]) -> int | None:
    """The selected order, or None when any numeric gate fails."""
    w = BinarySeries("candidate", tuple(values))
    try:
        sel = autologistic.select_order(w)
    except autologistic.OrderSelectionError:
        return None
    if sel.skipped:
        return None
    floor_aic = min(sel.aics.values())
    for aic in sel.aics.values():
        if abs((aic - floor_aic) - autologistic.PARSIMONY_MARGIN) < EDGE_MARGIN:
            return None
    try:
        ref_order, ref_aics = reference_impl.select(list(values))
    except AssertionError:
        return None
    if ref_order != sel.order or set(ref_aics) != set(sel.aics):
        return None
    for k in sel.aics:
        if abs(ref_aics[k] - sel.aics[k]) > 1e-6:
            return None
        if not rounding_safe(sel.aics[k], ref_aics[k]):
            return None
    for t in HORIZONS:
        if autologistic.eligibility(w, t, sel.order) is not None:
            return None
        rep = autologistic.forecast(w, t, sel.order)
        if not rep.converged or rep.flags:
            return None
        try:
            ref = reference_impl.forecast_report("candidate", list(values), t, sel.order)
        except AssertionError:
            return None
        pairs = list(zip(rep.abs_errors, ref["abs_errors"]))
        for field in (
            "mean_abs_error",
            "median_abs_error",
            "max_abs_error",
            "accuracy",
            "naive_accuracy",
        ):
            pairs.append((getattr(rep, field), ref[field]))
        for ours, theirs in pairs:
            if abs(ours - theirs) > 1e-7 or not rounding_safe(ours, theirs):
                return None
    return sel.order


def echo_ok(w: list[int]) -> bool:
    """Selection must succeed cleanly while both horizons stay ineligible."""
    bs = BinarySeries("candidate", tuple(w))
    try:
        sel = autologistic.select_order(bs)
    except autologistic.OrderSelectionError:
        return False
    if sel.skipped:
        return False
    floor_aic = min(sel.aics.values())
    if any(
        abs((a - floor_aic) - autologistic.PARSIMONY_MARGIN) < EDGE_MARGIN
        for a in sel.aics.values()
    ):
        return False
    try:
        ref_order, ref_aics = reference_impl.select(list(w))
    except AssertionError:
        return False
    if ref_order != sel.order or set(ref_aics) != set(sel.aics):
        return False
    for k in sel.aics:
        if abs(ref_aics[k] - sel.aics[k]) > 1e-6:
            return False
        if not rounding_safe(sel.aics[k], ref_aics[k]):
            return False
    for t in HORIZONS:
        record = autologistic.eligibility(bs, t, sel.order)
        if record is None or record.reason != "low-training-variance":
            return False
    return True


def find_echo() -> list[int]:
    """A 30-release series excluded for low variance at both horizons.

    One early affected release keeps every training window's standard
    deviation under the threshold; a small affected cluster at the very
    end keeps the full-series fits well-behaved at every candidate
    order.
    """
    rng = random.Random(1234)
    for _ in range(20000):
        w = [0] * 30
        w[rng.randrange(5, 16)] = 1
        for i in rng.sample(range(24, 30), rng.choice([2, 3])):
            w[i] = 1
        if echo_ok(w):
            return w
    raise SystemExit("no workable low-variance series found")


def find_candidates(r: int, seeds: range, want: int = 5) -> list[tuple[int, list[int]]]:
    out = []
    for seed in seeds:
        values = autologistic.simulate((-0.5, 1.5), r, random.Random(seed))
        density = sum(values) / r
        if not 0.2 <= density <= 0.8:
            continue
        if comfortable(values) is None:
            continue
        out.append((seed, values))
        if len(out) >= want:
            break
    if not out:
        raise SystemExit(f"no comfortable r={r} series in the seed bank {seeds}")
    return out


def run_clauses(w: list[int], versions: list[str]) -> list[str]:
    """One constraint clause per maximal run of 1s."""
    clauses = []
    i = 0
    while i < len(w):
        if w[i] == 0:
            i += 1
            continue
        j = i
        while j + 1 < len(w) and w[j + 1] == 1:
            j += 1
        if i == j:
            clauses.append(f"=={versions[i]}")
        else:
            clauses.append(f">={versions[i]},<={versions[j]}")
        i = j + 1
    return clauses


def advisories_from(package: str, w: list[int], versions: list[str], tag: int) -> list[dict]:
    clauses = run_clauses(w, versions)
    entries = []
    for n in range(0, len(clauses), 2):
        group = clauses[n : n + 2]
        k = tag * 100 + n
        entries.append(
            {
                "advisory": f"{package} is affected by a reported weakness.",
                "cve": f"CVE-2020-{10000 + k}",
                "id": f"pyup.io-{30000 + k}",
                "specs": group,
                "v": ",".join(group),
            }
        )
    return entries


def fixed_packages(echo_w: list[int]) -> tuple[dict, dict, dict]:
    """DB entries, snapshot histories, and expected series for the static cast."""
    db: dict[str, list[dict]] = {}
    versions: dict[str, list[str]] = {}
    expected: dict[str, list[int] | None] = {}

    versions["charliepkg"] = [
        "0.1", "0.2", "0.3", "0.9", "1.0", "1.1",
        "1.5", "1.9", "2.0rc1", "2.0", "2.1", "3.0",
    ]
    db["charliepkg"] = [
        {"advisory": "early line", "cve": "CVE-2018-20001", "id": "pyup.io-40001",
         "specs": ["<0.9"], "v": "<0.9"},
        {"advisory": "mid line plus the 2.0 preview", "cve": None, "id": "pyup.io-40002",
         "specs": [">=1.0,<=1.5", "==2.0rc1"], "v": ">=1.0,<=1.5,==2.0rc1"},
        {"advisory": "late line", "cve": "CVE-2019-20003", "id": "pyup.io-40003",
         "specs": [">=1.9,<2.1"], "v": ">=1.9,<2.1"},
    ]
    expected["charliepkg"] = [1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 0, 0]

    versions["deltapkg"] = [f"0.{i}" for i in range(1, 25)]
    db["deltapkg"] = [
        {"advisory": "first four releases", "cve": "CVE-2019-21001", "id": "pyup.io-41001",
         "specs": ["<0.5"], "v": "<0.5"},
    ]
    expected["deltapkg"] = [1, 1, 1, 1] + [0] * 20

    versions["echopkg"] = [f"5.{i}.0" for i in range(30)]
    db["echopkg"] = advisories_from("echopkg", echo_w, versions["echopkg"], tag=2)
    expected["echopkg"] = echo_w

    versions["foxtrotpkg"] = [f"3.{i}" for i in range(10)]
    db["foxtrotpkg"] = [
        {"advisory": "one valid range, one dangling boundary", "cve": "CVE-2020-22001",
         "id": "pyup.io-42001", "specs": [">=3.2,<=3.4", "<0.1"], "v": ">=3.2,<=3.4,<0.1"},
    ]
    expected["foxtrotpkg"] = [0, 0, 1, 1, 1, 0, 0, 0, 0, 0]

    versions["golfpkg"] = [f"4.{i}" for i in range(10)]
    db["golfpkg"] = [
        {"advisory": "references a version never published", "cve": "CVE-2020-23001",
         "id": "pyup.io-43001", "specs": ["==9.9"], "v": "==9.9"},
        {"advisory": "first two releases", "cve": "CVE-2020-23002",
         "id": "pyup.io-43002", "specs": ["<4.2"], "v": "<4.2"},
    ]
    expected["golfpkg"] = [1, 1, 0, 0, 0, 0, 0, 0, 0, 0]

    versions["hotelpkg"] = [f"6.{i}" for i in range(6)]
    db["hotelpkg"] = [
        {"advisory": "only references an unpublished build", "cve": "CVE-2020-24001",
         "id": "pyup.io-44001", "specs": [">6.0.99"], "v": ">6.0.99"},
    ]
    expected["hotelpkg"] = None

    versions["indiapkg"] = []
    db["indiapkg"] = [
        {"advisory": "no release history in the snapshot", "cve": "CVE-2020-25001",
         "id": "pyup.io-45001", "specs": ["<1.0"], "v": "<1.0"},
    ]
    expected["indiapkg"] = None

    versions["julietpkg"] = [f"0.{i}.0" for i in range(1, 9)]
    db["julietpkg"] = [
        {"advisory": "entry without an id", "cve": None,
         "specs": ["<0.3.0"], "v": "<0.3.0"},
        {"advisory": "entry with a malformed CVE", "cve": "CVE-BAD",
         "id": "pyup.io-46002", "specs": ["==0.5.0"], "v": "==0.5.0"},
        {"advisory": "not-equal constraint", "cve": "CVE-2019-77777",
         "id": "pyup.io-46003", "specs": ["!=0.4.0"], "v": "!=0.4.0"},
        {"advisory": "plain range", "cve": None,
         "id": "pyup.io-46004", "specs": [">=0.6.0,<=0.7.0"], "v": ">=0.6.0,<=0.7.0"},
        {"advisory": "entry without specs", "cve": "CVE-2019-88888",
         "id": "pyup.io-46005"},
    ]
    expected["julietpkg"] = [1, 1, 1, 0, 1, 1, 1, 1]

    versions["kilopkg"] = ["8.0", "8.1"]
    expected["kilopkg"] = None

    return db, versions, expected


def build_tree(
    alpha_values: list[int],
    bright_values: list[int],
    echo_values: list[int],
    out_dir: Path,
):
    db, versions, expected = fixed_packages(echo_values)

    versions["alphapkg"] = [f"1.{i}.0" for i in range(len(alpha_values))]
    db["alphapkg"] = advisories_from("alphapkg", alpha_values, versions["alphapkg"], tag=0)
    first_one = alpha_values.index(1)
    db["alphapkg"].append(
        {
            "advisory": "duplicate coverage of an already-affected release",
            "cve": "CVE-2020-19999",
            "id": "pyup.io-39999",
            "specs": [f"=={versions['alphapkg'][first_one]}"],
            "v": f"=={versions['alphapkg'][first_one]}",
        }
    )
    expected["alphapkg"] = alpha_values

    versions["brightpkg"] = [f"2.{i}.0" for i in range(len(bright_values))]
    db["brightpkg"] = advisories_from("brightpkg", bright_values, versions["brightpkg"], tag=1)
    expected["brightpkg"] = bright_values

    doc = {"$meta": {"advisory": "hand-built test corpus", "timestamp": "2026-08-19"}}
    doc.update(db)
    db_path = out_dir / "safetydb_fixture.json"
    db_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    histories = {}
    for package, vlist in versions.items():
        if package == "indiapkg":
            continue
        history, warnings = order_history(
            package, [(v, upload_time(i)) for i, v in enumerate(vlist)]
        )
        assert not warnings, (package, warnings)
        assert [rel.raw for rel in history.releases] == vlist, package
        histories[package] = history
    snap_path = out_dir / "snapshot_fixture.json"
    save_snapshot(snap_path, histories)

    load = safetydb.load_database(db_path.read_bytes())
    corpus = vectorize.build_corpus(load.advisories, load_snapshot(snap_path))
    got = {p.series.package: list(p.series.values) for p in corpus.packages}
    want = {name: w for name, w in expected.items() if w is not None}
    assert got == want, f"corpus mismatch: {set(got) ^ set(want)}"

    ref_series = reference_impl.corpus_series(db_path, snap_path)
    assert {k: list(v) for k, v in ref_series.items()} == want, "reference series mismatch"

    ref_bytes = reference_impl.build_document(db_path, snap_path)
    cli_out = out_dir / "cli_forecast.json"
    code = cli.main(
        [
            "forecast",
            "--db", str(db_path),
            "--snapshot", str(snap_path),
            "--no-timestamp",
            "--out", str(cli_out),
        ]
    )
    assert code == 0, f"forecast exited {code}"
    cli_bytes = cli_out.read_bytes()
    cli_out.unlink()
    return db_path, snap_path, ref_bytes, cli_bytes


def main(out_dir: Path = FIXTURES) -> int:
    """Search for the fixture corpus and write its three files into ``out_dir``."""
    echo_values = find_echo()
    alphas = find_candidates(30, range(0, 500))
    brights = find_candidates(40, range(500, 1000))
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        for a_seed, a_vals in alphas:
            for b_seed, b_vals in brights:
                db_path, snap_path, ref_bytes, cli_bytes = build_tree(
                    a_vals, b_vals, echo_values, tmp_path
                )
                if cli_bytes != ref_bytes:
                    continue
                doc = json.loads(ref_bytes.decode("utf-8"))
                assert len(doc["reports"]) == 4, doc["reports"]
                assert {row["package"] for row in doc["orders"]} == {
                    "alphapkg", "brightpkg", "echopkg",
                }
                reasons = {(e["package"], e["t"], e["reason"]) for e in doc["exclusions"]}
                assert reasons == {
                    ("charliepkg", None, "too-few-releases"),
                    ("deltapkg", None, "too-few-releases"),
                    ("foxtrotpkg", None, "too-few-releases"),
                    ("golfpkg", None, "too-few-releases"),
                    ("julietpkg", None, "too-few-releases"),
                    ("echopkg", 5, "low-training-variance"),
                    ("echopkg", 10, "low-training-variance"),
                }, reasons
                out_dir.mkdir(exist_ok=True)
                (out_dir / "safetydb_fixture.json").write_bytes(db_path.read_bytes())
                (out_dir / "snapshot_fixture.json").write_bytes(snap_path.read_bytes())
                (out_dir / "expected_forecast.json").write_bytes(ref_bytes)
                print(f"frozen: alphapkg seed {a_seed}, brightpkg seed {b_seed}")
                print(f"orders: {[(r['package'], r['order']) for r in doc['orders']]}")
                return 0
    raise SystemExit("no candidate pair achieved byte identity")


if __name__ == "__main__":
    raise SystemExit(main())
