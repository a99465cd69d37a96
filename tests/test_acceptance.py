"""The eight-point acceptance gate.

Each test covers one release criterion end to end and prints a single
PASS line with the measured numbers, so running this file with ``-s``
reads as a checklist.  The checks are deliberately independent of the
implementation style: randomized dual-route agreement, bit-exact worked
examples, brute-force cross-checks, finite-difference gradient
verification, seeded recovery studies, and a byte-identical frozen
pipeline regression against an independently computed document.
"""

import functools
import json
import math
import operator
import random
import time
from pathlib import Path

import pytest

from oracles import (
    direct_advisory_vector,
    direct_clause_vector,
    direct_counts,
    fd_gradient,
    random_advisory,
    random_history,
    random_version_text,
)
from vulnseries import autologistic, cli, markov, vectorize
from vulnseries.registry import order_history
from vulnseries.safetydb import Constraint, SpecClause
from vulnseries.vectorize import BinarySeries, bits
from vulnseries.versions import compare, parse_version

FIXTURES = Path(__file__).parent / "fixtures"
README = Path(__file__).parent.parent / "README.md"


def ok(line: str) -> None:
    print(f"PASS {line}")


# -- 1: randomized dual-route vector construction ---------------------------


def test_criterion_1_dual_route_agreement_on_random_cases():
    rng = random.Random(20260819)
    start = time.perf_counter()
    cases = 0
    for _ in range(1000):
        history = random_history(rng)
        r = len(history)
        advisories = []
        masks = []
        for n in range(rng.randint(1, 3)):
            advisory = random_advisory(rng, history, advisory_id=f"ADV-{n}")
            rows = [
                vectorize.fill_clause(clause, history)
                for clause in advisory.clauses
            ]
            for clause, row in zip(advisory.clauses, rows):
                assert bits(row, r) == direct_clause_vector(clause, history)
            advisories.append(advisory)
            masks.append(functools.reduce(operator.or_, rows))
        direct_vectors = [direct_advisory_vector(a, history) for a in advisories]
        assert [bits(mask, r) for mask in masks] == direct_vectors
        direct_count, direct_series = direct_counts(direct_vectors)
        counts, series = vectorize.aggregate(history.package, masks, r)
        assert counts == direct_count
        assert series.values == direct_series
        # The corpus builder takes its own route from clauses to series.
        corpus = vectorize.build_corpus(
            {history.package: tuple(advisories)}, {history.package: history}
        )
        (built,) = corpus.packages
        assert built.counts == direct_count
        assert built.series.values == direct_series
        cases += 1
    elapsed = time.perf_counter() - start
    assert cases == 1000
    assert elapsed < 10.0
    ok(f"1/8 dual-route agreement: {cases}/1000 cases in {elapsed:.2f}s")


# -- 2: the worked interval example, bit-exact -------------------------------


def test_criterion_2_worked_interval_example_is_bit_exact():
    raws = ["1.0", "1.1", "1.2", "1.3", "1.4", "1.4.18", "1.5", "1.6", "1.7", "2.0"]
    history, warnings = order_history("weblib", [(raw, None) for raw in raws])
    assert not warnings
    left = vectorize.fill_constraint(
        Constraint(">=", parse_version("1.4")), history
    )
    right = vectorize.fill_constraint(
        Constraint("<=", parse_version("1.4.18")), history
    )
    assert bits(left, 10) == (0, 0, 0, 0, 1, 1, 1, 1, 1, 1)
    assert bits(right, 10) == (1, 1, 1, 1, 1, 1, 0, 0, 0, 0)
    clause = SpecClause(
        (Constraint(">=", parse_version("1.4")), Constraint("<=", parse_version("1.4.18")))
    )
    combined = bits(vectorize.fill_clause(clause, history), 10)
    assert combined == (0, 0, 0, 0, 1, 1, 0, 0, 0, 0)
    assert combined == tuple(a & b for a, b in zip(bits(left, 10), bits(right, 10)))
    ok("2/8 worked interval example: AND of the two printed vectors, bit-exact")


# -- 3: transition counts against brute force --------------------------------


def test_criterion_3_markov_counts_match_brute_force():
    rng = random.Random(3)
    fixtures = [
        [1, 1, 0, 0, 1],
        [1, 0],
        [0, 0],
        [1, 1, 1, 1],
        [0, 1, 0, 1, 0],
        [0, 0, 0, 1],
    ]
    fixtures += [
        [rng.randint(0, 1) for _ in range(rng.randint(2, 12))] for _ in range(50)
    ]
    checked_rows = 0
    for values in fixtures:
        table = markov.transition_table(BinarySeries("pkg", tuple(values)))
        brute = [[0, 0], [0, 0]]
        for a, b in zip(values, values[1:]):
            brute[a][b] += 1
        assert [list(row) for row in table] == brute
        probabilities = markov.transition_probabilities(table)
        for row in probabilities:
            if row[0] is None:
                assert row[1] is None
                continue
            assert abs(row[0] + row[1] - 1.0) <= 1e-12
            checked_rows += 1
    assert checked_rows > 50
    ok(
        f"3/8 transition counts: {len(fixtures)} fixtures exact, "
        f"{checked_rows} defined rows sum to 1 within 1e-12"
    )


# -- 4: gradient conditions and coefficient recovery --------------------------


def test_criterion_4_gradients_and_recovery():
    rng = random.Random(4)
    fits = 0
    for _ in range(25):
        values = autologistic.simulate(
            (-0.6, 1.4), rng.randint(60, 160), random.Random(rng.randint(0, 10**6))
        )
        w = BinarySeries("sim", tuple(values))
        order = rng.randint(1, 3)
        design = autologistic.build_lag_design(w, order)
        try:
            model = autologistic.fit(design)
        except autologistic.SeparationError:
            continue
        if not model.converged:
            continue
        analytic = autologistic.score(design, model.beta)
        assert max(abs(g) for g in analytic) < 1e-6
        numeric = fd_gradient(
            lambda b: autologistic.log_likelihood(design, b), model.beta
        )
        for a, f in zip(analytic, numeric):
            assert abs(a - f) <= 1e-4 * max(1.0, abs(a), abs(f))
        # Also compare at a displaced point where the gradient is not ~0.
        shifted = tuple(b + 0.3 for b in model.beta)
        analytic_s = autologistic.score(design, shifted)
        numeric_s = fd_gradient(
            lambda b: autologistic.log_likelihood(design, b), shifted
        )
        for a, f in zip(analytic_s, numeric_s):
            assert abs(a - f) <= 1e-4 * max(1.0, abs(a), abs(f))
        fits += 1
    assert fits >= 15

    start = time.perf_counter()
    values = autologistic.simulate((-1.0, 2.0), 100_000, random.Random(20260819))
    model = autologistic.fit(
        autologistic.build_lag_design(BinarySeries("big", tuple(values)), 1)
    )
    elapsed = time.perf_counter() - start
    assert model.converged
    assert abs(model.beta[0] - (-1.0)) <= 0.05
    assert abs(model.beta[1] - 2.0) <= 0.05
    assert elapsed < 5.0
    ok(
        f"4/8 MLE: {fits} converged fits pass gradient checks; recovery "
        f"beta=({model.beta[0]:.4f}, {model.beta[1]:.4f}) in {elapsed:.2f}s"
    )


# -- 5: order selection on seeded first-order series --------------------------


def test_criterion_5_order_selection_prefers_the_generating_order():
    start = time.perf_counter()
    hits = 0
    for seed in range(100):
        values = autologistic.simulate((-0.5, 1.5), 200, random.Random(seed))
        selection = autologistic.select_order(BinarySeries("sim", tuple(values)))
        hits += selection.order == 1
    elapsed = time.perf_counter() - start
    assert hits >= 90
    assert elapsed < 60.0
    ok(f"5/8 order selection: order 1 chosen {hits}/100 times in {elapsed:.2f}s")


# -- 6: frozen pipeline regression --------------------------------------------


def test_criterion_6_forecast_document_matches_the_independent_reference(tmp_path):
    out = tmp_path / "forecast.json"
    code = cli.main(
        [
            "forecast",
            "--db", str(FIXTURES / "safetydb_fixture.json"),
            "--snapshot", str(FIXTURES / "snapshot_fixture.json"),
            "--no-timestamp",
            "--out", str(out),
        ]
    )
    assert code == 0
    expected = (FIXTURES / "expected_forecast.json").read_bytes()
    assert out.read_bytes() == expected
    doc = json.loads(expected.decode("utf-8"))
    assert {rep["package"] for rep in doc["reports"]} == {"alphapkg", "brightpkg"}
    for rep in doc["reports"]:
        for column in ("mean_abs_error", "median_abs_error", "max_abs_error"):
            assert 0.0 <= rep[column] <= 1.0
    ok(
        f"6/8 pipeline regression: {len(expected)} bytes identical to the "
        "independently computed document"
    )


# -- 7: snapshot dependence stated; synthetic suite beats the baseline --------


def test_criterion_7_snapshot_dependence_and_synthetic_advantage():
    text = README.read_text(encoding="utf-8")
    for marker in ("526", "335", "0.6", "0.008", "0.014", "0.99", "0.42"):
        assert marker in text, f"README lacks the dataset-scale number {marker}"
    assert "not asserted" in text

    suite = [
        BinarySeries(
            f"sim{seed:03d}",
            tuple(autologistic.simulate((-1.5, 3.0), 60, random.Random(seed))),
        )
        for seed in range(40)
    ]
    result = autologistic.run_experiment(suite)
    assert set(result.summaries) == {5, 10}
    for t, summary in sorted(result.summaries.items()):
        assert summary.packages >= 30
        assert summary.accuracy > summary.naive_accuracy
    gaps = {
        t: round(s.accuracy - s.naive_accuracy, 3)
        for t, s in sorted(result.summaries.items())
    }
    ok(
        "7/8 snapshot dependence stated in README; synthetic persistent suite "
        f"beats the naive baseline strictly (accuracy gaps {gaps})"
    )


# -- 8: version total-order laws ----------------------------------------------


def test_criterion_8_version_total_order_laws():
    rng = random.Random(8)
    triples = 0
    for _ in range(10_000):
        a, b, c = (
            parse_version(random_version_text(rng)),
            parse_version(random_version_text(rng)),
            parse_version(random_version_text(rng)),
        )
        ab, ba = compare(a, b), compare(b, a)
        assert ab == -ba
        assert (a == b) == (ab == 0)
        # Totality: exactly one of <, ==, > holds.
        assert sum([a < b, a == b, a > b]) == 1
        # Transitivity over the sorted triple.
        lo, mid, hi = sorted([a, b, c])
        assert compare(lo, mid) <= 0 and compare(mid, hi) <= 0
        assert compare(lo, hi) <= 0
        triples += 1
    assert triples == 10_000
    assert parse_version("1.6.2") < parse_version("1.6.10")
    assert parse_version("1.0rc1") < parse_version("1.0")
    assert parse_version("1.0") == parse_version("1.0.0")
    ok(f"8/8 version order: {triples} random triples satisfy the total-order laws")
