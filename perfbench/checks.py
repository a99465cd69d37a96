"""Output checks against the planted truth of a workload.

Each check takes a command's output and returns a list of problems;
an empty list means the output is correct.  The expected values are
recomputed here from the generator's planted series, never taken from
the program.
"""

from __future__ import annotations

import json
import math
import statistics

from workloads import Inputs

HORIZONS = (5, 10)
MIN_RELEASES = 25
MIN_STD = 0.25
MAX_ORDER_FRACTION = 0.1
AIC_MARGIN = 4.0
TOL = 2e-6  # two six-decimal roundings


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= TOL


def _first_difference(got: list, want: list, key: str) -> str:
    if len(got) != len(want):
        return f"{len(got)} rows, expected {len(want)}"
    for g, w in zip(got, want):
        if g != w:
            return f"row {w.get(key)!r}: got {g!r}, expected {w!r}"
    return "rows differ"


def ingest(snapshot: bytes, inputs: Inputs) -> list[str]:
    """The written snapshot holds every found package's history in true order."""
    try:
        doc = json.loads(snapshot)
    except ValueError as exc:
        return [f"snapshot is not JSON: {exc}"]
    want = inputs.snapshot()
    if doc == want:
        return []
    got = doc.get("histories", {}) if isinstance(doc, dict) else {}
    for name, rows in want["histories"].items():
        if got.get(name) != rows:
            return [f"history of {name} differs from the planted release order"]
    return ["snapshot differs from the planted histories"]


def build(doc: dict, inputs: Inputs) -> list[str]:
    """Series, counts and attrition equal the planted ones."""
    problems = []
    want = inputs.corpus()
    if doc.get("corpus") != want:
        problems.append("corpus: " + _first_difference(doc.get("corpus", []), want, "package"))
    counts = doc.get("attrition", {}).get("counts", {})
    for name, value in inputs.attrition().items():
        if counts.get(name) != value:
            problems.append(f"attrition {name}: got {counts.get(name)}, expected {value}")
    return problems


def _transitions(series: str) -> tuple[float | None, float | None]:
    table = [[0, 0], [0, 0]]
    for a, b in zip(series, series[1:]):
        table[int(a)][int(b)] += 1
    p_00 = table[0][0] / sum(table[0]) if sum(table[0]) else None
    p_11 = table[1][1] / sum(table[1]) if sum(table[1]) else None
    return p_00, p_11


def markov(doc: dict, inputs: Inputs) -> list[str]:
    """Per-package probabilities equal means and transition shares recomputed here."""
    records = {rec["package"]: rec for rec in doc.get("records", [])}
    corpus = inputs.corpus()
    if len(records) != len(corpus):
        return [f"{len(records)} records, expected {len(corpus)}"]
    for row in corpus:
        rec = records.get(row["package"])
        w = row["w"]
        p_00, p_11 = _transitions(w) if len(w) >= 2 else (None, None)
        want = (len(w), w.count("1") / len(w), p_00, p_11)
        if rec is None:
            return [f"{row['package']}: missing record"]
        got = (rec["r"], rec["p_uncond"], rec["p_00"], rec["p_11"])
        if got[0] != want[0] or not all(_close(g, x) for g, x in zip(got[1:], want[1:])):
            return [f"{row['package']}: got {got}, expected {want}"]
    return []


def _naive(values: list[int], t: int) -> float:
    training = values[: len(values) - t]
    ones = sum(training)
    majority = 1 if 2 * ones >= len(training) else 0
    return sum(1 for v in values[len(values) - t :] if v == majority) / t


def _eligible(values: list[int], t: int, order: int) -> str | None:
    window = len(values) - (t + order)
    if window < 1:
        return "no-training-data"
    training = values[:window]
    mean = sum(training) / window
    std = math.sqrt(sum((v - mean) ** 2 for v in training) / window)
    return "low-training-variance" if std < MIN_STD else None


def forecast(doc: dict, inputs: Inputs) -> list[str]:
    """Exclusions, order choices and baselines follow from the planted series.

    Fitted probabilities cannot be recomputed without a second model
    implementation; they are checked against the traced calls instead.
    """
    series = {row["package"]: [int(c) for c in row["w"]] for row in inputs.corpus()}
    orders = {row["package"]: row for row in doc.get("orders", [])}
    reports = {(rep["package"], rep["t"]): rep for rep in doc.get("reports", [])}
    exclusions = {(e["package"], e["t"]): e["reason"] for e in doc.get("exclusions", [])}
    for name, values in series.items():
        r = len(values)
        if r < MIN_RELEASES:
            if exclusions.get((name, None)) != "too-few-releases":
                return [f"{name}: r={r} is not excluded as too few releases"]
            continue
        if name not in orders:
            if exclusions.get((name, None)) != "order-selection-failed":
                return [f"{name}: neither an order nor an order-selection exclusion"]
            continue
        row = orders[name]
        aics = {int(k): v for k, v in row["aics"].items()}
        cap = math.floor(MAX_ORDER_FRACTION * r)
        if not aics or not set(aics) <= set(range(1, cap + 1)):
            return [f"{name}: candidate orders {sorted(aics)} outside 1..{cap}"]
        floor = min(aics.values())
        tied = [k for k, v in aics.items() if v <= floor + AIC_MARGIN + TOL]
        clear = [k for k, v in aics.items() if v <= floor + AIC_MARGIN - TOL]
        if row["order"] not in aics or not min(tied) <= row["order"] <= min(clear):
            return [f"{name}: order {row['order']} is not the parsimonious AIC choice"]
        for t in HORIZONS:
            reason = _eligible(values, t, row["order"])
            if reason is not None:
                if exclusions.get((name, t)) != reason:
                    return [f"{name}@{t}: expected exclusion {reason}"]
                continue
            rep = reports.get((name, t))
            if rep is None:
                if exclusions.get((name, t)) != "forecast-failed":
                    return [f"{name}@{t}: eligible but neither reported nor failed"]
                continue
            errors = doc["abs_errors"].get(f"{name}@{t}", [])
            if (
                rep["order"] != row["order"]
                or len(errors) != t
                or not _close(rep["naive_accuracy"], _naive(values, t))
                or not _close(rep["mean_abs_error"], statistics.fmean(errors))
                or not _close(rep["max_abs_error"], max(errors))
                or round(rep["accuracy"] * t, 6) % 1
            ):
                return [f"{name}@{t}: report disagrees with the planted series"]
    for summary in doc.get("summaries", []):
        group = [rep for (_, t), rep in reports.items() if t == summary["t"]]
        if summary["packages"] != len(group) or not _close(
            summary["accuracy"], statistics.fmean(rep["accuracy"] for rep in group)
        ):
            return [f"summary for t={summary['t']} disagrees with the reports"]
    return []


def traced_forecast(doc: dict, selections: dict, reports: dict) -> list[str]:
    """The document agrees with the traced select_order and forecast returns."""
    orders = {row["package"]: row for row in doc.get("orders", [])}
    if set(orders) != set(selections):
        return [f"{len(orders)} order rows, {len(selections)} traced selections"]
    for name, sel in selections.items():
        row = orders[name]
        aics = {str(k): round(v, 6) for k, v in sorted(sel.aics.items())}
        if row["order"] != sel.order or row["aics"] != aics:
            return [f"{name}: order row differs from the traced select_order"]
    rows = {(rep["package"], rep["t"]): rep for rep in doc.get("reports", [])}
    if set(rows) != set(reports):
        return [f"{len(rows)} report rows, {len(reports)} traced forecasts"]
    for key, rep in reports.items():
        row = rows[key]
        want = {
            "order": rep.order,
            "mean_abs_error": round(rep.mean_abs_error, 6),
            "median_abs_error": round(rep.median_abs_error, 6),
            "max_abs_error": round(rep.max_abs_error, 6),
            "accuracy": round(rep.accuracy, 6),
            "naive_accuracy": round(rep.naive_accuracy, 6),
            "converged": rep.converged,
            "flags": list(rep.flags),
        }
        if {k: row[k] for k in want} != want:
            return [f"{key[0]}@{key[1]}: report differs from the traced forecast"]
        if doc["abs_errors"][f"{key[0]}@{key[1]}"] != [round(e, 6) for e in rep.abs_errors]:
            return [f"{key[0]}@{key[1]}: errors differ from the traced forecast"]
    return []
