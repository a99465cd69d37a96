"""Independent forecast pipeline used to precompute expected outputs.

The numerics here deliberately avoid the package's own estimation and
vectorization code: affected vectors come from direct per-release
comparison, fits use scipy's BFGS, and eligibility, selection, scoring,
and summaries are recomputed from their documented behavior.  Only the
version order (tested separately by example and law suites) and the
output format conventions (key names, six-decimal rounding, sorted
keys) are shared, so byte-for-byte agreement is a meaningful check of
everything in between.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

from oracles import reference_mle, satisfies
from vulnseries.versions import Version, compare, parse_version

OPS = ("<=", ">=", "==", "!=", "<", ">")
HORIZONS = (5, 10)
MIN_RELEASES = 25
MIN_STD = 0.25
MAX_ORDER_FRACTION = 0.1
AIC_MARGIN = 4.0
TIE_VALUE = 1
SANE_COEFFICIENT = 25.0


def parse_clause(text: str) -> list[tuple[str, Version]]:
    constraints = []
    for token in text.split(","):
        tok = token.strip()
        op = next((o for o in OPS if tok.startswith(o)), None)
        if op is None:
            constraints.append(("==", parse_version(tok)))
        else:
            constraints.append((op, parse_version(tok[len(op):].strip())))
    return constraints


def binary_series(entries: list[dict], releases: list[dict]) -> list[int] | None:
    """Recompute one package's series by direct constraint evaluation."""
    versions = [parse_version(row["version"]) for row in releases]
    if not versions:
        return None
    total = [0] * len(versions)
    any_advisory = False
    for entry in entries:
        specs = entry.get("specs")
        if not isinstance(specs, list) or not specs:
            continue
        if not all(isinstance(s, str) for s in specs):
            continue
        marks = [0] * len(versions)
        any_clause = False
        for spec in specs:
            clause = parse_clause(spec)
            boundaries_present = all(
                any(compare(v, boundary) == 0 for v in versions)
                for _, boundary in clause
            )
            if not boundaries_present:
                continue
            any_clause = True
            for i, v in enumerate(versions):
                if all(satisfies(op, v, boundary) for op, boundary in clause):
                    marks[i] = 1
        if any_clause:
            any_advisory = True
            total = [a + b for a, b in zip(total, marks)]
    if not any_advisory:
        return None
    return [1 if c > 0 else 0 for c in total]


def population_std(values: list[int]) -> float:
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def lag_design(values: list[int], order: int, start: int):
    responses = values[start:]
    rows = [
        [values[i - k] for k in range(1, order + 1)]
        for i in range(start, len(values))
    ]
    return responses, rows


def fit_aic(values: list[int], order: int, start: int) -> tuple[float, list[float]]:
    responses, rows = lag_design(values, order, start)
    beta, loglik = reference_mle(responses, rows)
    peak = max(abs(b) for b in beta)
    if peak > SANE_COEFFICIENT:
        raise AssertionError(
            f"reference fit wandered to |beta|={peak:.1f}; fixture is degenerate"
        )
    return 2.0 * (order + 1) - 2.0 * loglik, list(beta)


def select(values: list[int]) -> tuple[int, dict[int, float]]:
    cap = math.floor(len(values) * MAX_ORDER_FRACTION)
    aics = {}
    for order in range(1, cap + 1):
        aics[order], _ = fit_aic(values, order, cap)
    floor_aic = min(aics.values())
    selected = min(k for k, v in aics.items() if v <= floor_aic + AIC_MARGIN)
    return selected, aics


def eligibility_std(values: list[int], t: int, order: int) -> float:
    window = len(values) - (t + order)
    return population_std(values[:window])


def forecast_report(package: str, values: list[int], t: int, order: int) -> dict:
    r = len(values)
    _, beta = fit_aic(values[: r - t], order, order)
    probs = []
    actuals = []
    for i in range(r - t, r):
        eta = beta[0] + sum(beta[k] * values[i - k] for k in range(1, order + 1))
        probs.append(1.0 / (1.0 + math.exp(-eta)))
        actuals.append(values[i])
    abs_errors = [abs(a - p) for a, p in zip(actuals, probs)]
    accuracy = sum(1 for p, a in zip(probs, actuals) if (p >= 0.5) == bool(a)) / t
    training = values[: r - t]
    ones = sum(training)
    if 2 * ones > len(training):
        majority = 1
    elif 2 * ones < len(training):
        majority = 0
    else:
        majority = TIE_VALUE
    naive = sum(1 for v in values[r - t:] if v == majority) / t
    return {
        "package": package,
        "t": t,
        "order": order,
        "abs_errors": abs_errors,
        "mean_abs_error": statistics.fmean(abs_errors),
        "median_abs_error": statistics.median(abs_errors),
        "max_abs_error": max(abs_errors),
        "accuracy": accuracy,
        "naive_accuracy": naive,
        "converged": True,
        "flags": [],
    }


def corpus_series(db_path, snapshot_path) -> dict[str, list[int]]:
    db = json.loads(Path(db_path).read_bytes().decode("utf-8"))
    snapshot = json.loads(Path(snapshot_path).read_bytes().decode("utf-8"))
    histories = snapshot["histories"]
    out = {}
    for package in sorted(k for k in db if not k.startswith("$")):
        entries = [e for e in db[package] if isinstance(e, dict)]
        releases = histories.get(package)
        if not releases:
            continue
        series = binary_series(entries, releases)
        if series is not None:
            out[package] = series
    return out


def build_document(db_path, snapshot_path) -> bytes:
    """The full forecast document, serialized with the shared conventions."""
    series_by_package = corpus_series(db_path, snapshot_path)
    reports = []
    exclusions = []
    order_rows = []
    for package in sorted(series_by_package):
        values = series_by_package[package]
        r = len(values)
        if r < MIN_RELEASES:
            exclusions.append(
                {"package": package, "t": None, "reason": "too-few-releases", "detail": f"r={r}"}
            )
            continue
        order, aics = select(values)
        order_rows.append(
            {
                "package": package,
                "order": order,
                "aics": {str(k): v for k, v in sorted(aics.items())},
            }
        )
        for t in HORIZONS:
            std = eligibility_std(values, t, order)
            if std < MIN_STD:
                exclusions.append(
                    {
                        "package": package,
                        "t": t,
                        "reason": "low-training-variance",
                        "detail": f"std={std:.4f}",
                    }
                )
                continue
            reports.append(forecast_report(package, values, t, order))
    summaries = []
    by_horizon: dict[int, list[dict]] = {}
    for report in reports:
        by_horizon.setdefault(report["t"], []).append(report)
    for t in sorted(by_horizon):
        group = by_horizon[t]
        summaries.append(
            {
                "t": t,
                "packages": len(group),
                "mean_abs_error": statistics.fmean(g["mean_abs_error"] for g in group),
                "median_abs_error": statistics.fmean(g["median_abs_error"] for g in group),
                "max_abs_error": statistics.fmean(g["max_abs_error"] for g in group),
                "accuracy": statistics.fmean(g["accuracy"] for g in group),
                "naive_accuracy": statistics.fmean(g["naive_accuracy"] for g in group),
            }
        )
    doc = {
        "meta": {
            "command": "forecast",
            "horizons": list(HORIZONS),
            "min_releases": MIN_RELEASES,
            "min_std": MIN_STD,
            "max_order_fraction": MAX_ORDER_FRACTION,
            "aic_margin": AIC_MARGIN,
            "ridge": False,
            "full_sample": False,
            "tie_value": TIE_VALUE,
            "strict": False,
        },
        "reports": [
            {k: v for k, v in report.items() if k != "abs_errors"}
            for report in reports
        ],
        "abs_errors": {
            f"{report['package']}@{report['t']}": report["abs_errors"]
            for report in reports
        },
        "summaries": summaries,
        "exclusions": exclusions,
        "orders": order_rows,
    }
    if not reports:
        doc["note"] = "no package passed the eligibility filters"
    return (json.dumps(_rounded(doc), sort_keys=True, indent=2) + "\n").encode("utf-8")


def _rounded(value):
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    return value
