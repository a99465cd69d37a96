"""Command-line pipeline: ingest, build, markov, forecast.

Exit codes: 0 success (warnings allowed), 1 usage error, 2 data error
(malformed database, snapshot, or spec), 3 environment error (network,
missing files, IO).  Outputs are deterministic: floats are rounded to
six decimals, JSON has the bytes of ``json.dumps(sort_keys=True, indent=2)``,
and --no-timestamp drops the timestamp so identical inputs give identical bytes.

Experiment constants are flags defaulting to :mod:`autologistic`'s
constants.  Each flag is declared once, in :func:`build_parser`: its
``type=`` converter validates it, the parsed namespace is the run
configuration, and a subcommand takes only the flags its handler reads.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Sequence

from . import autologistic, markov, registry, safetydb, vectorize
from .errors import AttritionRecord, SnapshotNotFoundError, VulnseriesError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ENVIRONMENT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.prog}: {message}")


# -- output helpers ------------------------------------------------------


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's spellings


def _json_text(value, depth: int = 0) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes it, each
    float rounded to six decimals first, without ``json``'s pure-Python encoder."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if isinstance(value, bool):  # before int, which bool subclasses
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(round(value, 6))  # round on the value: numpy scalars differ
        return _NON_FINITE.get(text, text)
    if isinstance(value, dict):
        brackets = "{}"
        items = [
            f"{encode_basestring_ascii(key)}: {_json_text(item, depth + 1)}"
            for key, item in sorted(value.items())
        ]
    elif isinstance(value, (list, tuple)):
        brackets, items = "[]", [_json_text(item, depth + 1) for item in value]
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}\n{'  ' * depth}{brackets[1]}"


def _emit(text: str, path: str | None) -> None:
    if path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_json(doc: dict, args: argparse.Namespace, path: str | None) -> None:
    if not args.no_timestamp:
        doc = {**doc, "generated_at": datetime.now(timezone.utc).isoformat()}
    _emit(_json_text(doc) + "\n", path)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(round(value, 6))
    if isinstance(value, (list, tuple)):
        return " ".join(_csv_cell(v) for v in value)
    return str(value)


def _write_csv(
    fieldnames: Sequence[str],
    rows: Sequence[dict],
    args: argparse.Namespace,
    path: str | None,
) -> None:
    buffer = io.StringIO()
    if not args.no_timestamp:
        buffer.write(f"# generated_at {datetime.now(timezone.utc).isoformat()}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_csv_cell(row.get(name)) for name in fieldnames])
    _emit(buffer.getvalue(), path)


def _write_outputs(args: argparse.Namespace, doc: dict, table: tuple, *sides: tuple) -> None:
    """Write ``doc`` (``--format json``) or the main ``(columns, rows)``
    table (``csv``) to ``--out``, then each requested ``(path, columns,
    rows)`` side table as CSV in either format."""
    if args.format == "json":
        _write_json(doc, args, args.out)
    else:
        _write_csv(*table, args, args.out)
    for path, columns, rows in sides:
        if path:
            _write_csv(columns, rows, args, path)


# One column tuple per output table: the JSON row keys and the CSV header.
_ATTRITION_COLUMNS = ("package", "advisory_id", "reason", "detail")
_ATTRITION_KINDS = ("clause_drops", "advisory_drops", "package_drops", "flags")
_CORPUS_COLUMNS = ("package", "r", "m", "w", "counts")
_MARKOV_COLUMNS = ("package", "r", "p_uncond", "p_11", "p_00", "p_11_defined", "p_00_defined")
_STAT_COLUMNS = ("metric", "n", "mean", "median", "q1", "q3", "min", "max")
_HISTOGRAM_COLUMNS = ("metric", "bin_left", "bin_right", "count")
_REPORT_COLUMNS = (
    "package",
    "t",
    "order",
    "mean_abs_error",
    "median_abs_error",
    "max_abs_error",
    "accuracy",
    "naive_accuracy",
    "converged",
    "flags",
)
_SUMMARY_COLUMNS = (
    "t",
    "packages",
    "mean_abs_error",
    "median_abs_error",
    "max_abs_error",
    "accuracy",
    "naive_accuracy",
)
_EXCLUSION_COLUMNS = ("package", "t", "reason", "detail")


def _rows(records, columns: Sequence[str]) -> list[dict]:
    return [{name: getattr(record, name) for name in columns} for record in records]


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


# -- shared loading ------------------------------------------------------


def _entry(record: AttritionRecord) -> str:
    """``package/advisory-id``, or the package alone when there is no id."""
    if record.advisory_id is None:
        return record.package
    return f"{record.package}/{record.advisory_id}"


def _load_db(args: argparse.Namespace) -> safetydb.DatabaseLoadResult:
    result = safetydb.load_database_path(args.db)
    for record in result.skipped:
        _warn(f"skipped {_entry(record)}: {record.reason} ({record.detail})")
    for record in result.warnings:
        _warn(f"{_entry(record)}: {record.reason} ({record.detail})")
    return result


def _filter_packages(
    db: safetydb.DatabaseLoadResult, packages: Sequence[str] | None
) -> dict[str, tuple[safetydb.Advisory, ...]]:
    if packages is None:
        return dict(db.advisories)
    wanted = set(packages)
    for name in sorted(wanted.difference(db.advisories)):
        _warn(f"--packages names {name!r}, which has no advisory in the database")
    return {name: adv for name, adv in db.advisories.items() if name in wanted}


def _load_corpus(args: argparse.Namespace) -> vectorize.Corpus:
    db = _load_db(args)
    histories = registry.load_snapshot(args.snapshot)
    advisories = _filter_packages(db, args.packages)
    return vectorize.build_corpus(advisories, histories, strict=args.strict)


# -- commands ------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace, transport=None) -> int:
    db = _load_db(args)
    packages = sorted(_filter_packages(db, args.packages))
    client = registry.PyPIClient(
        transport=transport,
        cache_dir=args.cache,
        offline=args.offline,
        workers=args.workers,
    )
    histories, warnings, failures = client.fetch_many(packages)
    for line in warnings:
        _warn(line)
    hard = [f for f in failures if f.reason in ("transport", "offline-miss")]
    payload_bad = [f for f in failures if f.reason == "bad-payload"]
    for failure in failures:
        _warn(f"{failure.package}: {failure.reason} ({failure.detail})")
    if hard:
        print(
            f"error: {len(hard)} packages unreachable; snapshot not written",
            file=sys.stderr,
        )
        return EXIT_ENVIRONMENT
    if payload_bad:
        print(
            f"error: {len(payload_bad)} malformed payloads; snapshot not written",
            file=sys.stderr,
        )
        return EXIT_DATA
    registry.save_snapshot(args.snapshot, histories)
    missing = len(failures) - len(hard) - len(payload_bad)
    print(
        f"ingest: {len(histories)} histories written to {args.snapshot}"
        f" ({missing} packages missing from the index)"
    )
    return EXIT_OK


def _attrition_doc(report: vectorize.AttritionReport) -> dict:
    doc = {kind: _rows(getattr(report, kind), _ATTRITION_COLUMNS) for kind in _ATTRITION_KINDS}
    doc["counts"] = {kind: len(doc[kind]) for kind in _ATTRITION_KINDS}
    return doc


def cmd_build(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args)
    rows = vectorize.corpus_rows(corpus)
    attrition = _attrition_doc(corpus.attrition)
    attrition_rows = [row for kind in _ATTRITION_KINDS for row in attrition[kind]]
    meta = {"command": "build", "strict": args.strict}
    doc = {"meta": meta, "corpus": rows, "attrition": attrition}
    side = (args.attrition_out, _ATTRITION_COLUMNS, attrition_rows)
    _write_outputs(args, doc, (_CORPUS_COLUMNS, rows), side)
    counts = attrition["counts"]
    print(
        f"build: {len(rows)} packages kept; dropped {counts['advisory_drops']} "
        f"advisories and {counts['package_drops']} packages",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_markov(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args)
    series = corpus.series()
    if series:
        summary = markov.corpus_summary(series, alpha=args.alpha)
        records = _rows(summary.records, _MARKOV_COLUMNS)
        stat_rows = [{"metric": metric, **row} for metric, row in summary.stats.items()]
        histogram_rows = [
            {"metric": metric, "bin_left": left, "bin_right": right, "count": count}
            for metric, bins in sorted(summary.histograms.items())
            for left, right, count in bins
        ]
        body = {"stats": summary.stats, "histograms": histogram_rows}
    else:
        records, stat_rows, histogram_rows = [], [], []
        body = {"note": "corpus is empty"}
    meta = {"command": "markov", "alpha": args.alpha, "strict": args.strict}
    _write_outputs(
        args,
        {"meta": meta, "records": records, **body},
        (_MARKOV_COLUMNS, records),
        (args.summary_out, _STAT_COLUMNS, stat_rows),
        (args.histogram_out, _HISTOGRAM_COLUMNS, histogram_rows),
    )
    return EXIT_OK


def cmd_forecast(args: argparse.Namespace) -> int:
    corpus = _load_corpus(args)
    result = autologistic.run_experiment(
        corpus.series(),
        horizons=args.t,
        min_releases=args.min_releases,
        min_std=args.min_std,
        max_order_fraction=args.max_order_frac,
        parsimony_margin=args.aic_margin,
        ridge_fallback=args.ridge,
        full_sample=args.full_sample,
        tie_value=args.tie,
    )
    report_rows = _rows(result.reports, _REPORT_COLUMNS)
    summary_rows = _rows(result.summaries.values(), _SUMMARY_COLUMNS)
    exclusion_rows = _rows(result.exclusions, _EXCLUSION_COLUMNS)
    order_rows = [
        {
            "package": package,
            "order": sel.order,
            "aics": {str(k): v for k, v in sorted(sel.aics.items())},
        }
        for package, sel in sorted(result.orders.items())
    ]
    doc = {
        "meta": {
            "command": "forecast",
            "horizons": list(args.t),
            "min_releases": args.min_releases,
            "min_std": args.min_std,
            "max_order_fraction": args.max_order_frac,
            "aic_margin": args.aic_margin,
            "ridge": args.ridge,
            "full_sample": args.full_sample,
            "tie_value": args.tie,
            "strict": args.strict,
        },
        "reports": report_rows,
        "abs_errors": {
            f"{rep.package}@{rep.t}": list(rep.abs_errors) for rep in result.reports
        },
        "summaries": summary_rows,
        "exclusions": exclusion_rows,
        "orders": order_rows,
    }
    if not result.reports:
        doc["note"] = "no package passed the eligibility filters"
    side = (args.summary_out, _SUMMARY_COLUMNS, summary_rows)
    _write_outputs(args, doc, (_REPORT_COLUMNS, report_rows), side)
    kept = len(result.reports)
    print(
        f"forecast: {kept} package-horizon reports, {len(exclusion_rows)} exclusions",
        file=sys.stderr,
    )
    return EXIT_OK


# -- argument parsing ----------------------------------------------------


def _names(text: str) -> tuple[str, ...]:
    """Split a comma-separated list, dropping blank entries."""
    return tuple(token.strip() for token in text.split(",") if token.strip())


def _checked(convert: Callable, accept: Callable, requirement: str) -> Callable:
    """A ``type=`` converter: ``convert`` the text, then insist on ``accept``."""

    def parse(text: str):
        try:
            value = convert(text)
            ok = accept(value)
        except ValueError:
            ok = False
        if not ok:
            raise argparse.ArgumentTypeError(f"{text!r} is not {requirement}")
        return value

    return parse


_positive_int = _checked(int, lambda n: n >= 1, "a positive integer")
_non_negative = _checked(
    float, lambda x: math.isfinite(x) and x >= 0, "a finite non-negative number"
)
_fraction = _checked(float, lambda x: 0 < x <= 1, "a fraction in (0, 1]")
_path = _checked(str, bool, "a non-empty path")
_package_names = _checked(_names, bool, "a list of one or more package names")
_horizons = _checked(
    lambda text: tuple(int(token) for token in _names(text)),
    lambda ts: ts and min(ts) >= 1 and len(set(ts)) == len(ts),
    "a list of distinct positive integers",
)


def _add_inputs(parser: argparse.ArgumentParser) -> None:
    """The inputs every subcommand reads."""
    parser.add_argument("--db", required=True, type=_path, help="advisory database JSON file")
    parser.add_argument("--snapshot", required=True, type=_path, help="release snapshot file")
    parser.add_argument("--packages", type=_package_names, help="comma-separated package filter")
    parser.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the generation timestamp for byte-identical reruns",
    )


def _add_document(parser: argparse.ArgumentParser) -> None:
    """The inputs, plus the output flags of the document commands."""
    _add_inputs(parser)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", help="primary output file (default stdout)")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="match boundary versions by exact string instead of canonical equality",
    )


def build_parser(transport=None) -> _Parser:
    """The CLI parser; each subcommand stores its handler as ``run``.

    ``transport`` is the index transport ``ingest`` fetches with (None
    for the network).
    """
    parser = _Parser(prog="vulnseries", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser("ingest", help="fetch release histories into a snapshot")
    _add_inputs(ingest)
    ingest.add_argument("--cache", help="payload cache directory")
    ingest.add_argument("--offline", action="store_true", help="serve from cache only")
    ingest.add_argument("--workers", type=_positive_int, default=4)
    ingest.set_defaults(run=functools.partial(cmd_ingest, transport=transport))

    build = commands.add_parser("build", help="build the per-package binary series corpus")
    _add_document(build)
    build.add_argument("--attrition-out", help="CSV file for attrition records")
    build.set_defaults(run=cmd_build)

    markov_cmd = commands.add_parser("markov", help="probability and transition summary")
    _add_document(markov_cmd)
    markov_cmd.add_argument("--alpha", type=_non_negative, default=0.0, help="add-alpha smoothing")
    markov_cmd.add_argument("--summary-out", help="CSV file for distribution statistics")
    markov_cmd.add_argument("--histogram-out", help="CSV file for histogram bins")
    markov_cmd.set_defaults(run=cmd_markov)

    forecast = commands.add_parser("forecast", help="run the release-forecast experiment")
    _add_document(forecast)
    forecast.add_argument(
        "--t", type=_horizons, default=autologistic.HORIZONS, help="comma-separated horizons"
    )
    forecast.add_argument("--min-releases", type=_positive_int, default=autologistic.MIN_RELEASES)
    forecast.add_argument("--min-std", type=_non_negative, default=autologistic.MIN_STD)
    forecast.add_argument(
        "--max-order-frac", type=_fraction, default=autologistic.MAX_ORDER_FRACTION
    )
    forecast.add_argument(
        "--aic-margin",
        type=_non_negative,
        default=autologistic.PARSIMONY_MARGIN,
        help="orders within this AIC gap of the minimum count as tied (smallest wins)",
    )
    forecast.add_argument("--ridge", action="store_true", help="enable the ridge fallback")
    forecast.add_argument(
        "--full-sample",
        action="store_true",
        help="fit coefficients on the whole series instead of the training prefix",
    )
    forecast.add_argument(
        "--tie", type=int, choices=(0, 1), default=autologistic.TIE_VALUE, help="naive tie value"
    )
    forecast.add_argument("--summary-out", help="CSV file for the summary table")
    forecast.set_defaults(run=cmd_forecast)
    return parser


def main(argv: Sequence[str] | None = None, transport=None) -> int:
    """Entry point; returns the exit code instead of raising SystemExit."""
    parser = build_parser(transport)
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)
    except (SnapshotNotFoundError, OSError) as exc:
        print(f"environment error: {exc}", file=sys.stderr)
        return EXIT_ENVIRONMENT
    except VulnseriesError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
