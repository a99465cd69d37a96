"""Spans around the program's public functions, and the per-layer metrics.

A :class:`Tracer` replaces public functions at their module attributes
for the length of one pipeline pass and puts the originals back
afterwards, so the program itself is never edited.  Every call becomes
a span (name, start, end, parent, run id); spans are kept in memory and
written out when the benchmark ends.  ``parse_version`` is called tens
of thousands of times per pass, so it is counted and timed without a
span.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import threading
import time
from collections import Counter
from statistics import fmean, median, quantiles

COMMANDS = ("ingest_cold", "ingest_warm", "build", "markov", "forecast")

# Count metrics: each is a total over one pipeline pass and repeats
# exactly for a given seed.
COUNTS = (
    "versions.parse_calls",
    "safetydb.advisories",
    "safetydb.skipped",
    "registry.releases_loaded",
    "registry.transport_calls",
    "registry.fetch_failures",
    "registry.snapshot_bytes",
    "vectorize.clauses_filled",
    "vectorize.cells_filled",
    "vectorize.clause_drops",
    "vectorize.advisory_drops",
    "vectorize.package_drops",
    "markov.packages",
    "autologistic.fits",
    "autologistic.skipped_orders",
    "autologistic.design_cells",
    "autologistic.reports",
    "autologistic.exclusions",
    "autologistic.flagged_fits",
    "cli.output_bytes",
    "cli.warning_lines",
)

# Span totals, in seconds, by the traced function they come from.
_SPAN_TIMES = {
    "safetydb.load_database_s": "safetydb.load_database_path",
    "registry.load_snapshot_s": "registry.load_snapshot",
    "registry.fetch_many_s": "registry.PyPIClient.fetch_many",
    "registry.save_snapshot_s": "registry.save_snapshot",
    "vectorize.build_corpus_s": "vectorize.build_corpus",
    "markov.corpus_summary_s": "markov.corpus_summary",
    "autologistic.select_order_s": "autologistic.select_order",
    "autologistic.forecast_calls_s": "autologistic.forecast",
}


def _layer(owner) -> str:
    """"registry" for the module vulnseries.registry, "registry.PyPIClient" for its class."""
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}"
    return owner.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Spans and counters for one traced pipeline pass."""

    def __init__(self, program) -> None:
        self.program = program
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: Counter = Counter()
        self.fit_iterations: list[int] = []
        self.candidate_aics = 0
        self.selections: dict = {}
        self.reports: dict = {}
        self.run: str | None = None
        self._tallies: list[list] = []  # per thread: [parse calls, seconds, legacy]
        self._local = threading.local()
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._owner = threading.get_ident()

    # -- wrappers --------------------------------------------------------

    def _parent(self) -> int | None:
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if stack:
            return stack[-1]
        # A worker thread's first span belongs to the span that started it.
        owner = self._stacks.get(self._owner)
        return owner[-1] if owner else None

    def _span(self, name: str, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._parent()
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0, parent, tracer.run])
            stack = tracer._stacks[threading.get_ident()]
            stack.append(index)
            result, error = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index][1:3] = [start, end]
                if observe is not None:
                    with tracer._lock:
                        observe(args, kwargs, result, error)

        return traced

    def _counted(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(text):
            start = time.perf_counter()
            result = fn(text)
            elapsed = time.perf_counter() - start
            # One tally per thread keeps a lock out of this hot path.
            tally = getattr(tracer._local, "tally", None)
            if tally is None:
                tally = tracer._local.tally = [0, 0.0, 0]
                with tracer._lock:
                    tracer._tallies.append(tally)
            tally[0] += 1
            tally[1] += elapsed
            tally[2] += result.legacy
            return result

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Wrap the public functions at their module attributes, then restore them."""
        p = self.program
        spans = [
            (p.safetydb, "load_database_path", self._database),
            (p.registry, "load_snapshot", self._snapshot),
            (p.registry, "save_snapshot", self._saved),
            (p.registry, "order_history", None),
            (p.registry.PyPIClient, "fetch_many", self._fetched),
            (p.vectorize, "build_corpus", self._corpus),
            (p.markov, "corpus_summary", self._summary),
            (p.autologistic, "run_experiment", self._experiment),
            (p.autologistic, "select_order", self._selection),
            (p.autologistic, "fit", self._fit),
            (p.autologistic, "forecast", self._forecast),
            (p.cli, "main", None),
        ]
        targets = [(p.registry, "parse_version", self._counted), (p.safetydb, "parse_version", self._counted)]
        targets += [
            (owner, attr, functools.partial(self._span, f"{_layer(owner)}.{attr}", observe=observe))
            for owner, attr, observe in spans
        ]
        saved = []
        try:
            for owner, attr, wrap in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, wrap(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- observers: counts at the same boundaries as the spans -------------

    def _database(self, args, kwargs, result, error):
        if result is not None:
            self.counts["safetydb.advisories"] += result.advisory_count
            self.counts["safetydb.skipped"] += len(result.skipped)

    def _snapshot(self, args, kwargs, result, error):
        if result is not None:
            self.counts["registry.releases_loaded"] += sum(len(h) for h in result.values())

    def _saved(self, args, kwargs, result, error):
        if error is None:
            self.counts["registry.snapshot_bytes"] += os.path.getsize(args[0])

    def _fetched(self, args, kwargs, result, error):
        self.counts["registry.fetch_requests"] += len(args[1])
        if result is not None:
            self.counts["registry.fetch_failures"] += len(result[2])

    def _corpus(self, args, kwargs, result, error):
        if result is None:
            return
        advisories, histories = args[0], args[1]
        report = result.attrition
        dropped = Counter(rec.package for rec in report.clause_drops)
        for package, entries in advisories.items():
            history = histories.get(package)
            if history is None or not len(history):
                continue
            filled = sum(len(a.clauses) for a in entries) - dropped[package]
            self.counts["vectorize.clauses_filled"] += filled
            self.counts["vectorize.cells_filled"] += filled * len(history)
        self.counts["vectorize.clause_drops"] += len(report.clause_drops)
        self.counts["vectorize.advisory_drops"] += len(report.advisory_drops)
        self.counts["vectorize.package_drops"] += len(report.package_drops)

    def _summary(self, args, kwargs, result, error):
        if result is not None:
            self.counts["markov.packages"] += len(result.records)

    def _experiment(self, args, kwargs, result, error):
        if result is not None:
            self.counts["autologistic.reports"] += len(result.reports)
            self.counts["autologistic.exclusions"] += len(result.exclusions)

    def _selection(self, args, kwargs, result, error):
        # Candidate orders 1..cap are all fitted on the responses after
        # the first cap values: n = r - cap rows, k + 1 columns.
        r = len(args[0].values)
        cap = math.floor(kwargs.get("max_order_fraction", 0.1) * r)
        if cap >= 1:
            self.counts["autologistic.design_cells"] += (r - cap) * (cap * (cap + 1) // 2 + cap)
        if result is None:
            self.counts["autologistic.skipped_orders"] += cap
            return
        self.selections[args[0].package] = result
        self.counts["autologistic.skipped_orders"] += len(result.skipped)
        self.candidate_aics += len(result.aics)

    def _fit(self, args, kwargs, result, error):
        self.counts["autologistic.fits"] += 1
        if result is not None:
            self.fit_iterations.append(result.iterations)
            flagged = result.ridge or result.separation_detected
        else:
            flagged = isinstance(error, self.program.errors.SeparationError)
        self.counts["autologistic.flagged_fits"] += flagged

    def _forecast(self, args, kwargs, result, error):
        if result is not None:
            self.reports[(result.package, result.t)] = result

    # -- metrics ---------------------------------------------------------

    def _total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def self_times(self) -> dict[str, float]:
        """Each CLI command's span minus its child spans.

        The children of ``cli.main`` run one after another on the main
        thread (worker-thread spans belong to ``fetch_many``), so their
        durations add up without overlap.
        """
        children: Counter = Counter()
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        out = {}
        for index, (name, start, end, _, run) in enumerate(self.spans):
            if name == "cli.main":
                command = run.rsplit("/", 1)[-1]
                out[f"cli.{command}_self_s"] = (end - start) - children[index]
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass (transport calls and CLI I/O are added by the caller)."""
        c = self.counts
        calls, parse_s, legacy = (sum(t[i] for t in self._tallies) for i in range(3))
        c["versions.parse_calls"] = calls
        m: dict[str, float] = {name: c[name] for name in COUNTS}
        for metric, span in _SPAN_TIMES.items():
            m[metric] = self._total(span)
        m["versions.parse_us_per_call"] = 1e6 * parse_s / calls if calls else 0.0
        m["versions.legacy_frac"] = legacy / calls if calls else 0.0
        select_ms = [1e3 * (s[2] - s[1]) for s in self.spans if s[0] == "autologistic.select_order"]
        m["autologistic.select_order_ms_p50"] = median(select_ms) if select_ms else 0.0
        m["autologistic.select_order_ms_p90"] = (
            quantiles(select_ms, n=10)[8] if len(select_ms) >= 2 else sum(select_ms)
        )
        fit_s = self._total("autologistic.fit")
        m["autologistic.fits_per_s"] = c["autologistic.fits"] / fit_s if fit_s else 0.0
        m["autologistic.fit_iterations_mean"] = fmean(self.fit_iterations) if self.fit_iterations else 0.0
        candidates = self.candidate_aics + c["autologistic.skipped_orders"]
        m["autologistic.usable_fit_frac"] = self.candidate_aics / candidates if candidates else 0.0
        requests = c["registry.fetch_requests"]
        m["registry.cache_hit_frac"] = (
            (requests - m["registry.transport_calls"]) / requests if requests else 0.0
        )
        m.update(self.self_times())
        return m

    def span_rows(self, label: str) -> list[dict]:
        """Spans as records for the trace file."""
        return [
            {
                "id": f"{label}:{i}",
                "parent": None if parent is None else f"{label}:{parent}",
                "name": name,
                "start": start,
                "end": end,
                "run": run,
            }
            for i, (name, start, end, parent, run) in enumerate(self.spans)
        ]
