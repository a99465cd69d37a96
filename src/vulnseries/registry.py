"""Release-history retrieval from the PyPI JSON API.

A package's history is the list of its published versions ordered
oldest-to-newest.  The JSON API reports per-file upload timestamps; a
release's timestamp is the earliest across its files.  Ordering is by
version precedence first and timestamp second, so a backfilled old
version does not scramble the series.

An injectable ``transport`` callable, url to (status, body), does network
access; it raises ``RegistryError("transport", message)`` on a network
failure, which is retried.  Every failure is that one type, told apart by
its ``reason`` code, not by subclass.  Of each response the cache keeps
only what a history is built from, every version string with its earliest
upload time, in one JSON object per cache directory (the file
``release_times.json``), which only a run that downloads something
rewrites, whole and atomically.  A file garbled anywhere is ignored as a
whole, and the cache files of earlier versions are ignored, so such a
directory is cold once.  ``offline=True`` serves from cache only.  A
*snapshot* bundles many ordered histories into one schema-versioned JSON
document so downstream stages are reproducible without any network at all.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import re
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import (
    AttritionRecord,
    RegistryError,
    SnapshotNotFoundError,
    SnapshotSchemaError,
    VersionParseError,
)
from .versions import Version, parse_version

SNAPSHOT_SCHEMA_VERSION = 1
DEFAULT_ENDPOINT = "https://pypi.org/pypi"
_CACHE_ENV = "VULNSERIES_CACHE"
# A request is tried this many times; the n-th retry first sleeps
# _BACKOFF_S * 2 ** (n - 1) seconds.
_MAX_ATTEMPTS = 3
_BACKOFF_S = 0.5

Transport = Callable[[str], tuple[int, bytes]]


def normalize_name(name: str) -> str:
    """Normalize a project name the way package indexes do."""
    return re.sub(r"[-_.]+", "-", name).lower()


class Release(NamedTuple):
    """One published version with its (earliest) upload timestamp."""

    version: Version
    raw: str
    upload_time: str | None


@dataclass(frozen=True)
class ReleaseHistory:
    """A package's releases, oldest first; their version keys strictly increase.

    Only :func:`order_history` and :func:`load_snapshot` build one.
    """

    package: str
    releases: tuple[Release, ...]

    def __len__(self) -> int:
        return len(self.releases)


_History = tuple[ReleaseHistory, tuple[str, ...]]  # a history and its warnings


def order_history(
    package: str,
    entries: Iterable[tuple[str, str | None]],
    *,
    parse: Callable[[str], Version] | None = None,
) -> _History:
    """Build an ordered history from (version string, upload time) pairs.

    Sorting is by version precedence, then upload time (missing times
    last), then the raw string, which keeps the result deterministic.
    Consecutive entries that compare equal as versions are collapsed to
    the first one; each collapse is reported in the returned warnings.
    A version string that does not parse raises
    :class:`VersionParseError` naming the package and the string.
    ``parse`` replaces :func:`parse_version`, for a caller's memo.
    """
    parse = parse or parse_version
    parsed: list[Release] = []
    for raw, upload_time in entries:
        try:
            parsed.append(Release(parse(raw), raw, upload_time))
        except VersionParseError as exc:
            raise VersionParseError(f"{package!r} lists version {raw!r}: {exc}") from None

    parsed.sort(key=lambda r: (r.version.key, r.upload_time is None, r.upload_time or "", r.raw))
    deduped: list[Release] = []
    warnings: list[str] = []
    previous = None
    for release in parsed:
        if release.version.key == previous:
            warnings.append(
                f"{package}: duplicate release {release.raw!r} collapses into {deduped[-1].raw!r}"
            )
            continue
        previous = release.version.key
        deduped.append(release)
    latest_seen: str | None = None
    for release in deduped:
        if release.upload_time is None:
            continue
        if latest_seen is not None and release.upload_time < latest_seen:
            warnings.append(
                f"{package}: version order disagrees with upload order near {release.raw!r}"
            )
            break
        latest_seen = release.upload_time
    return ReleaseHistory(package, tuple(deduped)), tuple(warnings)


def _default_transport(url: str) -> tuple[int, bytes]:
    import requests

    try:
        response = requests.get(url, timeout=30)
    except requests.RequestException as exc:
        raise RegistryError("transport", f"request to {url} failed: {exc}") from exc
    return response.status_code, response.content


def _earliest_upload(files: object) -> str | None:
    if not isinstance(files, list):
        return None
    times = []
    for entry in files:
        if isinstance(entry, dict):
            stamp = entry.get("upload_time_iso_8601") or entry.get("upload_time")
            if isinstance(stamp, str) and stamp:
                times.append(stamp)
    return min(times) if times else None


def _upload_times(package: str, body: bytes) -> dict[str, str | None]:
    """A downloaded payload's releases map, each version's file list reduced to its
    earliest upload time, in the payload's order."""
    try:
        doc = json.loads(body)
    except (ValueError, RecursionError) as exc:  # also bytes that are not text, or too deep
        raise RegistryError("bad-payload", f"payload for {package!r} is not JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("releases"), dict):
        raise RegistryError("bad-payload", f"payload for {package!r} has no releases map")
    return {raw: _earliest_upload(files) for raw, files in doc["releases"].items()}


# The types an upload time of a cached record may have.
_STAMP_TYPES = {str, type(None)}


def _cached_upload_times(package: str, times: object) -> dict[str, str | None]:
    """A cache record's map of version to upload time, checked."""
    if not isinstance(times, dict) or not set(map(type, times.values())) <= _STAMP_TYPES:
        raise RegistryError(
            "bad-payload", f"cached payload for {package!r} is not a map of upload times"
        )
    return times


def _history(
    package: str, times: Mapping[str, str | None], parse: Callable[[str], Version]
) -> _History:
    if not times:
        raise RegistryError("not-found", f"package {package!r} has no published releases")
    try:
        return order_history(package, times.items(), parse=parse)
    except VersionParseError as exc:
        raise RegistryError("bad-payload", str(exc)) from exc


@contextlib.contextmanager
def _atomic_file(path: Path) -> Iterator[IO[str]]:
    """Open a temporary UTF-8 text file beside ``path``; rename it over ``path`` when
    the block ends.

    A snapshot or the release cache streams into it without a second copy
    in memory; on any error the temporary file is removed and ``path`` is
    left as it was.
    ``open`` creates it (exclusively), so its mode follows the current umask.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}{os.urandom(6).hex()}.tmp")
    handle = open(tmp, "x", encoding="utf-8")
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class PyPIClient:
    """Fetches release histories, with retries, caching, and offline mode."""

    def __init__(
        self,
        transport: Transport | None = None,
        cache_dir: str | os.PathLike | None = None,
        offline: bool = False,
        endpoint: str = DEFAULT_ENDPOINT,
        sleep: Callable[[float], None] = time.sleep,
        workers: int = 4,
    ) -> None:
        if cache_dir is None:
            cache_dir = os.environ.get(_CACHE_ENV)
        self.transport = transport or _default_transport
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.offline = offline
        self.endpoint = endpoint.rstrip("/")
        self.sleep = sleep
        self.workers = max(1, workers)

    def _cached(
        self, package: str, records: Mapping[str, object], parse: Callable[[str], Version]
    ) -> _History | None:
        """The history of the cache record of ``package``, or ``None`` online when it is
        missing or bad; offline, those raise ``offline-miss`` and ``bad-payload``, and an
        empty record is ``not-found`` online too.  A record is bad when it is not a JSON
        object of strings or nulls, or when a version key does not parse."""
        name = normalize_name(package)
        if name in records:
            try:
                return _history(package, _cached_upload_times(package, records[name]), parse)
            except RegistryError as exc:
                if self.offline or exc.reason != "bad-payload":
                    raise
        elif self.offline:
            raise RegistryError(
                "offline-miss", f"offline mode and no cached payload for {package!r}"
            )
        return None

    def _download(self, package: str) -> bytes:
        """Request the payload, with retries, and return its body unchecked.

        Worker threads run only this: checking and caching the body are the
        calling thread's."""
        url = f"{self.endpoint}/{package}/json"
        for attempt in range(_MAX_ATTEMPTS):
            if attempt:
                self.sleep(_BACKOFF_S * (2 ** (attempt - 1)))
            try:
                status, body = self.transport(url)
            except RegistryError as exc:
                last_error = exc
                continue
            if status == 404:
                raise RegistryError("not-found", f"package {package!r} not found on the index")
            if status == 200:
                return body
            last_error = RegistryError("transport", f"index returned HTTP {status} for {package!r}")
        raise last_error

    def fetch_many(
        self, packages: Sequence[str]
    ) -> tuple[dict[str, ReleaseHistory], tuple[str, ...], tuple[AttritionRecord, ...]]:
        """Fetch several packages, downloading up to ``workers`` at once.

        The cache is one file, ``release_times.json`` in the cache directory,
        holding one JSON object: normalized name to the payload's releases map
        with each file list reduced to its earliest upload time, a JSON object
        of version string to time or null, in the payload's order.  It is read
        once, by one ``json.loads``.  A file that is truncated, not an object
        or garbled anywhere is ignored as a whole, and so are the cache files
        of earlier versions, so such a directory is cold once.  Worker threads
        only run :meth:`_download`; offline, none is started.  The calling
        thread checks each payload and parses and orders every history, in
        package order, through one memo of :func:`parse_version` that ends
        with the call; a file list is reduced only when it is downloaded.  A
        payload or record that cannot be interpreted, including one with a
        version key that does not parse, is a ``bad-payload``; online, a
        cached one is downloaded again.

        Only a run that downloads something rewrites the cache.  It opens the
        replacement before the first request, streams in each downloaded map
        as an object member (the first spelling of a normalized name wins),
        copies the members it did not replace and renames the file over the
        old one at the end.  A run that raises or is interrupted keeps the
        previous file and caches nothing.  Of two processes sharing a cache
        directory, the last to rename wins, and nothing is corrupted.

        Failures never abort the batch: each :class:`RegistryError`
        becomes an :class:`AttritionRecord` under the error's ``reason``
        code (``not-found``, ``transport``, ``offline-miss`` or
        ``bad-payload``).  Any other error, such as an ``OSError`` from a
        cache write, cancels the downloads not yet started and is raised.
        """
        histories: dict[str, ReleaseHistory] = {}
        warnings: list[str] = []
        failures: list[AttritionRecord] = []
        parse = functools.lru_cache(maxsize=None)(parse_version)
        path = self.cache_dir / "release_times.json" if self.cache_dir is not None else None
        try:
            records = json.loads(path.read_bytes()) if path is not None and path.is_file() else {}
        except (ValueError, RecursionError):
            records = {}
        if not isinstance(records, dict):
            records = {}
        written: set[str] = set()  # the normalized names in the replacement cache file
        outcomes: deque = deque()  # per package: a history, a failure record or a download
        pool = ThreadPoolExecutor(max_workers=self.workers)
        try:
            with contextlib.ExitStack() as stack:
                cache = None

                def put(name: str, times: object) -> None:  # once per normalized name
                    if name not in written:
                        separator = ", " if written else "{"
                        cache.write(f"{separator}{json.dumps(name)}: {json.dumps(times)}")
                        written.add(name)

                for package in packages:
                    try:
                        outcome = self._cached(package, records, parse)
                    except RegistryError as exc:
                        outcome = AttritionRecord(package, exc.reason, str(exc))
                    if outcome is None:
                        if cache is None and path is not None:
                            cache = stack.enter_context(_atomic_file(path))
                        outcome = pool.submit(self._download, package)
                    outcomes.append(outcome)
                for package in packages:
                    outcome = outcomes.popleft()  # frees a downloaded body once ordered
                    if isinstance(outcome, Future):
                        try:
                            times = _upload_times(package, outcome.result())
                            if cache is not None:
                                put(normalize_name(package), times)
                            outcome = _history(package, times, parse)
                        except RegistryError as exc:
                            outcome = AttritionRecord(package, exc.reason, str(exc))
                    if isinstance(outcome, AttritionRecord):
                        failures.append(outcome)
                        continue
                    history, history_warnings = outcome
                    histories[package] = history
                    warnings.extend(history_warnings)
                if cache is not None:
                    for name, times in records.items():
                        put(name, times)
                    cache.write("}" if written else "{}")
        finally:
            pool.shutdown(cancel_futures=True)
        return histories, tuple(warnings), tuple(failures)


# -- snapshots ----------------------------------------------------------


# Every snapshot row has these two keys, in sorted order, at depth 3.
_SNAPSHOT_ROW = '{\n        "upload_time": %s,\n        "version": %s\n      }'


def save_snapshot(path: str | os.PathLike, histories: Mapping[str, ReleaseHistory]) -> None:
    """Write ordered histories to a schema-versioned JSON snapshot: the bytes of
    ``json.dump(doc, indent=2, sort_keys=True)`` and a newline, written one history
    at a time from one row template so the whole text is never held in memory."""
    quote = encode_basestring_ascii
    with _atomic_file(Path(path)) as handle:
        handle.write('{\n  "histories": {')
        separator = "\n    "
        for name, history in sorted(histories.items()):
            rows = [
                _SNAPSHOT_ROW % ("null" if stamp is None else quote(stamp), quote(raw))
                for _, raw, stamp in history.releases
            ]
            body = "\n      " + ",\n      ".join(rows) + "\n    " if rows else ""
            handle.write(f"{separator}{quote(name)}: [{body}]")
            separator = ",\n    "
        closing = "\n  }" if histories else "}"
        handle.write(f'{closing},\n  "schema_version": {SNAPSHOT_SCHEMA_VERSION}\n}}\n')


def load_snapshot(path: str | os.PathLike) -> dict[str, ReleaseHistory]:
    """Read a snapshot back into ordered histories.

    Versions are re-parsed but not re-sorted, so a snapshot round-trips
    exactly.  A :class:`SnapshotSchemaError` is raised for a schema
    version other than the integer 1, a version that is not a non-empty
    string, an upload time that is not a string or null, or a history
    whose stored order is not strictly increasing.

    Each distinct version string is parsed once, through a memo of
    :func:`parse_version`, so equal strings share one :class:`Version`.
    The memo ends with the call, so a long-lived process keeps no parsed
    versions between loads and each load costs what it would in a fresh one.
    """
    target = Path(path)
    if not target.is_file():
        raise SnapshotNotFoundError(f"snapshot {target} does not exist")
    try:
        doc = json.loads(target.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # also bytes that are not UTF-8, or too deep
        raise SnapshotSchemaError(f"snapshot {target} is not valid JSON: {exc}") from exc
    schema = doc.get("schema_version") if isinstance(doc, dict) else "?"
    # A type test, since true and 1.0 both compare equal to 1.
    if type(schema) is not int or schema != SNAPSHOT_SCHEMA_VERSION:
        raise SnapshotSchemaError(f"snapshot {target} has unsupported schema {schema!r}")
    raw_histories = doc.get("histories")
    if not isinstance(raw_histories, dict):
        raise SnapshotSchemaError(f"snapshot {target} has no histories map")
    parse = functools.lru_cache(maxsize=None)(parse_version)
    histories: dict[str, ReleaseHistory] = {}
    for name, rows in raw_histories.items():
        if not isinstance(rows, list):
            raise SnapshotSchemaError(f"snapshot history for {name!r} is not a list")
        releases: list[Release] = []
        previous = None
        for row in rows:
            if not isinstance(row, dict) or "version" not in row:
                raise SnapshotSchemaError(f"snapshot row for {name!r} is malformed")
            raw = row["version"]
            # Checked before the memo, which would reject an unhashable key.
            if not isinstance(raw, str) or not raw.strip():
                raise SnapshotSchemaError(
                    f"snapshot row for {name!r} has no version string: {raw!r}"
                )
            upload_time = row.get("upload_time")
            if upload_time is not None and not isinstance(upload_time, str):
                raise SnapshotSchemaError(
                    f"snapshot row for {name!r} has a non-string upload_time: {upload_time!r}"
                )
            version = parse(raw)
            if previous is not None and previous >= version.key:
                raise SnapshotSchemaError(
                    f"snapshot history for {name!r}: {releases[-1].raw!r} is not before {raw!r}"
                )
            previous = version.key
            releases.append(Release(version, raw, upload_time))
        histories[name] = ReleaseHistory(name, tuple(releases))
    return histories
