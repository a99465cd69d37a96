"""Release-history retrieval from the PyPI JSON API.

A package's history is the list of its published versions ordered
oldest-to-newest.  The JSON API reports per-file upload timestamps; a
release's timestamp is the earliest across its files.  Ordering is by
version precedence first and timestamp second, so a backfilled old
version does not scramble the series.

Network access goes through an injectable ``transport`` callable so
tests never touch the real index.  Responses are cached on disk with
atomic writes; ``offline=True`` serves from cache only.  A *snapshot*
bundles many ordered histories into one schema-versioned JSON document
so downstream stages are reproducible without any network at all.
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
    OfflineCacheMissError,
    PackageNotFoundError,
    PayloadFormatError,
    RegistryError,
    SnapshotNotFoundError,
    SnapshotSchemaError,
    TransportError,
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
        raise TransportError(f"request to {url} failed: {exc}") from exc
    return response.status_code, response.content


def _releases_map(package: str, body: bytes) -> dict:
    try:
        doc = json.loads(body)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise PayloadFormatError(f"payload for {package!r} is not JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("releases"), dict):
        raise PayloadFormatError(f"payload for {package!r} has no releases map")
    return doc["releases"]


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


def _history(package: str, releases: dict, parse: Callable[[str], Version]) -> _History:
    entries = [(raw, _earliest_upload(files)) for raw, files in releases.items()]
    if not entries:
        raise PackageNotFoundError(f"package {package!r} has no published releases")
    try:
        return order_history(package, entries, parse=parse)
    except VersionParseError as exc:
        raise PayloadFormatError(str(exc)) from exc


@contextlib.contextmanager
def _atomic_file(path: Path, mode: str, encoding: str | None = None) -> Iterator[IO]:
    """Open a temporary file beside ``path``; rename it over ``path`` when the block ends.

    A snapshot streams into it without a second copy in memory; on any
    error the temporary file is removed and ``path`` is left as it was.
    ``open`` creates it (exclusively), so its mode follows the current umask.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}{os.urandom(6).hex()}.tmp")
    handle = open(tmp, mode.replace("w", "x"), encoding=encoding)
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

    # -- cache ---------------------------------------------------------

    def _cache_path(self, package: str) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{normalize_name(package)}.json"

    def _cached(self, package: str, parse: Callable[[str], Version]) -> _History | None:
        """The cached history, or ``None`` online when the payload is missing or bad;
        offline, those are an :class:`OfflineCacheMissError` and a :class:`PayloadFormatError`."""
        path = self._cache_path(package)
        if path is not None and path.is_file():
            try:
                return _history(package, _releases_map(package, path.read_bytes()), parse)
            except PayloadFormatError:
                if self.offline:
                    raise
        elif self.offline:
            raise OfflineCacheMissError(f"offline mode and no cached payload for {package!r}")
        return None

    # -- fetching ------------------------------------------------------

    def _download(self, package: str) -> dict:
        """Request the payload (with retries), check it is a releases map, cache it, return it."""
        url = f"{self.endpoint}/{package}/json"
        last_error: Exception | None = None
        for attempt in range(_MAX_ATTEMPTS):
            if attempt:
                self.sleep(_BACKOFF_S * (2 ** (attempt - 1)))
            try:
                status, body = self.transport(url)
            except TransportError as exc:
                last_error = exc
                continue
            if status == 404:
                raise PackageNotFoundError(f"package {package!r} not found on the index")
            if status != 200:
                last_error = TransportError(f"index returned HTTP {status} for {package!r}")
                continue
            releases = _releases_map(package, body)
            path = self._cache_path(package)
            if path is not None:
                with _atomic_file(path, "wb") as handle:
                    handle.write(body)
            return releases
        raise last_error or TransportError(f"no response for {package!r}")

    def fetch_many(
        self, packages: Sequence[str]
    ) -> tuple[dict[str, ReleaseHistory], tuple[str, ...], tuple[AttritionRecord, ...]]:
        """Fetch several packages, downloading up to ``workers`` at once.

        Worker threads only run :meth:`_download`: request, check, cache.
        Only a payload that is a releases map is cached.  The calling thread
        reads the cache and parses and orders every history, in package
        order, through one memo of :func:`parse_version` that ends with the
        call.  Offline, no thread is started.  A payload that cannot be
        interpreted, including a releases map with a version key that does
        not parse, is a ``bad-payload``; online, a cached one is downloaded again.

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
        outcomes: deque = deque()  # per package: a history, a RegistryError or a download
        pool = ThreadPoolExecutor(max_workers=self.workers)
        try:
            for package in packages:
                try:
                    outcome = self._cached(package, parse) or pool.submit(self._download, package)
                except RegistryError as exc:
                    outcome = exc
                outcomes.append(outcome)
            for package in packages:
                outcome = outcomes.popleft()  # frees a downloaded releases map once ordered
                if isinstance(outcome, Future):
                    try:
                        outcome = _history(package, outcome.result(), parse)
                    except RegistryError as exc:
                        outcome = exc
                if isinstance(outcome, RegistryError):
                    failures.append(AttritionRecord(package, outcome.reason, str(outcome)))
                    continue
                history, history_warnings = outcome
                histories[package] = history
                warnings.extend(history_warnings)
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
    with _atomic_file(Path(path), "w", encoding="utf-8") as handle:
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
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
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
