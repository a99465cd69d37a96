"""Release-history client: ordering, caching, retries, and snapshots."""

import contextlib
import dataclasses
import io
import json
import os
import stat
import sys
import tempfile
import threading
import time
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from vulnseries import registry
from vulnseries.errors import (
    AttritionRecord,
    RegistryError,
    SnapshotNotFoundError,
    SnapshotSchemaError,
)
from vulnseries.registry import (
    PyPIClient,
    Release,
    ReleaseHistory,
    load_snapshot,
    normalize_name,
    order_history,
    save_snapshot,
)
from vulnseries.safetydb import Constraint, SpecClause, load_database_path
from vulnseries.versions import Version, parse_version

FIXTURES = Path(__file__).parent / "fixtures"
# The cache file's name in a cache directory.
CACHE_FILE = "release_times.json"


def payload(releases: dict) -> bytes:
    return json.dumps({"info": {}, "releases": releases}).encode("utf-8")


def write_cache(directory: Path, records: dict) -> None:
    """Write a cache file holding ``records``, normalized name to record."""
    (directory / CACHE_FILE).write_text(json.dumps(records))


def cached(directory: Path) -> list:
    """The (name, record) members of the cache file in ``directory``, in file order."""
    return list(json.loads((directory / CACHE_FILE).read_bytes()).items())


def make_transport(responses):
    """A transport stub that pops canned (status, body) pairs per URL."""
    calls = []

    def transport(url: str):
        calls.append(url)
        item = responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item

    transport.calls = calls
    return transport


@pytest.mark.parametrize(
    "name,expected",
    [("Foo_Bar.baz", "foo-bar-baz"), ("simple", "simple"), ("A--B", "a-b")],
)
def test_normalize_name(name, expected):
    assert normalize_name(name) == expected


def test_order_history_sorts_by_version_precedence():
    history, warnings = order_history("pkg", [("1.0", None), ("0.9", None)])
    assert [r.raw for r in history.releases] == ["0.9", "1.0"]
    assert [str(r.version) for r in history.releases] == ["0.9.0", "1.0.0"]
    assert not warnings


def test_order_history_places_prereleases_before_finals():
    history, _ = order_history("pkg", [("1.0", None), ("1.0rc1", None)])
    assert [r.raw for r in history.releases] == ["1.0rc1", "1.0"]


def test_equal_versions_collapse_to_one_with_warning():
    history, warnings = order_history("pkg", [("1.0.0", None), ("1.0", None)])
    assert len(history.releases) == 1
    assert history.releases[0].raw == "1.0"
    assert len(warnings) == 1 and "duplicate" in warnings[0]


def test_upload_order_disagreement_is_warned():
    entries = [("0.9", "2021-05-01T00:00:00Z"), ("1.0", "2020-01-01T00:00:00Z")]
    history, warnings = order_history("pkg", entries)
    assert [r.raw for r in history.releases] == ["0.9", "1.0"]
    assert any("disagrees" in w for w in warnings)


def test_timed_entry_wins_a_collapse_over_untimed():
    history, warnings = order_history(
        "pkg", [("1.0", None), ("1.0.0", "2020-01-01T00:00:00Z")]
    )
    assert [r.raw for r in history.releases] == ["1.0.0"]
    assert history.releases[0].upload_time == "2020-01-01T00:00:00Z"
    assert len(warnings) == 1


def test_fetch_many_parses_and_orders():
    transport = make_transport(
        [(200, payload({"1.10": [], "1.2": [{"upload_time": "2020-02-02T00:00:00Z"}]}))]
    )
    client = PyPIClient(transport=transport)
    histories, warnings, failures = client.fetch_many(["pkg"])
    assert [r.raw for r in histories["pkg"].releases] == ["1.2", "1.10"]
    assert histories["pkg"].releases[0].upload_time == "2020-02-02T00:00:00Z"
    assert transport.calls == ["https://pypi.org/pypi/pkg/json"]
    assert not warnings and not failures


def test_default_transport_passes_the_response_through(monkeypatch):
    class RequestException(Exception):
        pass

    def get(url, timeout):
        if url.endswith("/down/json"):
            raise RequestException("connection refused")
        return types.SimpleNamespace(status_code=503, content=b"busy")

    stub = types.ModuleType("requests")
    stub.get, stub.RequestException = get, RequestException
    monkeypatch.setitem(sys.modules, "requests", stub)
    assert registry._default_transport("https://index.test/pypi/pkg/json") == (503, b"busy")
    url = "https://index.test/pypi/down/json"
    with pytest.raises(RegistryError) as caught:
        registry._default_transport(url)
    assert caught.value.reason == "transport"
    assert str(caught.value) == f"request to {url} failed: connection refused"
    assert isinstance(caught.value.__cause__, RequestException)


def test_http_404_is_package_not_found_without_retry():
    transport = make_transport([(404, b"")])
    client = PyPIClient(transport=transport, sleep=lambda s: None)
    histories, _, failures = client.fetch_many(["ghost"])
    assert not histories
    assert failures == (
        AttritionRecord("ghost", "not-found", "package 'ghost' not found on the index"),
    )
    assert len(transport.calls) == 1


def test_server_errors_retry_with_exponential_backoff():
    transport = make_transport([(500, b""), (503, b""), (200, payload({"1.0": []}))])
    naps = []
    client = PyPIClient(transport=transport, sleep=naps.append)
    histories, _, failures = client.fetch_many(["pkg"])
    assert len(histories["pkg"]) == 1 and not failures
    assert naps == [0.5, 1.0]
    assert len(transport.calls) == 3


def test_exhausted_retries_raise_transport_error():
    transport = make_transport([(500, b""), (500, b""), (500, b"")])
    client = PyPIClient(transport=transport, sleep=lambda s: None)
    histories, _, failures = client.fetch_many(["pkg"])
    assert not histories
    assert failures == (AttritionRecord("pkg", "transport", "index returned HTTP 500 for 'pkg'"),)
    assert len(transport.calls) == 3


def test_a_raising_transport_is_retried_with_backoff_and_its_last_message_kept():
    calls = []

    def transport(url):
        calls.append(url)
        raise RegistryError("transport", f"connection reset {len(calls)}")

    naps = []
    client = PyPIClient(transport=transport, sleep=naps.append)
    histories, _, failures = client.fetch_many(["pkg"])
    assert not histories
    assert failures == (AttritionRecord("pkg", "transport", "connection reset 3"),)
    assert len(calls) == 3
    assert naps == [0.5, 1.0]


def test_empty_releases_map_means_not_found():
    transport = make_transport([(200, payload({}))])
    client = PyPIClient(transport=transport)
    histories, _, failures = client.fetch_many(["hollow"])
    assert not histories
    assert failures == (
        AttritionRecord("hollow", "not-found", "package 'hollow' has no published releases"),
    )


_MALFORMED = {
    b"not json": "payload for 'pkg' is not JSON: ",
    b'{"releases": 7}': "payload for 'pkg' has no releases map",
    b"[]": "payload for 'pkg' has no releases map",
    b"\x80 not text": "payload for 'pkg' is not JSON: ",
}


@pytest.mark.parametrize("body", list(_MALFORMED))
def test_malformed_payloads_raise_format_error(body):
    client = PyPIClient(transport=make_transport([(200, body)]))
    histories, _, [failure] = client.fetch_many(["pkg"])
    assert not histories
    assert (failure.package, failure.reason) == ("pkg", "bad-payload")
    assert failure.detail.startswith(_MALFORMED[body])


def test_cache_serves_second_fetch_without_transport(tmp_path):
    transport = make_transport([(200, payload({"1.0": []}))])
    client = PyPIClient(transport=transport, cache_dir=tmp_path)
    first, _, _ = client.fetch_many(["pkg"])
    second, _, failures = client.fetch_many(["pkg"])
    assert len(transport.calls) == 1
    assert cached(tmp_path) == [("pkg", {"1.0": None})]
    assert second["pkg"] == first["pkg"] and not failures


def test_offline_mode_uses_cache_or_fails(tmp_path):
    warm = PyPIClient(
        transport=make_transport([(200, payload({"1.0": []}))]), cache_dir=tmp_path
    )
    warm.fetch_many(["pkg"])

    def explode(url):
        raise AssertionError("offline client must not touch the network")

    offline = PyPIClient(transport=explode, cache_dir=tmp_path, offline=True)
    histories, _, failures = offline.fetch_many(["pkg", "never-cached"])
    assert len(histories["pkg"]) == 1
    assert failures == (
        AttritionRecord(
            "never-cached",
            "offline-miss",
            "offline mode and no cached payload for 'never-cached'",
        ),
    )


def test_bad_payload_is_not_cached(tmp_path):
    bad = PyPIClient(transport=make_transport([(200, b"<html>")]), cache_dir=tmp_path)
    _, _, [failure] = bad.fetch_many(["flask"])
    assert failure.reason == "bad-payload"
    assert failure.detail.startswith("payload for 'flask' is not JSON: ")
    assert cached(tmp_path) == []
    good = PyPIClient(
        transport=make_transport([(200, payload({"1.0": []}))]), cache_dir=tmp_path
    )
    histories, _, failures = good.fetch_many(["flask"])
    assert len(histories["flask"]) == 1 and not failures


def test_unparsable_cache_entry_is_refetched_online_only(tmp_path):
    write_cache(tmp_path, {"flask": "<html>"})

    def explode(url):
        raise AssertionError("offline client must not touch the network")

    offline = PyPIClient(transport=explode, cache_dir=tmp_path, offline=True)
    histories, _, [failure] = offline.fetch_many(["flask"])
    assert not histories and failure.reason == "bad-payload"
    assert failure.detail == "cached payload for 'flask' is not a map of upload times"
    transport = make_transport([(200, payload({"1.0": []}))])
    online = PyPIClient(transport=transport, cache_dir=tmp_path)
    histories, _, failures = online.fetch_many(["flask"])
    assert len(histories["flask"]) == 1 and not failures
    assert len(transport.calls) == 1
    assert cached(tmp_path) == [("flask", {"1.0": None})]


def test_cache_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("VULNSERIES_CACHE", str(tmp_path))
    client = PyPIClient(transport=make_transport([(200, payload({"1.0": []}))]))
    client.fetch_many(["pkg"])
    assert [name for name, _ in cached(tmp_path)] == ["pkg"]


def test_fetch_many_collects_failures_without_aborting(tmp_path):
    bodies = {
        "good": (200, payload({"1.0": [], "1.1": []})),
        "gone": (404, b""),
        "broken": (200, b"not json"),
        "deep": (200, b"[" * 200000),  # nested past the decoder's recursion limit
    }

    def transport(url):
        for name, response in bodies.items():
            if f"/{name}/" in url:
                return response
        raise AssertionError(url)

    client = PyPIClient(transport=transport, workers=2)
    histories, warnings, failures = client.fetch_many(["good", "gone", "broken", "deep"])
    assert set(histories) == {"good"}
    reasons = {f.package: f.reason for f in failures}
    assert reasons == {"gone": "not-found", "broken": "bad-payload", "deep": "bad-payload"}
    offline = PyPIClient(transport=transport, cache_dir=tmp_path, offline=True)
    _, _, failures = offline.fetch_many(["good"])
    assert [(f.package, f.reason) for f in failures] == [("good", "offline-miss")]


def test_fetch_many_names_the_package_of_a_transport_failure():
    def transport(url):
        if "/flaky/" in url:
            raise RegistryError("transport", "connection reset")
        return 200, payload({"1.0": []})

    client = PyPIClient(transport=transport, sleep=lambda s: None, workers=2)
    histories, _, failures = client.fetch_many(["good", "flaky"])
    assert set(histories) == {"good"}
    assert [(f.package, f.reason, f.detail) for f in failures] == [
        ("flaky", "transport", "connection reset")
    ]


def test_bad_version_key_is_that_packages_bad_payload(tmp_path):
    bodies = {
        "good": payload({"1.0": [], "1.1": []}),
        "bad": payload({"": [], "1.0": []}),
    }

    def transport(url):
        return 200, bodies[url.split("/")[-2]]

    for offline in (False, True):
        client = PyPIClient(transport=transport, cache_dir=tmp_path, offline=offline, workers=2)
        histories, _, failures = client.fetch_many(["bad", "good"])
        assert [r.raw for r in histories["good"].releases] == ["1.0", "1.1"]
        assert set(histories) == {"good"}
        [failure] = failures
        assert (failure.package, failure.reason) == ("bad", "bad-payload")
        assert "'bad'" in failure.detail and "''" in failure.detail


def test_stale_bad_payload_is_refetched_online(tmp_path):
    bodies = {"bad": payload({"": [], "1.0": []})}

    def transport(url):
        return 200, bodies[url.split("/")[-2]]

    client = PyPIClient(transport=transport, cache_dir=tmp_path)
    _, _, [failure] = client.fetch_many(["bad"])
    assert failure.reason == "bad-payload"
    bodies["bad"] = payload({"0.9": [], "1.0": []})
    offline = PyPIClient(transport=transport, cache_dir=tmp_path, offline=True)
    _, _, [failure] = offline.fetch_many(["bad"])
    assert failure.reason == "bad-payload"
    histories, _, failures = client.fetch_many(["bad"])
    assert not failures
    assert [r.raw for r in histories["bad"].releases] == ["0.9", "1.0"]
    histories, _, failures = offline.fetch_many(["bad"])
    assert not failures and len(histories["bad"]) == 2


def test_fetch_many_has_several_downloads_in_flight():
    # The barrier breaks, and the batch fails, unless two requests meet in it.
    barrier = threading.Barrier(2, timeout=10)

    def transport(url):
        barrier.wait()
        return 200, payload({"1.0": []})

    client = PyPIClient(transport=transport, workers=4)
    histories, _, failures = client.fetch_many(["a", "b", "c", "d"])
    assert sorted(histories) == ["a", "b", "c", "d"] and not failures


def test_offline_fetch_many_starts_no_thread(tmp_path, monkeypatch):
    write_cache(tmp_path, {"good": {"1.0": None}, "bad": "<html>"})

    def refuse(*args, **kwargs):
        raise AssertionError("an offline batch submitted a task")

    threads = set()

    def recording_parse(text):
        threads.add(threading.get_ident())
        return parse_version(text)

    monkeypatch.setattr(registry.ThreadPoolExecutor, "submit", refuse)
    monkeypatch.setattr(registry, "parse_version", recording_parse)
    client = PyPIClient(transport=refuse, cache_dir=tmp_path, offline=True, workers=4)
    histories, _, failures = client.fetch_many(["bad", "good", "missing"])
    assert set(histories) == {"good"}
    assert [(f.package, f.reason) for f in failures] == [
        ("bad", "bad-payload"),
        ("missing", "offline-miss"),
    ]
    assert threads == {threading.get_ident()}


def test_every_parse_runs_on_the_calling_thread(tmp_path, monkeypatch):
    bodies = {name: payload({"1.0": [], f"1.{i + 1}": []}) for i, name in enumerate("abcdef")}
    downloads = []

    def transport(url):
        downloads.append((url.split("/")[-2], threading.get_ident()))
        return 200, bodies[url.split("/")[-2]]

    PyPIClient(transport=transport, cache_dir=tmp_path).fetch_many(["a", "c", "e"])
    # A cached record whose version key does not parse is downloaded again.
    write_cache(tmp_path, {**dict(cached(tmp_path)), "c": {"": None}})
    parses = []

    def recording_parse(text):
        parses.append(threading.get_ident())
        return parse_version(text)

    monkeypatch.setattr(registry, "parse_version", recording_parse)
    downloads.clear()
    client = PyPIClient(transport=transport, cache_dir=tmp_path, workers=4)
    histories, _, failures = client.fetch_many(list("abcdef"))
    assert not failures
    assert {name: [r.raw for r in h.releases] for name, h in histories.items()} == {
        name: ["1.0", f"1.{i + 1}"] for i, name in enumerate("abcdef")
    }
    assert parses and set(parses) == {threading.get_ident()}
    assert sorted(name for name, _ in downloads) == ["b", "c", "d", "f"]
    assert threading.get_ident() not in {ident for _, ident in downloads}


@pytest.mark.parametrize("first", ["missing", "duplicate"])
def test_fetch_many_reports_in_package_order_when_the_first_download_ends_last(first):
    replies = {"missing": (404, b""), "duplicate": (200, payload({"1.0": [], "1.0.0": []}))}
    second = "duplicate" if first == "missing" else "missing"
    plan = {"a": first, "b": second, "c": first, "d": second}
    others_done = threading.Event()
    finished = []
    lock = threading.Lock()

    def transport(url):
        name = url.split("/")[-2]
        if name == "a":
            assert others_done.wait(timeout=10)
        with lock:
            finished.append(name)
            if len(finished) == 3:
                others_done.set()
        return replies[plan[name]]

    client = PyPIClient(transport=transport, workers=4)
    histories, warnings, failures = client.fetch_many(["a", "b", "c", "d"])
    assert finished[-1] == "a"
    assert [f.package for f in failures] == [n for n in "abcd" if plan[n] == "missing"]
    assert [w.split(":")[0] for w in warnings] == [n for n in "abcd" if plan[n] == "duplicate"]
    assert list(histories) == [n for n in "abcd" if plan[n] == "duplicate"]


def test_an_unwritable_cache_fails_before_any_request(tmp_path):
    cache = tmp_path / "cache"
    cache.write_text("a regular file, so no cache file can be created under it")
    transport = make_transport([])
    client = PyPIClient(transport=transport, cache_dir=cache, workers=2)
    with pytest.raises(OSError):
        client.fetch_many(["a", "b"])
    assert transport.calls == []


def test_a_failing_cache_write_cancels_the_downloads_not_started(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir()
    write_cache(cache, {"old": {"0.1": None}})
    before = (cache / CACHE_FILE).read_bytes()
    calls = []

    def transport(url):
        calls.append(url)
        time.sleep(0.01)
        return 200, payload({"1.0": []})

    class SecondRecordFails:
        def __init__(self, handle):
            self.handle, self.writes = handle, 0

        def write(self, data):
            self.writes += 1  # one write per member
            if self.writes > 1:
                raise OSError("disk full")
            return self.handle.write(data)

    opened = registry._atomic_file

    @contextlib.contextmanager
    def failing_append(path):
        with opened(path) as handle:
            yield SecondRecordFails(handle)

    monkeypatch.setattr(registry, "_atomic_file", failing_append)
    client = PyPIClient(transport=transport, cache_dir=cache, workers=2)
    with pytest.raises(OSError, match="disk full"):
        client.fetch_many([f"pkg{i:03d}" for i in range(200)])
    assert 0 < len(calls) < 20
    assert (cache / CACHE_FILE).read_bytes() == before
    assert [p.name for p in cache.iterdir()] == [CACHE_FILE]


def test_a_cold_run_leaves_one_cache_file(tmp_path):
    names = ["b", "a", "c"]
    bodies = {name: payload({"1.0": [], f"1.{i}": []}) for i, name in enumerate(names)}

    def transport(url):
        return 200, bodies[url.split("/")[-2]]

    client = PyPIClient(transport=transport, cache_dir=tmp_path, workers=2)
    histories, _, failures = client.fetch_many(list(bodies))
    assert set(histories) == set(bodies) and not failures
    assert [p.name for p in tmp_path.iterdir()] == [CACHE_FILE]
    assert cached(tmp_path) == [
        (name, {"1.0": None, f"1.{i}": None}) for i, name in enumerate(names)
    ]


def test_the_cache_file_is_one_json_object_of_upload_times_by_normalized_name(tmp_path):
    files = [{"upload_time_iso_8601": "2021-02-01T00:00:00Z"}, {"upload_time": "2021-01-01T00:00:00"}]
    bodies = {
        "Foo_Bar": payload({"1.0": files, "0.9": [], "1.1": "not a file list"}),
        "zope.x": payload({"2.0": files[:1]}),
    }

    def transport(url):
        return 200, bodies[url.split("/")[-2]]

    PyPIClient(transport=transport, cache_dir=tmp_path).fetch_many(list(bodies))
    assert json.loads((tmp_path / CACHE_FILE).read_bytes()) == {
        "foo-bar": {"1.0": "2021-01-01T00:00:00", "0.9": None, "1.1": None},
        "zope-x": {"2.0": "2021-02-01T00:00:00Z"},
    }


def test_runs_that_download_nothing_leave_the_cache_file_untouched(tmp_path, monkeypatch):
    bodies = {"good": payload({"1.0": []}), "bad": payload({"": []})}

    def transport(url):
        return 200, bodies[url.split("/")[-2]]

    PyPIClient(transport=transport, cache_dir=tmp_path).fetch_many(["good", "bad"])
    path = tmp_path / CACHE_FILE
    before = path.read_bytes(), path.stat().st_ino, path.stat().st_mtime_ns

    def refuse(*args, **kwargs):
        raise AssertionError("the cache file was opened for writing")

    monkeypatch.setattr(registry, "_atomic_file", refuse)
    offline = PyPIClient(transport=transport, cache_dir=tmp_path, offline=True)
    for names in (["good"], ["good", "bad", "missing"]):
        offline.fetch_many(names)
    histories, _, failures = PyPIClient(transport=refuse, cache_dir=tmp_path).fetch_many(["good"])
    assert set(histories) == {"good"} and not failures
    assert (path.read_bytes(), path.stat().st_ino, path.stat().st_mtime_ns) == before


def test_a_run_that_raises_keeps_the_previous_cache_file(tmp_path):
    write_cache(tmp_path, {"old": {"0.1": None}})
    before = (tmp_path / CACHE_FILE).read_bytes()

    def transport(url):
        if "/broken/" in url:
            raise RuntimeError("transport bug")
        return 200, payload({"1.0": []})

    client = PyPIClient(transport=transport, cache_dir=tmp_path, workers=2)
    with pytest.raises(RuntimeError, match="transport bug"):
        client.fetch_many(["a", "broken", "c"])
    assert (tmp_path / CACHE_FILE).read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [CACHE_FILE]


def _valid_cache() -> bytes:
    return b'{"a": {}, "b": [1]}'


# A valid file of the [name, byte count] record framing an earlier version wrote.
_FRAMED = b'["a", 2]\n{}["b", 3]\n[1]'


@pytest.mark.parametrize(
    "data",
    [
        b"",
        _valid_cache()[:-1],  # a truncated object
        b"[" + _valid_cache() + b"]",
        b"null",
        b"7",
        _valid_cache().replace(b'"b"', b'"\xff"'),  # bytes that are not UTF-8
        _valid_cache() + b"}",  # junk after a valid object
        pytest.param(b"[" * 100000 + b"]" * 100000 + b"\n", id="nested-past-the-recursion-limit"),
        # Files in that framing, truncated or garbled; none of them is JSON.
        _FRAMED[:12],  # a truncated header
        _FRAMED + b'["c", 0]',  # a header without its line end
        _FRAMED.replace(b'["b", 3]', b"not json"),
        _FRAMED.replace(b'["b", 3]', b'["b", 3.0]'),
        _FRAMED.replace(b'["b", 3]', b'["b", true]'),
        _FRAMED.replace(b'["b", 3]', b'[7, 3]'),
        _FRAMED.replace(b'["b", 3]', b'["b"]'),
        _FRAMED.replace(b'["b", 3]', b"3"),
        b"\xff\n",
    ],
)
def test_a_truncated_or_garbled_cache_file_is_ignored_as_a_whole(tmp_path, data):
    (tmp_path / CACHE_FILE).write_bytes(data)
    offline = PyPIClient(cache_dir=tmp_path, offline=True)
    histories, _, failures = offline.fetch_many(["a", "b"])
    assert not histories
    assert [(f.package, f.reason) for f in failures] == [("a", "offline-miss"), ("b", "offline-miss")]
    transport = make_transport([(200, payload({"1.0": []})), (200, payload({"2.0": []}))])
    histories, _, failures = PyPIClient(transport=transport, cache_dir=tmp_path).fetch_many(
        ["a", "b"]
    )
    assert set(histories) == {"a", "b"} and not failures
    assert len(transport.calls) == 2
    assert cached(tmp_path) == [("a", {"1.0": None}), ("b", {"2.0": None})]


def test_the_valid_cache_file_of_the_garbling_test_is_read(tmp_path):
    (tmp_path / CACHE_FILE).write_bytes(_valid_cache())
    offline = PyPIClient(cache_dir=tmp_path, offline=True)
    histories, _, failures = offline.fetch_many(["a", "b"])
    assert not histories
    assert [(f.package, f.reason, f.detail) for f in failures] == [
        ("a", "not-found", "package 'a' has no published releases"),
        ("b", "bad-payload", "cached payload for 'b' is not a map of upload times"),
    ]


def test_an_empty_cached_record_is_not_found_online_without_a_download(tmp_path):
    write_cache(tmp_path, {"pkg": {}})
    transport = make_transport([])
    histories, _, failures = PyPIClient(transport=transport, cache_dir=tmp_path).fetch_many(["pkg"])
    assert not histories
    assert failures == (
        AttritionRecord("pkg", "not-found", "package 'pkg' has no published releases"),
    )
    assert transport.calls == []


# The JSON text of a record that is not a map of version to upload time or null.
_MALFORMED_RECORDS = [b'"<html>"', b"null", b"[]", b'{"1.0": 5}', b'{"1.0": ["x"]}']


@pytest.mark.parametrize("body", _MALFORMED_RECORDS)
def test_a_malformed_record_is_bad_offline_and_downloaded_again_online(tmp_path, body):
    write_cache(tmp_path, {"pkg": json.loads(body)})
    offline = PyPIClient(cache_dir=tmp_path, offline=True)
    histories, _, [failure] = offline.fetch_many(["pkg"])
    assert not histories
    assert (failure.package, failure.reason) == ("pkg", "bad-payload")
    assert failure.detail == "cached payload for 'pkg' is not a map of upload times"
    transport = make_transport([(200, payload({"1.0": []}))])
    histories, _, failures = PyPIClient(transport=transport, cache_dir=tmp_path).fetch_many(["pkg"])
    assert len(histories["pkg"]) == 1 and not failures
    assert len(transport.calls) == 1
    assert cached(tmp_path) == [("pkg", {"1.0": None})]


def test_cache_files_of_earlier_versions_are_ignored(tmp_path):
    (tmp_path / "pkg.json").write_bytes(payload({"1.0": []}))
    # The record files of two earlier versions: each body as downloaded, and each
    # releases map reduced to its upload times.
    for name, body in (("payloads", payload({"1.0": []})), ("releases", b'{"1.0": null}')):
        (tmp_path / name).write_bytes(b'["pkg", %d]\n%s' % (len(body), body))
    offline = PyPIClient(cache_dir=tmp_path, offline=True)
    _, _, [failure] = offline.fetch_many(["pkg"])
    assert failure.reason == "offline-miss"
    transport = make_transport([(200, payload({"1.0": []}))])
    histories, _, failures = PyPIClient(transport=transport, cache_dir=tmp_path).fetch_many(["pkg"])
    assert len(histories["pkg"]) == 1 and not failures
    assert len(transport.calls) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["payloads", "pkg.json", "releases", CACHE_FILE]
    )
    assert cached(tmp_path) == [("pkg", {"1.0": None})]


def test_a_rewrite_keeps_the_records_it_did_not_replace(tmp_path):
    write_cache(tmp_path, {"kept": {"0.1": None}, "stale": {"": None}})
    transport = make_transport([(200, payload({"1.0": []})), (200, payload({"2.0": []}))])
    client = PyPIClient(transport=transport, cache_dir=tmp_path)
    histories, _, failures = client.fetch_many(["new", "stale"])
    assert set(histories) == {"new", "stale"} and not failures
    assert cached(tmp_path) == [
        ("new", {"1.0": None}),
        ("stale", {"2.0": None}),
        ("kept", {"0.1": None}),
    ]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(min_size=1).filter(lambda n: "/" not in n), min_size=1, max_size=5))
def test_every_name_round_trips_through_the_cache(names):
    # Names that normalize alike ("A_b", "a-B") share one record; a name
    # repeated in the batch is written once.
    bodies = {name: payload({"1.0": [], f"{i + 1}.0": []}) for i, name in enumerate(names)}
    records = {name: {"1.0": None, f"{i + 1}.0": None} for i, name in enumerate(names)}

    def transport(url):
        return 200, bodies[url[len("https://pypi.org/pypi/") : -len("/json")]]

    first = {}  # normalized name: the first spelling in the batch and its record
    for name in names:
        first.setdefault(normalize_name(name), (name, records[name]))
    with tempfile.TemporaryDirectory() as tmp:
        online = PyPIClient(transport=transport, cache_dir=tmp, workers=2)
        fetched, _, failures = online.fetch_many(names)
        assert not failures
        assert cached(Path(tmp)) == [(key, body) for key, (_, body) in first.items()]
        served, _, failures = PyPIClient(cache_dir=tmp, offline=True).fetch_many(names)
        assert not failures
    for name in names:
        assert served[name].releases == fetched[first[normalize_name(name)][0]].releases


@pytest.mark.parametrize(
    "names",
    [["pkg", "pkg"], ["Foo_Bar", "foo-bar", "FOO.BAR"], ["with space", "new\nline", "caf\u00e9"]],
)
def test_names_round_trip_and_share_their_normalized_record(tmp_path, names):
    transport = make_transport([(200, payload({"1.0": []})) for _ in names])
    online = PyPIClient(transport=transport, cache_dir=tmp_path)
    fetched, _, failures = online.fetch_many(names)
    assert not failures and len(transport.calls) == len(names)
    assert [name for name, _ in cached(tmp_path)] == list(dict.fromkeys(map(normalize_name, names)))
    served, _, failures = PyPIClient(cache_dir=tmp_path, offline=True).fetch_many(names)
    assert not failures and served == fetched


def _fields(version):
    return [getattr(version, f.name) for f in dataclasses.fields(Version)]


# Keys that stress ordering and collapsing: equal spellings of one
# version, local labels, legacy text, a "v" prefix, padding and blanks.
_TRICKY_KEYS = (
    "1.0", "1.0.0", "1", "v1.0", "V1.0", " 1.0 ", "1.0+9", "1.0+10", "1.0+abc",
    "1.0+ubuntu.1", "1.0rc1", "1.0RC1", "1.0.post1", "1.0.dev0", "2!0.1", "foo-bar",
    "Foo-Bar", "latest", "", "   ",
)
_STAMPS = (None, "2020-01-01T00:00:00Z", "2020-01-01T00:00:00Z", "2021-06-01T12:00:00Z")
release_files = st.one_of(
    st.sampled_from(_STAMPS).map(
        lambda stamp: [] if stamp is None else [{"upload_time_iso_8601": stamp}]
    ),
    st.just("not a file list"),
)
release_maps = st.dictionaries(
    st.one_of(st.sampled_from(_TRICKY_KEYS), oracles.version_texts()), release_files, max_size=8
)


@settings(max_examples=150, deadline=None)
@given(st.lists(release_maps, min_size=1, max_size=4))
def test_fetched_histories_round_trip_through_a_snapshot(maps):
    bodies = {f"pkg{i}": payload(releases) for i, releases in enumerate(maps)}

    def transport(url):
        return 200, bodies[url.split("/")[-2]]

    client = PyPIClient(transport=transport, workers=2)
    histories, _, failures = client.fetch_many(sorted(bodies))
    assert sorted([*histories, *(f.package for f in failures)]) == sorted(bodies)
    assert {f.reason for f in failures} <= {"not-found", "bad-payload"}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snap.json"
        save_snapshot(path, histories)
        loaded = load_snapshot(path)

    def rows(history):
        return [(r.raw, r.upload_time, r.version.key) for r in history.releases]

    assert {name: rows(h) for name, h in loaded.items()} == {
        name: rows(h) for name, h in histories.items()
    }
    # Both memos hand back exactly what a fresh parse of the raw string gives.
    for history in [*histories.values(), *loaded.values()]:
        for release in history.releases:
            assert _fields(release.version) == _fields(parse_version(release.raw))


# File lists as a payload may hold them: either stamp key or both, empty,
# non-string and non-ASCII stamps, entries that are not objects, and
# values that are not lists at all.
_stamp_values = st.one_of(
    st.sampled_from(_STAMPS), st.just(""), st.integers(), st.lists(st.none(), max_size=1), st.text()
)
_file_entries = st.one_of(
    st.fixed_dictionaries(
        {}, optional={"upload_time_iso_8601": _stamp_values, "upload_time": _stamp_values}
    ),
    st.integers(),
    st.text(max_size=3),
    st.none(),
)
raw_release_maps = st.dictionaries(
    st.one_of(st.sampled_from(_TRICKY_KEYS), oracles.version_texts(), st.text(max_size=6)),
    st.one_of(st.lists(_file_entries, max_size=4), st.none(), st.text(max_size=3), st.just({})),
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(st.lists(raw_release_maps, min_size=1, max_size=4))
def test_an_offline_fetch_returns_what_the_online_fetch_that_cached_it_returned(maps):
    bodies = {f"pkg{i}": payload(releases) for i, releases in enumerate(maps)}

    def transport(url):
        return 200, bodies[url.split("/")[-2]]

    with tempfile.TemporaryDirectory() as tmp:
        online = PyPIClient(transport=transport, cache_dir=tmp, workers=2).fetch_many(sorted(bodies))
        offline = PyPIClient(cache_dir=tmp, offline=True).fetch_many(sorted(bodies))
    assert offline == online
    assert {f.reason for f in online[2]} <= {"not-found", "bad-payload"}


@settings(max_examples=200, deadline=None)
@given(oracles.release_entries())
def test_ordered_history_keys_strictly_increase(entries):
    history, _ = order_history("pkg", entries)
    keys = [release.version.key for release in history.releases]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert set(keys) == {parse_version(text).key for text, _ in entries}


@settings(max_examples=150, deadline=None)
@given(oracles.release_entries())
def test_snapshot_loads_exactly_when_its_keys_strictly_increase(entries):
    history, _ = order_history("pkg", entries)
    ordered = [{"version": r.raw, "upload_time": r.upload_time} for r in history.releases]
    listed = [{"version": text, "upload_time": stamp} for text, stamp in entries]
    for rows in (ordered, listed):
        keys = [parse_version(row["version"]).key for row in rows]
        doc = {"schema_version": 1, "histories": {"pkg": rows}}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "snap.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            if all(a < b for a, b in zip(keys, keys[1:])):
                loaded = load_snapshot(path)["pkg"].releases
                assert [r.raw for r in loaded] == [row["version"] for row in rows]
            else:
                assert rows is listed
                with pytest.raises(SnapshotSchemaError, match="is not before"):
                    load_snapshot(path)


def test_snapshot_load_parses_each_distinct_string_once(tmp_path):
    spellings = {"a": ("1.0", "1.1"), "b": ("1.0", "1.1"), "c": ("1.0.0", "V1.1")}
    histories = {
        name: [{"version": v, "upload_time": None} for v in versions]
        for name, versions in spellings.items()
    }
    path = tmp_path / "snap.json"
    path.write_text(
        json.dumps({"schema_version": 1, "histories": histories}), encoding="utf-8"
    )
    first, second = load_snapshot(path), load_snapshot(path)
    for a, b in zip(first["a"].releases, first["b"].releases):
        assert a.version is b.version
    # Equal versions spelled differently are parsed apart.
    for release in first["c"].releases:
        assert _fields(release.version) == _fields(parse_version(release.raw))
    # The memo lives for one call: a second load shares nothing with the first.
    ids = {id(r.version) for h in first.values() for r in h.releases}
    assert ids.isdisjoint(id(r.version) for h in second.values() for r in h.releases)


def test_loaded_fixture_versions_equal_fresh_parses_in_every_field():
    histories = load_snapshot(FIXTURES / "snapshot_fixture.json")
    releases = [r for h in histories.values() for r in h.releases]
    assert releases
    for release in releases:
        assert _fields(release.version) == _fields(parse_version(release.raw))


def test_snapshot_round_trip(tmp_path):
    history, _ = order_history(
        "pkg", [("1.0", "2020-01-01T00:00:00Z"), ("1.1", "2020-06-01T00:00:00Z")]
    )
    path = tmp_path / "snap.json"
    save_snapshot(path, {"pkg": history})
    loaded = load_snapshot(path)
    assert [r.raw for r in loaded["pkg"].releases] == ["1.0", "1.1"]
    assert [r.upload_time for r in loaded["pkg"].releases] == [
        "2020-01-01T00:00:00Z",
        "2020-06-01T00:00:00Z",
    ]


def test_snapshot_and_cache_files_get_the_mode_open_gives(tmp_path):
    def mode(path):
        return stat.S_IMODE(path.stat().st_mode)

    def check(directory):
        directory.mkdir()
        plain = directory / "plain.json"
        with open(plain, "w"):
            pass
        history, _ = order_history("pkg", [("1.0", None)])
        save_snapshot(directory / "snap.json", {"pkg": history})
        transport = make_transport([(200, payload({"1.0": []}))])
        client = PyPIClient(transport=transport, cache_dir=directory)
        histories, _, failures = client.fetch_many(["pkg"])
        assert set(histories) == {"pkg"} and not failures
        assert mode(directory / "snap.json") == mode(plain)
        assert mode(directory / CACHE_FILE) == mode(plain)
        return mode(plain)

    check(tmp_path / "inherited")
    # A umask set after the module was imported applies to the next write.
    previous = os.umask(0o077)
    try:
        assert check(tmp_path / "private") == 0o600
    finally:
        os.umask(previous)


@pytest.mark.parametrize("failure", ["row", "rename"])
def test_a_failed_snapshot_write_keeps_the_previous_file(tmp_path, monkeypatch, failure):
    path = tmp_path / "snap.json"
    history, _ = order_history("pkg", [("1.0", None), ("1.1", None)])
    save_snapshot(path, {"pkg": history})
    before = path.read_bytes()
    histories = {"alpha": history, "pkg": history}
    if failure == "row":
        # An int upload time makes the row encoder raise after "alpha" is written.
        bad = Release(parse_version("1.0"), "1.0", 20200101)
        histories["zeta"] = ReleaseHistory("zeta", (bad,))
        expected = TypeError
    else:

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(registry.os, "replace", refuse)
        expected = OSError
    with pytest.raises(expected):
        save_snapshot(path, histories)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["snap.json"]


def test_snapshot_write_is_deterministic(tmp_path):
    history, _ = order_history("pkg", [("1.0", None)])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_snapshot(a, {"pkg": history})
    save_snapshot(b, {"pkg": history})
    assert a.read_bytes() == b.read_bytes()


def stdlib_snapshot(histories) -> bytes:
    """The bytes ``json.dump`` writes for a snapshot of ``histories``."""
    doc = {
        "schema_version": 1,
        "histories": {
            name: [{"version": r.raw, "upload_time": r.upload_time} for r in history.releases]
            for name, history in histories.items()
        },
    }
    buffer = io.StringIO()
    json.dump(doc, buffer, indent=2, sort_keys=True)
    return (buffer.getvalue() + "\n").encode("utf-8")


_package_names = st.one_of(
    st.text(), st.sampled_from(["pkg", "p\u00e9kg", 'quo"te', "back\\slash", "tab\tline\n"])
)


@st.composite
def snapshot_histories(draw) -> dict:
    histories = {}
    for name in draw(st.lists(_package_names, max_size=4, unique=True)):
        entries = [
            (text, draw(st.one_of(st.just(stamp), st.none(), st.text())))
            for text, stamp in draw(oracles.release_entries())
        ]
        histories[name] = order_history(name, entries)[0]
    return histories


@settings(max_examples=200, deadline=None)
@given(snapshot_histories())
def test_snapshot_bytes_are_the_stdlib_dump(histories):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snap.json"
        save_snapshot(path, histories)
        assert path.read_bytes() == stdlib_snapshot(histories)


def test_empty_snapshot_and_empty_history_bytes_are_the_stdlib_dump(tmp_path):
    path = tmp_path / "snap.json"
    for histories in ({}, {"pkg": ReleaseHistory("pkg", ())}):
        save_snapshot(path, histories)
        assert path.read_bytes() == stdlib_snapshot(histories)
    assert b'"histories": {},' in stdlib_snapshot({})


def test_snapshot_that_is_not_utf8_is_a_schema_error(tmp_path):
    path = tmp_path / "snap.json"
    path.write_bytes(b'{"schema_version": 1, "histories": {"\xff": []}}')
    with pytest.raises(SnapshotSchemaError, match="is not valid JSON: 'utf-8' codec"):
        load_snapshot(path)


def test_missing_snapshot_raises_not_found(tmp_path):
    with pytest.raises(SnapshotNotFoundError):
        load_snapshot(tmp_path / "absent.json")


@pytest.mark.parametrize(
    "doc",
    [
        "{ not json",
        json.dumps({"schema_version": 999, "histories": {}}),
        # true and 1.0 compare equal to the schema version 1, but are not it.
        json.dumps({"schema_version": True, "histories": {}}),
        json.dumps({"schema_version": 1.0, "histories": {}}),
        json.dumps({"schema_version": 1}),
        json.dumps({"schema_version": 1, "histories": {"pkg": "nope"}}),
        json.dumps({"schema_version": 1, "histories": {"pkg": [{"nope": 1}]}}),
    ],
)
def test_corrupt_snapshots_raise_schema_error(tmp_path, doc):
    path = tmp_path / "snap.json"
    path.write_text(doc, encoding="utf-8")
    with pytest.raises(SnapshotSchemaError):
        load_snapshot(path)


@pytest.mark.parametrize("version", [1.0, ["1.0"], None, "", "   "])
def test_snapshot_row_without_a_version_string_is_a_schema_error(tmp_path, version):
    rows = [{"version": "0.9", "upload_time": None}, {"version": version, "upload_time": None}]
    path = tmp_path / "snap.json"
    path.write_text(
        json.dumps({"schema_version": 1, "histories": {"pkg": rows}}), encoding="utf-8"
    )
    with pytest.raises(SnapshotSchemaError, match=r"'pkg' has no version string"):
        load_snapshot(path)


def test_snapshot_out_of_version_order_is_a_schema_error(tmp_path):
    rows = [{"version": v, "upload_time": None} for v in ("2.0", "1.0", "1.0.0")]
    path = tmp_path / "snap.json"
    path.write_text(
        json.dumps({"schema_version": 1, "histories": {"pkg": rows}}), encoding="utf-8"
    )
    with pytest.raises(SnapshotSchemaError, match=r"'pkg'.*'2\.0' is not before '1\.0'"):
        load_snapshot(path)


@pytest.mark.parametrize("stamp", [5, 1.5, ["2020-01-01"], {"t": 1}, True])
def test_snapshot_row_with_a_non_string_upload_time_is_a_schema_error(tmp_path, stamp):
    rows = [{"version": "0.9", "upload_time": None}, {"version": "1.0", "upload_time": stamp}]
    path = tmp_path / "snap.json"
    path.write_text(
        json.dumps({"schema_version": 1, "histories": {"pkg": rows}}), encoding="utf-8"
    )
    with pytest.raises(SnapshotSchemaError, match=r"'pkg' has a non-string upload_time"):
        load_snapshot(path)


def test_loaded_records_carry_no_instance_dict():
    histories = load_snapshot(FIXTURES / "snapshot_fixture.json")
    database = load_database_path(FIXTURES / "safetydb_fixture.json")
    releases = [r for h in histories.values() for r in h.releases]
    clauses = [
        c for entries in database.advisories.values() for a in entries for c in a.clauses
    ]
    constraints = [k for c in clauses for k in c.constraints]
    records = [
        *releases,
        *(r.version for r in releases),
        *clauses,
        *constraints,
        *(k.version for k in constraints),
    ]
    assert {type(r) for r in records} == {Release, Version, SpecClause, Constraint}
    # One dict per loaded row would bring back the cost these records remove.
    assert not [r for r in records if hasattr(r, "__dict__")]
