"""A fixed reference computation that reads the host's current speed.

The benchmark shares a few cores of a busy host.  Their speed switches
between a fast and a slow state many times a second, in proportions
that drift over minutes, and the whole program slows with it.  A probe
reading takes about 10 ms of the same kinds of work the program does
(a JSON round trip, version-like regex parsing and sorting, small
least-squares steps in numpy) and never calls the program, so it
changes only when the host does.  The timed passes take readings
between commands; the mean of a run's readings is its host index.
Command times are divided by the host index and multiplied by
``REFERENCE_S``: they are reported in the seconds they take on a host
whose mean reading is ``REFERENCE_S``.  A change to the program moves
that figure by the same ratio as its wall time.
"""

from __future__ import annotations

import functools
import json
import re
import time

# A typical mean reading on the 2-core virtual machine the bounds were
# set on.  Any fixed value gives the same spreads and the same ratios
# between two versions of the program.
REFERENCE_S = 0.0085

_DOC = {
    "info": {"name": "probe", "summary": "reference"},
    "releases": {
        f"{i}.{j}": [
            {"filename": f"probe-{i}.{j}-{k}.tar.gz", "size": 1000 + 17 * k,
             "upload_time_iso_8601": f"2015-{1 + j % 12:02d}-0{1 + k}T00:00:00.000000Z"}
            for k in range(2)
        ]
        for i in range(12) for j in range(10)
    },
}
_TEXT = json.dumps(_DOC)
_VERSION = re.compile(
    r"^v?(?:(\d+)!)?(\d+(?:[._-]\d+)*)(?:[._-]?(a|b|rc)(\d+))?"
    r"(?:[._-]?post(\d+))?(?:\.dev(\d+))?(?:\+([a-z0-9.]+))?$"
)
_VERSIONS = [
    f"{i}.{j}.{k}rc{k}" if k % 3 == 0 else f"v{i}.{j}.{k}.post1"
    for i in range(10) for j in range(10) for k in range(10)
]


def _json() -> None:
    json.dumps(json.loads(_TEXT), indent=2, sort_keys=True)


def _versions() -> None:
    keys = []
    for match in map(_VERSION.match, _VERSIONS):
        release = tuple(int(part) for part in re.split(r"[._-]", match.group(2)))
        keys.append((release, match.group(3) or "~", int(match.group(4) or 0)))
    keys.sort()


@functools.cache
def _design():
    # numpy is imported on first use, so that importing it stays part of
    # the program's set-up time.
    import numpy

    rng = numpy.random.default_rng(0)
    return numpy, rng.random((80, 4)), (rng.random(80) < 0.5).astype(float)


def _irls() -> None:
    np, x, y = _design()
    for _ in range(20):
        beta = np.zeros(4)
        for _ in range(3):
            p = 1.0 / (1.0 + np.exp(-x @ beta))
            w = p * (1.0 - p)
            beta = beta + np.linalg.solve((x.T * w) @ x + 1e-6 * np.eye(4), x.T @ (y - p))


_PARTS = (_json, _versions, _irls)


def reading() -> float:
    """Seconds the reference computation takes now: each part's best of two."""
    total = 0.0
    for part in _PARTS:
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            part()
            best = min(best, time.perf_counter() - start)
        total += best
    return total
