"""Seeded synthetic inputs for the benchmark, with their planted truth.

A workload is built from its name, a seed and a scale.  Every package
gets a release history generated in true version order, a planted 0/1
series over it, and advisories whose constraints reproduce that series
exactly.  The generator also renders the advisory database, the PyPI
JSON payloads an injected transport serves, and the snapshot that a
correct ``ingest`` must write.  Nothing here imports the program: the
inputs depend on the seed alone, so two versions of the program are
measured on the same bytes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from statistics import NormalDist

# Forms the version grammar accepts for each pre-release kind.
_PRE_SPELLINGS = {
    "a": ("a", "alpha", "A", "Alpha"),
    "b": ("b", "beta", "B"),
    "rc": ("rc", "c", "pre", "preview", "RC"),
}
_POST_SPELLINGS = ("post", "rev", "r", "POST")
# Strings outside the grammar; they order before every canonical
# version and among themselves by case-folded text.
_LEGACY_POOL = (
    "0.x-final", "0.x-snapshot", "dev-snapshot", "nightly-build",
    "old-stable", "prerelease-zero", "snapshot-2009", "unversioned",
)
_LOCALS = ("ubuntu1", "build.7", "deb9", "local.1")
_FIRST_UPLOAD = datetime(2010, 1, 4)


@dataclass(frozen=True)
class Spec:
    """Shape of one workload at scale 1."""

    packages: int
    lengths: str           # "heavy" (25 to ~500, median ~50) or "short"
    long_share: float      # share of "short" packages given 25..45 releases
    rich_versions: float   # chance a base release gets a pre/post/dev/local form
    missing: float         # share of packages the index answers with 404
    backfilled: float      # share of histories with one late-uploaded old release
    dangling: float        # chance an advisory carries a clause on an absent version
    malformed: float       # chance of a skipped entry, bad id or bad CVE per package


SPECS = {
    "forecast-long": Spec(150, "heavy", 0.0, 0.05, 0.0, 0.02, 0.05, 0.02),
    "corpus-wide": Spec(1000, "short", 0.04, 0.30, 0.02, 0.05, 0.35, 0.25),
}


@dataclass
class Package:
    """One generated package and the truth the outputs are checked against."""

    name: str
    versions: list[str]
    upload_times: list[str | None]
    payload_files: list[list[str]]
    series: tuple[int, ...]
    counts: tuple[int, ...]
    entries: list[dict] = field(default_factory=list)
    found: bool = True
    surviving: int = 0        # advisories with at least one valid clause
    clause_drops: int = 0
    advisory_drops: int = 0
    flags: int = 0            # "!=" constraints among the parsed advisories
    parsed: int = 0           # entries the database loader keeps


@dataclass
class Inputs:
    """Everything one workload writes, plus its planted truth."""

    name: str
    seed: int
    packages: dict[str, Package]

    def database(self) -> dict:
        doc: dict = {"$meta": {"generator": "perfbench", "seed": self.seed}}
        for name in sorted(self.packages):
            doc[name] = self.packages[name].entries
        return doc

    def fetched(self) -> list[str]:
        """Packages ``ingest`` asks the index for: those with a parsed advisory."""
        return sorted(n for n, p in self.packages.items() if p.parsed)

    def found(self) -> list[str]:
        return [n for n in self.fetched() if self.packages[n].found]

    def snapshot(self) -> dict:
        histories = {}
        for name in self.found():
            pkg = self.packages[name]
            histories[name] = [
                {"version": raw, "upload_time": stamp}
                for raw, stamp in zip(pkg.versions, pkg.upload_times)
            ]
        return {"schema_version": 1, "histories": histories}

    def payload(self, name: str) -> bytes | None:
        """The index's JSON document for a package, or None for a 404."""
        pkg = self.packages[name]
        if not pkg.found:
            return None
        rng = random.Random(f"{self.seed}/payload/{name}")
        order = list(range(len(pkg.versions)))
        rng.shuffle(order)
        releases = {}
        for i in order:
            releases[pkg.versions[i]] = [
                {
                    "filename": f"{name}-{pkg.versions[i]}-{k}.tar.gz",
                    "upload_time": stamp[:-1],
                    "upload_time_iso_8601": stamp,
                    "size": 1000 + 17 * k,
                }
                for k, stamp in enumerate(pkg.payload_files[i])
            ]
        doc = {"info": {"name": name, "summary": "synthetic"}, "releases": releases}
        return json.dumps(doc).encode()

    def corpus(self) -> list[dict]:
        """The rows ``build`` must emit, sorted by package."""
        rows = []
        for name in self.found():
            pkg = self.packages[name]
            if pkg.surviving:
                rows.append({
                    "package": name,
                    "r": len(pkg.versions),
                    "m": pkg.surviving,
                    "w": "".join(map(str, pkg.series)),
                    "counts": list(pkg.counts),
                })
        return rows

    def attrition(self) -> dict:
        """The attrition counts ``build`` must report."""
        found = [self.packages[n] for n in self.found()]
        return {
            "clause_drops": sum(p.clause_drops for p in found),
            "advisory_drops": sum(p.advisory_drops for p in found),
            "package_drops": sum(1 for n in self.fetched() if not self.packages[n].found)
            + sum(1 for p in found if not p.surviving),
            "flags": sum(p.flags for p in found),
        }


# -- versions --------------------------------------------------------------


def _abstract_versions(rng: random.Random, r: int, rich: float) -> list[tuple]:
    """r version descriptions in true order.

    A description is ("legacy", text) or ("canon", epoch, release,
    pre, post, dev, local).  Within one base release the order is
    dev < a < b < rc < final < final+local < post.
    """
    out: list[tuple] = []
    if rng.random() < 2 * rich and r > 8:
        picks = rng.sample(_LEGACY_POOL, rng.randint(1, 2))
        out.extend(("legacy", text) for text in sorted(picks, key=str.lower))
    epoch = 0
    major, minor, patch = rng.choice(((0, 1, 0), (1, 0, 0), (0, 0, 1), (2, 3, 0)))
    epoch_at = r - rng.randint(2, 4) if rng.random() < rich / 3 else None
    while len(out) < r:
        if epoch_at is not None and epoch == 0 and len(out) >= epoch_at:
            epoch, major, minor, patch = 1, 1, 0, 0
        base = (major, minor, patch)
        if rng.random() < rich:
            kind = rng.choice(("dev", "pre", "post", "local"))
            if kind == "dev":
                out.append(("canon", epoch, base, None, None, rng.choice((0, 1)), None))
            if kind == "pre":
                for pre in (("a", 1), ("b", 1), ("b", 2), ("rc", 1))[rng.randint(0, 2):]:
                    out.append(("canon", epoch, base, pre, None, None, None))
            out.append(("canon", epoch, base, None, None, None, None))
            if kind == "local":
                out.append(("canon", epoch, base, None, None, None, rng.choice(_LOCALS)))
            if kind == "post":
                out.append(("canon", epoch, base, None, rng.randint(1, 3), None, None))
        else:
            out.append(("canon", epoch, base, None, None, None, None))
        step = rng.random()
        if step < 0.7:
            patch += 1
        elif step < 0.92:
            minor, patch = minor + 1, 0
        else:
            major, minor, patch = major + 1, 0, 0
    return out[:r]


def _render(v: tuple, rng: random.Random, plain: bool) -> str:
    """One surface form of a version; ``plain`` gives the usual spelling."""
    if v[0] == "legacy":
        return v[1] if plain or rng.random() < 0.5 else v[1].upper()
    _, epoch, release, pre, post, dev, local = v
    segments = list(release)
    while len(segments) > 1 and segments[-1] == 0 and (plain or rng.random() < 0.5):
        segments.pop()
    if not plain and rng.random() < 0.3:
        segments.append(0)
    sep = "." if plain or rng.random() < 0.85 else rng.choice("-_")
    text = sep.join(str(s) for s in segments)
    if epoch:
        text = f"{epoch}!{text}"
    if not plain and rng.random() < 0.2:
        text = rng.choice("vV") + text
    if pre is not None:
        spelling = pre[0] if plain else rng.choice(_PRE_SPELLINGS[pre[0]])
        text += ("" if plain else rng.choice(("", ".", "-"))) + spelling + str(pre[1])
    if post is not None:
        spelling = "post" if plain else rng.choice(_POST_SPELLINGS)
        text += ("." if plain else rng.choice((".", "-", "_"))) + spelling + str(post)
    if dev is not None:
        text += ".dev" + ("" if not plain and dev == 0 and rng.random() < 0.5 else str(dev))
    if local is not None:
        text += "+" + local
    return text


def _upload_times(rng: random.Random, r: int, backfilled: bool) -> tuple[list, list]:
    """Per-release earliest upload time and the payload's per-file times."""
    day = _FIRST_UPLOAD + timedelta(days=rng.randint(0, 2000), seconds=rng.randint(0, 86399))
    earliest: list[str | None] = []
    files: list[list[str]] = []
    for _ in range(r):
        day += timedelta(days=rng.randint(1, 40), seconds=rng.randint(0, 86399))
        stamps = [day] + [day + timedelta(hours=h) for h in rng.sample(range(1, 48), rng.randint(0, 2))]
        if rng.random() < 0.01:
            stamps = []
        rng.shuffle(stamps)
        files.append([s.strftime("%Y-%m-%dT%H:%M:%S.%fZ") for s in stamps])
        earliest.append(min(files[-1]) if stamps else None)
    if backfilled and r >= 3:
        # An old release re-uploaded after the newest one: ordering must
        # still follow versions, and the CLI warns about the disagreement.
        j = rng.randrange(r - 1)
        late = (day + timedelta(days=3)).strftime("%Y-%m-%dT%H:%M:%S.%fZ")
        files[j] = [late]
        earliest[j] = late
    return earliest, files


# -- series ------------------------------------------------------------------


def _autologistic(rng: random.Random, beta: list[float], n: int) -> list[int]:
    """Draw n values of the autologistic model (the form of autologistic.simulate).

    The model is restated here so the inputs stay fixed when the
    program's own simulator changes.
    """
    order = len(beta) - 1
    past = [0] * order
    values = []
    for _ in range(n):
        eta = beta[0] + sum(beta[k] * past[-k] for k in range(1, order + 1))
        p = 1.0 / (1.0 + math.exp(-eta)) if eta >= 0 else math.exp(eta) / (1.0 + math.exp(eta))
        draw = 1 if rng.random() < p else 0
        values.append(draw)
        past.append(draw)
    return values


def _planted_series(rng: random.Random, r: int, kind: str, order: int) -> list[int]:
    if kind == "near-constant":
        values = [0] * r
        for i in rng.sample(range(r), rng.randint(1, 2)):
            values[i] = 1
        return values
    if kind == "separable":
        period = rng.choice(((0, 1), (1, 1, 0), (0, 0, 1, 1)))
        shift = rng.randrange(len(period))
        return [period[(i + shift) % len(period)] for i in range(r)]
    if kind == "markov":
        stay = rng.uniform(0.5, 0.95)
        values = [rng.randint(0, 1)]
        for _ in range(r - 1):
            values.append(values[-1] if rng.random() < stay else 1 - values[-1])
        return values
    beta = [rng.uniform(-2.0, 0.0), rng.uniform(1.5, 4.0)]
    beta += [rng.uniform(-1.0, 2.0) for _ in range(order - 1)]
    return _autologistic(rng, beta, r)


def _lengths(spec: Spec, n: int, rng: random.Random) -> list[int]:
    """Release counts from a fixed quantile grid, assigned in seeded order.

    The grid keeps the total work nearly the same for every seed; the
    seed decides which package gets which length.
    """
    normal = NormalDist()
    lengths = []
    for i in range(n):
        q = (i + 0.5) / n
        if spec.lengths == "heavy":
            lengths.append(min(500, 25 + round(25 * math.exp(1.18 * normal.inv_cdf(q)))))
        elif q < spec.long_share:
            lengths.append(25 + round(20 * q / spec.long_share))
        else:
            lengths.append(2 + round(22 * (q - spec.long_share) / (1 - spec.long_share)))
    rng.shuffle(lengths)
    return lengths


# -- advisories --------------------------------------------------------------


def _runs(series: list[int]) -> list[tuple[int, int]]:
    runs = []
    start = None
    for i, v in enumerate(series + [0]):
        if v and start is None:
            start = i
        elif not v and start is not None:
            runs.append((start, i - 1))
            start = None
    return runs


def _clauses(series: list[int], rng: random.Random) -> list[tuple[list, set]]:
    """Clauses as (constraints, covered positions) that cover the 1s exactly.

    A constraint is (operator, index of the boundary release).  Two runs
    separated by a single 0 may share one clause with a "!=" hole.
    """
    r = len(series)
    runs = _runs(series)
    clauses = []
    i = 0
    while i < len(runs):
        a, b = runs[i]
        if i + 1 < len(runs) and runs[i + 1][0] == b + 2 and rng.random() < 0.3:
            d = runs[i + 1][1]
            lower = [(">=", a)] if a else []
            upper = [("<=", d)] if d < r - 1 else []
            clauses.append((lower + upper + [("!=", b + 1)], set(range(a, d + 1)) - {b + 1}))
            i += 2
            continue
        covered = set(range(a, b + 1))
        if a == b and rng.random() < 0.6:
            clauses.append(([("==", a)], covered))
        elif a == 0 and b == r - 1:
            clauses.append(([rng.choice((("<=", b), (">=", 0)))], covered))
        else:
            lower = [rng.choice(((">=", a), (">", a - 1)))] if a else []
            upper = [rng.choice((("<=", b), ("<", b + 1)))] if b < r - 1 else []
            clauses.append((lower + upper, covered))
        i += 1
    return clauses


def _spec_text(constraints: list, versions: list[tuple], rng: random.Random) -> str:
    parts = []
    for op, index in constraints:
        boundary = _render(versions[index], rng, plain=False)
        if op == "==" and rng.random() < 0.5:
            parts.append(boundary)
        else:
            parts.append(op + boundary)
    return ",".join(parts)


def _absent_version(versions: list[tuple], rng: random.Random) -> str:
    """A version string no release of the history equals."""
    top = max((v[2][0] for v in versions if v[0] == "canon"), default=0)
    return rng.choice((f"{top + 50}.0", f"{top + 40}.1.2rc3", f"0.0.{rng.randint(1, 9)}.dev9"))


def _advisories(pkg: Package, versions: list[tuple], spec: Spec, rng: random.Random) -> None:
    """Fill pkg.entries and the counts they imply."""
    name = pkg.name
    r = len(versions)
    clauses = _clauses(list(pkg.series), rng)
    rng.shuffle(clauses)
    groups: list[list] = []
    while clauses:
        take = rng.randint(1, 3)
        groups.append(clauses[:take])
        clauses = clauses[take:]
    if not groups:
        # An all-zero series still needs one advisory: an empty range.
        lo = min(r - 1, 1)
        groups.append([([(">=", lo), ("<", 0)], set())])
    if rng.random() < 0.5:
        # Overlap: a second advisory repeats one clause, so counts reach 2.
        groups.append([rng.choice(rng.choice(groups))])
    counts = [0] * r
    entries = []
    serial = rng.randint(10000, 99999)
    for group in groups:
        covered = set().union(*(c[1] for c in group))
        for i in covered:
            counts[i] += 1
        specs = [_spec_text(c[0], versions, rng) for c in group]
        pkg.flags += sum(1 for c in group for op, _ in c[0] if op == "!=")
        if rng.random() < spec.dangling:
            specs.insert(rng.randint(0, len(specs)), "<" + _absent_version(versions, rng))
            pkg.clause_drops += 1
        entries.append(_entry(name, serial + len(entries), specs, rng, spec))
        pkg.surviving += 1
    if rng.random() < spec.dangling:
        # An advisory whose every clause names an absent version is dropped.
        absent = [">=" + _absent_version(versions, rng) for _ in range(rng.randint(1, 2))]
        entries.append(_entry(name, serial + len(entries), absent, rng, spec))
        pkg.clause_drops += len(absent)
        pkg.advisory_drops += 1
    if rng.random() < spec.malformed:
        entries.append(rng.choice((
            {"id": f"pyup.io-{serial}x", "advisory": "no specs", "cve": None, "v": ""},
            {"id": f"pyup.io-{serial}y", "advisory": "bad op", "specs": ["~=1.0"], "v": "~=1.0"},
            {"id": f"pyup.io-{serial}z", "advisory": "empty", "specs": [], "v": ""},
            "not an object",
        )))
    rng.shuffle(entries)
    pkg.entries = entries
    pkg.counts = tuple(counts)
    pkg.parsed = len(groups) + pkg.advisory_drops


def _entry(name: str, serial: int, specs: list[str], rng: random.Random, spec: Spec) -> dict:
    entry = {
        "advisory": f"{name} before the fix mishandles input {serial}.",
        "cve": f"CVE-{2010 + serial % 12}-{serial}",
        "id": f"pyup.io-{serial}",
        "specs": specs,
        "v": ",".join(specs),
    }
    roll = rng.random()
    if roll < spec.malformed / 3:
        del entry["id"]
    elif roll < 2 * spec.malformed / 3:
        entry["cve"] = rng.choice(("CVE-19-1", "cve 2017", 42))
    elif roll < 0.2:
        entry["cve"] = None
    return entry


# -- workloads ---------------------------------------------------------------


def generate(workload: str, seed: int, scale: float = 1.0) -> Inputs:
    """Build a workload's inputs; the same (workload, seed, scale) gives the same inputs."""
    spec = SPECS[workload]
    rng = random.Random(f"{workload}/{seed}")
    n = max(4, round(spec.packages * scale))
    lengths = _lengths(spec, n, rng)
    missing = set(rng.sample(range(n), round(spec.missing * n)))
    # Kinds and model orders follow a package's length rank, so every
    # seed puts the same mix of work on the long tail of lengths.
    rank = {i: k for k, i in enumerate(sorted(range(n), key=lambda i: (lengths[i], i)))}
    by_rank = {}
    if spec.lengths == "heavy":
        # A few series that exercise separation and the skip paths.
        picks = max(2, n // 12)
        for j in range(picks):
            by_rank[int((j + 0.5) * n / picks)] = "near-constant" if j % 2 else "separable"
    packages: dict[str, Package] = {}
    for i, r in enumerate(lengths):
        name = f"pkg-{i:05d}-{rng.choice(('core', 'utils', 'web', 'auth', 'io'))}"
        prng = random.Random(f"{workload}/{seed}/{name}")
        kind = by_rank.get(rank[i], "autologistic" if spec.lengths == "heavy" else "markov")
        series = _planted_series(prng, r, kind, 1 + rank[i] % 3)
        abstract = _abstract_versions(prng, r, spec.rich_versions)
        versions = [_render(v, prng, plain=prng.random() < 0.7) for v in abstract]
        stamps, files = _upload_times(prng, r, prng.random() < spec.backfilled)
        pkg = Package(name, versions, stamps, files, tuple(series), (), found=i not in missing)
        _advisories(pkg, abstract, spec, prng)
        packages[name] = pkg
    return Inputs(workload, seed, packages)
