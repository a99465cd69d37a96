"""Shared test oracles: direct-evaluation routes and independent numerics.

Every helper here recomputes an answer the package also produces, but by
a different route: per-release comparison instead of positional fills,
scipy quasi-Newton instead of the package's own Newton solver, central
finite differences instead of the analytic score, a linear program
instead of the solver's separation checks.  Agreement between the
two routes is then evidence rather than tautology.  Version order has
its own reference too: a component-by-component parse, key and canonical
form over a separate copy of the grammar.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from hypothesis import strategies as st
from scipy import optimize

from vulnseries.registry import ReleaseHistory, order_history
from vulnseries.safetydb import Advisory, Constraint, SpecClause
from vulnseries.versions import Version, compare

# --- direct constraint evaluation ------------------------------------


def satisfies(op: str, version: Version, boundary: Version) -> bool:
    """Evaluate one operator by comparing the two versions directly."""
    c = compare(version, boundary)
    return {
        "<": c < 0,
        "<=": c <= 0,
        ">": c > 0,
        ">=": c >= 0,
        "==": c == 0,
        "!=": c != 0,
    }[op]


def direct_clause_vector(clause: SpecClause, history: ReleaseHistory) -> tuple[int, ...]:
    """Mark the releases where every constraint of the clause holds."""
    return tuple(
        int(
            all(
                satisfies(k.op, release.version, k.version)
                for k in clause.constraints
            )
        )
        for release in history.releases
    )


def direct_advisory_vector(advisory: Advisory, history: ReleaseHistory) -> tuple[int, ...]:
    """Mark the releases where at least one clause holds."""
    rows = [direct_clause_vector(clause, history) for clause in advisory.clauses]
    return tuple(int(any(column)) for column in zip(*rows))


def direct_counts(vectors: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Sum advisory vectors per position and binarize the sums."""
    counts = tuple(sum(column) for column in zip(*vectors))
    return counts, tuple(int(c > 0) for c in counts)


# --- random case generators -------------------------------------------


def random_history(
    rng: random.Random,
    package: str = "pkg",
    min_r: int = 2,
    max_r: int = 40,
) -> ReleaseHistory:
    """A history of distinct versions, occasionally with pre-releases."""
    r = rng.randint(min_r, max_r)
    triples = set()
    while len(triples) < r:
        triples.add((rng.randint(0, 4), rng.randint(0, 9), rng.randint(0, 30)))
    raws = []
    for major, minor, patch in sorted(triples):
        text = f"{major}.{minor}.{patch}"
        if rng.random() < 0.12:
            text += f"{rng.choice(['a', 'b', 'rc'])}{rng.randint(1, 3)}"
        raws.append(text)
    history, warnings = order_history(package, [(raw, None) for raw in raws])
    assert not warnings, warnings
    return history


def random_clause(rng: random.Random, history: ReleaseHistory) -> SpecClause:
    """A conjunction whose boundaries all come from the history."""
    ops = ("<", "<=", ">", ">=", "==", "!=")
    constraints = tuple(
        Constraint(rng.choice(ops), rng.choice(history.releases).version)
        for _ in range(rng.randint(1, 3))
    )
    return SpecClause(constraints)


def random_advisory(
    rng: random.Random, history: ReleaseHistory, advisory_id: str = "ADV"
) -> Advisory:
    """An advisory of one to three random clauses over the history."""
    clauses = tuple(random_clause(rng, history) for _ in range(rng.randint(1, 3)))
    return Advisory(
        id=advisory_id,
        package=history.package,
        cve=None,
        text="",
        clauses=clauses,
    )


def random_version_text(rng: random.Random) -> str:
    """A version string drawn from the grammar, with occasional junk."""
    if rng.random() < 0.06:
        return rng.choice(
            ("garbage", "1.2.3junk!", "release-candidate", "???", "one.two", "7 8")
        )

    def sep() -> str:
        return rng.choice((".", "-", "_"))

    text = "v" if rng.random() < 0.1 else ""
    if rng.random() < 0.08:
        text += f"{rng.randint(0, 2)}!"
    text += str(rng.randint(0, 12))
    for _ in range(rng.randint(0, 3)):
        text += sep() + str(rng.randint(0, 20))
    if rng.random() < 0.25:
        kind = rng.choice(("a", "b", "c", "rc", "alpha", "beta", "pre", "preview"))
        text += rng.choice(("", sep())) + kind
        if rng.random() < 0.8:
            text += rng.choice(("", sep())) + str(rng.randint(0, 9))
    if rng.random() < 0.15:
        text += rng.choice(("", sep())) + rng.choice(("post", "rev", "r"))
        if rng.random() < 0.8:
            text += rng.choice(("", sep())) + str(rng.randint(0, 5))
    if rng.random() < 0.12:
        text += rng.choice(("", sep())) + "dev"
        if rng.random() < 0.8:
            text += str(rng.randint(0, 5))
    if rng.random() < 0.1:
        text += "+" + rng.choice(("local", "ubuntu1", "x86.64", "a-b"))
    if rng.random() < 0.2:
        text = text.upper()
    return text


@st.composite
def version_texts(draw) -> str:
    """Hypothesis analog of :func:`random_version_text`.

    Mostly grammar text, with an optional epoch and local label (digit and
    alphanumeric segments, leading zeros, every separator); sometimes a
    grammar text with junk appended, or arbitrary non-blank text.
    """
    if draw(st.integers(0, 9)) == 9:
        return draw(st.text(min_size=1).filter(str.strip))
    sep = st.sampled_from([".", "-", "_"])
    parts = [str(draw(st.integers(0, 40)))]
    for _ in range(draw(st.integers(0, 3))):
        parts.append(draw(sep) + str(draw(st.integers(0, 40))))
    text = draw(st.sampled_from(["", "v"]))
    if draw(st.booleans()):
        text += f"{draw(st.integers(0, 3))}!"
    text += "".join(parts)
    if draw(st.booleans()):
        kind = draw(st.sampled_from(["a", "b", "rc", "alpha", "beta", "pre"]))
        text += draw(st.sampled_from(["", ".", "-"])) + kind
        if draw(st.booleans()):
            text += str(draw(st.integers(0, 9)))
    if draw(st.booleans()):
        text += draw(st.sampled_from(["", "."])) + "post" + str(draw(st.integers(0, 5)))
    if draw(st.booleans()):
        text += draw(st.sampled_from(["", "."])) + "dev" + str(draw(st.integers(0, 5)))
    if draw(st.booleans()):
        segments = draw(st.lists(st.text("0129abz", min_size=1, max_size=4), min_size=1, max_size=4))
        text += "+" + segments[0] + "".join(draw(sep) + seg for seg in segments[1:])
    if draw(st.booleans()):
        text = text.upper()
    if draw(st.integers(0, 9)) == 9:
        text += draw(st.sampled_from(["+", "..", "!", "-", "x", " final", "+a..b", "*"]))
    return text


# Spellings of 1.0 that trimming, a "v" prefix and trailing zeros make equal.
_EQUAL_SPELLINGS = ("1", "1.0", "1.0.0", "v1.0", "V1.0.0", " 1.0 ", "1.0\t")


@st.composite
def release_entries(draw) -> list[tuple[str, str | None]]:
    """(version text, upload time) pairs as a releases map might list them.

    Texts come from a small pool, so they repeat; the pool mixes
    :func:`version_texts` with equal spellings of 1.0, and any text may
    be padded with blanks.
    """
    texts = st.one_of(version_texts(), st.sampled_from(_EQUAL_SPELLINGS))
    pool = draw(st.lists(texts, min_size=1, max_size=8))
    pad = st.sampled_from(["", " ", "  ", "\t"])
    stamp = st.sampled_from([None, "2020-01-01T00:00:00Z", "2021-06-01T12:00:00Z"])
    return [
        (draw(pad) + text + draw(pad), draw(stamp))
        for text in draw(st.lists(st.sampled_from(pool), max_size=16))
    ]


# --- component-based version reference ---------------------------------

_PRE_CANON = {
    "a": "alpha",
    "alpha": "alpha",
    "b": "beta",
    "beta": "beta",
    "c": "rc",
    "rc": "rc",
    "pre": "rc",
    "preview": "rc",
}
_PRE_RANK = {"alpha": 0, "beta": 1, "rc": 2}
_GRAMMAR = re.compile(
    r"""
    ^ v?
    (?:(?P<epoch>\d+)!)?
    (?P<release>\d+(?:[._-]\d+)*)
    (?:[._-]?(?P<pre_kind>alpha|a|beta|b|rc|c|preview|pre)(?:[._-]?(?P<pre_num>\d+))?)?
    (?:[._-]?(?P<post_kind>post|rev|r)(?:[._-]?(?P<post_num>\d+))?)?
    (?:[._-]?(?P<dev_kind>dev)(?:[._-]?(?P<dev_num>\d+))?)?
    (?:\+(?P<local>[a-z0-9]+(?:[._-][a-z0-9]+)*))?
    $
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class ReferenceVersion:
    """A version held as its components, each stored as parsed."""

    epoch: int
    release: tuple[int, ...]
    pre: tuple[str, int] | None
    post: int | None
    dev: int | None
    local: str | None
    raw: str
    legacy: bool = False


def reference_version(text: str) -> ReferenceVersion:
    """Parse non-blank ``text`` into its components; junk is legacy."""
    trimmed = text.strip()
    m = _GRAMMAR.match(trimmed.lower())
    if m is None:
        return ReferenceVersion(0, (), None, None, None, None, trimmed, legacy=True)
    return ReferenceVersion(
        epoch=int(m["epoch"] or 0),
        release=tuple(int(seg) for seg in re.split(r"[._-]", m["release"])),
        pre=(_PRE_CANON[m["pre_kind"]], int(m["pre_num"] or 0)) if m["pre_kind"] else None,
        post=int(m["post_num"] or 0) if m["post_kind"] else None,
        dev=int(m["dev_num"] or 0) if m["dev_kind"] else None,
        local=re.sub(r"[-_]", ".", m["local"]) if m["local"] else None,
        raw=trimmed,
    )


def _stripped_release(release: tuple[int, ...]) -> tuple[int, ...]:
    rel = list(release)
    while len(rel) > 1 and rel[-1] == 0:
        rel.pop()
    return tuple(rel)


def reference_sort_key(v: ReferenceVersion) -> tuple:
    """The total-order key, built from the components."""
    if v.legacy:
        return (0, v.raw.strip().lower())
    if v.pre is not None:
        pre_key: tuple = (0, _PRE_RANK[v.pre[0]], v.pre[1])
    elif v.dev is not None and v.post is None:
        pre_key = (-1,)
    else:
        pre_key = (1,)
    post_key = (0,) if v.post is None else (1, v.post)
    dev_key = (1,) if v.dev is None else (0, v.dev)
    return (
        1,
        v.epoch,
        _stripped_release(v.release),
        pre_key,
        post_key,
        dev_key,
        tuple((1, int(s), s) if s.isdigit() else (0, s) for s in v.local.split("."))
        if v.local
        else (),
    )


def reference_canonical_string(v: ReferenceVersion) -> str:
    """The canonical form, rendered from the components."""
    if v.legacy:
        return v.raw.strip().lower()
    rel = list(_stripped_release(v.release))
    while len(rel) < 3:
        rel.append(0)
    out = ".".join(str(seg) for seg in rel)
    if v.epoch:
        out = f"{v.epoch}!{out}"
    if v.pre is not None:
        out += f"-{v.pre[0]}.{v.pre[1]}"
    if v.post is not None:
        out += f".post{v.post}"
    if v.dev is not None:
        out += f".dev{v.dev}"
    if v.local:
        out += f"+{v.local}"
    return out


def reference_compare(a: ReferenceVersion, b: ReferenceVersion) -> int:
    ka, kb = reference_sort_key(a), reference_sort_key(b)
    return (ka > kb) - (ka < kb)


# --- independent numerics ----------------------------------------------


def design_matrix(regressors: Sequence[Sequence[int]], n: int) -> np.ndarray:
    rows = [tuple(row) for row in regressors]
    if rows and len(rows[0]) > 0:
        return np.column_stack([np.ones(n), np.asarray(rows, dtype=float)])
    return np.ones((n, 1))


def reference_mle(
    responses: Sequence[int], regressors: Sequence[Sequence[int]]
) -> tuple[np.ndarray, float]:
    """Logistic MLE via scipy BFGS; returns (coefficients, log-likelihood)."""
    y = np.asarray(responses, dtype=float)
    X = design_matrix(regressors, len(y))

    def nll(beta: np.ndarray) -> float:
        eta = X @ beta
        return float(np.logaddexp(0.0, eta).sum() - y @ eta)

    def grad(beta: np.ndarray) -> np.ndarray:
        eta = np.clip(X @ beta, -700, 700)
        p = 1.0 / (1.0 + np.exp(-eta))
        return X.T @ (p - y)

    result = optimize.minimize(
        nll,
        np.zeros(X.shape[1]),
        jac=grad,
        method="BFGS",
        options={"gtol": 1e-10, "maxiter": 1000},
    )
    return result.x, -float(result.fun)


def lp_separated(X: np.ndarray, y: np.ndarray, tol: float = 1e-7) -> bool:
    """Whether the logistic MLE of ``y`` on ``X`` fails to exist, by linear programming.

    With s_i = 2 y_i - 1, the data are separated (completely or
    quasi-completely) exactly when some direction b has s_i x_i b >= 0
    on every row and > 0 on at least one (Albert & Anderson, 1984).  The
    LP maximizes sum_i s_i x_i b over those constraints within the box
    |b_j| <= 1 (Konis, 2007); b = 0 is feasible and the box bounds it, so
    the optimum exists and is positive exactly under separation.
    """
    A = (2.0 * np.asarray(y, dtype=float) - 1.0)[:, None] * np.asarray(X, dtype=float)
    result = optimize.linprog(
        -A.sum(axis=0),
        A_ub=-A,
        b_ub=np.zeros(len(A)),
        bounds=[(-1.0, 1.0)] * A.shape[1],
        method="highs",
    )
    if result.status != 0:
        raise RuntimeError(f"separation LP failed: {result.message}")
    return -result.fun > tol


def fd_gradient(fun, x: Sequence[float], eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(len(x)):
        up = x.copy()
        down = x.copy()
        up[i] += eps
        down[i] -= eps
        out[i] = (fun(up) - fun(down)) / (2.0 * eps)
    return out
