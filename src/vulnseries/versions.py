"""Release-version parsing with a deterministic total order.

The grammar is the de-facto Python packaging scheme,
``[N!]X.Y.Z[{alpha|beta|rc}N][.postN][.devN][+local]``, case-insensitive,
with ``.``, ``-`` and ``_`` accepted as separators.  Strings outside the
grammar degrade to opaque "legacy" versions that sort before every
canonical version and lexicographically among themselves, so a release
history never fails to order.

Trailing zero release segments are insignificant: ``1.0`` compares equal
to ``1.0.0``, and both canonicalize to the same string.  Local labels
order segment by segment as in PEP 440: numeric segments as integers,
after any alphanumeric segment, and a label before its extensions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import VersionParseError

__all__ = ["Version", "parse_version", "compare", "canonical_string"]

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


@dataclass(frozen=True, order=True, repr=False)
class Version:
    """A parsed release identifier.

    ``legacy`` marks strings outside the grammar; those keep only ``raw``
    meaningfully populated and order by their case-folded text.
    Equality, order and hash follow ``sort_key`` alone.
    """

    epoch: int = field(compare=False)
    release: tuple[int, ...] = field(compare=False)
    pre: tuple[str, int] | None = field(compare=False)
    post: int | None = field(compare=False)
    dev: int | None = field(compare=False)
    local: str | None = field(compare=False)
    raw: str = field(compare=False)
    legacy: bool = field(default=False, compare=False)
    _key: tuple = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_key", _sort_key(self))

    @property
    def sort_key(self) -> tuple:
        """Opaque total-order key; usable as a tie-break component elsewhere."""
        return self._key

    def __repr__(self) -> str:
        return f"Version({self.raw!r})"

    def __str__(self) -> str:
        return canonical_string(self)


def _stripped_release(release: tuple[int, ...]) -> tuple[int, ...]:
    # Trailing zeros carry no meaning; keep at least one segment.
    rel = list(release)
    while len(rel) > 1 and rel[-1] == 0:
        rel.pop()
    return tuple(rel)


def _sort_key(v: Version) -> tuple:
    if v.legacy:
        return (0, v.raw.strip().lower())
    if v.pre is not None:
        pre_key: tuple = (0, _PRE_RANK[v.pre[0]], v.pre[1])
    elif v.dev is not None and v.post is None:
        # A bare dev release precedes even the alphas of the same release.
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
        # "01" and "1" differ only in the text after the integer, so equal
        # keys still mean equal canonical strings.
        tuple((1, int(s), s) if s.isdigit() else (0, s) for s in v.local.split("."))
        if v.local
        else (),
    )


def parse_version(text: str) -> Version:
    """Parse ``text`` into a :class:`Version`.

    Case-insensitive; an optional leading ``v`` is ignored.  Unparseable
    non-empty input yields a legacy version rather than an error.

    Raises :class:`VersionParseError` only for input that is empty after
    trimming.
    """
    trimmed = text.strip()
    if not trimmed:
        raise VersionParseError("empty version string")
    folded = trimmed.lower()
    m = _GRAMMAR.match(folded)
    if m is None:
        return Version(
            epoch=0,
            release=(),
            pre=None,
            post=None,
            dev=None,
            local=None,
            raw=trimmed,
            legacy=True,
        )
    release = tuple(int(seg) for seg in re.split(r"[._-]", m["release"]))
    pre = None
    if m["pre_kind"]:
        pre = (_PRE_CANON[m["pre_kind"]], int(m["pre_num"] or 0))
    post = int(m["post_num"] or 0) if m["post_kind"] else None
    dev = int(m["dev_num"] or 0) if m["dev_kind"] else None
    local = re.sub(r"[-_]", ".", m["local"]) if m["local"] else None
    return Version(
        epoch=int(m["epoch"] or 0),
        release=release,
        pre=pre,
        post=post,
        dev=dev,
        local=local,
        raw=trimmed,
    )


def compare(a: Version, b: Version) -> int:
    """Return -1, 0 or 1 as ``a`` orders before, equal to, or after ``b``."""
    if a.sort_key < b.sort_key:
        return -1
    if a.sort_key > b.sort_key:
        return 1
    return 0


def canonical_string(v: Version) -> str:
    """Render the canonical form; versions compare equal iff these match.

    The release part is normalized to at least three segments with trailing
    zeros stripped beyond that, so ``1.0`` and ``1.0.0`` both render as
    ``1.0.0``.
    """
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
