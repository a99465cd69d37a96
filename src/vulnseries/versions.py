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

A :class:`Version` stores only its trimmed text and its order key, so a
parse builds one small record.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import VersionParseError

# Pre-release spellings by rank; _PRE_NAMES[rank] is the canonical name.
_PRE_RANK = {"a": 0, "alpha": 0, "b": 1, "beta": 1, "c": 2, "rc": 2, "pre": 2, "preview": 2}
_PRE_NAMES = ("alpha", "beta", "rc")

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
_SPLIT = re.compile(r"[._-]").split


@dataclass(frozen=True, order=True, slots=True, repr=False)
class Version:
    """A parsed release identifier: its trimmed text and its order key.

    Equality, order and hash follow ``key`` alone: ``(0, case-folded
    text)`` for a legacy version, else ``(1, epoch, release without
    trailing zeros, pre, post, dev, local)``, each part encoded so that
    tuple order is version order.
    """

    raw: str = field(compare=False)
    key: tuple

    @property
    def legacy(self) -> bool:
        return self.key[0] == 0

    def __repr__(self) -> str:
        return f"Version({self.raw!r})"

    def __str__(self) -> str:
        return canonical_string(self)


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
        return Version(trimmed, (0, folded))
    epoch, release, pre_kind, pre_num, post_kind, post_num, dev_kind, dev_num, local = m.groups()
    # Trailing zeros carry no meaning; keep at least one segment.
    segments = [int(seg) for seg in _SPLIT(release)]
    while len(segments) > 1 and segments[-1] == 0:
        segments.pop()
    if pre_kind:
        pre: tuple = (0, _PRE_RANK[pre_kind], int(pre_num or 0))
    elif dev_kind and not post_kind:
        # A bare dev release precedes even the alphas of the same release.
        pre = (-1,)
    else:
        pre = (1,)
    return Version(
        trimmed,
        (
            1,
            int(epoch or 0),
            tuple(segments),
            pre,
            (1, int(post_num or 0)) if post_kind else (0,),
            (0, int(dev_num or 0)) if dev_kind else (1,),
            # "01" and "1" differ only in the text after the integer, so
            # equal keys still mean equal canonical strings.
            tuple((1, int(s), s) if s.isdigit() else (0, s) for s in _SPLIT(local))
            if local
            else (),
        ),
    )


def compare(a: Version, b: Version) -> int:
    """Return -1, 0 or 1 as ``a`` orders before, equal to, or after ``b``."""
    if a.key < b.key:
        return -1
    if a.key > b.key:
        return 1
    return 0


def canonical_string(v: Version) -> str:
    """Render the canonical form, from the key alone; versions compare equal iff these match.

    The release part is normalized to at least three segments with trailing
    zeros stripped beyond that, so ``1.0`` and ``1.0.0`` both render as
    ``1.0.0``.
    """
    if v.key[0] == 0:
        return v.key[1]
    _, epoch, release, pre, post, dev, local = v.key
    out = ".".join(map(str, release + (0,) * (3 - len(release))))
    if epoch:
        out = f"{epoch}!{out}"
    if pre[0] == 0:
        out += f"-{_PRE_NAMES[pre[1]]}.{pre[2]}"
    if post[0]:
        out += f".post{post[1]}"
    if dev[0] == 0:
        out += f".dev{dev[1]}"
    if local:
        # Each local segment's text is the last item of its key entry.
        out += "+" + ".".join(segment[-1] for segment in local)
    return out
