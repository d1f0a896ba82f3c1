"""Words over a finite alphabet and reduced words in the free group.

A positive word is a tuple of letter names, e.g. ``("x", "y", "x")``.
A group word is a tuple of signed letters ``(name, sign)`` with sign +1/-1,
kept *reduced* at all times (no adjacent ``x x^-1`` pair).  The empty tuple
is the identity in both cases.
"""

from __future__ import annotations

from typing import Iterable, Tuple

Word = Tuple[str, ...]
SignedLetter = Tuple[str, int]
GroupWord = Tuple[SignedLetter, ...]

EMPTY: Word = ()
GEMPTY: GroupWord = ()


def gmul(g: GroupWord, h: GroupWord) -> GroupWord:
    """Product of reduced group words (cancels at the seam)."""
    g2, h2 = list(g), list(h)
    while g2 and h2 and g2[-1][0] == h2[0][0] and g2[-1][1] == -h2[0][1]:
        g2.pop()
        h2.pop(0)
    return tuple(g2) + tuple(h2)


def ginv(g: GroupWord) -> GroupWord:
    return tuple((name, -sign) for name, sign in reversed(g))


def word_to_group(w: Word) -> GroupWord:
    return tuple((name, 1) for name in w)


def is_positive(g: GroupWord) -> bool:
    return all(sign == 1 for _, sign in g)


def prefixes(g: GroupWord) -> Tuple[GroupWord, ...]:
    """All prefixes of a reduced word, shortest first, including () and g."""
    return tuple(g[:i] for i in range(len(g) + 1))


def is_prefix_closed(aset: Iterable[GroupWord]) -> bool:
    s = set(aset)
    return all(p in s for g in s for p in prefixes(g))


def is_suffix(suffix: Word, w: Word) -> bool:
    return len(suffix) <= len(w) and w[len(w) - len(suffix):] == suffix


def format_group_word(g: GroupWord) -> str:
    if not g:
        return "1"
    return " ".join(name if sign == 1 else f"{name}^-1" for name, sign in g)


def format_word(w: Word) -> str:
    return " ".join(w) if w else "1"
