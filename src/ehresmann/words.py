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
    """Product of reduced group words (cancels at the seam).

    Nothing cancels when a side is empty, or when the last letter of g and
    the first of h differ in name or agree in sign: then the product is
    g + h, returned without a loop.  Otherwise the cancelled letters are
    counted from the seam outwards."""
    if not g or not h or g[-1][0] != h[0][0] or g[-1][1] == h[0][1]:
        return g + h
    k, most = 1, min(len(g), len(h))  # k: letters cancelled on each side
    while k < most and g[-1 - k][0] == h[k][0] and g[-1 - k][1] == -h[k][1]:
        k += 1
    return g[:len(g) - k] + h[k:]


def ginv(g: GroupWord) -> GroupWord:
    return tuple((name, -sign) for name, sign in reversed(g))


def word_to_group(w: Word) -> GroupWord:
    return tuple((name, 1) for name in w)


def is_positive(g: GroupWord) -> bool:
    return all(sign == 1 for _, sign in g)


def is_prefix_closed(aset: Iterable[GroupWord]) -> bool:
    """Every prefix of every word is in the set.  It is enough that each
    non-empty word drops its last letter into the set: by induction on
    length, every shorter prefix is then in the set too.  A set or
    frozenset is read as given; any other iterable is copied into one."""
    s = aset if isinstance(aset, (set, frozenset)) else set(aset)
    return all(g[:-1] in s for g in s if g)


def is_suffix(suffix: Word, w: Word) -> bool:
    return len(suffix) <= len(w) and w[len(w) - len(suffix):] == suffix


def format_group_word(g: GroupWord) -> str:
    if not g:
        return "1"
    return " ".join(name if sign == 1 else f"{name}^-1" for name, sign in g)


def format_word(w: Word) -> str:
    return " ".join(w) if w else "1"
