"""Free reduction and prefix closure by definition, kept as differential
oracles.

``reduce_group_word`` cancels every adjacent ``x x^-1`` pair of an
arbitrary sequence of signed letters with one stack pass.  ``words.gmul``
only cancels at the seam of two reduced words and must agree with reducing
their concatenation.  ``prefix_closed`` checks every prefix of every word;
``words.is_prefix_closed`` checks only each word's longest proper prefix
and must agree with it.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from ehresmann.words import GroupWord, SignedLetter


def reduce_group_word(letters: Iterable[SignedLetter]) -> GroupWord:
    """Freely reduce a sequence of signed letters."""
    out: list[SignedLetter] = []
    for name, sign in letters:
        if sign not in (1, -1):
            raise ValueError(f"bad sign {sign!r}")
        if out and out[-1][0] == name and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((name, sign))
    return tuple(out)


def prefixes(g: GroupWord) -> Tuple[GroupWord, ...]:
    """All prefixes of a reduced word, shortest first, including () and g."""
    return tuple(g[:i] for i in range(len(g) + 1))


def prefix_closed(aset: Iterable[GroupWord]) -> bool:
    s = set(aset)
    return all(p in s for g in s for p in prefixes(g))
