"""Free reduction of a whole word, kept as a differential oracle.

``reduce_group_word`` cancels every adjacent ``x x^-1`` pair of an
arbitrary sequence of signed letters with one stack pass.  ``words.gmul``
only cancels at the seam of two reduced words and must agree with reducing
their concatenation.
"""

from __future__ import annotations

from typing import Iterable

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
