"""A semilattice-valued embedding of words over X u E(FLAd).

C-words are alternating sequences of non-empty positive words and
non-trivial left-Ehresmann idempotent trees (the free product of X* and
the free semilattice on those idempotents).  Z is the semilattice on
generators y_{x,h} and e_{f,h} (x a letter, f an idempotent, h in the free
group), subject to e_{f',h} e_{f'',h} = e_{f' f'',h}, with the free group
acting by translating the index h.

tau(w, h) = y_{x1,h} y_{x2,h x1} ... marks the letters of w shifted by h;
theta sends a C-word c to (tau(trunk, 1) * prod of e_{f,p} over the
left-splitting positions p, trunk), and is a morphism for the action
product (c d) theta_1 = c theta_1 * (c theta_2 . d theta_1).  Scope: the
morphism law on the free product of C-words; no map on FLAd or FAd trees is
checked.
The private products take the tree multiplication as an argument, so the
law check makes each seam product once for both sides of the law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from . import words
from .normalform import BXLetter, is_word_letter, merge
from .words import GroupWord, Word, format_group_word
from .xtree import XTree, tree_multiply


@dataclass(frozen=True)
class CXWord:
    """Normalized alternating word/idempotent sequence; a free-product element."""

    parts: Tuple[BXLetter, ...]

    @staticmethod
    def make(letters: Sequence[BXLetter]) -> "CXWord":
        return CXWord(tuple(merge(letters)))

    def trunk(self) -> Word:
        out: Word = ()
        for p in self.parts:
            if is_word_letter(p):
                out = out + p
        return out


def _cx_multiply(c: CXWord, d: CXWord, mul: Callable[[XTree, XTree], XTree]) -> CXWord:
    """c d for normalized c and d (made by ``CXWord.make``): their parts
    alternate and none is trivial, so only c's last and d's first part can
    merge, with at most one ``mul`` of two idempotent trees."""
    if not (c.parts and d.parts):
        return c if c.parts else d
    left, right = c.parts[-1], d.parts[0]
    if is_word_letter(left) != is_word_letter(right):
        return CXWord(c.parts + d.parts)
    seam = left + right if is_word_letter(left) else mul(left, right)
    return CXWord(c.parts[:-1] + (seam,) + d.parts[1:])


def splitting_positions(c: CXWord) -> List[Tuple[Word, XTree]]:
    """(trunk prefix p, idempotent) for each idempotent part of c; the
    idempotent left-splitting c at p is unique once c is normalized."""
    out: List[Tuple[Word, XTree]] = []
    prefix: Word = ()
    for p in c.parts:
        if is_word_letter(p):
            prefix = prefix + p
        else:
            out.append((prefix, p))
    return out


@dataclass(frozen=True)
class ZXElement:
    """An element of the semilattice Z: a finite set of marked letters
    y_{x,h} and a map h -> idempotent for the e-generators."""

    ys: frozenset  # of (letter, GroupWord)
    es: Tuple[Tuple[GroupWord, XTree], ...]  # sorted by index

    @staticmethod
    def make(ys, es_map: Dict[GroupWord, XTree]) -> "ZXElement":
        return ZXElement(frozenset(ys), tuple(sorted(es_map.items())))

    def es_map(self) -> Dict[GroupWord, XTree]:
        return dict(self.es)

    def __repr__(self) -> str:
        ys = " ".join(f"y[{x},{format_group_word(h)}]" for x, h in sorted(self.ys))
        es = " ".join(f"e[{format_group_word(h)}]" for h, _ in self.es)
        return f"Z({ys}; {es})"


def _zx_multiply(a: ZXElement, b: ZXElement, mul: Callable[[XTree, XTree], XTree]) -> ZXElement:
    es = a.es_map()
    for h, f in b.es:
        es[h] = mul(es[h], f) if h in es else f
    return ZXElement.make(a.ys | b.ys, es)


def zx_translate(g: GroupWord, a: ZXElement) -> ZXElement:
    """The free-group action g . a, shifting every index h to g h."""
    return ZXElement.make(
        {(x, words.gmul(g, h)) for x, h in a.ys},
        {words.gmul(g, h): f for h, f in a.es},
    )


def tau(w: Word, h: GroupWord = ()) -> ZXElement:
    ys = set()
    cur = h
    for x in w:
        ys.add((x, cur))
        cur = words.gmul(cur, ((x, 1),))
    return ZXElement.make(ys, {})


@dataclass(frozen=True)
class ThetaImage:
    zx: ZXElement
    trunk: Word


def theta(c: CXWord) -> ThetaImage:
    """theta(c) = (tau(trunk, 1) * prod e_{f,p} over splitting positions, trunk),
    made as one element.  A normalized c has its idempotents at distinct
    trunk prefixes, so two e-generators meet only for an unnormalized c."""
    t = c.trunk()
    es: Dict[GroupWord, XTree] = {}
    for prefix, f in splitting_positions(c):
        h = words.word_to_group(prefix)
        es[h] = tree_multiply(es[h], f) if h in es else f
    return ThetaImage(ZXElement.make(tau(t, ()).ys, es), t)


def theta_morphism_check(
    cs: Sequence[CXWord], ds: Sequence[CXWord]
) -> List[Tuple[CXWord, CXWord]]:
    """The pairs (c, d) of cs x ds, in that order, that break the law
    (c d) theta = c theta * (c's trunk acting on d theta).

    theta is computed once for each distinct C-word of cs and ds, and once
    for each product c d; d theta is translated once for each distinct
    trunk of cs.  Each distinct seam product (c's last idempotent times d's
    first) is made once per call and serves both sides of the law."""
    images = {c: theta(c) for c in dict.fromkeys((*cs, *ds))}
    shifted: Dict[Tuple[Word, CXWord], ZXElement] = {}
    seams: Dict[Tuple[XTree, XTree], XTree] = {}

    def seam(e: XTree, f: XTree) -> XTree:
        if (e, f) not in seams:
            seams[e, f] = tree_multiply(e, f)
        return seams[e, f]

    failures: List[Tuple[CXWord, CXWord]] = []
    for c in cs:
        tc = images[c]
        g = words.word_to_group(tc.trunk)
        for d in ds:
            td = images[d]
            lhs = theta(_cx_multiply(c, d, seam))
            key = (tc.trunk, d)
            if key not in shifted:
                shifted[key] = zx_translate(g, td.zx)
            rhs_zx = _zx_multiply(tc.zx, shifted[key], seam)
            if not (lhs.zx == rhs_zx and lhs.trunk == tc.trunk + td.trunk):
                failures.append((c, d))
    return failures
