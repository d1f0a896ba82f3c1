"""``ehresmann.embed_theta`` as it was before products met only at the seam.

``cx_multiply`` and ``zx_multiply`` are the two-operand products of C-words
and of Z, ``embed_theta``'s private products with ``tree_multiply`` at the
seam, and ``ZX_ONE`` is Z's identity; only tests use them.

``merged_cx_multiply`` merges every part of both operands again
(re-validating each idempotent); ``theta`` makes tau's element and the
element of the e-generators, then multiplies them; ``theta_morphism_check``
makes both sides of the law with these products, so an idempotent seam
product is made twice per pair.  Their results must equal ``embed_theta``'s.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ehresmann import embed_theta as et
from ehresmann import words
from ehresmann.xtree import XTree, tree_multiply


ZX_ONE = et.ZXElement(frozenset(), ())


def cx_multiply(c: et.CXWord, d: et.CXWord) -> et.CXWord:
    return et._cx_multiply(c, d, tree_multiply)


def zx_multiply(a: et.ZXElement, b: et.ZXElement) -> et.ZXElement:
    return et._zx_multiply(a, b, tree_multiply)


def merged_cx_multiply(c: et.CXWord, d: et.CXWord) -> et.CXWord:
    return et.CXWord.make(list(c.parts) + list(d.parts))


def theta(c: et.CXWord) -> et.ThetaImage:
    t = c.trunk()
    acc = et.tau(t, ())
    es: Dict[words.GroupWord, XTree] = {}
    for prefix, f in et.splitting_positions(c):
        h = words.word_to_group(prefix)
        es[h] = tree_multiply(es[h], f) if h in es else f
    return et.ThetaImage(zx_multiply(acc, et.ZXElement.make(set(), es)), t)


def theta_morphism_check(
    cs: Sequence[et.CXWord], ds: Sequence[et.CXWord]
) -> List[Tuple[et.CXWord, et.CXWord]]:
    failures: List[Tuple[et.CXWord, et.CXWord]] = []
    for c in cs:
        tc = theta(c)
        g = words.word_to_group(tc.trunk)
        for d in ds:
            td = theta(d)
            lhs = theta(merged_cx_multiply(c, d))
            rhs_zx = zx_multiply(tc.zx, et.zx_translate(g, td.zx))
            if not (lhs.zx == rhs_zx and lhs.trunk == tc.trunk + td.trunk):
                failures.append((c, d))
    return failures
