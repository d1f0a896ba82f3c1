"""The quadratic normal-form rewrite and the re-pruning trunk
factorization, kept as differential oracles.

``normalize`` applies rule (II) right to left and evaluates the suffix of
each idempotent from scratch, from the lists as they stand after the
rewrites to its right, so m idempotents cost O(m^2) products.  Each step is
the definition: with b the product of everything to the right of f, drop f
when f b+ = b+ and replace f by f b+ otherwise.  ``check_normal_conditions``
verifies the side conditions of a form directly.  ``trunk_factorization``
cuts each bundle of branches out of the tree as a raw tree and prunes it,
and ``normal_form_of_tree`` reads its letters from there.  ``form_letters``
and ``form_tree`` evaluate a normal form back to its tree.
``ehresmann.normalform.normalize``, ``normal_form_of_tree`` and
``ehresmann.xtree.trunk_factorization`` must agree with them on every input.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ehresmann import xtree
from ehresmann.normalform import BXLetter, NormalForm, eval_to_tree, is_word_letter, merge
from ehresmann.words import Word
from ehresmann.xtree import RawTree, XTree, is_idempotent, prune, tree_multiply, tree_plus
from prune_oracle import _rooted_children, trunk_path


def form_letters(nf: NormalForm) -> Tuple[BXLetter, ...]:
    """The letters t0 e1 t1 ... em tm of a normal form, empty words left out."""
    out: List[BXLetter] = [nf.words[0]]
    for e, t in zip(nf.idems, nf.words[1:]):
        out.extend((e, t))
    return tuple(x for x in out if x != ())


def form_tree(nf: NormalForm) -> XTree:
    """The pruned tree a normal form evaluates to."""
    return eval_to_tree(form_letters(nf))


def normalize_with_drops(letters: Sequence[BXLetter]) -> Tuple[NormalForm, List[int]]:
    """The normal form, and the positions (among the merged idempotents,
    counted from 0) of the idempotents that rule (II) dropped."""
    parts = merge(letters)
    W: List[Word] = []
    E: List[XTree] = []
    if not parts or not is_word_letter(parts[0]):
        W.append(())
    for p in parts:
        (W if is_word_letter(p) else E).append(p)
    if len(W) == len(E):
        W.append(())
    dropped: List[int] = []
    j = len(E) - 1
    while j >= 0:
        suffix = eval_to_tree(
            [W[j + 1]]
            + [x for e, t in zip(E[j + 1:], W[j + 2:]) for x in (e, t)]
        )
        bplus = tree_plus(suffix)
        fb = tree_multiply(E[j], bplus)
        if fb == bplus:
            W[j] = W[j] + W[j + 1]
            del E[j], W[j + 1]
            dropped.append(j)
        else:
            E[j] = fb
        j -= 1
    return NormalForm(tuple(W), tuple(E)), dropped


def normalize(letters: Sequence[BXLetter]) -> NormalForm:
    return normalize_with_drops(letters)[0]


def trunk_factorization(t: XTree) -> Tuple[Tuple[XTree, ...], Word]:
    """Factor T = e_0 x_1 e_1 ... x_l e_l along the trunk.

    Returns (idempotents e_0..e_l, trunk word x_1..x_l); e_i is the
    idempotent tree of all branches hanging at the i-th trunk vertex.
    """
    word, trunk_edges, trunk_verts = trunk_path(t)
    trunk_set = set(trunk_edges)
    _, children, _ = _rooted_children(t)
    idems: List[XTree] = []
    for v in trunk_verts:
        verts = [v]
        edges: List[int] = []
        stack = [(v, True)]
        while stack:
            u, at_root = stack.pop()
            for _, _, w, i in children[u]:
                if at_root and i in trunk_set:
                    continue
                verts.append(w)
                edges.append(i)
                stack.append((w, False))
        newid = {u: k for k, u in enumerate(verts)}
        sub = RawTree(
            len(verts),
            tuple(
                (newid[t.edges[i][0]], t.edges[i][1], newid[t.edges[i][2]])
                for i in edges
            ),
            0,
            0,
        )
        idems.append(prune(sub))
    return tuple(idems), word


def normal_form_of_tree(t: XTree) -> NormalForm:
    """normalize over the letters e0 x1 e1 x2 ... of the trunk factorization."""
    idems, word = trunk_factorization(t)
    letters: List[BXLetter] = []
    for i, e in enumerate(idems):
        letters.append(e)
        if i < len(word):
            letters.append((word[i],))
    return normalize(letters)


def check_normal_conditions(nf: NormalForm) -> Tuple[bool, List[str]]:
    """Verify the normal-form side conditions; returns (ok, reasons)."""
    reasons: List[str] = []
    for i, t in enumerate(nf.words[1:-1], start=1):
        if t == ():
            reasons.append(f"interior word t{i} is empty")
    for i, e in enumerate(nf.idems, start=1):
        if not is_idempotent(e):
            reasons.append(f"e{i} is not idempotent")
        if len(e.edges) == 0:
            reasons.append(f"e{i} is trivial")
    for i, e in enumerate(nf.idems, start=1):
        suffix = eval_to_tree(
            [nf.words[i]]
            + [x for f, t in zip(nf.idems[i:], nf.words[i + 1:]) for x in (f, t)]
        )
        bplus = tree_plus(suffix)
        if not (xtree.leq_nat(e, bplus) and e != bplus):
            reasons.append(f"e{i} is not strictly below the +-closure of its suffix")
    return (not reasons, reasons)
