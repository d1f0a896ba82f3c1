"""Normal forms t0 e1 t1 ... em tm for products of words and idempotent trees.

A letter is either a word over the alphabet or a non-trivial idempotent
pruned tree.  Every sequence of letters rewrites to a unique normal form

    t0 e1 t1 ... em tm,   ti words (interior ones non-empty),
                          ei idempotents with ei < (ti e_{i+1} ... tm)+

by (0) dropping identity letters, (I) merging adjacent letters of the same
kind, and (II) scanning right-to-left: with b the product of everything to
the right of an idempotent f, drop f when f b+ = b+ and replace f by f b+
otherwise.  Two letter sequences multiply to the same pruned tree exactly
when they have the same normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple, TypeAlias, Union

from . import xtree
from .words import Word, format_word
from .xtree import XTree, is_idempotent, tree_multiply, tree_plus, tree_product, word_tree

# a string alias: an evaluated Union[Word, XTree] would stay in typing's
# cache and keep every imported copy of the xtree module alive
BXLetter: TypeAlias = "Union[Word, XTree]"


def is_word_letter(letter: BXLetter) -> bool:
    return isinstance(letter, tuple)


def letter_tree(letter: BXLetter) -> XTree:
    if is_word_letter(letter):
        return word_tree(letter)
    if not is_idempotent(letter):
        raise ValueError("tree letters must be idempotent")
    if not xtree.is_left_ehresmann(letter):
        raise ValueError("tree letters must be left-Ehresmann idempotents")
    return letter


def eval_to_tree(letters: Iterable[BXLetter]) -> XTree:
    return tree_product([letter_tree(letter) for letter in letters])


@dataclass(frozen=True)
class NormalForm:
    """words = (t0, ..., tm), idems = (e1, ..., em)."""

    words: Tuple[Word, ...]
    idems: Tuple[XTree, ...]

    def __post_init__(self):
        if len(self.words) != len(self.idems) + 1:
            raise ValueError("need one more word than idempotents")

    @property
    def m(self) -> int:
        return len(self.idems)

    def __repr__(self) -> str:
        bits = [format_word(self.words[0])]
        for e, t in zip(self.idems, self.words[1:]):
            bits.append(repr(e))
            bits.append(format_word(t))
        return "NF[" + " | ".join(bits) + "]"


def merge(letters: Sequence[BXLetter]) -> List[BXLetter]:
    """Steps (0)+(I): drop identities and merge same-kind neighbours; the
    result alternates between words and idempotents."""
    parts: List[BXLetter] = []
    for letter in letters:
        if is_word_letter(letter):
            if letter == ():
                continue
            if parts and is_word_letter(parts[-1]):
                parts[-1] = parts[-1] + letter
            else:
                parts.append(letter)
        else:
            t = letter_tree(letter)
            if len(t.edges) == 0:
                continue
            if parts and not is_word_letter(parts[-1]):
                parts[-1] = tree_multiply(parts[-1], t)
            else:
                parts.append(t)
    return parts


def normalize(letters: Sequence[BXLetter]) -> NormalForm:
    """Rewrite a letter sequence to its normal form.

    Rule (II) at the idempotent E[j] reads b = suffix[j], the product of
    everything to its right.  Rewriting a later idempotent f never changes
    such a product: f b = (f b+) b, and f b = b when f b+ = b+.  So every
    suffix is built once, right to left, from the letters as merged and
    before any rewrite: suffix[j] = W[j+1] E[j+1] suffix[j+1], which makes
    m idempotents cost 2(m-1) products.  They are not grown from the lists
    being rewritten, since a drop makes W[j] absorb W[j+1] and shifts the
    later indices.
    """
    # pad the alternating parts with empty words into t0 e1 t1 ... em tm
    parts = merge(letters)
    W: List[Word] = []
    E: List[XTree] = []
    if not parts or not is_word_letter(parts[0]):
        W.append(())
    for p in parts:
        (W if is_word_letter(p) else E).append(p)
    if len(W) == len(E):
        W.append(())
    suffix: List[XTree] = [word_tree(W[-1])] * len(E)
    for j in range(len(E) - 2, -1, -1):
        suffix[j] = tree_multiply(tree_multiply(word_tree(W[j + 1]), E[j + 1]), suffix[j + 1])
    for j in range(len(E) - 1, -1, -1):
        bplus = tree_plus(suffix[j])
        fb = tree_multiply(E[j], bplus)
        if fb == bplus:
            W[j] = W[j] + W[j + 1]
            del E[j], W[j + 1]
        else:
            E[j] = fb
    return NormalForm(tuple(W), tuple(E))


def normal_form_of_tree(t: XTree) -> NormalForm:
    """The normal form of a pruned tree, from its trunk factorization."""
    idems, word = xtree.trunk_factorization(t)
    letters: List[BXLetter] = []
    for i, e in enumerate(idems):
        letters.append(e)
        if i < len(word):
            letters.append((word[i],))
    return normalize(letters)

