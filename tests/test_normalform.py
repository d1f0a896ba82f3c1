"""Normal forms for mixed word/idempotent letter sequences."""

import itertools
import random

import pytest

import normalform_oracle as oracle
from random_trees import random_raw_tree
from ehresmann import normalform as nf
from ehresmann import xtree
from ehresmann.xtree import letter_tree, tree_multiply, tree_plus, word_tree

AP = tree_plus(letter_tree("a"))
BP = tree_plus(letter_tree("b"))
ABP = tree_plus(word_tree(("a", "b")))


def le_idempotents(max_edges=2):
    return [
        t
        for t in xtree.enumerate_trees("ab", max_edges, left_ehresmann_only=True)
        if xtree.is_idempotent(t) and t.edges
    ]


def test_letter_tree_rejects_non_idempotents():
    with pytest.raises(ValueError):
        nf.letter_tree(letter_tree("a"))
    with pytest.raises(ValueError):
        nf.letter_tree(xtree.tree_star(letter_tree("a")))  # not left-Ehresmann


def test_merge_absorbs_identities_and_neighbours():
    form = nf.normalize([("a",), (), ("b",), ABP, ABP])
    assert form.words[0] == ("a", "b")
    assert form.m <= 1


def test_redundant_idempotent_disappears():
    # (ab)+ a b = a b, so the leading idempotent is swallowed
    form = nf.normalize([ABP, ("a", "b")])
    assert form == nf.normalize([("a", "b")])
    assert form.m == 0 and form.words == (("a", "b"),)


def test_non_redundant_idempotent_stays():
    form = nf.normalize([BP, ("a",)])
    assert form.m == 1
    assert form.words == ((), ("a",))
    ok, reasons = oracle.check_normal_conditions(form)
    assert ok, reasons


def test_step_II_strengthens_the_idempotent():
    # f is kept but replaced by f b+ when f b+ != b+
    form = nf.normalize([BP, ("a",), AP])
    letters = oracle.form_letters(form)
    for e in form.idems:
        suffix_plus = tree_plus(nf.eval_to_tree(letters[letters.index(e) + 1:]))
        assert xtree.leq_nat(e, suffix_plus) and e != suffix_plus


def test_normal_form_evaluates_back():
    rng = random.Random(5)
    idems = le_idempotents()
    for _ in range(300):
        letters = []
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.5:
                letters.append(tuple(rng.choice("ab") for _ in range(rng.randint(0, 2))))
            else:
                letters.append(rng.choice(idems))
        form = nf.normalize(letters)
        assert oracle.form_tree(form) == nf.eval_to_tree(letters)
        ok, reasons = oracle.check_normal_conditions(form)
        assert ok, (letters, reasons)


def test_equal_trees_have_equal_normal_forms():
    """Exhaustive over short sequences: same product tree <=> same form."""
    idems = le_idempotents(1)  # a+, b+
    letters = [("a",), ("b",)] + idems
    by_tree = {}
    for k in range(4):
        for seq in itertools.product(letters, repeat=k):
            t = nf.eval_to_tree(seq)
            form = nf.normalize(seq)
            assert by_tree.setdefault(t, form) == form
    assert len(by_tree) > 30


def test_normal_form_of_tree_roundtrip():
    rng = random.Random(9)
    for _ in range(200):
        raw = random_raw_tree(rng, "ab", rng.randint(0, 6))
        t = xtree.prune(raw)
        if not xtree.is_left_ehresmann(t):
            continue
        form = nf.normal_form_of_tree(t)
        assert oracle.form_tree(form) == t
        ok, reasons = oracle.check_normal_conditions(form)
        assert ok, reasons


def test_normal_form_of_tree_matches_the_oracle_on_small_trees():
    trees = xtree.enumerate_trees("ab", 4, left_ehresmann_only=True)
    assert len(trees) == 322
    for t in trees:
        assert nf.normal_form_of_tree(t) == oracle.normal_form_of_tree(t), t


def test_normalize_matches_the_oracle_on_random_sequences():
    rng = random.Random(17)
    idems = le_idempotents()
    interior_drops = 0
    for _ in range(400):
        letters = []
        for _ in range(rng.randint(0, 24)):
            if rng.random() < 0.5:
                letters.append(tuple(rng.choice("ab") for _ in range(rng.randint(0, 2))))
            else:
                letters.append(rng.choice(idems))
        want, dropped = oracle.normalize_with_drops(letters)
        assert nf.normalize(letters) == want, letters
        n = sum(1 for p in nf.merge(letters) if not nf.is_word_letter(p))
        interior_drops += sum(1 for j in dropped if 0 < j < n - 1)
    # a drop of an interior idempotent shifts the indices to its right
    assert interior_drops > 0


def test_repr_is_readable():
    form = nf.normalize([BP, ("a",)])
    assert repr(form).startswith("NF[")


def test_a_fresh_import_frees_the_previous_xtree_module():
    # importing the package again must not keep the earlier xtree module
    # alive (a module-level Union[Word, XTree] did, through typing's cache)
    import gc
    import importlib
    import sys

    def xtree_modules():
        gc.collect()
        return sum(
            1
            for o in gc.get_objects()
            if isinstance(o, dict) and o.get("__name__") == "ehresmann.xtree" and "__builtins__" in o
        )

    before = xtree_modules()
    saved = {k: v for k, v in sys.modules.items() if k == "ehresmann" or k.startswith("ehresmann.")}
    try:
        for k in saved:
            del sys.modules[k]
        importlib.import_module("ehresmann.embed_theta")
    finally:
        for k in [k for k in sys.modules if k == "ehresmann" or k.startswith("ehresmann.")]:
            del sys.modules[k]
        sys.modules.update(saved)
    assert xtree_modules() == before
