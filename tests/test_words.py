from hypothesis import given, strategies as st

from ehresmann import words
from words_oracle import prefix_closed, prefixes, reduce_group_word

letters = st.sampled_from("abc")
group_words = st.lists(
    st.tuples(letters, st.sampled_from((1, -1))), max_size=8
).map(tuple)


def test_reduce_cancels_adjacent_inverses():
    w = (("a", 1), ("b", 1), ("b", -1), ("a", -1), ("c", 1))
    assert reduce_group_word(w) == (("c", 1),)


def test_format():
    assert words.format_group_word(()) == "1"
    assert words.format_group_word((("x", 1), ("y", -1))) == "x y^-1"
    assert words.format_word(()) == "1"
    assert words.format_word(("a", "b", "a")) == "a b a"


@given(group_words)
def test_reduce_is_idempotent(w):
    r = reduce_group_word(w)
    assert all(x[0] != y[0] or x[1] == y[1] for x, y in zip(r, r[1:]))
    assert reduce_group_word(r) == r


@given(group_words, group_words)
def test_gmul_matches_concat_reduce(u, v):
    u, v = reduce_group_word(u), reduce_group_word(v)
    assert words.gmul(u, v) == reduce_group_word(u + v)


def test_gmul_at_the_seam():
    x, X, y = ("x", 1), ("x", -1), ("y", 1)
    cases = [
        ((), (x, y)),  # an empty side
        ((x, y), ()),
        ((), ()),
        ((x,), (x,)),  # same letter, same sign: nothing cancels
        ((y, X), (X, y)),
        ((x,), (y,)),  # different letters
        ((x,), (X,)),  # x x^-1
        ((X, y), (("y", -1), x)),  # full cancellation
        ((y, x), (X,)),  # partial cancellation, each side
        ((x,), (X, y, X)),
        ((y, x), (X, ("y", -1), x)),
    ]
    for g, h in cases:
        assert words.gmul(g, h) == reduce_group_word(g + h), (g, h)
    assert words.gmul((x,), (x,)) == (x, x)
    assert words.gmul((X, y), (("y", -1), x)) == ()
    assert words.gmul((y, x), (X,)) == (y,)


@given(group_words)
def test_inverse_cancels(w):
    w = reduce_group_word(w)
    assert words.gmul(w, words.ginv(w)) == ()
    assert words.gmul(words.ginv(w), w) == ()


@given(st.lists(letters, max_size=6).map(tuple))
def test_positive_word_roundtrip(w):
    g = words.word_to_group(w)
    assert words.is_positive(g)
    assert tuple(name for name, _ in g) == w
    assert not w or not words.is_positive(words.ginv(g))


def test_prefix_closure():
    g = (("a", 1), ("b", -1))
    cl = set(prefixes(g))
    assert cl == {(), (("a", 1),), g}
    assert words.is_prefix_closed(cl)
    assert not words.is_prefix_closed({g})
    assert words.is_prefix_closed(set())


@given(st.lists(group_words, max_size=6), st.frozensets(st.integers(0, 30), max_size=3))
def test_is_prefix_closed_matches_the_oracle(ws, dropped):
    """On random sets of reduced words, closed and not: the prefix closure
    of some words, less the words at the `dropped` positions of its sorted
    list (dropping a word no other word extends keeps it closed)."""
    closure = sorted({p for w in ws for p in prefixes(reduce_group_word(w))})
    aset = {w for i, w in enumerate(closure) if i not in dropped}
    want = prefix_closed(aset)
    assert words.is_prefix_closed(aset) == want
    assert words.is_prefix_closed(frozenset(aset)) == want
    assert words.is_prefix_closed(iter(sorted(aset))) == want
    assert words.is_prefix_closed(closure)


def test_is_prefix_closed_reads_a_frozenset_as_given():
    """MunnElement passes its frozenset: membership is tested in it, not
    in a copy."""
    class Counted(frozenset):
        lookups = 0

        def __contains__(self, g):
            Counted.lookups += 1
            return super().__contains__(g)

    g = (("a", 1), ("b", -1))
    assert words.is_prefix_closed(Counted(prefixes(g)))
    assert Counted.lookups == 2  # one per non-empty word


def test_is_suffix():
    assert words.is_suffix(("b", "c"), ("a", "b", "c"))
    assert words.is_suffix((), ("a",))
    assert not words.is_suffix(("a", "b"), ("b",))
