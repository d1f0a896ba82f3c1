import pytest
from hypothesis import given, strategies as st

from ehresmann.expansions import SzElement
from ehresmann.psdp import (
    FreeGroup,
    IntegersAdd,
    PSetElement,
    sdp_identity,
    sdp_inverse,
    sdp_multiply,
    sdp_plus,
    sdp_star,
)
from ehresmann.scheiblich import MunnElement
from ehresmann.structures import get_structure

Z = IntegersAdd()
F = FreeGroup()


def zel(elems, point):
    return PSetElement(Z, frozenset(elems), point)


z_elements = st.builds(
    zel,
    st.frozensets(st.integers(-4, 4), max_size=4),
    st.integers(-3, 3),
)


def test_multiplication_acts_on_the_set():
    p = zel({0, 1}, 2)
    q = zel({5}, -1)
    r = sdp_multiply(p, q)
    assert r == zel({0, 1, 7}, 1)


def test_identity_and_powers():
    one = sdp_identity(Z)
    p = zel({1}, 2)
    assert sdp_multiply(one, p) == p == sdp_multiply(p, one)
    assert get_structure("sdp:Z").power(p, 3) == zel({1, 3, 5}, 6)


@given(z_elements, z_elements, z_elements)
def test_associativity(p, q, r):
    assert sdp_multiply(sdp_multiply(p, q), r) == sdp_multiply(p, sdp_multiply(q, r))


@given(z_elements)
def test_inverse_star_plus(p):
    pi = sdp_inverse(p)
    assert sdp_multiply(sdp_multiply(p, pi), p) == p
    assert sdp_star(p) == sdp_multiply(pi, p)
    assert sdp_plus(p) == sdp_multiply(p, pi)
    sdz = get_structure("sdp:Z")
    assert sdz.is_E_idempotent(sdp_star(p))
    assert sdz.is_E_idempotent(sdp_plus(p))


@given(z_elements, z_elements)
def test_Ltilde_via_star(p, q):
    # p <=_L~ q iff p q* = p; any p is below itself
    def leq_L(p, q):
        return sdp_multiply(p, sdp_star(q)) == p

    assert leq_L(p, p)
    if leq_L(p, q) and leq_L(q, p):
        assert sdp_star(p) == sdp_star(q)


@given(z_elements, z_elements)
def test_Rtilde_via_plus(p, q):
    # p <=_R~ q iff q+ p = p; any p is below itself
    def leq_R(p, q):
        return sdp_multiply(sdp_plus(q), p) == p

    assert leq_R(p, p)
    if leq_R(p, q) and leq_R(q, p):
        assert sdp_plus(p) == sdp_plus(q)


def test_free_group_base():
    g = (("g", 1),)
    h = (("h", 1),)
    a = PSetElement(F, frozenset({(), g}), g)
    b = PSetElement(F, frozenset({(), h}), h)
    ab = sdp_multiply(a, b)
    assert ab.point == (("g", 1), ("h", 1))
    assert ab.elems == frozenset({(), g, (("g", 1), ("h", 1))})
    assert sdp_multiply(a, sdp_inverse(a)) == PSetElement(F, frozenset({(), g}), ())


@given(z_elements)
def test_json_roundtrip(p):
    # integers encode as themselves, so the JSON holds the element
    data = p.to_json()
    assert zel(data["set"], data["point"]) == p


def test_bases_are_equal_by_type():
    assert FreeGroup() == FreeGroup()
    assert hash(FreeGroup()) == hash(FreeGroup())
    assert FreeGroup() != IntegersAdd()


def test_mixed_bases_rejected():
    with pytest.raises(ValueError, match="mixed bases"):
        sdp_multiply(zel({0}, 1), PSetElement(F, frozenset({()}), ()))


@pytest.mark.parametrize("model, cls", [("fi", MunnElement), ("sz", SzElement)])
def test_plus_and_star_keep_the_class_of_a_sub_monoid(model, cls):
    ctx = get_structure(model)
    p = ctx.product([ctx.atom("x"), ctx.inv(ctx.atom("y")), ctx.atom("x")])
    assert type(p) is cls
    # p = x y^-1 x visits 1, x, x y^-1 and x y^-1 x; p* sees them from its end
    X, Xi, Y = ("x", 1), ("x", -1), ("y", 1)
    assert sdp_plus(p) == cls(F, frozenset({(), (X,), (X, ("y", -1)), (X, ("y", -1), X)}), ())
    assert sdp_star(p) == cls(F, frozenset({(), (Xi,), (Xi, Y), (Xi, Y, Xi)}), ())
