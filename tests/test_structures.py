"""The one adapter over every model: idempotent test and powers."""

import pytest

from ehresmann import cli
from ehresmann.structures import get_structure

MODELS = ("fad", "flad", "fi", "fa", "fla", "sdp:Z", "sdp:F", "mm", "sz", "qn:3")


def elements(s, letters):
    """A few products of generators and their +/* images, where defined."""
    gens = [s.atom(x) for x in letters]
    out = [s.one, *gens, s.mul(gens[0], gens[1]), s.power(gens[0], 3)]
    for op in (s.plus, s.star):
        try:
            out += [op(x) for x in list(out)]
        except ValueError:
            pass
    return out


@pytest.mark.parametrize("name", MODELS)
def test_fast_idempotent_test_agrees_with_the_definition(name):
    s = get_structure(name, "xy")
    letters = {"fad": "ab", "flad": "ab", "sdp:Z": "ge", "qn:3": "ge"}.get(name, "xy")
    for a in elements(s, letters):
        try:
            slow = a == s.plus(a)  # the projections are the fixed points of +
        except ValueError:  # sz has no +; there the idempotents are a a = a
            slow = s.mul(a, a) == a
        assert s.is_E_idempotent(a) == slow, (name, a)


@pytest.mark.parametrize("name", MODELS)
def test_power_is_repeated_product(name):
    s = get_structure(name, "xy")
    letter = {"fad": "a", "flad": "a", "sdp:Z": "g", "qn:3": "g"}.get(name, "x")
    a = s.atom(letter)
    assert s.power(a, 0) == s.one
    assert s.power(a, 3) == s.mul(s.mul(a, a), a)


def test_negative_powers_use_the_inverse():
    s = get_structure("sdp:Z")
    g, h = s.atom("g"), s.atom("h")
    assert s.power(g, -2) == s.power(h, 2)
    fi = get_structure("fi")
    x = fi.atom("x")
    assert fi.power(x, -1) == cli.eval_term("x^-1", "fi")[1]
    with pytest.raises(ValueError, match=r"\^-1 is not defined in model fad"):
        get_structure("fad").power(get_structure("fad").atom("a"), -1)
