import re

from hypothesis import given, strategies as st

from meandyn.groups import (INTEGERS, LAMPLIGHTER, GroupMismatchError, IntShift,
                            Lamp, multiply, parse, render)
from meandyn.gallery import LAMPLIGHTER as LL_SPACE
from meandyn.spaces import Point, act

import pytest


def lamps_strategy():
    sites = st.lists(st.integers(-6, 6), max_size=4, unique=True)
    return st.builds(lambda a, b: Lamp(a, tuple(sorted(b))),
                     st.integers(-8, 8), sites)


def test_normal_form_examples():
    assert multiply(Lamp(1, (0,)), Lamp(2, (1,))) == Lamp(3, (1, 2))
    assert multiply(IntShift(3), IntShift(-5)) == IntShift(-2)


def test_unsorted_lamps_rejected():
    for sites, shown in [((2, 1), "(2, 1)"), ((1, 1), "(1, 1)"),
                         ([0, 3, 3], "(0, 3, 3)"), (iter([5, 4]), "(5, 4)")]:
        with pytest.raises(ValueError, match="toggle sites must be strictly "
                           "sorted: %s$" % re.escape(shown)):
            Lamp(0, sites)
    with pytest.raises(TypeError, match=r"shift 1\.5 is not an int"):
        Lamp(1.5, (2, 1))   # the shift is checked first


def test_toggle_sites_are_kept_as_a_tuple():
    for sites in [(1, 4), [1, 4], iter([1, 4]), range(1, 5, 3)]:
        lamp = Lamp(2, sites)
        assert type(lamp.lamps) is tuple and lamp.lamps == (1, 4)
        assert lamp == Lamp(2, (1, 4)) and hash(lamp) == hash(Lamp(2, (1, 4)))


@pytest.mark.parametrize("build", [IntShift, lambda a: Lamp(a, ())])
@pytest.mark.parametrize("a", [None, 1.5, "2"])
def test_a_shift_that_is_not_an_int_is_rejected(build, a):
    with pytest.raises(TypeError, match="shift %s is not an int"
                       % re.escape(repr(a))):
        build(a)


def test_group_mismatch():
    with pytest.raises(GroupMismatchError):
        multiply(IntShift(1), Lamp(1, ()))


@given(lamps_strategy(), lamps_strategy())
def test_multiply_matches_action_oracle(g, h):
    # the action is implemented independently of the normal-form algebra,
    # so acting with the product must equal acting twice
    for p in [Point(s, c) for s in range(-12, 13) for c in (0, 1)]:
        assert (act(LL_SPACE, multiply(g, h), p)
                == act(LL_SPACE, g, act(LL_SPACE, h, p)))


@given(lamps_strategy(), lamps_strategy(), lamps_strategy())
def test_associativity_random(g, h, k):
    assert multiply(multiply(g, h), k) == multiply(g, multiply(h, k))


@given(lamps_strategy())
def test_render_parse_roundtrip(g):
    assert parse(render(g), LAMPLIGHTER) == g


def test_parse_integers():
    assert parse("-7", INTEGERS) == IntShift(-7)
    with pytest.raises(ValueError):
        parse("s^1 t{}", INTEGERS)
    with pytest.raises(ValueError):
        parse("nonsense", LAMPLIGHTER)
