from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from meandyn import folner
from meandyn.folner import (BudgetError, LampBox, ZCentered, ZInitial,
                            ZShifted, cardinality, defect, elements,
                            lamp_defect_bound)
from meandyn.groups import IntShift, Lamp, multiply


def shifts(els):
    return [g.a for g in els]


def test_integer_families():
    assert shifts(elements(ZInitial(), 3)) == [0, 1, 2]
    assert shifts(elements(ZCentered(), 2)) == [-2, -1, 0, 1, 2]
    assert shifts(elements(ZShifted(), 3)) == [3, 4, 5, 6]


def test_lamp_box_contents():
    els = elements(LampBox(), 1)
    assert len(els) == 2 * 4
    assert Lamp(1, ()) in els and Lamp(2, (1, 2)) in els
    assert all(set(g.lamps) | {g.a} <= {1, 2} for g in els)


@pytest.mark.parametrize("n", range(1, 6))
def test_lamp_box_order(n):
    # shift-major, then the toggle sites of A_n as the bits of a counter
    sites = range(n, 2 * n + 1)
    assert elements(LampBox(), n) == [
        Lamp(a, tuple(s for i, s in enumerate(sites) if mask >> i & 1))
        for a in sites for mask in range(2 ** (n + 1))]


@pytest.mark.parametrize("n", range(1, 9))
def test_lamp_box_cardinality(n):
    assert cardinality(LampBox(), n) == len(elements(LampBox(), n)) \
        == (n + 1) * 2 ** (n + 1)


def test_defect_examples():
    assert defect(ZInitial(), 10, [IntShift(1)]) == Fraction(1, 10)
    assert defect(ZInitial(), 10, [IntShift(0)]) == 0
    assert defect(ZCentered(), 5, [IntShift(2)]) == Fraction(2, 11)
    assert defect(LampBox(), 9, [Lamp(1, ())]) == Fraction(1, 10)


@pytest.mark.parametrize("n", range(1, 8))
def test_shift_defect_closed_form(n):
    assert defect(LampBox(), n, [Lamp(1, ())]) == Fraction(1, n + 1)


def test_defect_monotone_for_toggle():
    vals = [defect(LampBox(), n, [Lamp(0, (-1,))]) for n in range(2, 8)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == Fraction(1, 8)


def test_lamp_defect_bound_examples():
    assert lamp_defect_bound(Lamp(0, (-1,)), 9) == Fraction(1, 10)
    assert lamp_defect_bound(Lamp(1, ()), 9) == Fraction(1, 10)
    assert lamp_defect_bound(Lamp(0, (0,)), 4) == 0  # site 0 shifts stay put
    with pytest.raises(TypeError):
        lamp_defect_bound(IntShift(1), 3)


def test_defect_dominated_by_bound_exhaustive():
    for g in elements(LampBox(), 2):
        assert defect(LampBox(), 3, [g]) <= lamp_defect_bound(g, 3)


def test_budget():
    with pytest.raises(BudgetError):
        cardinality(LampBox(), 30)
    with pytest.raises(BudgetError):
        elements(LampBox(), 10, budget=1000)
    assert cardinality(LampBox(), 30, budget=None) == 31 * 2 ** 31


def test_bad_index():
    with pytest.raises(ValueError):
        elements(ZInitial(), 0)


def enumerated_defect(family, n, K, budget=folner.ATOM_BUDGET):
    """The enumerating defect the closed form replaced: every element of
    F_n multiplied by every k in K."""
    F = elements(family, n, budget)
    Fset = set(F)
    moved = {multiply(k, f) for k in K for f in F}
    return Fraction(len(moved - Fset), len(F))


Z_BASES = [ZInitial(), ZCentered(), ZShifted()]


@st.composite
def defect_cases(draw):
    lamp = draw(st.booleans())
    family = draw(st.sampled_from([LampBox()] if lamp else Z_BASES))
    n = draw(st.integers(1, 6))
    if lamp:
        # toggle sites on both sides of A_n = {n, ..., 2n}
        sites = st.lists(st.integers(n - 3, 2 * n + 3), unique=True,
                         max_size=3).map(lambda b: tuple(sorted(b)))
        element = st.builds(Lamp, st.integers(-4, 4), sites)
    else:
        element = st.builds(IntShift, st.integers(-15, 15))
    K = draw(st.lists(element, max_size=3))
    if K and draw(st.booleans()):
        K.append(draw(st.sampled_from(K)))  # a duplicate
    return family, n, K


@settings(deadline=None, max_examples=400)
@given(defect_cases(), st.booleans())
def test_closed_form_defect_equals_enumeration(case, as_generator):
    family, n, K = case
    got = defect(family, n, iter(K) if as_generator else K)
    assert got == enumerated_defect(family, n, K)


def test_defect_builds_no_element(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("defect enumerated F_n")
    monkeypatch.setattr(folner, "elements", refuse)
    assert defect(LampBox(), 8, [Lamp(1, (-1,))]) == Fraction(2, 9)
    assert defect(ZCentered(), 1, [IntShift(2)]) == Fraction(2, 3)


@pytest.mark.parametrize("family, good, bad", [
    (ZInitial(), IntShift(1), Lamp(1, ())),
    (LampBox(), Lamp(1, (2,)), IntShift(1)),
    (ZCentered(), IntShift(-2), 7),
    (ZShifted(), IntShift(-2), "s^1 t{}"),
])
@pytest.mark.parametrize("bad_first", [True, False])
def test_wrong_group_error_is_unchanged(family, good, bad, bad_first):
    K = [bad, good] if bad_first else [good, bad]
    with pytest.raises(Exception) as expected:
        enumerated_defect(family, 2, K)
    with pytest.raises(type(expected.value)) as got:
        defect(family, 2, K)
    assert str(got.value) == str(expected.value)


def test_defect_keeps_the_budget():
    with pytest.raises(BudgetError):
        defect(LampBox(), 17, [Lamp(1, ())])
    with pytest.raises(BudgetError):
        defect(LampBox(), 10, [Lamp(1, ())], budget=1000)
    with pytest.raises(ValueError):
        defect(ZInitial(), 0, [IntShift(1)])
    assert defect(LampBox(), 16, []) == 0


def test_deep_defects():
    assert defect(LampBox(), 40, [Lamp(1, ())], budget=None) == Fraction(1, 41)
    # b + 3 leaves A_40 for b in {78, 79, 80}, b + 2 for b in {79, 80} and
    # b - 1 for b = 40: four classes, against six site-by-site overflows
    g = Lamp(2, (-1, 3))
    assert defect(LampBox(), 40, [g], budget=None) == Fraction(4, 41)
    assert lamp_defect_bound(g, 40) == Fraction(6, 41)
    # shifts 3 and -2 of {-n, ..., n} leave it by 3 and 2 sites
    assert defect(ZCentered(), 10 ** 6, [IntShift(3), IntShift(-2)]) \
        == Fraction(5, 2 * 10 ** 6 + 1)
