from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lamina.circle import (
    Angle,
    Arc,
    NEGATIVE,
    NEITHER,
    POSITIVE,
    circular_order,
    in_arc,
    preimages,
    shortest_dist,
    sigma,
    sigma_power,
)


def test_angle_normalization():
    assert Angle(7, 3) == Angle(1, 3)
    assert Angle(" -1/03 ") == Angle(2, 3)
    assert Angle(-1, 3) == Angle(2, 3)
    assert Angle("3/7") == Angle(3, 7)
    assert str(Angle(0)) == "0"
    assert str(Angle(2, 4)) == "1/2"


def test_angle_of_angle_is_itself():
    a = Angle(2, 7)
    assert Angle(a) is a
    assert Angle(a, 1) == a
    assert Angle(Angle(2, 3), Fraction(1, 2)) == Angle(1, 3)
    b = Angle(Fraction(9, 7))
    assert type(b) is Angle and b == a


def test_angle_rejects_floats():
    with pytest.raises(TypeError):
        Angle(0.5)


@pytest.mark.parametrize("text", ["0.5", "1e-1", "1/2.0", "1/", "1/3/4", "1/0", "1/00"])
def test_angle_rejects_decimal_and_exponent_strings(text):
    with pytest.raises(ValueError):
        Angle(text)


def test_sigma_power_matches_iterated_sigma():
    for d, a in ((2, Angle(1, 7)), (3, Angle(5, 54)), (3, Angle(19, 80))):
        x = a
        for n in range(8):
            assert sigma_power(d, a, n) == x
            x = sigma(d, x)


def test_sigma_examples():
    assert sigma(2, Angle(1, 3)) == Angle(2, 3)
    assert sigma(3, Angle(342, 728)) == Angle(149, 364)
    assert sigma(3, Angle(0)) == Angle(0)
    with pytest.raises(ValueError):
        sigma(1, Angle(1, 3))


def test_preimages_examples():
    assert preimages(2, Angle(1, 7)) == [Angle(1, 14), Angle(4, 7)]
    assert preimages(3, Angle(0)) == [Angle(0), Angle(1, 3), Angle(2, 3)]
    pre = preimages(3, Angle(149, 364))
    assert pre == [Angle(149, 1092), Angle(171, 364), Angle(877, 1092)]
    assert all(sigma(3, p) == Angle(149, 364) for p in pre)


def test_shortest_dist_examples():
    assert shortest_dist(Angle(1, 3), Angle(2, 3)) == Fraction(1, 3)
    assert shortest_dist(Angle(342, 728), Angle(579, 728)) == Fraction(237, 728)
    assert shortest_dist(Angle(1, 5), Angle(1, 5)) == 0


def test_circular_order_examples():
    assert circular_order([Angle(0), Angle(1, 3), Angle(2, 3)]) == POSITIVE
    assert circular_order([Angle(0), Angle(2, 3), Angle(1, 3)]) == NEGATIVE
    assert circular_order([Angle(0), Angle(1, 2), Angle(1, 4), Angle(3, 4)]) == NEITHER
    with pytest.raises(ValueError):
        circular_order([Angle(0), Angle(1, 2)])
    with pytest.raises(ValueError):
        circular_order([Angle(0), Angle(0), Angle(1, 2)])


def test_arc_membership():
    arc = Arc(Angle(1, 3), Angle(2, 3))
    assert in_arc(Angle(1, 2), arc)
    assert not in_arc(Angle(1, 3), arc)
    assert in_arc(Angle(1, 3), arc, closed=True)
    assert not in_arc(Angle(3, 4), arc)
    with pytest.raises(ValueError):
        Arc(Angle(1, 3), Angle(1, 3))


def test_arc_wraps_zero():
    arc = Arc(Angle(3, 4), Angle(1, 4))
    assert arc.length == Fraction(1, 2)
    assert in_arc(Angle(0), arc)
    assert not in_arc(Angle(1, 2), arc)


angles = st.builds(
    Angle, st.integers(min_value=0, max_value=9999), st.integers(min_value=1, max_value=10000)
)


@settings(max_examples=200, deadline=None)
@given(angles, st.integers(min_value=2, max_value=5))
def test_preimages_section_property(a, d):
    for k, p in enumerate(preimages(d, a)):
        assert sigma(d, p) == a
    assert len(set(preimages(d, a))) == d


@settings(max_examples=200, deadline=None)
@given(angles, angles, angles)
def test_shortest_dist_is_a_metric(a, b, c):
    assert shortest_dist(a, b) == shortest_dist(b, a)
    assert 0 <= shortest_dist(a, b) <= Fraction(1, 2)
    assert (shortest_dist(a, b) == 0) == (a == b)
    assert shortest_dist(a, c) <= shortest_dist(a, b) + shortest_dist(b, c)


@settings(max_examples=100, deadline=None)
@given(st.lists(angles, min_size=3, max_size=8, unique=True), st.integers(0, 7))
def test_circular_order_rotation_invariance(points, shift):
    verdict = circular_order(points)
    k = shift % len(points)
    rotated = points[k:] + points[:k]
    assert circular_order(rotated) == verdict
