import copy
import operator
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lamina.circle import (
    _RATIONAL,
    Angle,
    Arc,
    NEGATIVE,
    NEITHER,
    POSITIVE,
    _integer,
    _pair_ring,
    _ratio,
    _ring,
    ccw_offset,
    circular_order,
    cyclic_descents,
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


@pytest.mark.parametrize(
    "text, accepted",
    [
        ("0", Angle(0)),
        ("-1/3", Angle(2, 3)),
        (" 2/6 ", Angle(1, 3)),
        ("1/007", Angle(1, 7)),
        ("0.5", None),
        ("1e-1", None),
        ("1/0", None),
        ("1/-3", None),
        ("", None),
    ],
)
def test_angle_string_table(text, accepted):
    if accepted is None:
        with pytest.raises(ValueError):
            Angle(text)
    else:
        angle = Angle(text)
        assert type(angle) is Angle and angle == accepted


def test_angle_string_with_a_denominator_is_refused():
    # a string is checked first, then Fraction refuses a string numerator
    with pytest.raises(ValueError):
        Angle("1/0", 2)
    with pytest.raises(TypeError):
        Angle("1/3", 2)


def test_angle_of_a_str_subclass_is_parsed_like_a_str():
    class S(str):
        pass

    assert Angle(S("3/9")) == Angle(1, 3)
    assert type(Angle(S("3/9"))) is Angle
    with pytest.raises(ValueError):
        Angle(S("1.5"))


_blanks = st.text(alphabet=" \t\n", max_size=2)
_digits = st.builds(
    lambda zeros, n: "0" * zeros + str(n), st.integers(0, 2), st.integers(0, 10**30)
)


@settings(max_examples=400, deadline=None)
@given(
    _blanks,
    st.sampled_from(["", "+", "-"]),
    _digits,
    st.none()
    | st.builds(lambda zeros, q: "0" * zeros + str(q), st.integers(0, 2), st.integers(1, 10**30)),
    _blanks,
)
@example("", "", "0", "7", "")
@example(" ", "-", "00", "007", "\t")
@example("", "-", "5", "3", "")
@example("", "+", str(10**30), None, " ")
def test_angle_text_matches_fraction(lead, sign, p, q, trail):
    text = lead + sign + p + ("" if q is None else "/" + q) + trail
    a, expected = Angle(text), Fraction(text) % 1
    assert type(a) is Angle and a == expected
    assert (a.numerator, a.denominator) == (expected.numerator, expected.denominator)
    assert hash(a) == hash(expected)


@settings(max_examples=200, deadline=None)
@given(
    _digits,
    st.sampled_from(["{}.{}", "{}e{}", "{}/0", "{}/00", "{}/-{}", "{}/{}/3", "{}/ {}", "/{}{}", "{}/{}.5"]),
    st.integers(0, 10**30),
)
def test_angle_text_rejects_non_rationals(p, form, q):
    with pytest.raises(ValueError):
        Angle(form.format(p, q))


_tokens = st.builds(
    lambda lead, sign, p, slash, zeros, q, trail: lead + sign + p + slash + "0" * zeros + q + trail,
    _blanks,
    st.sampled_from(["", "+", "-", "--", "+-"]),
    st.sampled_from(["", "0", "00"]).flatmap(lambda z: st.integers(0, 10**30).map(lambda n: z + str(n)))
    | st.sampled_from(["", "x", "0.5", "1e3", "degree"]),
    st.sampled_from(["", "/", "/", "/", "//", " / "]),
    st.integers(0, 3),
    st.integers(0, 10**30).map(str) | st.sampled_from(["", "-7", "7.0", "1e3", "7/3", "0x7"]),
    _blanks,
)


@settings(max_examples=500, deadline=None)
@given(_tokens | st.text(alphabet="0123456789+-/.e_ \t", max_size=12))
@example("1/007")
@example(" -14/21\t")
@example("+22/7")
@example("0/5")
@example("1/0")
@example("1/00")
@example("0.5")
@example("1e3")
@example("1/-7")
@example("")
def test_ratio_accepts_exactly_the_rational_tokens(text):
    # the token rule parse_lamination reads every angle with: the strings
    # _RATIONAL accepts once blanks are stripped, as the reduced ints of
    # their value mod 1, which Fraction computes independently
    if _RATIONAL.fullmatch(text.strip()) is None:
        with pytest.raises(ValueError, match="angle must be an integer or p/q with q > 0"):
            _ratio(text)
        with pytest.raises(ValueError):
            Angle(text)
        return
    expected = Fraction(text.strip()) % 1
    a = Angle(text)
    assert _ratio(text) == (a.numerator, a.denominator) == (expected.numerator, expected.denominator)


@pytest.mark.parametrize("text", ["\u0661", "1/1\u0661", "\u0661/7", "1/\u0661", "\uff13/4", "1_0", "1/1_0"])
def test_ratio_reads_ascii_digits_only(text):
    # Arabic-Indic and fullwidth digits are Unicode digits that \d and int() take
    with pytest.raises(ValueError, match="angle must be an integer or p/q with q > 0"):
        _ratio(text)


@settings(max_examples=300, deadline=None)
@given(
    st.text(alphabet="0123456789+-_ \t\u0661\u0662\uff13x", max_size=8)
    | st.integers(-(10**30), 10**30).map(str)
)
@example("1_0")
@example("\u0662")
@example(" +7\t")
@example("-0")
@example("")
def test_integer_reads_exactly_the_ascii_decimal_integers(text):
    # the rule for integers from outside: an optional sign and ASCII digits,
    # blanks around them allowed, read as int() reads them
    core = text.strip()
    digits = core[1:] if core.startswith(("+", "-")) else core
    if digits and all(c in "0123456789" for c in digits):
        assert _integer(text) == int(core)
    else:
        with pytest.raises(ValueError, match="not an integer"):
            _integer(text)


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


def _circular_order_by_offsets(points):
    """The offsets-based classification circular_order used before it read
    cyclic_descents: the offsets from the first point must all rise (or all
    fall)."""
    offsets = [ccw_offset(points[0], p) for p in points[1:]]
    if all(offsets[i] < offsets[i + 1] for i in range(len(offsets) - 1)):
        return POSITIVE
    if all(offsets[i] > offsets[i + 1] for i in range(len(offsets) - 1)):
        return NEGATIVE
    return NEITHER


def test_circular_order_agrees_with_offsets_oracle():
    rng = random.Random(20140517)
    verdicts = set()
    for _ in range(3000):
        q = rng.randint(3, 40)
        n = rng.randint(3, min(q, 7))
        points = [Angle(j, q) for j in rng.sample(range(q), n)]
        if rng.random() < 0.5:
            # a rotated ascending or descending run, so that both orders show up
            points.sort(reverse=rng.random() < 0.5)
            k = rng.randrange(n)
            points = points[k:] + points[:k]
        verdict = circular_order(points)
        assert verdict == _circular_order_by_offsets(points), points
        verdicts.add(verdict)
    assert verdicts == {POSITIVE, NEGATIVE, NEITHER}


def test_cyclic_descents_agrees_with_index_formula():
    # seeded int lists with ties, every length 0-3 included; tuples too
    rng = random.Random(20140517)
    lengths = set()
    for _ in range(2000):
        n = rng.randint(0, 8)
        values = [rng.randint(0, 4) for _ in range(n)]
        expected = sum(1 for i in range(n) if values[i] > values[(i + 1) % n])
        assert cyclic_descents(values) == cyclic_descents(tuple(values)) == expected, values
        lengths.add(n)
    assert lengths == set(range(9))
    assert [cyclic_descents(v) for v in ([], [3], [3, 3], [1, 2], [2, 1], [0, 2, 1])] == [0, 0, 0, 1, 1, 2]


def test_arc_membership():
    arc = Arc(Angle(1, 3), Angle(2, 3))
    assert arc.contains(Angle(1, 2))
    assert not arc.contains(Angle(1, 3))
    assert arc.contains(Angle(1, 3), closed=True)
    assert not arc.contains(Angle(3, 4))
    with pytest.raises(ValueError):
        Arc(Angle(1, 3), Angle(1, 3))


def test_arc_wraps_zero():
    arc = Arc(Angle(3, 4), Angle(1, 4))
    assert arc.length == Fraction(1, 2)
    assert arc.contains(Angle(0))
    assert not arc.contains(Angle(1, 2))


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


# Oracle tests: the integer kernel against plain Fraction arithmetic.

big_angles = st.integers(min_value=1, max_value=10**12).flatmap(
    lambda q: st.builds(Angle, st.integers(min_value=0, max_value=q - 1), st.just(q))
)
degrees = st.integers(min_value=2, max_value=6)
rationals = st.builds(
    Fraction, st.integers(min_value=-(10**12), max_value=10**12), st.integers(min_value=1, max_value=10**12)
)


@settings(max_examples=300, deadline=None)
@given(big_angles, degrees, st.integers(min_value=0, max_value=40))
def test_sigma_kernel_matches_fraction(a, d, n):
    image = sigma(d, a)
    assert type(image) is Angle and image == Angle(d * Fraction(a))
    power = sigma_power(d, a, n)
    assert type(power) is Angle and power == Angle(d**n * Fraction(a))
    assert (power.numerator, power.denominator) == (Fraction(d**n * a) % 1).as_integer_ratio()


@settings(max_examples=300, deadline=None)
@given(big_angles, degrees)
def test_preimages_kernel_matches_fraction(a, d):
    pre = preimages(d, a)
    assert pre == [Angle((a + k) / d) for k in range(d)]
    assert all(type(p) is Angle for p in pre)
    assert [p.as_integer_ratio() for p in pre] == [((a + k) / d).as_integer_ratio() for k in range(d)]


@settings(max_examples=300, deadline=None)
@given(big_angles, big_angles)
def test_ccw_offset_matches_fraction(a, b):
    t = ccw_offset(a, b)
    assert type(t) is Angle and t == (b - a) % 1
    assert t.as_integer_ratio() == ((b - a) % 1).as_integer_ratio()
    assert ccw_offset(a, a) == 0


COMPARISONS = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)


@settings(max_examples=300, deadline=None)
@given(big_angles, st.one_of(big_angles, rationals, st.integers(min_value=-3, max_value=3)))
def test_angle_comparisons_match_fraction(a, other):
    # the other operand as drawn (Angle, Fraction or int), as a Fraction,
    # and an equal Angle built separately
    twin = Angle(a.numerator, a.denominator)
    for op in COMPARISONS:
        assert op(a, other) == op(Fraction(a), Fraction(other))
        assert op(other, a) == op(Fraction(other), Fraction(a))
        assert op(a, Fraction(other)) == op(Fraction(a), Fraction(other))
        assert op(a, twin) == op(Fraction(a), Fraction(a))


@settings(max_examples=300, deadline=None)
@given(st.one_of(big_angles, rationals))
def test_angle_hash_matches_fraction(x):
    a = Angle(x)
    assert hash(a) == hash(Fraction(a)) == hash(a)
    assert {Fraction(a): "found"}[a] == "found"
    assert {a: "found"}[Fraction(a)] == "found"


def test_angle_finds_fraction_dict_key():
    table = {Fraction(1, 3): "third", 0: "zero"}
    assert table[Angle(1, 3)] == "third"
    assert table[Angle(4, 3)] == "third"
    assert table[Angle(0)] == "zero"
    assert Angle(1, 3) in {Fraction(1, 3)} and Fraction(2, 3) in {Angle(-1, 3)}
    # a denominator divisible by the hash modulus takes Fraction's other branch
    m = sys.hash_info.modulus
    assert hash(Angle(1, m)) == hash(Fraction(1, m)) and hash(Angle(5, 2 * m)) == hash(Fraction(5, 2 * m))


@pytest.mark.parametrize("a", [Angle(0), Angle(1, 3), Angle(999999999989, 10**12)])
def test_angle_pickle_and_copy_round_trip(a):
    hash(a)  # fill the cached hash first
    for b in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(b) is Angle and b == a and hash(b) == hash(a)
        assert b.as_integer_ratio() == a.as_integer_ratio()


def test_fraction_slot_layout():
    # _angle and the comparisons read and write these slots directly
    assert "_numerator" in Fraction.__slots__ and "_denominator" in Fraction.__slots__


# each angle-like an Angle takes, for n/q with 0 <= n <= 90 and 1 <= q <= 30,
# so past 1 too: an Angle, a Fraction, a "p/q" string or the int n
_ANGLE_LIKE = st.builds(
    lambda n, q, form: form(n, q),
    st.integers(0, 90),
    st.integers(1, 30),
    st.sampled_from((Angle, Fraction, lambda n, q: f"{n}/{q}", lambda n, q: n)),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ANGLE_LIKE, min_size=4, max_size=4))
def test_pair_ring_is_the_ring_of_the_four_ends(ends):
    # in their given order, so unsorted pairs too: the same N and ints
    a, b, x, y = ends
    N, xs = _pair_ring((a, b), (x, y))
    assert (N, xs) == _ring(ends)
    assert type(xs) is list and all(type(v) is int for v in xs)
    assert [Angle(v, N) for v in xs] == [Angle(e) for e in ends]


def test_sigma_power_rejects_negative_count():
    with pytest.raises(ValueError):
        sigma_power(2, Angle(1, 7), -1)
