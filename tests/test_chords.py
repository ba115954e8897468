import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import lamina
from lamina.circle import Angle, _ring, sigma
from lamina.chords import (
    Chord,
    _sides,
    chord_image,
    disjoint,
    greedy_no_loop,
    is_critical,
    linked,
    sibling_collections,
    validate_collection,
)

A = Angle


def C(p, q, r, s):
    return Chord(A(p, q), A(r, s))


SIDES_TABLE = [
    ([], []),
    ([5], []),
    ([1, 4], [(1, 4)]),
    ([0, 2, 7], [(0, 2), (2, 7), (0, 7)]),
    ([0, 1, 2, 3, 4, 5], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]),
]


@pytest.mark.parametrize("points, sides", SIDES_TABLE)
@pytest.mark.parametrize("q", [None, 8])
def test_sides_table(points, sides, q):
    # the same table on ring ints and on the Angles n/8
    at = (lambda n: n) if q is None else (lambda n: A(n, q))
    assert _sides([at(n) for n in points]) == [(at(x), at(y)) for x, y in sides]
    assert _sides(tuple(at(n) for n in points)) == _sides([at(n) for n in points])


def test_sides_of_a_rotated_hexagon():
    # the first hexagon fixture lists its vertices from 19/39, so one side
    # wraps past 0 and the pairs are sorted by Chord
    verts = [A(n, 39) for n in (19, 28, 31, 32 + 39, 2 + 39, 5 + 39)]
    assert [str(Chord(*e)) for e in _sides(verts)] == [
        "19/39 28/39", "28/39 31/39", "31/39 32/39", "2/39 32/39", "2/39 5/39", "5/39 19/39",
    ]


def test_chord_canonical_form():
    assert Chord(A(2, 3), A(1, 3)) == Chord(A(1, 3), A(2, 3))
    assert Chord.parse("1/3 2/3") == Chord(A(1, 3), A(2, 3))
    assert str(Chord(A(2, 3), A(0))) == "0 2/3"
    assert Chord(A(1, 5), A(1, 5)).degenerate


def test_chord_is_its_sorted_pair():
    c = Chord(A(2, 3), A(1, 3))
    assert (c.a, c.b) == tuple(c) == (A(1, 3), A(2, 3))
    assert hash(c) == hash((c.a, c.b))
    assert repr(c) == "Chord(a=Angle(1/3), b=Angle(2/3))"
    for other in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert other == c and type(other) is Chord
    with pytest.raises(AttributeError):
        c.a = A(0)


def test_linked_examples():
    assert linked(C(0, 1, 1, 2), C(1, 4, 3, 4))
    assert linked(C(0, 1, 1, 12), C(1, 24, 1, 8))
    assert not linked(C(0, 1, 1, 3), C(1, 3, 2, 3))  # shared endpoint
    assert not linked(C(0, 1, 1, 2), C(0, 1, 1, 2))
    assert not linked(Chord(A(1, 3), A(1, 3)), C(0, 1, 1, 2))


def test_linked_is_symmetric_on_samples():
    chords = [C(0, 1, 1, 3), C(1, 4, 2, 3), C(1, 8, 7, 8), C(1, 2, 3, 4)]
    for c1 in chords:
        for c2 in chords:
            assert linked(c1, c2) == linked(c2, c1)


def _linked_oracle(c1, c2):
    """Reference for ``linked``: one rule per kind of non-crossing."""
    if c1.degenerate or c2.degenerate:
        return False
    if c1 == c2:
        return False
    if c1.a in (c2.a, c2.b) or c1.b in (c2.a, c2.b):
        return False
    return (c1.a < c2.a < c1.b) != (c1.a < c2.b < c1.b)


# small denominators, so equal, touching and degenerate chords are common
_angles = st.builds(lambda q, n: A(n % q, q), st.integers(1, 12), st.integers(0, 11))
_chords = st.builds(Chord, _angles, _angles)

_wide_angles = st.fractions(0, 1, max_denominator=10**30).filter(lambda x: x < 1).map(A)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_angles, _wide_angles), st.one_of(_angles, _wide_angles))
@example(A(0), A(0))
@example(A(0), A(1, 2))
def test_chord_text_is_the_fraction_text_of_its_ends(a, b):
    # Chord text is read off the Angles' slots: "n/q", or "0" for 0, as
    # Fraction prints them
    a, b = sorted((a, b))
    assert str(Chord(a, b)) == f"{Fraction(a)} {Fraction(b)}"
    # a pair with an end that is no Angle keeps Fraction's text
    for pair in ((Fraction(a), b), (a, Fraction(b))):
        assert str(tuple.__new__(Chord, pair)) == f"{Fraction(a)} {Fraction(b)}"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_angles, _angles), max_size=8))
def test_chords_sort_by_their_endpoints(pairs):
    # the order of Chords is that of their (a, b) pairs, a <= b
    chords = [Chord(x, y) for x, y in pairs]
    assert [(c.a, c.b) for c in sorted(chords)] == sorted((min(p), max(p)) for p in pairs)


@settings(max_examples=600, deadline=None)
@given(_chords, _chords)
def test_linked_agrees_with_oracle(c1, c2):
    # on Chords and on the same two chords as int pairs mod 27720
    p1, p2 = (tuple(int(e * 27720) for e in c) for c in (c1, c2))
    for u, v in ((c1, c2), (p1, p2)):
        assert linked(u, v) == _linked_oracle(c1, c2)
        assert linked(u, u) is False


@settings(max_examples=600, deadline=None)
@given(_chords, _chords)
def test_disjoint_is_no_shared_endpoint_and_no_crossing(c1, c2):
    # on Chords and on their int pairs mod lcm(1, ..., 12), a common
    # denominator of every endpoint _chords draws
    N = 27720
    p1, p2 = (tuple(int(e * N) for e in c) for c in (c1, c2))
    for u, v in ((c1, c2), (p1, p2)):
        assert disjoint(u, v) == (not set(u) & set(v) and not linked(u, v))
    assert (linked(p1, p2), disjoint(p1, p2)) == (linked(c1, c2), disjoint(c1, c2))


def _chain(c1, c2):
    """``linked`` through the ends' own comparisons: the reference for its
    slot path on Angles, and what every other kind of end goes through."""
    (a, b), (x, y) = c1, c2
    if a < x:
        return x < b < y
    if x < a:
        return a < y < b
    return False


# every angle with denominator up to 40, 0 included
_points40 = st.sampled_from(sorted({A(n, q) for q in range(1, 41) for n in range(q)}))


@settings(max_examples=300, deadline=None)
@given(st.lists(_points40, min_size=4, max_size=4, unique=True))
def test_linked_on_angle_slots_agrees_with_ring_ints(ends):
    # four distinct ends give crossing and disjoint pairs; the chords on
    # them share ends, repeat, degenerate and end at 0
    a, b, x, y = ends
    chords = [Chord(a, b), Chord(x, y), Chord(a, x), Chord(b, y), Chord(a, a), Chord(A(0), y)]
    _, ring = _ring([e for c in chords for e in c])
    pairs = [tuple(ring[2 * i:2 * i + 2]) for i in range(len(chords))]
    for c1, p1 in zip(chords, pairs):
        for c2, p2 in zip(chords, pairs):
            assert linked(c1, c2) == linked(p1, p2) == _chain(c1, c2), (c1, c2)
            # a plain tuple of Angles, a sorted Fraction pair and an int pair
            # against a Chord each return what the comparison chain returns
            f1, f2 = tuple(map(Fraction, c1)), tuple(map(Fraction, c2))
            for u, v in ((tuple(c1), tuple(c2)), (c1, f2), (f1, c2), (f1, f2), (c1, p2), (p1, c2)):
                assert linked(u, v) == _chain(u, v), (u, v)


def test_linked_is_one_object_under_every_name():
    assert lamina.linked is lamina.chords.linked is lamina.circle.linked is linked


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 6), _angles, st.integers(0, 5), st.booleans(), _chords)
def test_chord_image_is_the_chord_of_the_sigma_images(d, a, k, critical, c):
    # a critical chord, an end and that end plus k/d, has a degenerate image
    if critical:
        c = Chord(a, a + Fraction(k % d, d))
    img = chord_image(d, c)
    assert img == Chord(sigma(d, c.a), sigma(d, c.b))
    assert type(img) is Chord and type(img.a) is Angle is type(img.b)
    assert img.degenerate or not critical


@pytest.mark.parametrize("d", [1, True, 2.0])
def test_chord_image_refuses_a_degree_below_two(d):
    with pytest.raises(ValueError) as info:
        chord_image(d, C(1, 7, 2, 7))
    assert str(info.value) == f"degree must be an integer >= 2, got {d!r}"


def test_image_and_criticality():
    assert is_critical(3, C(0, 1, 1, 3))
    assert chord_image(3, C(342, 728, 579, 728)) == C(149, 364, 281, 728)
    assert not is_critical(2, C(1, 7, 2, 7))
    assert not is_critical(3, Chord(A(1, 3), A(1, 3)))


def test_sibling_collection_unique_for_period_six_leaf():
    N = C(38, 728, 307, 728)
    colls = sibling_collections(3, N)
    assert len(colls) == 1
    rest = {c for c in colls[0] if c != N}
    assert rest == {C(193, 2184, 842, 2184), C(1570, 2184, 1649, 2184)}


def test_sibling_collection_quadratic():
    colls = sibling_collections(2, C(1, 7, 2, 7))
    assert colls == [[C(1, 7, 2, 7), C(9, 14, 11, 14)]]


def test_sibling_collections_reject_critical():
    with pytest.raises(ValueError):
        sibling_collections(3, C(0, 1, 1, 3))


def test_sibling_collections_all_share_image():
    c = C(342, 728, 579, 728)
    img = chord_image(3, c)
    for coll in sibling_collections(3, c):
        assert len(coll) == 3
        assert all(chord_image(3, m) == img for m in coll)
        for i, u in enumerate(coll):
            for v in coll[i + 1 :]:
                assert not linked(u, v)
                assert not set(u.endpoints) & set(v.endpoints)


def test_validate_collection_examples():
    triangle = [C(0, 1, 1, 3), C(1, 3, 2, 3), C(2, 3, 1, 1)]
    assert validate_collection(3, triangle).has_loop
    vee = [C(0, 1, 1, 3), C(0, 1, 2, 3)]
    rep = validate_collection(3, vee)
    assert not rep.has_loop and rep.is_full_collection
    twice = [C(0, 1, 1, 3), C(0, 1, 1, 3)]
    assert validate_collection(3, twice).has_loop
    # full collections must be critical chords
    assert not validate_collection(3, [C(0, 1, 1, 3), C(0, 1, 1, 2)]).is_full_collection


def _cycle_oracle(chords):
    """Independent loop oracle: a multigraph on the endpoint angles has a
    cycle iff some connected component has at least as many edges as
    vertices, or some chord repeats."""
    if len(set(chords)) != len(chords):
        return True
    vertices = {e for c in chords for e in c.endpoints if not c.degenerate}
    adjacency = {v: set() for v in vertices}
    edge_count = {}
    for c in chords:
        if c.degenerate:
            continue
        adjacency[c.a].add(c.b)
        adjacency[c.b].add(c.a)
    unseen = set(vertices)
    while unseen:
        start = unseen.pop()
        comp = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adjacency[v]:
                if w not in comp:
                    comp.add(w)
                    unseen.discard(w)
                    stack.append(w)
        n_edges = sum(1 for c in chords if not c.degenerate and c.a in comp)
        if n_edges >= len(comp):
            return True
    return False


# the denominators, numerators and steps of n chords for the loop oracle,
# built once per n (at most 5 + 2) rather than once per example
LOOP_LISTS = {
    n: tuple(
        st.lists(values, min_size=n, max_size=n)
        for values in (st.integers(1, 60), st.integers(0, 59), st.integers(1, 4))
    )
    for n in range(1, 8)
}


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_loop_detection_agrees_with_graph_oracle(data):
    d = data.draw(st.integers(min_value=2, max_value=5))
    n = data.draw(st.integers(min_value=1, max_value=d + 2))
    qs, ps, ks = (data.draw(lists) for lists in LOOP_LISTS[n])
    chords = []
    for q, p, k in zip(qs, ps, ks):
        a = Angle(p, q)
        chords.append(Chord(a, Angle(a + Fraction(k % d or 1, d))))
    assert validate_collection(d, chords).has_loop == _cycle_oracle(chords)
    # the greedy pass keeps a chord iff it repeats no kept chord and closes
    # no cycle with the kept ones
    kept = []
    for c in chords:
        if not _cycle_oracle(kept + [c]):
            kept.append(c)
    assert greedy_no_loop(d, chords) == kept


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=119),
    st.integers(min_value=1, max_value=119),
)
def test_sibling_collections_property(d, p, q):
    a = Angle(p, 120)
    b = Angle(q, 121)
    c = Chord(a, b)
    img = chord_image(d, c)
    if img.degenerate:
        return
    colls = sibling_collections(d, c)
    assert colls, "a disjoint sibling collection always exists"
    for coll in colls:
        assert len(coll) == d and coll[0] == c
        assert all(chord_image(d, m) == img for m in coll)
        for i, u in enumerate(coll):
            for v in coll[i + 1 :]:
                assert not linked(u, v) and not set(u.endpoints) & set(v.endpoints)
