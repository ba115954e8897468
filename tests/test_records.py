"""Every record of lamina against a ``dataclasses.dataclass`` twin with the
same fields, defaults and frozen flag: the records are built by
``circle._record``, which must give what ``@dataclass`` gives."""

import copy
import pickle
from dataclasses import MISSING, field, fields, make_dataclass

import pytest

from lamina.accordion import AccordionReport, CompgapReport
from lamina.chords import Chord, CollectionReport
from lamina.circle import Angle as A, Arc, _record
from lamina.cubic_tags import ConvexSet, FullPortrait, GeometryReport, MixedTag, TagCaseReport
from lamina.formats import PortraitSpec
from lamina.lamination import CriticalAnalysis, InvarianceReport, OrbitInfo
from lamina.qc_portrait import CriticalQuadrilateral, PairReport, QcPortrait, StrongLinkReport
from lamina.quad_minor import MinorReport, Strip, StripVerdict
from lamina.render import RenderSpec
from lamina.suites import SuiteResult


def _default(name, value):
    return (name, object, field(default=value))


def _factory(name, make):
    return (name, object, field(default_factory=make))


# record -> (frozen, its fields as make_dataclass takes them); a name alone
# is a field without a default
TWINS = {
    AccordionReport: (True, ["axis", "members", "touching", "horizon", "exact", "classification"]),
    CompgapReport: (
        True,
        ["classification", "r", "step", "vertices", "orbit_groups", "periods", "remap_is_identity"],
    ),
    CollectionReport: (True, ["has_loop", "is_full_collection"]),
    Arc: (True, ["start", "end"]),
    FullPortrait: (True, ["first", "second"]),
    MixedTag: (True, ["cocritical_factor", "minor_factor"]),
    TagCaseReport: (False, ["relation", "triangle_case", "containment_case", "consistent", "common_depth"]),
    GeometryReport: (
        False,
        [
            _factory("colocation_failures", list),
            _factory("linkco_failures", list),
            _factory("reconstruction_failures", list),
            _factory("separation_failures", list),
            _factory("checked", dict),
        ],
    ),
    PortraitSpec: (True, ["degree", "entries"]),
    OrbitInfo: (True, ["preperiod", "period", "orbit"]),
    InvarianceReport: (
        False,
        [
            _factory("condition1", list),
            _factory("condition2", list),
            _factory("condition3", list),
            _default("exempt", 0),
        ],
    ),
    CriticalAnalysis: (True, ["critical_leaves", "critical_gaps", "critical_clusters", "critical_sets", "arc_gaps"]),
    CriticalQuadrilateral: (True, ["degree", "vertices"]),
    StrongLinkReport: (True, ["linked", "witness"]),
    QcPortrait: (True, ["degree", "quads"]),
    PairReport: (True, ["verdict", "k", "detail"]),
    Strip: (True, ["bound1", "bound2", _default("degenerate", False)]),
    StripVerdict: (True, ["passes", "fail_index", "fail_chord"]),
    MinorReport: (True, ["minor", "majors"]),
    RenderSpec: (
        True,
        [
            _default("size", 800),
            _default("geodesic_style", "hyperbolic"),
            _default("labels", False),
            _factory("highlight", tuple),
        ],
    ),
    SuiteResult: (False, ["name", "passed", _factory("counts", dict), _factory("failures", list)]),
}

# the required arguments of the records whose __post_init__ checks them;
# every other record takes arbitrary values
_SET = ConvexSet.of([A(2, 13), A(5, 13), A(6, 13)])
SAMPLES = {
    Arc: (A(1, 3), A(1, 2)),
    FullPortrait: (_SET, ConvexSet.of([A(16, 39)])),
}


def _args(record, twin):
    required = [f for f in fields(twin) if f.default is MISSING and f.default_factory is MISSING]
    # distinct values that print with quotes and nest, as fields do
    return SAMPLES.get(record, tuple((i, f"v{i}", Chord(A(1, 7), A(2, 7))) for i in range(len(required))))


@pytest.mark.parametrize("record", list(TWINS), ids=lambda record: record.__name__)
def test_record_matches_its_dataclass_twin(record):
    frozen, spec = TWINS[record]
    twin = make_dataclass(record.__name__, spec, frozen=frozen)
    names = tuple(f.name for f in fields(twin))
    assert record.__match_args__ == names
    args = _args(record, twin)
    r, t = record(*args), twin(*args)
    assert repr(r) == repr(t)
    assert record(**dict(zip(names, args))) == r == record(*args)
    assert not r != record(*args)
    # a twin-shaped record of another class, the twin and the field tuple
    other = _record(*names, frozen=frozen)(type("Other", (), {}))(*(getattr(r, n) for n in names))
    assert r != other and other != r
    assert r != t and t != r
    assert r != tuple(getattr(r, n) for n in names)
    if frozen:
        assert hash(r) == hash(t)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(r, name, None)
            with pytest.raises(AttributeError):
                delattr(r, name)
        assert copy.copy(r) == r == pickle.loads(pickle.dumps(r))
    else:
        with pytest.raises(TypeError):
            hash(r)
        setattr(r, names[0], "changed")
        assert getattr(r, names[0]) == "changed" and r != record(*args)
    # each default container is made afresh for each instance
    fresh = record(*args)
    for f in fields(twin):
        if f.default_factory is not MISSING:
            assert getattr(fresh, f.name) == f.default_factory()
            if f.default_factory is not tuple:
                assert getattr(fresh, f.name) is not getattr(record(*args), f.name)


def test_records_keep_their_post_init_checks():
    with pytest.raises(ValueError, match="degenerate arc"):
        Arc(A(1, 3), "1/3")
    arc = Arc("1/3", "1/2")
    assert arc == Arc(A(1, 3), A(1, 2)) and type(arc.start) is type(arc.end) is A
    with pytest.raises(ValueError, match="equal full-portrait components"):
        FullPortrait(_SET, _SET)
    triangle = ConvexSet.of([A(0), A(1, 3), A(2, 3)])
    assert FullPortrait(triangle, triangle).first == triangle
    for kwargs in ({"size": 0}, {"size": True}, {"geodesic_style": "curved"}, {"highlight": ["1/7 2/7"]}):
        with pytest.raises(ValueError):
            RenderSpec(**kwargs)
    assert RenderSpec(highlight=[(A(2, 7), A(1, 7))]).highlight == (Chord(A(1, 7), A(2, 7)),)
