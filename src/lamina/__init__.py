"""Exact-arithmetic toolkit for invariant laminations of the circle under
angle d-tupling, with quadratic minor enumeration and cubic mixed tags."""

from .circle import Angle, Arc, sigma, preimages, shortest_dist, circular_order
from .chords import Chord, linked, chord_image, is_critical, sibling_collections, validate_collection
from .lamination import (
    FiniteLamination,
    Gap,
    OrbitInfo,
    check_unlinked,
    check_invariance,
    gaps,
    gap_degree,
    orbit_classify,
    pullback_build,
    critical_analysis,
)
from .quad_minor import critical_strip, strip_test, minor_of, qml_enumerate
from .qc_portrait import (
    CriticalQuadrilateral,
    QcPortrait,
    make_quadrilateral,
    strongly_linked,
    validate_qc_portrait,
    qc_portrait_exists,
    tune_insert,
    classify_pair,
)
from .accordion import accordion, order_preserving_accordions, compgap_analyze
from .cubic_tags import ConvexSet, FullPortrait, MixedTag, cocritical_set, mixed_tag, tags_relation

__version__ = "0.1.0"
