"""Counters and self-time spans around lamina's public functions.

A :class:`Tracer` is installed only for a traced run.  It replaces each
listed function, under every name that refers to it in every ``lamina``
module (``from .x import f`` binds a separate reference) and in the
benchmark's own modules, with a wrapper, and puts the originals back on
exit.  The untraced run never creates one, so it runs the library as
shipped.

Span wrappers record calls, inclusive time and self time (inclusive time
minus the time covered by nested spans).  Count wrappers only count calls,
because the functions they wrap are called hundreds of thousands of times
per run.  ``Angle`` constructions are counted by wrapping ``Angle.__new__``.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# module -> functions wrapped with spans
SPANS = {
    "chords": ("sibling_collections",),
    "lamination": ("check_unlinked", "pullback_build", "gaps", "check_invariance", "critical_analysis"),
    "quad_minor": ("qml_enumerate", "build_from_minor", "minor_of"),
    "qc_portrait": ("tune_insert",),
    "accordion": ("order_preserving_accordions", "compgap_analyze", "accordion"),
    "cubic_tags": (
        "full_portraits_of",
        "mixed_tag",
        "tags_relation",
        "classify_tag_relation",
        "geometry_checks",
    ),
    "formats": ("lamination_text", "parse_lamination"),
    "render": ("render_svg",),
    "suites": ("heuristically_dendritic",),
}

# module -> functions whose calls are counted without a span
COUNTS = {
    "circle": ("sigma",),
    "chords": ("linked",),
    "lamination": ("orbit_classify",),
    "quad_minor": ("strip_test",),
    "qc_portrait": ("strongly_linked",),
}

# span or count name -> ((counter name, amount taken from the call's result), ...)
RESULT_COUNTERS = {
    "lamination.pullback_build": (("lamination.laminations_built", lambda v: 1), ("lamination.leaves_built", len)),
    "quad_minor.strip_test": (("quad_minor.strip_test.passes", lambda v: int(v.passes)),),
    "accordion.order_preserving_accordions": (("accordion.order_preserving_accordions.true", int),),
    "formats.lamination_text": (("formats.bytes", lambda s: len(s.encode())),),
    "render.render_svg": (("render.svg_bytes", lambda s: len(s.encode())),),
}


class Tracer:
    """Context manager that installs the wrappers and collects the numbers.

    ``calls``, ``total`` and ``self_time`` are keyed by ``module.function``;
    ``counters`` holds the result-derived counts and ``circle.angle_new``.
    ``op_totals`` has one Counter of inclusive seconds per operation, opened
    by :meth:`begin_op`.
    """

    def __init__(self, extra_modules=()):
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counters: Counter = Counter()
        self.op_totals: list[Counter] = []
        self._op = Counter()
        self._stack: list[list[float]] = []
        self._extra = tuple(extra_modules)
        self._undo: list = []

    def begin_op(self):
        self._op = Counter()
        self.op_totals.append(self._op)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        stack, calls, total, self_time = self._stack, self.calls, self.total, self.self_time
        tracer = self
        result_counters = RESULT_COUNTERS.get(name, ())
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                total[name] += elapsed
                self_time[name] += elapsed - child[0]
                tracer._op[name] += elapsed
            for key, amount in result_counters:
                counters[key] += amount(result)
            return result

        return wrapper

    def _count(self, name, fn):
        calls = self.calls
        result_counters = RESULT_COUNTERS.get(name)
        counters = self.counters

        if result_counters is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                result = fn(*args, **kwargs)
                for key, amount in result_counters:
                    counters[key] += amount(result)
                return result

        return wrapper

    # -- installation -----------------------------------------------------

    def __enter__(self):
        import lamina.circle

        modules = [m for n, m in sys.modules.items() if n == "lamina" or n.startswith("lamina.")]
        modules += list(self._extra)
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for module_name, functions in table.items():
                home = sys.modules[f"lamina.{module_name}"]
                for fname in functions:
                    original = getattr(home, fname)
                    wrapper = make(f"{module_name}.{fname}", original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                self._undo.append((module, attr, original))
                                setattr(module, attr, wrapper)

        angle = lamina.circle.Angle
        original_new = angle.__dict__["__new__"]
        construct = original_new.__func__
        counters = self.counters

        def counting_new(cls, *args, **kwargs):
            counters["circle.angle_new"] += 1
            return construct(cls, *args, **kwargs)

        angle.__new__ = staticmethod(counting_new)
        self._undo.append((angle, "__new__", original_new))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False
