"""Spans and counts at the layer boundaries of hypertower, from outside.

The tracer wraps public functions and field-class methods of an already
imported hypertower package.  Nothing under ``src/`` changes: a wrapped
function is replaced in every hypertower module namespace that holds it
(``limit.coset_eq`` and ``tower.coset_eq`` are the same object as
``cosets.coset_eq``), in default arguments that captured it (such as
``tower.check_slice_triangles(..., projector=project)``), and on the
classes whose methods are patched.  ``uninstall`` puts every original back.

A span records a name, start, end and parent.  Spans stay in flat arrays
in memory while the traced pass runs; ``summary`` turns them into calls,
total time and self time per name, where self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
import types
from array import array

_MISSING = object()

# (module, attribute) -> span name; several functions may share one name
FUNCTIONS = {
    ("cosets", "coset_eq"): "cosets.coset_eq",
    ("cosets", "hyperadd"): "cosets.hyperadd",
    ("cosets", "hypersum_contains"): "cosets.hypersum_contains",
    ("tower", "project"): "tower.project",
    ("tower", "check_slice_triangles"): "tower.checks",
    ("tower", "check_hom_law"): "tower.checks",
    ("tower", "check_projection_containment"): "tower.checks",
    ("tower", "cone_over_diagram"): "tower.checks",
    ("limit", "limit_eq"): "limit.limit_eq",
    ("limit", "limit_arith"): "limit.limit_arith",
    ("limit", "to_approximation"): "limit.to_approximation",
    ("limit", "check_singlevalued"): "limit.checkers",
    ("limit", "check_universal_property"): "limit.checkers",
    ("suites", "lee_suite"): "suites.lee_suite",
    ("suites", "tropical_suite"): "suites.tropical_suite",
    ("suites", "definitional_member"): "suites.definitional_member",
    ("oag", "trop_hyperadd"): "oag.trop_hyperadd",
    ("cli", "run"): "cli.run",
    ("sampling", "sample_element"): "sampling",
    ("sampling", "sample_nonzero"): "sampling",
    ("sampling", "sample_coset"): "sampling",
    ("sampling", "sample_hypersum"): "sampling",
    ("sampling", "sample_member"): "sampling",
    ("sampling", "sample_nonmember"): "sampling",
    ("sampling", "sample_trop_value"): "sampling",
}

FIELD_CLASSES = (
    ("PadicRationals", "rational"),
    ("RationalFunctions", "function"),
    ("QuadraticExtension", "quadratic"),
)
ARITH_METHODS = ("add", "sub", "neg", "mul", "inv")


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.classes_built = 0
        self.at_hits = 0
        self.eq_levels = 0
        self._undo = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn):
        nid = self._name_id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self):
        """Patch the imported hypertower package; call ``uninstall`` after."""
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "hypertower" or name.startswith("hypertower."))
        }
        if "hypertower" not in mods:
            raise RuntimeError("hypertower is not imported")

        replace = {}
        for (modname, attr), span in FUNCTIONS.items():
            orig = getattr(mods[f"hypertower.{modname}"], attr)
            replace[id(orig)] = (orig, self.wrap(span, orig))
        self._wrap_limit_eq(mods["hypertower.limit"], replace)

        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(mod, attr, hit[1])
                if isinstance(value, types.FunctionType):
                    self._patch_defaults(value, replace)

        basefields = mods["hypertower.basefields"]
        for clsname, label in FIELD_CLASSES:
            cls = getattr(basefields, clsname)
            for meth in ("valuation", "sub_valuation"):
                self._set(cls, meth, self.wrap(f"basefields.{label}.{meth}", getattr(cls, meth)))
            self._set(cls, "expand", self.wrap("basefields.expand", cls.expand))
            for meth in ARITH_METHODS:
                self._set(cls, meth, self.wrap("basefields.arith", getattr(cls, meth)))
        quad = basefields.QuadraticExtension
        self._set(
            quad,
            "representative",
            self.wrap("basefields.quadratic.representative", quad.representative),
        )
        self._wrap_classes(mods["hypertower.cosets"].GammaCoset)
        self._wrap_at(mods["hypertower.limit"].CoherentElement)

    def _patch_defaults(self, fn, replace):
        defaults = getattr(fn, "__defaults__", None)
        if not defaults:
            return
        new = tuple(
            replace[id(d)][1] if id(d) in replace and replace[id(d)][0] is d else d
            for d in defaults
        )
        if new != defaults:
            self._undo.append((fn, "__defaults__", defaults))
            fn.__defaults__ = new

    def _wrap_limit_eq(self, limit, replace):
        orig = limit.limit_eq
        traced = replace[id(orig)][1]
        tracer = self

        def limit_eq(a, b, n):
            res = traced(a, b, n)
            tracer.eq_levels += res.level + 1
            return res

        replace[id(orig)] = (orig, limit_eq)

    def _wrap_classes(self, coset_cls):
        init = coset_cls.__init__
        tracer = self

        def __init__(self, *args, **kwargs):
            tracer.classes_built += 1
            init(self, *args, **kwargs)

        self._set(coset_cls, "__init__", __init__)

    def _wrap_at(self, element_cls):
        traced = self.wrap("limit.at", element_cls.at)
        tracer = self

        def at(self, level):
            # a call that builds no class answered from the memo
            before = tracer.classes_built
            c = traced(self, level)
            if tracer.classes_built == before:
                tracer.at_hits += 1
            return c

        self._set(element_cls, "at", at)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    # -- aggregation -----------------------------------------------------

    def summary(self):
        """Per span name: calls, total milliseconds and self milliseconds."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = {name: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0} for name in self.names}
        names, name_of = self.names, self.name_of
        for i in range(n):
            row = out[names[name_of[i]]]
            dur = end[i] - start[i]
            row["calls"] += 1
            row["total_ms"] += dur * 1e3
            row["self_ms"] += (dur - child[i]) * 1e3
        return out

    @property
    def spans(self):
        return len(self.start)
