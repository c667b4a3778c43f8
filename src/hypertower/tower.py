"""Projections between coset levels and sampled checkers for their laws.

Lowering the level of a class keeps its representative, commutes with
composition, and never changes the value.  Together with the value maps
into the min-based extended-value algebra this yields a family of
commuting triangles; the checkers here verify those laws on explicit
samples and report counterexamples instead of raising, so that corrupted
maps can be exercised as negative controls.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations_with_replacement

from .oag import INF, group_add, trop_hyperadd, trop_member
from .cosets import (
    _valued_coset,
    check_level,
    coset_eq,
    coset_mul,
    coset_of,
    hyperadd,
    hypersum_contains,
    member_candidates,
)
from .sampling import sample_coset

__all__ = [
    "LevelPair",
    "LawReport",
    "project",
    "check_slice_triangles",
    "check_hom_law",
    "cone_over_diagram",
    "check_projection_containment",
    "CosetCarrier",
    "TropCarrier",
]


@dataclass(frozen=True)
class LevelPair:
    lower: int
    upper: int

    def __post_init__(self):
        if not 0 <= self.lower <= self.upper:
            raise ValueError(f"need 0 <= lower <= upper, got {self}")


@dataclass
class LawReport:
    """Outcome of a sampled law check: counterexamples, not exceptions."""

    law: str
    samples: int = 0
    failures: list = dc_field(default_factory=list)

    @property
    def passed(self):
        # a report that checked nothing proves nothing
        return self.samples > 0 and not self.failures

    def tick(self):
        self.samples += 1

    def fail(self, **ctx):
        self.failures.append(dict(sorted(ctx.items())))

    def to_json(self):
        return {
            "law": self.law,
            "samples": self.samples,
            "failures": sorted(self.failures, key=repr),
            "pass": self.passed,
        }


def project(c, gamma):
    """Lower a class to level gamma, keeping the representative and its
    value, if the class has computed it."""
    gamma = check_level(gamma)
    if gamma > c.level:
        raise ValueError(f"cannot project level {c.level} up to {gamma}")
    return _valued_coset(c.field, c.rep, gamma, c._value)


def _levels(pairs):
    return sorted({p.lower for p in pairs} | {p.upper for p in pairs})


def _level_classes(field, x, levels):
    """The class of x at each level, all carrying x's one valuation."""
    v = field.valuation(x)
    return {g: _valued_coset(field, x, g, v) for g in levels}


def _triangles(report, pairs, samples, commutes, describe):
    """Tick each pair of levels for each sample and record the triangles
    that do not commute.  ``samples`` yields (key, images), the sample's
    images by level; ``commutes(upper, lower, level)`` decides one pair
    from its two images, and ``describe(key)`` names the sample in a
    failure record, built only for a failure."""
    for key, images in samples:
        for pair in pairs:
            report.tick()
            if not commutes(images[pair.upper], images[pair.lower], pair.lower):
                report.fail(**describe(key), upper=pair.upper, lower=pair.lower)


def check_slice_triangles(field, pairs, elements, projector=project):
    """Value preservation and functoriality of level-lowering on samples.

    ``elements`` are raw field elements; each one is valued once, and its
    class is built once per level and pushed down.  A replacement
    ``projector`` can be supplied to exercise corrupted maps.
    """
    report = LawReport("slice-triangles")
    levels = _levels(pairs)
    classes = [(x, _level_classes(field, x, levels)) for x in elements]
    _triangles(report, pairs, classes,
               lambda upper, _, g: projector(upper, g).value() == upper.value(),
               lambda x: {"law_part": "value-preservation", "element": field.to_json(x)})
    for lo, mid, hi in combinations_with_replacement(levels, 3):
        for x, at in classes:
            report.tick()
            top = at[hi]
            direct = projector(top, lo)
            via = projector(projector(top, mid), lo)
            if not coset_eq(direct, via):
                report.fail(
                    law_part="functoriality",
                    element=field.to_json(x),
                    levels=[lo, mid, hi],
                )
    return report


class CosetCarrier:
    """The level-g coset algebra of a field, packaged for the hom checker."""

    def __init__(self, field, level):
        self.field = field
        self.level = level

    def zero(self):
        return coset_of(self.field, self.field.zero(), self.level)

    def eq(self, a, b):
        return coset_eq(a, b)

    def mul(self, a, b):
        return coset_mul(a, b)

    def hyperadd(self, a, b):
        return hyperadd(a, b)

    def contains(self, s, m):
        return hypersum_contains(s, m)

    def members(self, s, rng, count):
        cands = member_candidates(s)
        if len(cands) <= count:
            return cands
        return rng.sample(cands, count)

    def random(self, rng):
        return sample_coset(self.field, rng, self.level)

    def describe(self, x):
        return x.to_json()


class TropCarrier:
    """Extended values under min-based multivalued addition: the value maps' codomain."""

    def zero(self):
        return INF

    def eq(self, a, b):
        return a == b

    def mul(self, a, b):
        return group_add(a, b)

    def hyperadd(self, a, b):
        return trop_hyperadd(a, b)

    def contains(self, s, m):
        return trop_member(m, s)


def check_hom_law(dom, cod, fn, rng, samples=64):
    """Zero preservation, multiplicativity, and sum containment for a map.

    Containment is tested member-wise: the images of up to four sampled
    members of a sum descriptor must belong to the image descriptor.
    """
    report = LawReport("hom-law")
    report.tick()
    if not cod.eq(fn(dom.zero()), cod.zero()):
        report.fail(law_part="zero", detail="f(0) != 0")
    for _ in range(samples):
        report.tick()
        x, y = dom.random(rng), dom.random(rng)
        fx, fy = fn(x), fn(y)
        if not cod.eq(fn(dom.mul(x, y)), cod.mul(fx, fy)):
            report.fail(
                law_part="multiplicative",
                x=dom.describe(x),
                y=dom.describe(y),
            )
            continue
        s = dom.hyperadd(x, y)
        image = cod.hyperadd(fx, fy)
        for m in dom.members(s, rng, 4):
            if not cod.contains(image, fn(m)):
                report.fail(
                    law_part="sum-containment",
                    x=dom.describe(x),
                    y=dom.describe(y),
                    member=dom.describe(m),
                )
    return report


def check_projection_containment(field, pairs, elements):
    """Descriptor-level fast path: lowering maps sum balls into sum balls.

    The lowered center is the center of the lowered sum and the radius
    can only shrink, so ball containment holds without sampling members.
    Each element is valued and its classes built once, each sum once per
    level and read by every pair through it; two zeros, whose sum is {[0]}
    at every level, are not counted.
    """
    report = LawReport("projection-ball-containment")
    levels = _levels(pairs)
    classes = [(x, _level_classes(field, x, levels)) for x in elements]

    def sums():
        for i, (x, cx) in enumerate(classes):
            for y, cy in classes[i:]:
                if not (field.is_zero(x) and field.is_zero(y)):
                    yield (x, y), {g: hyperadd(cx[g], cy[g]) for g in levels}

    def contained(su, sl, g):
        center = project(su.center, g)
        return coset_eq(center, sl.center) and sl.radius <= su.radius and hypersum_contains(sl, center)

    _triangles(report, pairs, sums(), contained,
               lambda xy: {"x": field.to_json(xy[0]), "y": field.to_json(xy[1])})
    return report


def cone_over_diagram(sides, pairs, samples):
    """Compatibility of a family of per-level maps with level-lowering.

    ``sides(level)`` returns the map from vertex elements to classes at
    that level.  Lowering the image at the upper level must reproduce the
    image at the lower level, and the value of the image must not depend
    on the level.  Each leg is built once and applied once per element.
    """
    report = LawReport("cone-compatibility")
    legs = {g: sides(g) for g in _levels(pairs)}

    def images():
        for x in samples:
            at = {g: leg(x) for g, leg in legs.items()}
            if len({c.value() for c in at.values()}) > 1:
                report.fail(law_part="value-constancy", element=repr(x))
            yield x, at

    _triangles(report, pairs, images(),
               lambda upper, lower, g: coset_eq(project(upper, g), lower),
               lambda x: {"law_part": "triangle", "element": repr(x)})
    return report
