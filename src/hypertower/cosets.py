"""Level-indexed multiplicative coset algebra of a valued field.

At level g >= 0 two nonzero elements fall into the same class exactly
when their difference is negligible relative to their size:
v(x - y) > g + v(x).  Multiplication descends to classes and every class
keeps the valuation of its representatives.  Addition of classes is
multivalued; instead of enumerating the infinite answer we carry a finite
descriptor: the class of the plain sum as center, the radius
g + min(vx, vy) with v(0) = INF, and a flag recording whether the zero
class belongs.  Membership and value sets are decided from the
descriptor; so is membership in an iterated sum, which is again one
ball, with a witness chain for every member.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .oag import INF, TropSet

__all__ = [
    "GammaCoset",
    "HyperSum",
    "IteratedResult",
    "check_level",
    "coset_of",
    "coset_eq",
    "coset_mul",
    "hyperadd",
    "hypersum_contains",
    "hypersum_value_set",
    "iterated_contains",
    "member_candidates",
]


def check_level(level):
    """A level as given, if it is a nonnegative int.  A float, bool or
    string is an error rather than truncated, as is a negative level."""
    if type(level) is not int:
        raise ValueError(f"a level must be an integer, got {level!r}")
    if level < 0:
        raise ValueError("levels must be >= 0")
    return level


class GammaCoset:
    """The class of a field element at a given nonnegative level.

    Stored by representative; equality is the relative-error predicate,
    not structural comparison, so instances are unhashable.  A class
    computes its value at most once; ``_valued_coset`` builds a class of a
    representative the field has already valued, with that value.
    """

    __slots__ = ("field", "level", "rep", "_value")

    def __init__(self, field, level, rep):
        self.field = field
        self.level = check_level(level)
        self.rep = field.check(rep)
        self._value = None

    def is_zero(self):
        return self.field.is_zero(self.rep)

    def value(self):
        v = self._value
        if v is None:
            v = self._value = self.field.valuation(self.rep)
        return v

    def __eq__(self, other):
        if not isinstance(other, GammaCoset):
            return NotImplemented
        return coset_eq(self, other)

    __hash__ = None

    def __repr__(self):
        return f"[{self.rep!r}]_{self.level}"

    def to_json(self):
        return {"level": self.level, "rep": self.field.to_json(self.rep)}


def _same_world(a, b):
    if a.field is not b.field and a.field != b.field:
        raise ValueError("cosets from different fields")
    if a.level != b.level:
        raise ValueError(f"level mismatch: {a.level} vs {b.level}")


def coset_of(field, x, gamma):
    """The class of x at level gamma."""
    return GammaCoset(field, gamma, x)


def _valued_coset(field, x, gamma, value):
    """The class of x at level gamma, given ``value``: the field's
    valuation of x, or None where it is not known yet."""
    c = GammaCoset(field, gamma, x)
    c._value = value
    return c


def coset_eq(a, b):
    """Whether two classes at the same level coincide.

    The representatives must agree up to relative error beyond the level:
    v(x - y) > level + v(x).  With v(0) = INF this also decides zero, which
    is its own class: level + INF is INF, which no finite v(x - y) exceeds.
    A shared representative, or a zero difference, settles it without v(x).
    """
    _same_world(a, b)
    if a.rep is b.rep:
        return True
    d = a.field.sub_valuation(a.rep, b.rep)
    return d is INF or d > a.level + a.value()


def coset_mul(a, b):
    _same_world(a, b)
    return GammaCoset(a.field, a.level, a.field.mul(a.rep, b.rep))


@dataclass(frozen=True)
class HyperSum:
    """Descriptor of the multivalued sum of two (or more) classes: the
    open ball of classes around ``center`` of the given radius, with
    ``contains_zero`` recording whether full cancellation is reachable.
    With v(0) = INF, [0] + [y] is the class [y] and [0] + [0] is {[0]}.
    """

    field: object
    level: int
    center: GammaCoset
    radius: object  # int, or INF for the sum of two zero classes
    contains_zero: bool

    def to_json(self):
        return {
            "level": self.level,
            "center": self.center.to_json(),
            "radius": "inf" if self.radius is INF else self.radius,
            "zero": self.contains_zero,
        }


def _ball(field, level, total, least):
    """The sum ball around the class of ``total``, of radius level + least;
    the zero class belongs when the center is zero or lies deeper."""
    center = GammaCoset(field, level, total)
    radius = level + least
    v = center.value()
    return HyperSum(field, level, center, radius, v is INF or v > radius)


def hyperadd(a, b):
    """Descriptor of the multivalued sum of two classes."""
    _same_world(a, b)
    return _ball(a.field, a.level, a.field.add(a.rep, b.rep), min(a.value(), b.value()))


def hypersum_contains(s, c):
    """Whether the class c belongs to the multivalued sum, the open ball.
    With v(0) = INF the zero class needs no case of its own: its distance
    to the center is v(center)."""
    _same_world(s, c)
    d = s.field.sub_valuation(c.rep, s.center.rep)
    return d is INF or d > s.radius


def hypersum_value_set(s):
    """The set of valuations attained across the sum, as a descriptor.

    Away from cancellation, and in {[0]}, every member shares the
    center's value.  Otherwise the zero class belongs, and the attained
    values are exactly the extended values strictly above the radius.
    """
    if not s.contains_zero or s.radius is INF:
        return TropSet.singleton(s.center.value())
    return TropSet.up_interval(s.radius, open_lower=True)


@dataclass(frozen=True)
class IteratedResult:
    """Verdict of ``iterated_contains``; a member carries its witness chain."""

    verdict: str  # "member" | "non_member"
    chain: tuple = None


def member_candidates(s):
    """A finite, deduplicated spread of classes inside a sum descriptor.

    Every candidate is a genuine member (center, zero when admitted, and
    perturbations of the center by u * pi^(r + k) for the unit digits
    u = 1, 2 and k = 1..3, just inside the radius r).  As v(u * pi^(r + k))
    = r + k, those with r + k > g + v(center) fall onto the center: not built,
    nor any when r is INF.
    """
    f, g, center = s.field, s.level, s.center
    out = [center]
    if s.contains_zero and not center.is_zero():
        out.append(GammaCoset(f, g, f.zero()))
    top = 0 if s.radius is INF else 3 if center.is_zero() else min(3, g + center.value() - s.radius)
    for k in range(1, top + 1):
        for i in range(2):
            w = f.mul(f.uniformizer_pow(s.radius + k), f.unit_digit(i))
            cand = GammaCoset(f, g, f.add(center.rep, w))
            if not any(coset_eq(cand, seen) for seen in out):
                out.append(cand)
    return out


def iterated_contains(summands, c):
    """Exact membership of a class in [x_1] + .. + [x_n]: the classes
    meeting S + pi^R * O, S the plain sum and R = g + 1 + min v(x_i) with
    v(0) = INF, the binary descriptor of radius R - 1.  A member's chain
    shifts a least-valued x_i by c - S (in its class, as v(c - S) >= R)
    and lists the partial sums of 2 .. n - 1 summands."""
    summands = list(summands)
    if len(summands) < 2:
        raise ValueError("need at least 2 summands")
    field, level = summands[0].field, summands[0].level
    for s in summands[1:] + [c]:
        _same_world(summands[0], s)
    reps = [s.rep for s in summands]
    total = list(accumulate(reps, field.add))[-1]
    least, low = min((s.value(), i) for i, s in enumerate(summands))
    if not hypersum_contains(_ball(field, level, total, least), c):
        return IteratedResult("non_member")
    reps[low] = field.add(reps[low], field.sub(c.rep, total))
    sums = list(accumulate(reps[:-1], field.add))[1:]
    return IteratedResult("member", tuple(GammaCoset(field, level, x) for x in sums))
