"""Ordered abelian value groups with an adjoined top element, and the
min-based multivalued addition on them.

Finite values are integer vectors of a fixed arity compared
lexicographically; arity 1 behaves like plain integers and mixes with
``int`` transparently.  ``INF`` is the absorbing maximum: it wins every
comparison and swallows every sum.  The multivalued sum of two values is
a singleton ``{min}`` when they differ and the closed up-interval
``[v, INF]`` when they coincide; it is never enumerated, only described.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "INF",
    "Infinity",
    "GroupElement",
    "TropSet",
    "group_add",
    "group_cmp",
    "trop_hyperadd",
    "trop_member",
    "trop_translate",
    "order_from_hyperadd",
    "value_to_json",
]


class Infinity:
    """The absorbing maximum adjoined to every value group."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"

    def __eq__(self, other):
        return other is self

    def __ne__(self, other):
        return other is not self

    def __hash__(self):
        return hash("hypertower.INF")

    def __lt__(self, other):
        if isinstance(other, (Infinity, GroupElement, int)):
            return False
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, (Infinity, GroupElement, int)):
            return other is self
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, (Infinity, GroupElement, int)):
            return other is not self
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, (Infinity, GroupElement, int)):
            return True
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, (Infinity, GroupElement, int)):
            return self
        return NotImplemented

    __radd__ = __add__


INF = Infinity()


class GroupElement:
    """A point of Z^k under lexicographic order and coordinatewise addition.

    Arity-1 elements interoperate with plain ``int`` in arithmetic,
    comparisons and equality; mixing an int with a higher-arity element
    raises ``ValueError``, as does combining elements of different arity.
    """

    __slots__ = ("coords",)

    def __init__(self, coords):
        if isinstance(coords, int):
            coords = (coords,)
        coords = tuple(int(c) for c in coords)
        if not coords:
            raise ValueError("a group element needs arity >= 1")
        self.coords = coords

    @property
    def arity(self):
        return len(self.coords)

    def _coerce(self, other):
        if isinstance(other, GroupElement):
            if other.arity != self.arity:
                raise ValueError(
                    f"arity mismatch: {self.arity} vs {other.arity}"
                )
            return other
        if isinstance(other, int):
            if self.arity != 1:
                raise ValueError(
                    f"cannot mix int with an arity-{self.arity} element"
                )
            return GroupElement((other,))
        return None

    def __add__(self, other):
        if other is INF:
            return INF
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GroupElement(tuple(a + b for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        if other is INF:
            raise ValueError("the top element has no additive inverse")
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GroupElement(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __eq__(self, other):
        if other is INF:
            return False
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        # arity-1 elements must hash like the int they equal
        if len(self.coords) == 1:
            return hash(self.coords[0])
        return hash(self.coords)

    def __lt__(self, other):
        if other is INF:
            return True
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coords < other.coords

    def __le__(self, other):
        if other is INF:
            return True
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coords <= other.coords

    def __gt__(self, other):
        if other is INF:
            return False
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coords > other.coords

    def __ge__(self, other):
        if other is INF:
            return False
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coords >= other.coords

    def __repr__(self):
        if len(self.coords) == 1:
            return str(self.coords[0])
        return repr(self.coords)


def _wrap(v):
    if v is INF or isinstance(v, GroupElement):
        return v
    if isinstance(v, int):
        return GroupElement((v,))
    raise TypeError(f"not an extended value: {v!r}")


def group_add(a, b):
    """Sum of two extended values; INF absorbs."""
    a, b = _wrap(a), _wrap(b)
    if a is INF or b is INF:
        return INF
    return a + b


def group_cmp(a, b):
    """Total-order comparison: -1, 0 or 1 as ``a`` is below, equal, above."""
    a, b = _wrap(a), _wrap(b)
    if a is INF:
        return 0 if b is INF else 1
    if b is INF:
        return -1
    rhs = a._coerce(b)
    if a.coords < rhs.coords:
        return -1
    if a.coords > rhs.coords:
        return 1
    return 0


@dataclass(frozen=True)
class TropSet:
    """Finite descriptor of a multivalued sum of extended values.

    ``singleton`` holds exactly ``value``; ``upinterval`` holds every c
    with ``value <= c <= INF`` (or ``value < c <= INF`` when the lower
    bound is marked open).  INF always belongs to an upinterval.
    """

    kind: str
    value: object
    open_lower: bool = False

    def __post_init__(self):
        if self.kind not in ("singleton", "upinterval"):
            raise ValueError(f"bad TropSet kind: {self.kind!r}")
        if self.kind == "upinterval" and self.value is INF:
            raise ValueError("an upinterval needs a finite lower bound")
        if self.kind == "singleton" and self.open_lower:
            raise ValueError("open_lower only applies to upintervals")

    @classmethod
    def singleton(cls, v):
        return cls("singleton", _wrap(v))

    @classmethod
    def up_interval(cls, lower, open_lower=False):
        return cls("upinterval", _wrap(lower), open_lower)

    def to_json(self):
        out = {"kind": self.kind, "value": value_to_json(self.value)}
        if self.kind == "upinterval":
            out["open"] = self.open_lower
        return out


def trop_hyperadd(a, b):
    """Multivalued sum: {min} when the values differ, [v, INF] when equal.

    The top element is neutral: v (+) INF = {v}.
    """
    a, b = _wrap(a), _wrap(b)
    if a is INF and b is INF:
        return TropSet.singleton(INF)
    if a is INF:
        return TropSet.singleton(b)
    if b is INF:
        return TropSet.singleton(a)
    c = group_cmp(a, b)
    if c == 0:
        return TropSet.up_interval(a)
    return TropSet.singleton(a if c < 0 else b)


def trop_member(c, s):
    """Whether extended value ``c`` lies in the set ``s`` denotes."""
    c = _wrap(c)
    if s.kind == "singleton":
        return group_cmp(c, s.value) == 0
    if c is INF:
        return True
    rel = group_cmp(c, s.value)
    return rel > 0 or (rel == 0 and not s.open_lower)


def trop_translate(e, s):
    """Image of the set ``s`` under addition of ``e`` (the action of
    multiplication in the min-based structure)."""
    e = _wrap(e)
    if e is INF:
        return TropSet.singleton(INF)
    if s.kind == "singleton":
        return TropSet.singleton(group_add(e, s.value))
    return TropSet.up_interval(group_add(e, s.value), s.open_lower)


def order_from_hyperadd(a, b):
    """Recover ``a <= b`` from the multivalued sum: b in a (+) a."""
    return trop_member(_wrap(b), trop_hyperadd(a, a))


def value_to_json(v):
    v = _wrap(v)
    if v is INF:
        return "inf"
    return list(v.coords)
