"""Elements of the completion as compatible families of level classes.

A coherent element materializes one class per level, lazily and
memoized; a level below its deepest generated class is that class
projected down, every generated class must agree with the deepest one
under level-lowering, and all classes must share one valuation, with
v(0) = INF: the classes of the zero element are zero, and no other
element has a zero class.
Arithmetic works level-wise on representatives.  Multiplication,
negation and inversion lose no precision; addition can cancel only when
the operands' values are equal, and ``ZERO_PROBE`` bounds the search for
that case alone.  A result correct at level g needs the inputs at level
g + (v(sum) - min(v(a), v(b))); a precision ledger records every such
loss.  Equality of coherent elements is only semi-decidable: agreement
up to a level is evidence, a disagreement at some level is a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .oag import INF
from .basefields import Approximation
from .cosets import (
    GammaCoset,
    _valued_coset,
    ball_point,
    check_level,
    coset_eq,
    coset_of,
    hyperadd,
    hypersum_contains,
)
from .tower import LawReport, project

__all__ = [
    "CoherenceError",
    "LossEntry",
    "PrecisionLedger",
    "EqResult",
    "RepresentativeFinder",
    "CoherentElement",
    "from_field",
    "from_cosets",
    "zero_element",
    "limit_arith",
    "limit_eq",
    "to_approximation",
    "rebuild_from_digits",
    "sigma_embed",
    "hensel_finder",
    "check_singlevalued",
    "check_universal_property",
]

# levels add reads, on operands of equal value, before it calls a sum zero
ZERO_PROBE = 64

# member-choices that check_singlevalued samples for one pair of elements
SINGLEVALUED_CHAINS = 4


class CoherenceError(RuntimeError):
    """A materialized class contradicts an adjacent level or the known value."""

    def __init__(self, level, message):
        super().__init__(f"level {level}: {message}")
        self.level = level


@dataclass(frozen=True)
class LossEntry:
    """One cancellation event: how far the sum fell below its inputs."""

    op: str
    min_valuation: int
    result_valuation: int
    discovered_at: int

    @property
    def loss(self):
        return self.result_valuation - self.min_valuation

    def to_json(self):
        return {
            "op": self.op,
            "min_valuation": self.min_valuation,
            "result_valuation": self.result_valuation,
            "loss": self.loss,
            "discovered_at": self.discovered_at,
        }


@dataclass(frozen=True)
class PrecisionLedger:
    """Record of the cancellation losses in an element's history.
    ``total_loss`` sums them along the costliest path only: each operand
    of an operation is queried on its own."""

    entries: tuple = ()
    total_loss: int = 0

    def query_level(self, delivered):
        """Input level needed so the output is exact at ``delivered``."""
        return delivered + self.total_loss

    def merged(self, *others, extra=None):
        # a ledger adding no entry and no larger total is dropped; an entry reached through
        # several operands is one event, listed once; two cancellations with equal fields stay two
        others = [o for o in others if o is not self and (o.entries or o.total_loss > self.total_loss)]
        if not others and extra is None:
            return self
        entries = list({id(e): e for ld in (self, *others) for e in ld.entries}.values())
        total = max([self.total_loss] + [o.total_loss for o in others])
        if extra is not None:
            entries.append(extra)
            total += extra.loss
        return PrecisionLedger(tuple(entries), total)

    def to_json(self, delivered=0):
        return {
            "requested": self.query_level(delivered),
            "delivered": delivered,
            "losses": [e.to_json() for e in self.entries],
        }


class EqResult(NamedTuple):
    """Outcome of comparing two coherent elements level by level: an
    immutable named tuple, equal field by field."""

    equal: bool
    level: int
    witness: tuple = None


# the ledger of an element with no history, shared: a ledger is frozen
_EMPTY_LEDGER = PrecisionLedger()


@dataclass(frozen=True)
class RepresentativeFinder:
    """Per-level source of base-field representatives for foreign elements.

    The callback must return, for (x, level), an element of the base
    field whose level class is the image of x's class; the returned
    classes are checked for value constancy and cross-level agreement as
    they materialize.
    """

    base: object
    foreign: object
    fn: object

    def __call__(self, x, level):
        return self.fn(x, level)


class CoherentElement:
    """A lazily materialized, compatibility-checked family of classes."""

    def __init__(
        self,
        field,
        generator,
        *,
        exact,
        known_valuation=None,
        ledger=None,
        provenance=None,
    ):
        self.field = field
        self._generator = generator
        self.exact = exact
        self._valuation = known_valuation
        self.ledger = ledger or _EMPTY_LEDGER
        self.provenance = provenance or {"kind": "opaque"}
        self._memo = {}
        self._deepest = None

    def at(self, level):
        """The class at a level; materializes once, then is frozen.

        The element keeps its deepest generator-produced class.  A level
        below it is answered by projecting that class down, with no
        generator call.  A level above it asks the generator, and the new
        class is checked for its field and level, against the recorded
        valuation and against the deepest class under ``project``, so a
        misbehaving generator is surfaced with the offending level.
        """
        level = check_level(level)
        got = self._memo.get(level)
        if got is not None:
            return got
        deep = self._deepest
        if deep is not None and level < deep.level:
            c = project(deep, level)
        else:
            c = self._generator(level)
            if not isinstance(c, GammaCoset) or c.field is not self.field and c.field != self.field:
                raise CoherenceError(level, "generator returned a foreign class")
            if c.level != level:
                raise CoherenceError(level, f"generator returned level {c.level}")
            # with v(0) = INF a zero class on a nonzero element, and a nonzero
            # class on a zero one, are value mismatches like any other
            recorded = self._valuation
            if recorded is not None and c.value() != recorded:
                raise CoherenceError(level, f"value {c.value()} contradicts recorded {recorded}")
            if deep is not None and not coset_eq(project(c, deep.level), deep):
                raise CoherenceError(level, f"disagrees with stored level {deep.level}")
            self._deepest = c
        self._memo[level] = c
        return c

    def valuation(self):
        """The shared valuation of the element's classes, read at level 0.

        The zero class holds 0 alone and every deeper class projects onto
        the level-0 one, so a zero level-0 class makes the element zero
        (INF); a deeper nonzero class is then a ``CoherenceError``.
        """
        if self._valuation is None:
            self._valuation = self.at(0).value()
        return self._valuation

    def to_json(self, levels=4):
        # a provenance element is rendered here, not when the element is
        # built: a resummed digit window can hold integers past Python's
        # 4,300-digit limit on int-to-str conversion
        provenance = {k: v() if callable(v) else v for k, v in self.provenance.items()}
        return {
            "provenance": provenance,
            "field": self.field.descriptor(),
            "cosets": [self.at(v).to_json() for v in range(levels)],
        }


def _exact_element(field, x, v, provenance, ledger=None, *, exact=True):
    """The family whose class at every level is that of x, valued v: an
    exact element's representative and value do not depend on the level.
    With ``exact=False`` the same classes claim no exactness: a zero result
    of an inexact operand."""
    return CoherentElement(
        field,
        lambda level: _valued_coset(field, x, level, v),
        exact=exact,
        known_valuation=v,
        ledger=ledger,
        provenance=provenance,
    )


def from_field(field, x):
    """The coherent family of a plain field element (exact at all levels)."""
    x = field.check(x)
    provenance = {"kind": "from_field", "element": lambda: field.to_json(x)}
    return _exact_element(field, x, field.valuation(x), provenance)


def zero_element(field):
    return from_field(field, field.zero())


def from_cosets(field, chain, *, known_valuation=None):
    """Coherent element whose class at each level is ``chain(level)``.

    Coherence is checked lazily at materialization like for any other
    element.
    """
    return CoherentElement(
        field,
        chain,
        exact=False,
        known_valuation=known_valuation,
        provenance={"kind": "chain"},
    )


def _levelwise(op, fn, args, *, shift=0, exact, valuation, ledger):
    """The element whose level-g class is that of fn(reps of args at g + shift).

    The one construction site of derived elements.  Exact operands are their
    own representatives at every level, so fn(values) is formed once for all
    levels.  Otherwise each link of a chain costs two frames when a level
    materializes (``at`` and the generator): generators are written per arity.
    """
    field = args[0].field
    provenance = {"kind": "arith", "op": op}
    if exact:
        value = fn(*[e.at(0).rep for e in args])
        return _exact_element(field, value, valuation, provenance, ledger)
    if len(args) == 1:
        (a,) = args

        def gen(level):
            return coset_of(field, fn(a.at(level + shift).rep), level)

    else:
        a, b = args

        def gen(level):
            q = level + shift
            return coset_of(field, fn(a.at(q).rep, b.at(q).rep), level)

    return CoherentElement(
        field,
        gen,
        exact=exact,
        known_valuation=valuation,
        ledger=ledger,
        provenance=provenance,
    )


def _zero_result(op, field, exact, ledger):
    """A zero result of ``op``, carrying ``ledger``: with the provenance of
    ``zero_element`` when it is exact, else a zero family that claims no
    exactness and keeps its arith provenance."""
    provenance = zero_element(field).provenance if exact else {"kind": "arith", "op": op}
    return _exact_element(field, field.zero(), INF, provenance, ledger, exact=exact)


def _add_elements(a, b):
    field = a.field
    va, vb = a.valuation(), b.valuation()
    ledger = a.ledger.merged(b.ledger)
    exact = a.exact and b.exact
    if va is INF and vb is INF:
        return _zero_result("add", field, exact, ledger)
    if va is INF or vb is INF:
        return _levelwise("add", field.add, (a, b), exact=exact, valuation=min(va, vb), ledger=ledger)
    m = min(va, vb)

    if exact:
        # exact representatives are the elements themselves
        s = field.add(a.at(0).rep, b.at(0).rep)
        vs = field.valuation(s) if va == vb else m
        if vs is INF:
            return _zero_result("add", field, True, ledger)
        discovered = vs - m
    elif va != vb:
        # the dominant term fixes every level class of the sum: no cancellation
        vs, discovered = m, 0
    else:
        # discover the valuation of the sum: a nonzero level sum whose
        # value does not exceed level + m pins it down exactly
        vs = None
        discovered = None
        for level in range(ZERO_PROBE + 1):
            s = field.add(a.at(level).rep, b.at(level).rep)
            if not field.is_zero(s):
                v = field.valuation(s)
                if v <= level + m:
                    vs, discovered = v, level
                    break
        if vs is None:
            # indistinguishable from zero within the probe bound, which
            # does not prove the sum is zero
            out = _zero_result("add", field, False, ledger)
            out.provenance["apparent_zero_at"] = ZERO_PROBE
            return out

    ledger = ledger.merged(extra=LossEntry("add", m, vs, discovered))
    if exact:
        return _exact_element(field, s, vs, {"kind": "arith", "op": "add"}, ledger)
    return _levelwise("add", field.add, (a, b), shift=vs - m, exact=False, valuation=vs, ledger=ledger)


def limit_arith(op, a, b=None):
    """Level-wise arithmetic on coherent elements, with the precision ledger
    the result carries.

    add compensates for cancellation by querying the inputs deeper, so
    the delivered level is always exact; mul/neg/inv are loss-free.
    """
    if op == "add":
        out = _add_elements(a, b)
    elif op == "mul":
        ledger = a.ledger.merged(b.ledger)
        va, vb = a.valuation(), b.valuation()
        if va is INF or vb is INF:
            # exact when a zero operand is exact, whatever the other one is
            exact = (va is INF and a.exact) or (vb is INF and b.exact)
            out = _zero_result("mul", a.field, exact, ledger)
        else:
            exact = a.exact and b.exact
            out = _levelwise("mul", a.field.mul, (a, b), exact=exact, valuation=va + vb, ledger=ledger)
    elif op == "neg":
        out = _levelwise("neg", a.field.neg, (a,), exact=a.exact, valuation=a._valuation, ledger=a.ledger)
    elif op == "inv":
        va = a.valuation()
        if va is INF:
            raise ZeroDivisionError("inverse of the zero element")
        out = _levelwise("inv", a.field.inv, (a,), exact=a.exact, valuation=-va, ledger=a.ledger)
    else:
        raise ValueError(f"unknown operation: {op!r}")
    return out, out.ledger


def limit_eq(a, b, n):
    """Compare two coherent elements through level n.

    A class at level n fixes every class below it, so level n is compared
    once.  On a mismatch the first separating level is read off the two
    level-n representatives ra, rb: 0 when their values differ (with
    v(0) = INF, so also when exactly one is zero), otherwise v(ra - rb) - v,
    which the mismatch puts in 0..n.  The witness is the pair of
    representatives at that level.  Agreement up to n is explicitly not a
    proof of equality, only of indistinguishability at that depth.
    """
    if a.field is not b.field and a.field != b.field:
        raise ValueError("elements of different fields")
    ca, cb = a.at(n), b.at(n)
    if coset_eq(ca, cb):
        return EqResult(True, n)
    v = ca.value()
    level = 0 if cb.value() != v else a.field.sub_valuation(ca.rep, cb.rep) - v
    return EqResult(False, level, (a.at(level).rep, b.at(level).rep))


def to_approximation(e, n):
    """First n digits of a coherent element, straight from a deep class.

    A class at level n-1 pins the element to relative error beyond
    n-1 + v, which covers the whole n-digit window after the valuation.
    """
    if n < 1:
        raise ValueError("precision must be >= 1")
    v = e.valuation()
    if v is INF:
        return Approximation(0, (0,) * n, e.field.p)
    rep = e.at(max(n - 1, 0)).rep
    return e.field.expand(rep, n)


def rebuild_from_digits(field, appr):
    """Coherent element resummed from a digit window (exact from there on)."""
    return from_field(field, field.from_approximation(appr))


def sigma_embed(x, rf):
    """Embed a foreign element through per-level representatives.

    The element's classes are those of rf(x, level) in the base field;
    the foreign valuation is recorded up front, and any representative
    the finder produces that breaks value constancy or agreement with the
    deepest class is surfaced as a ``CoherenceError`` naming the level.
    """
    w = rf.foreign.valuation(x)
    base, fn = rf.base, rf.fn
    return CoherentElement(
        base,
        lambda level: GammaCoset(base, level, fn(x, level)),
        exact=False,
        known_valuation=w,
        provenance={"kind": "sigma", "element": lambda: rf.foreign.to_json(x)},
    )


def hensel_finder(ext, base):
    """Representative finder for the quadratic extension over the rationals.

    Representatives are truncations of the embedded digit expansion, one
    digit past the requested level.
    """
    if ext.p != base.p:
        raise ValueError("extension and base disagree on p")
    return RepresentativeFinder(base, ext, lambda x, level: ext.representative(x, level))


def check_singlevalued(a, b, n, rng):
    """Every coherent member-choice of a level-wise sum collapses to one element.

    For the sum of a and b, alternative per-level members are read off
    each level's sum descriptor: its center moved by unit * pi^(radius +
    off).  A choice that stays coherent (and really is a member at every
    level) must be indistinguishable from the canonical sum through level
    n; a choice that drifts is rejected by the compatibility check.  Both
    outcomes confirm single-valuedness; a coherent full member-choice that
    separates from the sum would be a counterexample.
    """
    report = LawReport("singlevalued-sum")
    field = a.field
    total, _ = limit_arith("add", a, b)
    vs, va, vb = total.valuation(), a.valuation(), b.valuation()
    if va is INF or vb is INF:
        # with a zero operand each level's sum is one class, the other
        # operand's: the canonical choice is the only member, nothing to vary
        report.tick()
        if not limit_eq(total, b if va is INF else a, n).equal:
            report.fail(law_part="degenerate-sum")
        return report
    # the level sums are shared by every chain, each built on first reach
    sums = []

    def separation(unit, off):
        """The level where the chain of (unit, off) separates from the sum,
        or None when it collapses onto it or is no full member-choice."""
        choice = from_cosets(field, lambda g: ball_point(sums[g], sums[g].radius + off, unit))
        for level in range(n + 1):
            if level == len(sums):
                sums.append(hyperadd(a.at(level), b.at(level)))
            try:
                c = choice.at(level)
            except CoherenceError:
                # rejected by the compatibility invariant: consistent collapse
                return None
            if not hypersum_contains(sums[level], c):
                # never a full member-choice; says nothing either way
                return None
        verdict = limit_eq(choice, total, n)
        return None if verdict.equal else verdict.level

    # a chain is fixed by its unit and offset, so a repeated pair reuses the
    # first walk's verdict; ticks, draws and failures stay per chain
    verdicts = {}
    for i in range(SINGLEVALUED_CHAINS):
        report.tick()
        unit = field.unit_digit(rng.randrange(8))
        # at a finite sum value, a move of value g + v(s) + 1 at level g: inside the
        # canonical class, also where the sum cancels in part; past total
        # cancellation, where no coherent choice exists, a drawn depth
        off = 1 + vs - min(va, vb) if vs is not INF else 1 + rng.randrange(3)
        if (unit, off) not in verdicts:
            verdicts[unit, off] = separation(unit, off)
        if verdicts[unit, off] is not None:
            report.fail(chain=i, separates_at=verdicts[unit, off])
    return report


def check_universal_property(field, samples, sides, candidates, n):
    """Factorization of candidate maps through the family of levels.

    ``sides(x, level)`` is the given per-level class of a vertex element.
    The mediating element of a vertex has the sides as its classes: it is
    walked once through level n, so ``sides`` is called once per (element,
    level), and a side that breaks coherence is reported as
    ``cone-coherence`` at the level ``at`` names.  Each candidate map is
    compared level by level against those classes; one that leaves them
    is reported as ``not-a-factorization``, and one that stays is
    indistinguishable from the mediating element through level n.
    """
    report = LawReport("universal-property")

    def first_miss(e, classes):
        # first level where e leaves the classes; a CoherenceError on the
        # way propagates and names its own level
        for level, c in enumerate(classes):
            if not coset_eq(e.at(level), c):
                return level
        return None

    for x in samples:
        report.tick()
        mediating = from_cosets(field, lambda level: sides(x, level))
        try:
            classes = [mediating.at(level) for level in range(n + 1)]
        except CoherenceError as exc:
            report.fail(law_part="cone-coherence", element=repr(x), level=exc.level)
            continue
        for label, make in candidates:
            try:
                miss = first_miss(make(x), classes)
            except CoherenceError as exc:
                miss = exc.level
            if miss is not None:
                report.fail(
                    law_part="not-a-factorization",
                    candidate=label,
                    element=repr(x),
                    level=miss,
                )
    return report
