"""Reusable law suites behind the CLI and the acceptance tests.

``REGISTRY`` names every suite that ``hypertower laws`` runs, in order,
and maps each to the builder that runs it.  The centerpiece is the two-route membership suite for multivalued sums
of classes: the defining enumeration route (a class belongs to a sum
exactly when a quotient against one operand is a 1-unit at the level)
against the implementation's ball-descriptor route.  Both routes are
exact; the suites count mismatches and report zero on a correct build.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .basefields import PadicRationals, QuadraticExtension, make_field, padic_valuation
from .cosets import GammaCoset, _valued_coset, coset_of, hyperadd, hypersum_contains
from .limit import (
    check_singlevalued,
    check_universal_property,
    from_field,
    hensel_finder,
    limit_arith,
    limit_eq,
    rebuild_from_digits,
    sigma_embed,
    to_approximation,
)
from .oag import (
    INF,
    GroupElement,
    group_add,
    group_cmp,
    order_from_hyperadd,
    trop_hyperadd,
    trop_member,
    trop_translate,
)
from .sampling import sample_element, sample_trop_value
from .tower import (
    CosetCarrier,
    LawReport,
    LevelPair,
    TropCarrier,
    check_hom_law,
    check_projection_containment,
    check_slice_triangles,
    cone_over_diagram,
    project,
)

__all__ = [
    "reduced_rationals",
    "definitional_member",
    "lee_suite",
    "tropical_suite",
    "REGISTRY",
]


@lru_cache(maxsize=2)
def reduced_rationals(bound):
    """All reduced fractions with numerator and denominator up to bound.

    The two most recent universes are kept, which holds one ``lee``
    configuration's small and big universes across its levels.
    """
    out = [Fraction(0)]
    for den in range(1, bound + 1):
        for num in range(1, bound + 1):
            if gcd(num, den) == 1:
                out.append(Fraction(num, den))
                out.append(Fraction(-num, den))
    return tuple(out)


@lru_cache(maxsize=2)
def _candidate_table(bound):
    """The exhaustive tier's candidate sums over ``reduced_rationals(bound)``,
    shared by value: the distinct values of x + y*u, and for each ordered
    index pair (i, j), row i*n + j, the indices into them of
    ``small[i] + small[j]*u`` over u in order.

    The sums depend only on the universe, and far fewer are distinct than
    computed (557 of 12,167 for bound 4), so each (p, level) builds one
    class per distinct value.  Each product y*u is formed once, not once
    per x.  An index also keys a candidate's verdict against a sum
    descriptor, which pairs with the same descriptor share.  Built on
    first use, never at import.
    """
    small = reduced_rationals(bound)
    products = [[y * u for u in small] for y in small]
    index = {}
    rows = tuple([
        tuple([index.setdefault(x + yu, len(index)) for yu in row])
        for x in small
        for row in products
    ])
    return tuple(index), rows


def definitional_member(field, zs, x, y, gamma):
    """Membership of each z of ``zs`` in the union of the sum of the
    classes of x and y, straight from the definition: one verdict per z.

    z = x + y*u for a 1-unit u at the level, or symmetrically with the
    roles of x and y swapped; the witness quotient is solved for exactly,
    so no enumeration bound is involved.  With w = z - x - y,
    u - 1 = (z - x) * y^-1 - 1 = w * y^-1, and symmetrically w * x^-1, so
    the test v(u - 1) > gamma reads v(w) - v(b) > gamma for b = y, then x,
    as v is a homomorphism.  Each operand is valued, and x + y formed,
    once for the whole list; each z then costs one difference and its
    valuation.  A zero operand gives no quotient; w = 0 makes z a member
    whatever the operands, since z = x + y*1 (and 0 + 0*u is 0).
    """
    vy, vx = field.valuation(y), field.valuation(x)
    total = field.add(x, y)

    def member(z):
        vw = field.valuation(field.sub(z, total))
        return vw is INF or vy is not INF and vw - vy > gamma or vx is not INF and vw - vx > gamma

    return [member(z) for z in zs]


def _descriptor_checks(field, report, x, y, gamma, vx, vy):
    """Exact facts about one sum descriptor, checked against the module:
    its radius, center and zero flag, with v(0) = INF for a zero operand.

    The center is checked by exact equality of normal forms, not by
    ``sub_valuation``: that kernel is what the descriptor route under test
    runs on.  The operand classes carry vx and vy, so ``hyperadd`` values
    neither again.
    """
    s = hyperadd(_valued_coset(field, x, gamma, vx), _valued_coset(field, y, gamma, vy))
    expected_radius = gamma + min(vx, vy)
    total = field.add(x, y)
    vt = field.valuation(total)
    ok = (
        s.radius == expected_radius
        and s.center.rep == total
        and s.contains_zero == (vt is INF or vt > expected_radius)
    )
    if not ok:
        report.fail(kind="descriptor", x=str(x), y=str(y), gamma=gamma)
    return s


def _spot_units(p, gamma):
    """Multipliers u probing the level boundary, each once: 1, 1 +- p^j for
    the distinct j of (gamma + 1, gamma, gamma - 1, 0), and 1/(1 + p).
    j = 0 gives u = 0, which is not a unit: it probes the operands
    themselves."""
    us = [Fraction(1)]
    for j in dict.fromkeys((gamma + 1, gamma, gamma - 1, 0)):
        us.append(1 + Fraction(p) ** j)
        us.append(1 - Fraction(p) ** j)
    us.append(Fraction(1, 1 + p))
    return us


def _spot_candidates(field, x, y, units):
    """The distinct candidates z = x + y*u and y + x*u for the given
    multipliers u, in first-seen order; u = 1 gives x + y once.  Keys are
    numerator and denominator, which hash cheaper than a Fraction."""
    out = {}
    for u in units:
        for z in (field.add(x, field.mul(y, u)), field.add(field.mul(x, u), y)):
            out.setdefault((z.numerator, z.denominator), z)
    return list(out.values())


def lee_suite(p, gamma, rng, *, exhaustive_bound, sample_bound, sample_pairs):
    """Two-route membership suite for one (p, level) configuration.

    Tier one is exhaustive: each ordered pair (x, y) of the small universe
    checks its candidates x + y*u, u from the same universe, through both
    routes; y + x*u are pair (y, x)'s.  Candidates are shared by value: each
    distinct sum x + y*u gets one class per configuration, whichever pairs
    it serves.  Verdicts are shared per descriptor: pairs whose sums have
    the same descriptor ask the route about each candidate once.  Tier two
    draws pairs from the stated larger universe, checks each pair's sum
    descriptor, which decides its full candidate set, and materializes a
    spot set of distinct candidates.
    """
    field = PadicRationals(p)
    report = LawReport(f"lee-two-route[p={p},gamma={gamma}]")

    small = reduced_rationals(exhaustive_bound)
    n = len(small)
    vals_small = [padic_valuation(q, p) for q in small]
    vu1 = [padic_valuation(u - 1, p) for u in small]
    sums, rows = _candidate_table(exhaustive_bound)
    classes = [coset_of(field, z, gamma) for z in sums]
    # Whether a class belongs to a sum depends on the sum alone, so memo
    # maps each descriptor hyperadd returned (center numerator and
    # denominator, radius, zero flag) to the verdicts decided on it so far,
    # by candidate index; each is asked of the route once.
    memo = {}
    for i, (x, vx) in enumerate(zip(small, vals_small)):
        for j, (y, vy) in enumerate(zip(small, vals_small)):
            if x == 0 and y == 0:
                continue
            report.tick()
            s = _descriptor_checks(field, report, x, y, gamma, vx, vy)
            # Row i*n + j indexes into classes the candidates z = x + y*u,
            # whose v(u - 1) is vu1.  The defining 1-unit test reduces to a
            # threshold on v(u - 1): z - x = y(u-1) and
            # z - y = x(1 + y(u-1)/x) give v(u-1) > gamma + min(0, vx - vy),
            # that is vu + vy > gamma + min(vx, vy).  With v(0) = INF the
            # same inequality covers a zero operand: for y = 0 every z is x
            # and belongs, and for x = 0 the test is vu > gamma.  vu = INF
            # (u = 1) passes every threshold.
            ks = rows[i * n + j]
            t = gamma + min(vx, vy)
            wants = [vu + vy > t for vu in vu1]
            if vy is INF:
                # every candidate x + 0*u is x: one fact, compared once
                ks, wants = ks[:1], wants[:1]
            c = s.center.rep
            facts = memo.setdefault((c.numerator, c.denominator, s.radius, s.contains_zero), {})
            for k, want in zip(ks, wants):
                if k not in facts:
                    facts[k] = hypersum_contains(s, classes[k])
                if facts[k] != want:
                    report.fail(
                        kind="exhaustive-membership",
                        x=str(x),
                        y=str(y),
                        z=str(classes[k].rep),
                        gamma=gamma,
                    )

    big = reduced_rationals(sample_bound)
    units = _spot_units(p, gamma)
    pairs = ((rng.choice(big), rng.choice(big)) for _ in range(sample_pairs))
    for k, (x, y) in enumerate(pairs):
        if x == 0 and y == 0:
            continue
        report.tick()
        # The descriptor check decides the pair's whole candidate set: for
        # nonzero x and y, z = x + y*u (or y + x*u) belongs by definition
        # when v(u - 1) > gamma + min(0, vx - vy) (or vy - vx), and the
        # descriptor induces the same thresholds exactly when its radius is
        # gamma + min(vx, vy).
        s = _descriptor_checks(field, report, x, y, gamma, padic_valuation(x, p), padic_valuation(y, p))
        if k % 8:
            continue
        zs = _spot_candidates(field, x, y, units)
        # the zero class joins the batch, to check the descriptor's zero flag
        wants = definitional_member(field, zs + [field.zero()], x, y, gamma)
        for z, want in zip(zs, wants):
            got = hypersum_contains(s, coset_of(field, z, gamma))
            if want != got:
                report.fail(
                    kind="membership",
                    x=str(x),
                    y=str(y),
                    z=str(z),
                    gamma=gamma,
                    definitional=want,
                    descriptor=got,
                )
        if wants[-1] != s.contains_zero:
            report.fail(kind="zero-flag", x=str(x), y=str(y), gamma=gamma)
    return report


def tropical_suite(rng, samples, arity=1):
    """Order recovery, reversibility and distributivity for extended values."""
    report = LawReport(f"tropical[arity={arity}]")
    for _ in range(samples):
        report.tick()
        a = sample_trop_value(rng, arity)
        b = sample_trop_value(rng, arity)
        e = sample_trop_value(rng, arity, inf_chance=0.02)

        recovered = order_from_hyperadd(a, b)
        direct = group_cmp(a, b) <= 0
        if recovered != direct:
            report.fail(kind="order", a=repr(a), b=repr(b))

        s = trop_hyperadd(a, b)
        for c in _trop_members(s, rng, arity):
            if not trop_member(a, trop_hyperadd(c, b)):
                report.fail(kind="reversibility", a=repr(a), b=repr(b), c=repr(c))

        lhs = trop_translate(e, s)
        rhs = trop_hyperadd(group_add(e, a), group_add(e, b))
        if lhs != rhs:
            report.fail(kind="distributivity", a=repr(a), b=repr(b), e=repr(e))

        if trop_hyperadd(a, b) != trop_hyperadd(b, a):
            report.fail(kind="commutativity", a=repr(a), b=repr(b))
    return report


def _trop_members(s, rng, arity):
    if s.kind == "singleton":
        return [s.value]
    out = [s.value, INF]
    for _ in range(3):
        bump = GroupElement(tuple(rng.randint(0, 5) for _ in range(arity)))
        out.append(group_add(s.value, bump))
    return out


# Builders behind ``hypertower laws``: (rng, *, field, p, samples, height,
# digits) -> [LawReport], where ``field`` is a field kind for make_field.
# They call the suites and checkers by module-global name, so a wrapper put
# on a module attribute sees every call.


# reduced_rationals(height) holds about 1.2 * height^2 fractions whatever
# the sample count, built once for all three levels: 1000 takes 2.5 to 5 s
LEE_MAX_HEIGHT = 1000


def _lee(rng, *, field, p, samples, height, digits):
    if height > LEE_MAX_HEIGHT:
        raise ValueError(f"suite 'lee' needs --height <= {LEE_MAX_HEIGHT}, got {height}")
    return [
        lee_suite(
            p,
            gamma,
            rng,
            exhaustive_bound=min(height, 6),
            sample_bound=height,
            sample_pairs=samples,
        )
        for gamma in (0, 1, 2)
    ]


def _tropical(rng, *, field, p, samples, height, digits):
    return [
        tropical_suite(rng, samples, arity=1),
        tropical_suite(rng, samples, arity=2),
    ]


_PAIRS = [LevelPair(a, b) for a in range(4) for b in range(a, 4)]


def _over_field(suite):
    """Builder for a suite run over the field kind it is given.

    Over Q and Q(r), elements are drawn with numerators and denominators
    up to the height, so the height must be at least 1.  Over F_p(t) the
    draws ignore the height, so any height is taken: numerators and
    denominators have degree 3.
    """
    name = suite.__name__.strip("_").replace("_", "-")

    def build(rng, *, field, p, samples, height, digits):
        field = make_field(field, p)
        if height < 1 and field.kind != "function-field":
            raise ValueError(f"suite {name!r} needs --height >= 1, got {height}")
        return suite(field, rng, p=p, samples=samples, height=height, digits=digits)

    build.takes_field = True
    return build


def _sample_elements(field, rng, samples, height):
    return [sample_element(field, rng, height) for _ in range(max(8, samples // 8))]


@_over_field
def _hom(field, rng, *, p, samples, height, digits):
    elements = _sample_elements(field, rng, samples, height)
    reports = [
        check_slice_triangles(field, _PAIRS, elements),
        check_projection_containment(field, _PAIRS[:6], elements[:12]),
    ]
    count = samples // 4 or 8
    for level in (0, 1, 2):
        reports.append(
            check_hom_law(CosetCarrier(field, level), TropCarrier(), GammaCoset.value, rng, samples=count)
        )
    reports.append(
        check_hom_law(
            CosetCarrier(field, 3), CosetCarrier(field, 1), lambda c: project(c, 1), rng, samples=count
        )
    )
    return reports


@_over_field
def _cone(field, rng, *, p, samples, height, digits):
    elements = _sample_elements(field, rng, samples, height)

    def plain_sides(g):
        return lambda x: coset_of(field, x, g)

    reports = [cone_over_diagram(plain_sides, _PAIRS, elements)]
    if isinstance(field, PadicRationals):
        # vertex of completed digit streams: sides truncate one digit
        # past the level, which pins the class exactly
        def stream_sides(g):
            def side(x):
                appr = field.expand(x, g + 1)
                return coset_of(field, field.from_approximation(appr), g)

            return side

        reports.append(
            cone_over_diagram(stream_sides, _PAIRS, [e for e in elements if not field.is_zero(e)])
        )
    return reports


@_over_field
def _singlevalued(field, rng, *, p, samples, height, digits):
    reports = []
    for _ in range(max(4, samples // 16)):
        a = from_field(field, sample_element(field, rng, height))
        b = from_field(field, sample_element(field, rng, height))
        reports.append(check_singlevalued(a, b, 12, rng))
    return reports


def _universal(rng, *, field, p, samples, height, digits):
    # the cone over the p-adic rationals, whatever the field kind
    if height < 1:
        raise ValueError(f"suite 'universal' needs --height >= 1, got {height}")
    base = PadicRationals(p)
    xs = [base.random_nonzero(rng, height) for _ in range(max(4, samples // 16))]
    reports = [
        check_universal_property(
            base,
            xs,
            lambda x, g: coset_of(base, x, g),
            [("plain", lambda x: from_field(base, x))],
            12,
        )
    ]
    if p % 2 and p != 3:
        ext = QuadraticExtension(p)
        rf = hensel_finder(ext, base)
        ys = [ext.generator(), ext.element([2, 3])]
        reports.append(
            check_universal_property(
                base,
                ys,
                lambda x, g: coset_of(base, rf(x, g), g),
                [("sigma", lambda x: sigma_embed(x, rf))],
                12,
            )
        )
    return reports


@_over_field
def _oracle_roundtrip(field, rng, *, p, samples, height, digits):
    report = LawReport("oracle-roundtrip")
    for _ in range(samples):
        report.tick()
        x = sample_element(field, rng, height)
        y = sample_element(field, rng, height)
        ex, ey = from_field(field, x), from_field(field, y)
        jobs = [("add", field.add(x, y), limit_arith("add", ex, ey)[0]),
                ("mul", field.mul(x, y), limit_arith("mul", ex, ey)[0]),
                ("neg", field.neg(x), limit_arith("neg", ex)[0])]
        if not field.is_zero(x):
            jobs.append(("inv", field.inv(x), limit_arith("inv", ex)[0]))
        for op, exact, lifted in jobs:
            # a nonzero lifted whose deep representative is exact itself
            # expands to field.expand(exact, digits): both sides are equal.
            # A zero lifted is compared, and digits < 1 left to the error
            if digits > 0 and lifted.valuation() is not INF and lifted.at(digits - 1).rep == exact:
                continue
            if to_approximation(lifted, digits) != field.expand(exact, digits):
                report.fail(op=op, x=str(x), y=str(y))
        rebuilt = rebuild_from_digits(field, to_approximation(ex, digits + 1))
        if not limit_eq(ex, rebuilt, digits).equal:
            report.fail(op="rebuild", x=str(x))
    return [report]


REGISTRY = {
    "lee": _lee,
    "tropical": _tropical,
    "hom": _hom,
    "cone": _cone,
    "singlevalued": _singlevalued,
    "universal": _universal,
    "oracle-roundtrip": _oracle_roundtrip,
}
