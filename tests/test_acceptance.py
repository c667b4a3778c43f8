"""Acceptance gate: every criterion printed as one pass/fail line.

All checks are exact (zero tolerated mismatches).  The heavy enumeration
suites are bounded so the whole gate stays inside its runtime targets;
bounds are set in one place below and the two-route structure of each
suite is preserved at every size.
"""

import random
from fractions import Fraction

from hypertower.basefields import (
    Approximation,
    PadicRationals,
    QuadraticExtension,
    RationalFunctions,
)
from hypertower.cosets import (
    GammaCoset,
    coset_of,
    hyperadd,
    hypersum_contains,
)
from hypertower.tower import (
    CosetCarrier,
    LevelPair,
    TropCarrier,
    check_hom_law,
    check_projection_containment,
    check_slice_triangles,
    cone_over_diagram,
    project,
)
from hypertower.limit import (
    RepresentativeFinder,
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
from hypertower.sampling import sample_element, sample_member, sample_nonmember
from hypertower.suites import definitional_member, lee_suite, tropical_suite

LEE_SAMPLE_PAIRS = 3000


def criterion(num, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_two_route_membership():
    """Enumerated membership against the ball descriptor, zero mismatches."""
    reports = []
    rng = random.Random(1001)
    for p in (2, 3, 5):
        for gamma in (0, 1, 2):
            reports.append(
                lee_suite(
                    p,
                    gamma,
                    rng,
                    exhaustive_bound=6,
                    sample_bound=50,
                    sample_pairs=LEE_SAMPLE_PAIRS,
                )
            )
    bad = [r for r in reports if not r.passed]
    total = sum(r.samples for r in reports)
    criterion(
        1,
        not bad,
        f"two-route membership, {total} pair checks over p in (2,3,5), "
        f"levels 0..2, zero mismatches"
        + (f"; first failures: {bad[0].failures[:2]}" if bad else ""),
    )


def test_criterion_2_value_constancy_and_balls():
    fields = [
        PadicRationals(2),
        PadicRationals(3),
        PadicRationals(5),
        RationalFunctions(5),
        QuadraticExtension(5),
    ]
    rng = random.Random(1002)
    mismatches = 0
    checked = 0
    for field in fields:
        for _ in range(1000):
            level = rng.randint(0, 4)
            x = sample_element(field, rng, height=25, zero_chance=0.03)
            y = sample_element(field, rng, height=25, zero_chance=0.03)
            if field.is_zero(x) and field.is_zero(y):
                continue
            s = hyperadd(coset_of(field, x, level), coset_of(field, y, level))
            checked += 1
            if not s.contains_zero:
                centre_value = s.center.value()
                for _ in range(3):
                    m = sample_member(s, rng)
                    if m.value() != centre_value:
                        mismatches += 1
            # engineered member/nonmember, plus the definitional route
            if not hypersum_contains(s, sample_member(s, rng)):
                mismatches += 1
            if hypersum_contains(s, sample_nonmember(s, rng)):
                mismatches += 1
            z = sample_element(field, rng, height=25)
            want = definitional_member(field, [z], x, y, level)[0]
            if hypersum_contains(s, coset_of(field, z, level)) != want:
                mismatches += 1
    criterion(
        2,
        mismatches == 0,
        f"value constancy and ball membership on {checked} descriptors "
        f"across 5 field instances, {mismatches} mismatches",
    )


def test_criterion_3_tropical_laws():
    rng = random.Random(1003)
    r1 = tropical_suite(rng, 10_000, arity=1)
    r2 = tropical_suite(rng, 10_000, arity=2)
    ok = r1.passed and r2.passed
    criterion(
        3,
        ok,
        f"order/reversibility/distributivity on {r1.samples + r2.samples} "
        f"sampled pairs in Z and Z^2 lex",
    )


def test_criterion_4_tower_laws_and_controls():
    field = PadicRationals(5)
    rng = random.Random(1004)
    pairs = [LevelPair(a, b) for a in range(7) for b in range(a, 7)]
    elements = [field.zero(), field.one(), field.uniformizer_pow(3)]
    while len(elements) < 36:
        elements.append(sample_element(field, rng, height=60))
    # 28 pairs x 36 elements: > 1000 sampled class projections
    positive = [
        check_slice_triangles(field, pairs, elements),
        check_projection_containment(field, pairs[:10], elements[:14]),
        check_hom_law(CosetCarrier(field, 3), CosetCarrier(field, 1),
                      lambda c: project(c, 1), rng, samples=120),
        check_hom_law(CosetCarrier(field, 2), TropCarrier(), GammaCoset.value,
                      rng, samples=120),
    ]

    def corrupted(c, gamma):
        return coset_of(c.field, c.field.add(c.rep, c.field.uniformizer_pow(gamma)), gamma)

    def square(c):
        return coset_of(c.field, c.field.mul(c.rep, c.rep), c.level)

    def shifted_sides(g):
        if g == 3:
            return lambda x: coset_of(field, field.mul(x, Fraction(5)), g)
        return lambda x: coset_of(field, x, g)

    controls = [
        check_slice_triangles(field, pairs, elements, projector=corrupted),
        check_hom_law(CosetCarrier(field, 1), CosetCarrier(field, 1), square, rng),
        cone_over_diagram(shifted_sides, pairs,
                          [e for e in elements if not field.is_zero(e)]),
    ]
    ok = all(r.passed for r in positive) and all(not r.passed for r in controls)
    criterion(
        4,
        ok,
        f"functoriality/value/containment on {positive[0].samples} samples, "
        f"levels 0..6; negative controls fired: "
        f"{[not r.passed for r in controls]}",
    )


def test_criterion_5_oracle_equivalence():
    rng = random.Random(1005)
    configs = [PadicRationals(2), PadicRationals(3), PadicRationals(5),
               RationalFunctions(5)]
    n = 16
    failures = 0
    checked = 0
    for field in configs:
        for _ in range(500):
            if field.kind == "rational":
                x = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
                y = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
            else:
                x = field.random_element(rng, degree=4)
                y = field.random_element(rng, degree=4)
            ex, ey = from_field(field, x), from_field(field, y)
            jobs = [
                (limit_arith("add", ex, ey)[0], field.add(x, y)),
                (limit_arith("mul", ex, ey)[0], field.mul(x, y)),
                (limit_arith("neg", ex)[0], field.neg(x)),
            ]
            if not field.is_zero(x):
                jobs.append((limit_arith("inv", ex)[0], field.inv(x)))
            for lifted, exact in jobs:
                checked += 1
                if to_approximation(lifted, n) != field.expand(exact, n):
                    failures += 1
    criterion(
        5,
        failures == 0,
        f"tower arithmetic vs digit oracle, {checked} comparisons at "
        f"{n} digits, bit-exact",
    )


def test_criterion_6_embedding():
    rng = random.Random(1006)
    failures = []
    for p in (5, 13):
        base, ext = PadicRationals(p), QuadraticExtension(p)
        rf = hensel_finder(ext, base)
        alpha = ext.generator()
        s = sigma_embed(alpha, rf)
        sq, _ = limit_arith("mul", s, s)
        if not limit_eq(sq, from_field(base, 1 + p), 32).equal:
            failures.append(f"p={p}: square of the embedded root")
        for _ in range(100):
            x = ext.random_nonzero(rng, 20)
            y = ext.random_nonzero(rng, 20)
            add_lhs = sigma_embed(ext.add(x, y), rf)
            add_rhs, _ = limit_arith("add", sigma_embed(x, rf), sigma_embed(y, rf))
            if not limit_eq(add_lhs, add_rhs, 32).equal:
                failures.append(f"p={p}: additivity at {x}, {y}")
            mul_lhs = sigma_embed(ext.mul(x, y), rf)
            mul_rhs, _ = limit_arith("mul", sigma_embed(x, rf), sigma_embed(y, rf))
            if not limit_eq(mul_lhs, mul_rhs, 32).equal:
                failures.append(f"p={p}: multiplicativity at {x}, {y}")
            if sigma_embed(x, rf).valuation() != ext.valuation(x):
                failures.append(f"p={p}: value preservation at {x}")
    s5 = sigma_embed(QuadraticExtension(5).generator(),
                     hensel_finder(QuadraticExtension(5), PadicRationals(5)))
    if to_approximation(s5, 3) != Approximation(0, (1, 3, 0), 5):
        failures.append("p=5 digit prefix")
    criterion(
        6,
        not failures,
        "embedded quadratic extension: square law at level 32, 200 sampled "
        "pairs additive/multiplicative, digit prefix (1,3,0)"
        + (f"; failures: {failures[:2]}" if failures else ""),
    )


def test_criterion_7_completion_structure():
    rng = random.Random(1007)
    base = PadicRationals(5)
    ext = QuadraticExtension(5)
    rf = hensel_finder(ext, base)
    n = 32

    # eight chains each for 1 + 1 and 1 + (-1), in two batches of four
    single = [
        check_singlevalued(from_field(base, 1), from_field(base, other), n, rng)
        for other in (1, 1, -1, -1)
    ]
    single.append(check_singlevalued(sigma_embed(ext.generator(), rf), from_field(base, 2), n, rng))
    for _ in range(8):
        a = from_field(base, sample_element(base, rng, 40))
        b = from_field(base, sample_element(base, rng, 40))
        single.append(check_singlevalued(a, b, n, rng))

    xs = [base.one(), Fraction(7, 3), Fraction(50), Fraction(-2, 25)]
    plain = check_universal_property(
        base, xs,
        lambda x, g: coset_of(base, x, g),
        [("plain", lambda x: from_field(base, x))],
        n,
    )
    ys = [ext.generator(), ext.element({"a": 2, "b": 3}), ext.element(7)]
    hensel_cone = check_universal_property(
        base, ys,
        lambda x, g: coset_of(base, rf(x, g), g),
        [
            ("sigma", lambda x: sigma_embed(x, rf)),
            ("sigma-shifted", lambda x: sigma_embed(
                x,
                RepresentativeFinder(
                    base, ext,
                    lambda y, g: rf(y, g)
                    + (Fraction(5) ** (g + ext.valuation(y) + 1)
                       if not ext.is_zero(y) else Fraction(0)),
                ),
            )),
        ],
        n,
    )
    negated = check_universal_property(
        base, xs,
        lambda x, g: coset_of(base, x, g),
        [("negated", lambda x: from_field(base, base.neg(x)))],
        n,
    )
    ok = (
        all(r.passed for r in single)
        and plain.passed
        and hensel_cone.passed
        and not negated.passed
    )
    criterion(
        7,
        ok,
        f"single-valued collapse ({sum(r.samples for r in single)} chains) "
        f"and universal property for both cones at level {n}; "
        f"uniqueness control fired: {not negated.passed}",
    )


def test_criterion_8_round_trip():
    rng = random.Random(1008)
    base = PadicRationals(5)
    n = 32
    failures = 0
    for _ in range(200):
        x = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
        e = from_field(base, x)
        appr = to_approximation(e, n + 1)
        rebuilt = rebuild_from_digits(base, appr)
        if not limit_eq(e, rebuilt, n).equal:
            failures += 1
    criterion(
        8,
        failures == 0,
        f"element -> digits -> element agrees through level {n} "
        f"for 200 random rationals",
    )
