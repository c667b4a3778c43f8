import functools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from hypertower import cosets, suites
from hypertower.oag import INF, TropSet
from hypertower.basefields import (
    PadicRationals,
    QuadraticExtension,
    RationalFunctions,
    make_field,
    padic_valuation,
)
from hypertower.cosets import (
    GammaCoset,
    coset_eq,
    coset_mul,
    coset_of,
    HyperSum,
    hyperadd,
    hypersum_contains,
    hypersum_value_set,
    iterated_contains,
    member_candidates,
)
from hypertower.sampling import sample_element, sample_hypersum, sample_member, sample_nonmember
from hypertower.limit import from_field
from hypertower.tower import LawReport, project
from hypertower.suites import definitional_member, lee_suite, reduced_rationals

Q5 = PadicRationals(5)


class _CountingQ5(PadicRationals):
    """Q_5 that counts its valuation calls."""

    def __init__(self):
        super().__init__(5)
        self.valuations = 0

    def valuation(self, x):
        self.valuations += 1
        return super().valuation(x)


class TestValueOnce:
    def test_class_values_once(self):
        f = _CountingQ5()
        c = coset_of(f, Fraction(50, 3), 2)
        assert c.value() == 2 and c.value() == 2
        assert f.valuations == 1

    def test_project_hands_on_a_computed_value(self):
        f = _CountingQ5()
        c = coset_of(f, 75, 4)
        low = project(c, 1)  # c has no value yet, so low computes its own
        assert low.value() == 2 and c.value() == 2
        assert f.valuations == 2
        assert project(c, 0).value() == 2 and project(project(c, 3), 0).value() == 2
        assert f.valuations == 2

    def test_from_field_values_once(self):
        f = _CountingQ5()
        e = from_field(f, Fraction(3, 25))
        assert f.valuations == 1
        assert [e.at(g).value() for g in (5, 2, 7, 0)] == [-2] * 4
        assert f.valuations == 1


def coset_neg(a):
    return GammaCoset(a.field, a.level, a.field.neg(a.rep))


def C(x, g, field=Q5):
    return coset_of(field, field.element(x), g)


def hypersum_same_set(s1, s2):
    """Whether two descriptors denote the same set of classes.

    Open balls coincide exactly when the radii agree and either center
    lies inside the other ball; center classes themselves may differ.  Two
    zero centers agree (d = INF), also at radius INF.
    """
    if s1.field != s2.field or s1.level != s2.level:
        return False
    d = s1.field.sub_valuation(s1.center.rep, s2.center.rep)
    return (
        s1.radius == s2.radius
        and s1.contains_zero == s2.contains_zero
        and (d is INF or d > s1.radius)
    )


class TestCosetBasics:
    def test_constructor(self):
        c = C(2, 1)
        assert c.level == 1 and c.value() == 0

    def test_zero_coset(self):
        c = C(0, 3)
        assert c.is_zero() and c.value() is INF

    def test_value(self):
        assert C(50, 0).value() == 2

    def test_negative_level(self):
        with pytest.raises(ValueError):
            C(1, -1)

    @pytest.mark.parametrize("level", [1.9, 1.0, True, False, "1", -1])
    def test_level_validated_not_truncated(self, level):
        # each entry point that takes a level rejects it rather than
        # reading int(level)
        deep = coset_of(Q5, Fraction(3), 3)
        with pytest.raises(ValueError):
            coset_of(Q5, Fraction(3), level)
        with pytest.raises(ValueError):
            project(deep, level)
        with pytest.raises(ValueError):
            from_field(Q5, 3).at(level)

    def test_eq_examples(self):
        assert coset_eq(C(2, 1), C(27, 1))       # v(-25)=2 > 1
        assert not coset_eq(C(2, 1), C(7, 1))    # v(-5)=1, not > 1
        c = C(Fraction(7, 3), 2)
        assert coset_eq(c, c)

    @pytest.mark.parametrize("kind", ["rational", "function", "quadratic"])
    def test_eq_zero_separation(self, kind):
        # zero is its own class, at every level and in either argument order
        field = make_field(kind, 5)
        zero, five = field.zero(), field.uniformizer_pow(1)
        for g in (0, 4):
            z, c = coset_of(field, zero, g), coset_of(field, five, g)
            assert not coset_eq(z, c) and not coset_eq(c, z)
            assert coset_eq(z, coset_of(field, field.zero(), g))

    def test_eq_level_mismatch(self):
        with pytest.raises(ValueError):
            coset_eq(C(1, 1), C(1, 2))

    def test_eq_field_mismatch(self):
        other = PadicRationals(3)
        with pytest.raises(ValueError):
            coset_eq(C(1, 1), C(1, 1, other))

    def test_same_world_on_the_membership_route(self):
        # an equal field held by another object is the same world; a
        # different prime or level is not
        s = hyperadd(C(1, 1), C(4, 1))
        twin = PadicRationals(5)
        assert twin is not Q5
        assert hypersum_contains(s, C(5, 1, twin))
        assert coset_eq(C(2, 1, twin), C(27, 1))
        with pytest.raises(ValueError, match="different fields"):
            hypersum_contains(s, C(5, 1, PadicRationals(7)))
        with pytest.raises(ValueError, match="level mismatch"):
            hypersum_contains(s, C(5, 2, twin))

    def test_dunder_eq(self):
        assert C(2, 1) == C(27, 1)
        with pytest.raises(TypeError):
            hash(C(2, 1))

    def test_mul_inv_neg(self):
        assert coset_eq(coset_mul(C(2, 1), C(3, 1)), C(6, 1))
        # 1 and -1 separate already at level 0 for p=5: v(2)=0
        assert not coset_eq(coset_neg(C(1, 0)), C(1, 0))

    def test_value_representative_independent(self):
        assert C(27, 1).value() == C(2, 1).value() == 0


def _counting(field_cls):
    """A field whose valuation calls are counted."""

    class Counting(field_cls):
        calls = 0

        def valuation(self, x):
            type(self).calls += 1
            return super().valuation(x)

    return Counting(5)


class TestCosetEqShortCuts:
    """A shared representative and a zero difference decide coset_eq
    without the valuation of the representative."""

    def test_shared_rep_still_checks_level(self):
        x = Fraction(7, 3)
        with pytest.raises(ValueError, match="level mismatch"):
            coset_eq(coset_of(Q5, x, 1), coset_of(Q5, x, 2))

    def test_shared_rep_still_checks_field(self):
        x = Fraction(7, 3)
        with pytest.raises(ValueError, match="different fields"):
            coset_eq(coset_of(Q5, x, 1), coset_of(PadicRationals(7), x, 1))

    @pytest.mark.parametrize("x", [Fraction(7, 3), Fraction(0)])
    def test_shared_rep_is_equal(self, x):
        a, b = coset_of(Q5, x, 3), coset_of(Q5, x, 3)
        assert a.rep is b.rep
        assert coset_eq(a, b) and coset_eq(b, a)

    @pytest.mark.parametrize(
        "field_cls,text",
        [
            (PadicRationals, "7/50"),
            (RationalFunctions, {"num": [0, 2, 1], "den": [0, 0, 3, 1]}),
            (QuadraticExtension, {"a": "2/25", "b": "-3/5"}),
        ],
        ids=["rational", "function", "quadratic"],
    )
    def test_zero_difference_skips_value(self, field_cls, text):
        field = _counting(field_cls)
        a = coset_of(field, field.element(text), 4)
        b = coset_of(field, field.element(text), 4)
        assert a.rep is not b.rep
        before = field.calls
        assert coset_eq(a, b)
        assert field.calls == before
        # the counter does see a nonzero difference read v(x)
        c = coset_of(field, field.add(b.rep, field.uniformizer_pow(9)), 4)
        coset_eq(a, c)
        assert field.calls == before + 1


class TestHyperSum:
    def test_unit_plus_unit(self):
        s = hyperadd(C(1, 1), C(1, 1))
        assert coset_eq(s.center, C(2, 1))
        assert s.radius == 1
        assert not s.contains_zero

    def test_cancellation(self):
        s = hyperadd(C(1, 0), C(-1, 0))
        assert s.center.is_zero()
        assert s.radius == 0
        assert s.contains_zero

    def test_zero_operand(self):
        # the ball of radius g + v(7) around [7] is the class [7]
        s = hyperadd(C(7, 2), C(0, 2))
        assert coset_eq(s.center, C(7, 2))
        assert s.radius == 2 and not s.contains_zero
        assert hypersum_same_set(s, hyperadd(C(0, 2), C(7, 2)))
        both = hyperadd(C(0, 2), C(0, 2))
        assert both.center.is_zero() and both.radius is INF and both.contains_zero
        assert both.to_json()["radius"] == "inf" and "singleton" not in both.to_json()

    def test_contains_examples(self):
        s = hyperadd(C(1, 1), C(1, 1))
        assert hypersum_contains(s, C(27, 1))     # v(25)=2 > 1
        assert not hypersum_contains(s, C(7, 1))  # v(5)=1, not > 1
        sz = hyperadd(C(1, 0), C(-1, 0))
        assert hypersum_contains(sz, C(5, 0))     # v(5)=1 > 0
        assert hypersum_contains(sz, C(0, 0))

    def test_value_set(self):
        assert hypersum_value_set(hyperadd(C(1, 1), C(1, 1))) == TropSet.singleton(0)
        zs = hypersum_value_set(hyperadd(C(1, 0), C(-1, 0)))
        assert zs == TropSet.up_interval(0, open_lower=True)
        assert hypersum_value_set(hyperadd(C(50, 1), C(0, 1))) == TropSet.singleton(2)
        assert hypersum_value_set(hyperadd(C(0, 1), C(0, 1))) == TropSet.singleton(INF)

    def test_level_mismatch(self):
        with pytest.raises(ValueError):
            hyperadd(C(1, 1), C(1, 2))
        s = hyperadd(C(1, 1), C(1, 1))
        with pytest.raises(ValueError):
            hypersum_contains(s, C(1, 2))


class TestWellDefinedness:
    """Operations must not depend on which representative names a class."""

    def variants(self, c, rng):
        # same class, different representative: multiply by a 1-unit
        f = c.field
        if c.is_zero():
            return c
        k = rng.randint(1, 3)
        u = f.add(f.one(), f.mul(f.unit_digit(rng.randrange(3)),
                                 f.uniformizer_pow(c.level + k)))
        return coset_of(f, f.mul(c.rep, u), c.level)

    def test_mul_well_defined(self):
        rng = random.Random(5)
        for _ in range(150):
            g = rng.randint(0, 3)
            a, b = C(rng.randint(1, 400), g), C(rng.randint(1, 400), g)
            a2, b2 = self.variants(a, rng), self.variants(b, rng)
            assert coset_eq(a, a2) and coset_eq(b, b2)
            assert coset_eq(coset_mul(a, b), coset_mul(a2, b2))

    def test_hyperadd_well_defined(self):
        rng = random.Random(6)
        for _ in range(150):
            g = rng.randint(0, 3)
            a = C(Fraction(rng.randint(1, 200), rng.randint(1, 60)), g)
            b = C(Fraction(-rng.randint(1, 200), rng.randint(1, 60)), g)
            a2, b2 = self.variants(a, rng), self.variants(b, rng)
            assert hypersum_same_set(hyperadd(a, b), hyperadd(a2, b2))

    def test_membership_well_defined(self):
        rng = random.Random(7)
        for _ in range(100):
            s = sample_hypersum(Q5, rng)
            m = sample_member(s, rng)
            m2 = self.variants(m, rng)
            assert hypersum_contains(s, m) and hypersum_contains(s, m2)


class TestDescriptorLaws:
    def test_value_constancy_sampled(self):
        rng = random.Random(8)
        fields = [Q5, PadicRationals(2), RationalFunctions(5), QuadraticExtension(5)]
        for field in fields:
            for _ in range(80):
                s = sample_hypersum(field, rng)
                for t in (s, hyperadd(coset_of(field, field.zero(), s.level), s.center)):
                    if t.contains_zero:
                        continue
                    for _ in range(3):
                        m = sample_member(t, rng)
                        assert m.value() == t.center.value()

    def test_membership_boundary(self):
        rng = random.Random(9)
        for field in (Q5, RationalFunctions(5)):
            for _ in range(120):
                s = sample_hypersum(field, rng)
                zero = coset_of(field, field.zero(), s.level)
                for t in (s, hyperadd(s.center, zero), hyperadd(zero, zero)):
                    assert hypersum_contains(t, sample_member(t, rng))
                    assert not hypersum_contains(t, sample_nonmember(t, rng))

    def test_reversibility(self):
        rng = random.Random(10)
        for _ in range(120):
            g = sample_hypersum(Q5, rng).level
            # recover one operand: the sampling helper built center = x+y
            # so instead rebuild a fresh pair explicitly
            x = C(Fraction(rng.randint(1, 99), rng.randint(1, 20)), g)
            y = C(Fraction(rng.randint(1, 99), rng.randint(1, 20)), g)
            sxy = hyperadd(x, y)
            m = sample_member(sxy, rng)
            assert hypersum_contains(hyperadd(m, coset_neg(y)), x)

    def test_same_set_shifted_center(self):
        # equal sets can carry different center representatives
        s1 = hyperadd(C(1, 0), C(-1, 0))
        s2 = hyperadd(C(6, 0), C(-1, 0))  # center [5], same ball
        assert hypersum_same_set(s1, s2)
        assert not hypersum_same_set(s1, hyperadd(C(1, 0), C(1, 0)))


_CANDIDATE_FIELDS = [
    PadicRationals(2), Q5, PadicRationals(7),
    RationalFunctions(2), RationalFunctions(5), RationalFunctions(7),
    QuadraticExtension(5), QuadraticExtension(7),
]


def _random_padic(field, rng, low=-1, high=2):
    """A nonzero element of Q_p with value in [low, high]."""
    p = field.p
    unit = Fraction(rng.randrange(1, 40) * p + rng.randint(1, p - 1), rng.randrange(1, 8) * p + 1)
    return field.mul(unit, field.uniformizer_pow(rng.randint(low, high)))


def _perturbation_hits(xs, c, g, p):
    """Whether some sum of representatives x_i * (1 + p^(g+1) * j_i), each
    j_i < p^3, lies in the class of the nonzero c: a brute-force referee
    for iterated sums over Q_p that builds no ball.  Scaled to integers,
    t lies in the class of c exactly when t = c modulo p^(g + 1 + v(c))."""
    scale = math.lcm(*(x.denominator for x in xs + [c]))
    modulus = p ** (g + 1 + padic_valuation(c * scale, p))
    step = p ** (g + 1)
    sums = {0}
    for x in xs:
        x = int(x * scale)
        sums = {(t + x * (1 + step * j)) % modulus for t in sums for j in range(p ** 3)}
    return int(c * scale) % modulus in sums


class TestIterated:
    def test_member_direct_sum(self):
        res = iterated_contains([C(1, 1), C(1, 1), C(3, 1)], C(5, 1))
        assert res.verdict == "member"

    def test_non_member_ring_bound(self):
        res = iterated_contains([C(1, 1), C(1, 1), C(1, 1)], C(13, 1))
        assert res.verdict == "non_member"

    def test_member_nearby(self):
        res = iterated_contains([C(1, 1), C(1, 1), C(1, 1)], C(28, 1))
        assert res.verdict == "member"

    def test_member_with_cancellation_witness(self):
        # 1 + (-1) can land on [25], then [25]+[5] reaches [30]
        res = iterated_contains([C(1, 1), C(-1, 1), C(5, 1)], C(30, 1))
        assert res.verdict == "member"
        assert res.chain  # nontrivial witness

    def test_chain_is_verifiable(self):
        summands = [C(1, 1), C(-1, 1), C(5, 1)]
        res = iterated_contains(summands, C(30, 1))
        links = list(res.chain) + [C(30, 1)]
        acc = summands[0]
        for link, nxt in zip(links, summands[1:]):
            assert hypersum_contains(hyperadd(acc, nxt), link)
            acc = link

    def test_two_summands_exact(self):
        assert iterated_contains([C(1, 1), C(1, 1)], C(27, 1)).verdict == "member"
        assert iterated_contains([C(1, 1), C(1, 1)], C(7, 1)).verdict == "non_member"

    def test_all_zero(self):
        assert iterated_contains([C(0, 1), C(0, 1)], C(0, 1)).verdict == "member"
        assert iterated_contains([C(0, 1), C(0, 1)], C(3, 1)).verdict == "non_member"

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_all_zero_chain_rechecks(self, n):
        summands = [C(0, 1)] * n
        res = iterated_contains(summands, C(0, 1))
        assert res.verdict == "member"
        assert len(res.chain) == n - 2
        acc = summands[0]
        for link, nxt in zip(list(res.chain) + [C(0, 1)], summands[1:]):
            assert hypersum_contains(hyperadd(acc, nxt), link)
            acc = link

    def test_too_few(self):
        with pytest.raises(ValueError):
            iterated_contains([C(1, 1)], C(1, 1))

    def test_non_member_outside_ring(self):
        # S = 11/5 and R = 1: the ball holds only classes of value -1,
        # and the target is a unit
        res = iterated_contains(
            [C(Fraction(1, 5), 1), C(1, 1), C(1, 1)], C(Fraction(9999, 7), 1)
        )
        assert res.verdict == "non_member"
        assert res.chain is None

    def test_associativity_via_membership(self):
        rng = random.Random(13)
        for _ in range(60):
            g = rng.randint(0, 2)
            xs = [C(rng.randint(-40, 40), g) for _ in range(3)]
            if all(x.is_zero() for x in xs):
                continue
            c = C(rng.randint(-40, 40), g)
            left = iterated_contains(xs, c)
            right = iterated_contains([xs[0]] + xs[1:][::-1], c)
            # commutativity/associativity of the iterated sum: the
            # verdict does not depend on the grouping order
            assert left.verdict == right.verdict

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_verdicts_match_perturbation_referee(self, p):
        field = PadicRationals(p)
        rng = random.Random(40 + p)
        seen = Counter()
        for _ in range(40):
            g = rng.randint(0, 3)
            n = rng.randint(2, 4)
            xs = [_random_padic(field, rng) for _ in range(n)]
            if rng.random() < 0.3:
                # cancel the plain sum down to a deep remainder
                xs[-1] = field.add(field.neg(sum(xs[:-1])), _random_padic(field, rng, 2, 4))
            total, least = sum(xs), min(padic_valuation(x, p) for x in xs)
            depth = least + g + rng.randint(-1, 3)
            c = field.add(total, field.mul(field.uniformizer_pow(depth), rng.randint(1, p - 1)))
            if field.is_zero(c):
                continue
            summands = [coset_of(field, x, g) for x in xs]
            target = coset_of(field, c, g)
            verdict = iterated_contains(summands, target).verdict
            hit = _perturbation_hits(xs, c, g, p)
            if hit:
                assert verdict == "member", (xs, c, g)
            elif padic_valuation(c, p) - least <= 3:
                # three digits of perturbation reach every member this close
                assert verdict == "non_member", (xs, c, g)
            seen[verdict] += 1
        assert seen["member"] > 5 and seen["non_member"] > 5

    @pytest.mark.parametrize("field", _CANDIDATE_FIELDS, ids=lambda f: f"{f.kind}-{f.p}")
    def test_member_chains_recheck_binary(self, field):
        rng = random.Random(90 + field.p)
        seen = Counter()
        for _ in range(40):
            g = rng.randint(0, 3)
            xs = [field.random_nonzero(rng, 30) for _ in range(rng.randint(2, 5))]
            if rng.random() < 0.3:
                xs[rng.randrange(len(xs))] = field.zero()
            if rng.random() < 0.3:
                xs[-1] = field.neg(functools.reduce(field.add, xs[:-1]))
            total = functools.reduce(field.add, xs)
            vals = [field.valuation(x) for x in xs if not field.is_zero(x)]
            depth = g + min(vals) + rng.randint(0, 3) if vals else 0
            c = rng.choice([
                total,
                field.add(total, field.mul(field.uniformizer_pow(depth), field.unit_digit(rng.randrange(4)))),
                field.zero(),
            ])
            summands = [coset_of(field, x, g) for x in xs]
            target = coset_of(field, c, g)
            res = iterated_contains(summands, target)
            seen[res.verdict] += 1
            if res.verdict != "member":
                assert res.chain is None
                continue
            assert len(res.chain) == len(xs) - 2
            acc = summands[0]
            for link, nxt in zip(list(res.chain) + [target], summands[1:]):
                assert hypersum_contains(hyperadd(acc, nxt), link), (xs, c, g)
                acc = link
        assert seen["member"] > 15 and seen["non_member"] > 2


def _six_then_dedup(s):
    """The spread built in full, all six perturbations included, then
    deduplicated by coset_eq: the referee for member_candidates.  A ball
    of radius INF is its center alone, so it gets no perturbations."""
    f, g = s.field, s.level
    built = [s.center] + ([coset_of(f, f.zero(), g)] if s.contains_zero else [])
    for k in () if s.radius is INF else range(1, 4):
        for i in range(2):
            w = f.mul(f.uniformizer_pow(s.radius + k), f.unit_digit(i))
            built.append(coset_of(f, f.add(s.center.rep, w), g))
    out = []
    for c in built:
        if not any(coset_eq(c, seen) for seen in out):
            out.append(c)
    return out


class TestMemberCandidates:
    def test_all_candidates_are_members(self):
        rng = random.Random(14)
        for _ in range(60):
            s = sample_hypersum(Q5, rng)
            for cand in member_candidates(s):
                assert hypersum_contains(s, cand)

    @pytest.mark.parametrize("field", _CANDIDATE_FIELDS, ids=lambda f: f"{f.kind}-{f.p}")
    def test_matches_full_spread(self, field):
        rng = random.Random(71 + field.p)
        seen = Counter()
        for _ in range(80):
            g = rng.randint(0, 3)
            x = field.random_nonzero(rng, 30)
            kind = rng.choice(["free", "cancel", "zero"])
            if kind == "free":
                y = field.random_element(rng, 30)
            elif kind == "cancel":
                # -x plus a term j digits deeper: the sum cancels
                j = rng.randint(0, g + 2)
                bump = field.mul(field.unit_digit(rng.randrange(4)), field.uniformizer_pow(field.valuation(x) + j))
                y = field.add(field.neg(x), bump)
            else:
                y = field.neg(x)
            s = hyperadd(coset_of(field, x, g), coset_of(field, y, g))
            got, want = member_candidates(s), _six_then_dedup(s)
            assert [c.rep for c in got] == [c.rep for c in want], (x, y, g)
            seen[len(got) > 1] += 1
            seen["zero"] += s.center.is_zero()
        assert seen[True] > 10 and seen[False] > 10 and seen["zero"] > 10

    def test_zero_center_listed_once(self):
        s = hyperadd(C(1, 1), C(-1, 1))
        assert s.center.is_zero() and s.contains_zero
        cands = member_candidates(s)
        assert len(cands) == 7  # the zero class and six perturbations
        for i, a in enumerate(cands):
            assert not any(coset_eq(a, b) for b in cands[i + 1:])

    @pytest.mark.parametrize("field", _CANDIDATE_FIELDS[1::3], ids=lambda f: f.kind)
    def test_no_cancellation_builds_only_the_center(self, monkeypatch, field):
        built = []
        real = GammaCoset.__init__

        def counting(self, *args):
            built.append(args)
            real(self, *args)

        x, y = field.one(), field.add(field.one(), field.one())
        s = hyperadd(coset_of(field, x, 2), coset_of(field, y, 2))
        assert not s.contains_zero
        monkeypatch.setattr(GammaCoset, "__init__", counting)
        cands = member_candidates(s)
        assert built == []
        assert cands == [s.center]


class TestZeroOperand:
    @pytest.mark.parametrize("field", _CANDIDATE_FIELDS, ids=lambda f: f"{f.kind}-{f.p}")
    def test_three_routes_agree(self, field):
        # [0] + [y], either way round, is the class [y]: the ball, the
        # definition and class equality with [y] give one verdict
        rng = random.Random(30 + field.p)
        zero = field.zero()
        for g in range(4):
            z0 = coset_of(field, zero, g)
            for _ in range(5):
                y = field.random_nonzero(rng, 30)
                cy = coset_of(field, y, g)
                edge = g + field.valuation(y)
                u = field.unit_digit(rng.randrange(4))
                cands = [
                    y,
                    field.add(y, field.mul(field.uniformizer_pow(edge + 1), u)),
                    field.add(y, field.mul(field.uniformizer_pow(edge), u)),
                    zero,
                ]
                for s, (a, b) in ((hyperadd(z0, cy), (zero, y)), (hyperadd(cy, z0), (y, zero))):
                    wants = definitional_member(field, cands, a, b, g)
                    for z, want, known in zip(cands, wants, (True, True, False, False)):
                        c = coset_of(field, z, g)
                        assert hypersum_contains(s, c) == want == coset_eq(c, cy) == known, (y, z, g)
            # [0] + [0] is {[0]}: 0 belongs and no nonzero element does
            both = hyperadd(z0, z0)
            zs = [zero] + cands[:3]
            wants = definitional_member(field, zs, zero, zero, g)
            assert wants == [True, False, False, False]
            assert wants == [hypersum_contains(both, coset_of(field, z, g)) for z in zs]
            assert wants == [_add_neg_member(field, z, zero, zero, g) for z in zs]


class TestTwoRouteSuite:
    def test_definitional_matches_descriptor_small(self):
        field = Q5
        universe = reduced_rationals(3)
        for gamma in (0, 1):
            for x in universe:
                for y in universe:
                    if x == 0 and y == 0:
                        continue
                    s = hyperadd(C(x, gamma), C(y, gamma))
                    zs = [z for u in universe for z in (x + y * u, x * u + y)]
                    wants = definitional_member(field, zs, x, y, gamma)
                    assert len(wants) == len(zs)
                    for z, want in zip(zs, wants):
                        assert want == hypersum_contains(s, C(z, gamma))

    def test_lee_suite_clean(self):
        rng = random.Random(0)
        rep = lee_suite(5, 1, rng, exhaustive_bound=4, sample_bound=12, sample_pairs=300)
        assert rep.passed, rep.failures[:3]


class TestEachCheckPaidOnce:
    def test_referee_values_each_operand_once_per_spot_pair(self, monkeypatch):
        # on each spot pair the referee values y, then x, once, then each
        # candidate's difference from x + y, and inverts and multiplies
        # nothing
        ops = []
        for name in ("valuation", "inv", "mul"):
            def counted(self, *args, _name=name, _real=getattr(PadicRationals, name)):
                ops.append((_name, *args))
                return _real(self, *args)

            monkeypatch.setattr(PadicRationals, name, counted)

        calls = []
        real_member = suites.definitional_member

        def member(field, zs, x, y, gamma):
            ops.clear()
            out = real_member(field, zs, x, y, gamma)
            calls.append((zs, x, y, list(ops)))
            return out

        monkeypatch.setattr(suites, "definitional_member", member)
        rep = lee_suite(5, 1, random.Random(3), exhaustive_bound=2, sample_bound=12, sample_pairs=400)
        assert rep.passed
        assert len(calls) > 40
        for zs, x, y, made in calls:
            assert made == [("valuation", y), ("valuation", x)] + [("valuation", z - x - y) for z in zs]

    def test_referee_work_per_call_and_candidate(self):
        # per call: one valuation per operand and x + y; per candidate: one
        # difference and its valuation, whichever branch decides
        calls = Counter()

        class CountingQ5(PadicRationals):
            pass

        for name in ("add", "sub", "neg", "mul", "inv", "valuation"):
            def counted(self, *args, _name=name, _real=getattr(PadicRationals, name)):
                calls[_name] += 1
                return _real(self, *args)

            setattr(CountingQ5, name, counted)

        field = CountingQ5(5)
        for zs, x, y, gamma in _spot_batch(12):
            calls.clear()
            definitional_member(field, zs, x, y, gamma)
            assert calls == Counter(add=1, sub=len(zs), valuation=2 + len(zs)), (x, y, gamma)

    @pytest.mark.parametrize("p", [2, 5])
    def test_each_distinct_candidate_class_built_once(self, monkeypatch, p):
        built = []
        real_of, real_valued = suites.coset_of, suites._valued_coset

        def counting(field, x, gamma):
            built.append(x)
            return real_of(field, x, gamma)

        def counting_valued(field, x, gamma, value):
            built.append(x)
            return real_valued(field, x, gamma, value)

        monkeypatch.setattr(suites, "coset_of", counting)
        monkeypatch.setattr(suites, "_valued_coset", counting_valued)
        rep = _exhaustive_only(p, 1, 4)
        assert rep.passed
        # two operand classes per ordered pair, of which there are n*n - 1,
        # and one candidate class per distinct value of x + y*u
        small = reduced_rationals(4)
        n = len(small)
        distinct = {x + y * u for x in small for y in small for u in small}
        assert len(built) == 2 * (n * n - 1) + len(distinct) == 1613

    @pytest.mark.parametrize("p", [2, 5])
    def test_operand_classes_arrive_valued(self, monkeypatch, p):
        # both tiers know vx and vy, so hyperadd values no operand again
        arrived = []
        real = suites.hyperadd

        def hyperadd(a, b):
            arrived.extend([(a.rep, a._value), (b.rep, b._value)])
            return real(a, b)

        monkeypatch.setattr(suites, "hyperadd", hyperadd)
        rep = lee_suite(p, 1, random.Random(2), exhaustive_bound=3, sample_bound=20, sample_pairs=100)
        assert rep.passed and len(arrived) == 2 * rep.samples
        assert all(v == padic_valuation(x, p) for x, v in arrived)


# -- the lee suite's exhaustive tier against its row-major form -------------


def _row_major_exhaustive(p, gamma, bound):
    """The exhaustive tier as one row-major loop over ordered pairs: each
    pair's candidates x + y*u built per pair, and zero-operand wants taken
    from ``definitional_member``.  The reference for the shared-sum tier."""
    field = PadicRationals(p)
    report = LawReport(f"lee-two-route[p={p},gamma={gamma}]")
    small = reduced_rationals(bound)
    vals = {q: padic_valuation(q, p) for q in small}
    vu1 = [padic_valuation(u - 1, p) if u != 1 else INF for u in small]
    times = {a: [a * u for u in small] for a in small}
    for x in small:
        vx = vals[x]
        for y in small:
            if x == 0 and y == 0:
                continue
            vy = vals[y]
            s = suites._descriptor_checks(field, report, x, y, gamma, vx, vy)
            report.tick()
            for yu, vu in zip(times[y], vu1):
                z = x + yu
                if x != 0 and y != 0:
                    want = vu > gamma or vy + vu - vx > gamma
                else:
                    (want,) = suites.definitional_member(field, [z], x, y, gamma)
                got = suites.hypersum_contains(s, coset_of(field, z, gamma))
                if want != got:
                    report.fail(
                        kind="exhaustive-membership",
                        x=str(x),
                        y=str(y),
                        z=str(z),
                        gamma=gamma,
                    )
    return report


def _exhaustive_only(p, gamma, bound):
    # no sampled pairs: the report is the exhaustive tier's alone
    return lee_suite(p, gamma, random.Random(0), exhaustive_bound=bound, sample_bound=4, sample_pairs=0)


class TestCandidateTable:
    @pytest.mark.parametrize("bound", range(6))
    def test_rows_resolve_to_the_sums(self, bound):
        small = reduced_rationals(bound)
        n = len(small)
        sums, rows = suites._candidate_table(bound)
        assert len(set(sums)) == len(sums)
        assert len(rows) == n * n
        for i, x in enumerate(small):
            for j, y in enumerate(small):
                assert [sums[k] for k in rows[i * n + j]] == [x + y * u for u in small]

    def test_built_once_for_every_config_of_a_bound(self, monkeypatch):
        # the lee-membership configs: every class reaching the route under
        # test carries its own config's field and level
        seen = []
        real = suites.hypersum_contains

        def recording(s, c):
            seen.append((c.field.p, c.level, c.field is s.field))
            return real(s, c)

        monkeypatch.setattr(suites, "hypersum_contains", recording)
        suites._candidate_table.cache_clear()
        for p in (2, 3, 5):
            for gamma in (0, 1, 2):
                seen.clear()
                rep = _exhaustive_only(p, gamma, 3)
                assert rep.passed
                assert seen and set(seen) == {(p, gamma, True)}
        info = suites._candidate_table.cache_info()
        assert (info.misses, info.hits) == (1, 8)


def _descriptor_key(s):
    # the memo key of the exhaustive tier, with the rational center as an
    # integer pair: a Fraction rehashes on every dict lookup
    return s.center.rep.as_integer_ratio(), s.radius, s.contains_zero


def _track_facts(monkeypatch):
    """Count the (descriptor, class) facts asked of the descriptor route."""
    asked = Counter()
    real = suites.hypersum_contains

    def recording(s, c):
        asked[_descriptor_key(s), c.rep.as_integer_ratio(), c.level] += 1
        return real(s, c)

    monkeypatch.setattr(suites, "hypersum_contains", recording)
    return asked


# hypersum_contains calls of _exhaustive_only(p, gamma, 4), one per distinct
# (descriptor, class) fact, the same for every gamma; the ordered pairs ask
# about their n(n^2 - 1) = 12,144 candidates x + y*u
EXHAUSTIVE_FACTS = {2: 7209, 3: 6783, 5: 6323}


class TestExhaustiveTier:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("gamma", [0, 1, 2])
    def test_closed_form_wants_match_definition(self, monkeypatch, p, gamma):
        # the descriptor route is replaced by the definition itself, so any
        # closed-form want that disagrees with its verdict is reported as a
        # failure; a verdict is asked once per descriptor, on the first
        # pair that has it, so every ordered pair's candidates are then
        # put to the definition on that pair's own operands
        descriptors = []
        real_checks = suites._descriptor_checks

        def checks(field, report, x, y, gamma, vx, vy):
            s = real_checks(field, report, x, y, gamma, vx, vy)
            descriptors.append((x, y, s))
            return s

        verdicts = {}

        def by_definition(s, c):
            x, y, _ = descriptors[-1]
            want = definitional_member(s.field, [c.rep], x, y, c.level)[0]
            verdicts[_descriptor_key(s), c.rep] = want
            return want

        monkeypatch.setattr(suites, "_descriptor_checks", checks)
        monkeypatch.setattr(suites, "hypersum_contains", by_definition)
        rep = _exhaustive_only(p, gamma, 4)
        assert rep.failures == []
        small = reduced_rationals(4)
        n = len(small)
        assert rep.samples == len(descriptors) == n * n - 1
        assert len(verdicts) == EXHAUSTIVE_FACTS[p]
        field = PadicRationals(p)
        compared = 0
        for x, y, s in descriptors:
            zs = [x + y * u for u in small] + [y + x * u for u in small]
            key = _descriptor_key(s)
            got = [verdicts[key, z] for z in zs]
            assert definitional_member(field, zs, x, y, gamma) == got, (x, y)
            compared += len(zs)
        assert compared == 2 * n * (n * n - 1)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("gamma", [0, 1, 2])
    def test_each_fact_asked_once(self, monkeypatch, p, gamma):
        asked = _track_facts(monkeypatch)
        rep = _exhaustive_only(p, gamma, 4)
        assert rep.passed
        assert sum(asked.values()) == len(asked) == EXHAUSTIVE_FACTS[p]

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_same_facts_as_row_major(self, monkeypatch, p):
        asked = _track_facts(monkeypatch)
        for gamma in (0, 2):
            reference = _row_major_exhaustive(p, gamma, 4)
            old = set(asked)
            assert sum(asked.values()) == len(reduced_rationals(4)) * 528
            asked.clear()
            rep = _exhaustive_only(p, gamma, 4)
            assert set(asked) == old
            asked.clear()
            assert rep.to_json() == reference.to_json()
            assert rep.passed

    def test_zero_operand_row_compared_once(self, monkeypatch):
        # every candidate x + 0*u of a pair (x, 0) is x: one fact, compared
        # once, so a route wrong on every fact fails each (x, 0) pair once
        real = suites.hypersum_contains
        monkeypatch.setattr(suites, "hypersum_contains", lambda s, c: not real(s, c))
        rep = _exhaustive_only(5, 1, 4)
        n = len(reduced_rationals(4))
        zero_rows = [f for f in rep.failures if f["y"] == "0"]
        assert len(zero_rows) == len({f["x"] for f in zero_rows}) == n - 1
        assert len(rep.failures) == (n * n - n) * n + n - 1

    def test_same_report_under_a_mutant(self, monkeypatch):
        # the failures may come out in another order; the report sorts them
        monkeypatch.setattr(suites, "hypersum_contains", _ball_closed)
        for gamma in (0, 1):
            reference = _row_major_exhaustive(5, gamma, 4)
            rep = _exhaustive_only(5, gamma, 4)
            assert not reference.passed
            assert rep.to_json() == reference.to_json()


# -- negative controls: a broken descriptor route must fail the lee suite ---


def _ball_closed(s, c):
    """hypersum_contains with the open ball closed: v(z - center) >= radius."""
    if not c.is_zero():
        return s.field.sub_valuation(c.rep, s.center.rep) >= s.radius
    return hypersum_contains(s, c)


# failure counts by kind, recorded on the row-major exhaustive tier and
# unchanged by the shared-sum one; a sum with a zero operand is a ball
# too, so closing the ball also closes [0] + [y] around [y].  Each fact
# fails once: a pair reports only its x + y*u candidates, and the spot
# set repeats no candidate
MUTANT_FAILURES = {
    ("ball-closed", 0): {"exhaustive-membership": 8860, "membership": 92},
    ("ball-closed", 1): {"exhaustive-membership": 1980, "membership": 127},
}
MUTANTS = {"ball-closed": _ball_closed}


class TestLeeNegativeControls:
    @pytest.mark.parametrize("mutant,gamma", list(MUTANT_FAILURES))
    def test_mutant_fails_suite(self, monkeypatch, mutant, gamma):
        monkeypatch.setattr(suites, "hypersum_contains", MUTANTS[mutant])
        rep = lee_suite(5, gamma, random.Random(1), exhaustive_bound=4, sample_bound=20, sample_pairs=200)
        assert not rep.passed
        assert Counter(f["kind"] for f in rep.failures) == MUTANT_FAILURES[mutant, gamma]

    @pytest.mark.parametrize("gamma", [0, 1])
    def test_unmutated_suite_passes(self, gamma):
        rep = lee_suite(5, gamma, random.Random(1), exhaustive_bound=4, sample_bound=20, sample_pairs=200)
        assert rep.passed and rep.samples == 728


# -- negative control: the referee does not share the route's kernel --------


def _spot_batch(seed):
    """Fixed Q_5 spot pairs with their candidates and the zero class, at
    levels 0 to 2: drawn pairs from height 20 plus the zero-operand pairs."""
    rng = random.Random(seed)
    universe = reduced_rationals(20)
    zero = Q5.zero()
    pairs = [(rng.choice(universe), rng.choice(universe)) for _ in range(30)]
    pairs += [(zero, Fraction(3, 7)), (Fraction(-5, 2), zero), (zero, zero)]
    batch = []
    for gamma in (0, 1, 2):
        units = suites._spot_units(5, gamma)
        for x, y in pairs:
            batch.append((suites._spot_candidates(Q5, x, y, units) + [zero], x, y, gamma))
    return batch


_REAL_SUB_VALUATION = PadicRationals.sub_valuation


def _sub_valuation_off_by_one(self, x, y):
    """PadicRationals.sub_valuation with every finite value raised by one."""
    v = _REAL_SUB_VALUATION(self, x, y)
    return v if v is INF else v + 1


# failure counts by kind under the off-by-one sub_valuation; at level 2
# the small universe holds no candidate at the ball's edge, so only the
# sampled tier's spot set catches it
SUB_VALUATION_FAILURES = {
    0: {"exhaustive-membership": 9108, "membership": 92},
    1: {"exhaustive-membership": 2024, "membership": 128},
    2: {"membership": 109},
}


class TestRefereeIndependence:
    @pytest.mark.parametrize("gamma", list(SUB_VALUATION_FAILURES))
    def test_broken_kernel_fails_suite(self, monkeypatch, gamma):
        monkeypatch.setattr(PadicRationals, "sub_valuation", _sub_valuation_off_by_one)
        rep = lee_suite(5, gamma, random.Random(1), exhaustive_bound=4, sample_bound=20, sample_pairs=200)
        assert not rep.passed
        assert Counter(f["kind"] for f in rep.failures) == SUB_VALUATION_FAILURES[gamma]

    def test_referee_calls_no_route_function(self, monkeypatch):
        # the route's kernel and functions raise while the referee runs,
        # and work as before outside it
        inside = []
        real_member = suites.definitional_member

        def guarded_member(*args):
            inside.append(True)
            try:
                return real_member(*args)
            finally:
                inside.pop()

        def guard(fn):
            @functools.wraps(fn)
            def guarded(*args):
                if inside:
                    raise AssertionError(f"the referee called {fn.__name__}")
                return fn(*args)

            return guarded

        monkeypatch.setattr(suites, "definitional_member", guarded_member)
        monkeypatch.setattr(suites, "hyperadd", guard(suites.hyperadd))
        monkeypatch.setattr(suites, "hypersum_contains", guard(suites.hypersum_contains))
        # the route's radius, wherever the referee might read it from
        guarded_ball = guard(cosets._ball)
        for module in (cosets, suites):
            monkeypatch.setattr(module, "_ball", guarded_ball, raising=False)
        for cls in (PadicRationals, RationalFunctions, QuadraticExtension):
            monkeypatch.setattr(cls, "sub_valuation", guard(cls.sub_valuation))
        rep = lee_suite(5, 1, random.Random(1), exhaustive_bound=2, sample_bound=20, sample_pairs=200)
        assert rep.passed and rep.samples > 200
        for kind in ("rational", "function", "quadratic"):
            field = make_field(kind, 5)
            rng = random.Random(f"guard:{kind}")
            for _ in range(20):
                x, y = sample_element(field, rng, 20), sample_element(field, rng, 20)
                zs = [sample_element(field, rng, 20), field.add(x, y), x, y, field.zero()]
                assert len(guarded_member(field, zs, x, y, 1)) == len(zs)
        # a fixed batch with both verdicts well represented, so no patched
        # kernel can move the referee's verdicts on it
        verdicts = Counter(v for zs, x, y, g in _spot_batch(11) for v in guarded_member(Q5, zs, x, y, g))
        assert verdicts[True] > 100 and verdicts[False] > 100


# -- negative controls on the sum descriptor's radius -----------------------


def _radius_mutant(radius):
    """hyperadd with the radius gamma + min(vx, vy) replaced by
    radius(gamma, vx, vy), and the zero flag following it; a sum with a
    zero operand is left as it is."""

    def mutant(a, b):
        s = hyperadd(a, b)
        if a.is_zero() or b.is_zero():
            return s
        r = radius(s.level, a.value(), b.value())
        return HyperSum(s.field, s.level, s.center, r, s.center.value() > r)

    return mutant


RADIUS_MUTANTS = {
    "plus-one": lambda g, vx, vy: g + min(vx, vy) + 1,
    "minus-one": lambda g, vx, vy: g + min(vx, vy) - 1,
    "max": lambda g, vx, vy: g + max(vx, vy),
}

# The 16 pairs the sampled tier draws from height 50 with random.Random(1),
# and the subsets of them that the former threshold sweep flagged under
# each radius mutant.  The sweep compared, over every u of the sampled
# universe, v(u - 1) > gamma + min(0, vx - vy) with v(u - 1) > radius - vy
# (and symmetrically); it was removed because those thresholds agree
# exactly when the radius is gamma + min(vx, vy), which the descriptor
# check asserts on the same pair.
_DRAWN = (
    "-1/18,31/48 -12/41,-4 -13/8,23/33 -20/7,-37/21 -23/9,21/38 -25/26,-22/29 "
    "-3/2,-35/43 -39/4,-27/17 -39/43,-38/25 -45/32,-15/2 -7/47,-49/29 15/14,-1/7 "
    "2/37,19 25/2,46 29/30,-41/31 46/15,49/39"
)
_DRAWN_P2_MAX = (
    "-1/18,31/48 -13/8,23/33 -20/7,-37/21 -23/9,21/38 -25/26,-22/29 -3/2,-35/43 "
    "-39/4,-27/17 -39/43,-38/25 -45/32,-15/2 15/14,-1/7 2/37,19 25/2,46 "
    "29/30,-41/31 46/15,49/39"
)
_DRAWN_P5_DEEP = (
    "-20/7,-37/21 -25/26,-22/29 -3/2,-35/43 -39/43,-38/25 15/14,-1/7 25/2,46 "
    "29/30,-41/31 46/15,49/39"
)
SWEEP_FLAGGED = {
    ("plus-one", 2, 0): _DRAWN,
    ("plus-one", 2, 2): _DRAWN,
    ("plus-one", 5, 0): _DRAWN,
    ("plus-one", 5, 2): _DRAWN_P5_DEEP,
    ("minus-one", 2, 0): _DRAWN,
    ("minus-one", 2, 2): _DRAWN,
    ("minus-one", 5, 0): _DRAWN,
    ("minus-one", 5, 2): _DRAWN,
    ("max", 2, 0): _DRAWN_P2_MAX,
    ("max", 2, 2): _DRAWN_P2_MAX,
    ("max", 5, 0): _DRAWN_P5_DEEP,
    ("max", 5, 2): _DRAWN_P5_DEEP,
}


class TestRadiusMutants:
    @pytest.mark.parametrize("mutant,p,gamma", list(SWEEP_FLAGGED))
    def test_descriptor_fails_where_the_sweep_did(self, monkeypatch, mutant, p, gamma):
        monkeypatch.setattr(suites, "hyperadd", _radius_mutant(RADIUS_MUTANTS[mutant]))
        rep = lee_suite(p, gamma, random.Random(1), exhaustive_bound=2, sample_bound=50, sample_pairs=16)
        assert not rep.passed
        failed = {f"{f['x']},{f['y']}" for f in rep.failures if f["kind"] == "descriptor"}
        assert set(SWEEP_FLAGGED[mutant, p, gamma].split()) <= failed


class TestSharedVerdicts:
    @pytest.mark.parametrize("mutant", ["ball-closed", *RADIUS_MUTANTS])
    @pytest.mark.parametrize("p", [2, 5])
    @pytest.mark.parametrize("gamma", [0, 2])
    def test_same_report_as_row_major_under_mutants(self, monkeypatch, mutant, p, gamma):
        # a verdict shared by two pairs is keyed on the descriptor the route
        # returned, so a wrong radius stays visible on every pair; where a
        # mutant slips through the small universe, both reports are clean
        if mutant in RADIUS_MUTANTS:
            monkeypatch.setattr(suites, "hyperadd", _radius_mutant(RADIUS_MUTANTS[mutant]))
        else:
            monkeypatch.setattr(suites, "hypersum_contains", MUTANTS[mutant])
        reference = _row_major_exhaustive(p, gamma, 4)
        rep = _exhaustive_only(p, gamma, 4)
        assert rep.to_json() == reference.to_json()


# -- the rewritten helpers against their former shape -----------------------


def _add_neg_member(field, z, x, y, gamma):
    """definitional_member with the quotient's 1 taken off as add(..., neg(one())).
    With both operands zero, 0 + 0*u is 0: z belongs exactly when it is zero."""
    if field.is_zero(x) and field.is_zero(y):
        return field.is_zero(z)
    if not field.is_zero(y):
        u = field.add(field.mul(field.sub(z, x), field.inv(y)), field.neg(field.one()))
        if field.valuation(u) > gamma:
            return True
    if not field.is_zero(x):
        u = field.add(field.mul(field.sub(z, y), field.inv(x)), field.neg(field.one()))
        if field.valuation(u) > gamma:
            return True
    return False


def _quotient_member(field, zs, x, y, gamma):
    """definitional_member as it formed the defining quotient: each nonzero
    operand inverted once, then for each z the product w * b^-1, with
    w = z - x - y, valued for b = y, then x.  With both operands zero, z
    belongs exactly when w is zero."""
    iy = None if field.is_zero(y) else field.inv(y)
    ix = None if field.is_zero(x) else field.inv(x)
    total = field.add(x, y)

    def member(z):
        w = field.sub(z, total)
        for inv_b in (iy, ix):
            if inv_b is not None and field.valuation(field.mul(w, inv_b)) > gamma:
                return True
        return ix is None and iy is None and field.is_zero(w)

    return [member(z) for z in zs]


def _fraction_keyed_spot_candidates(field, x, y, units):
    """_spot_candidates as it deduplicated on the Fraction itself."""
    out = {}
    for u in units:
        out[field.add(x, field.mul(y, u))] = None
        out[field.add(field.mul(x, u), y)] = None
    return list(out)


def _per_pair_spot_candidates(field, x, y, gamma):
    """Spot candidates with their units built for the one pair."""
    p = field.p
    us = [Fraction(1)]
    for j in (gamma + 1, gamma, gamma - 1, 0):
        us.append(1 + Fraction(p) ** j)
        us.append(1 - Fraction(p) ** j)
    us.append(Fraction(1, 1 + p))
    out = []
    for u in us:
        out.append(field.add(x, field.mul(y, u)))
        out.append(field.add(field.mul(x, u), y))
    return out


class TestSuiteHelpers:
    @pytest.mark.parametrize("kind", ["rational", "function", "quadratic"])
    def test_definitional_member_matches_add_neg_form(self, kind):
        field = make_field(kind, 5)
        rng = random.Random(f"definitional:{kind}")
        verdicts = Counter()
        for k in range(240):
            x = field.zero() if k % 8 == 0 else sample_element(field, rng, 20)
            y = field.zero() if k % 8 == 1 else sample_element(field, rng, 20)
            gamma = rng.randint(0, 3)
            if k % 4 == 3:
                z = sample_element(field, rng, 20)
            else:
                # z = a + b*u with u a 1-unit of random depth, either order
                w = field.mul(field.uniformizer_pow(rng.randint(0, 5)), sample_element(field, rng, 20))
                u = field.add(field.one(), w)
                a, b = (x, y) if rng.random() < 0.5 else (y, x)
                z = field.add(a, field.mul(b, u))
            want = _add_neg_member(field, z, x, y, gamma)
            assert definitional_member(field, [z], x, y, gamma) == [want]
            verdicts[want] += 1
        assert verdicts[True] > 20 and verdicts[False] > 20

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("gamma", [0, 1, 2])
    def test_spot_candidates_match_per_pair_units(self, p, gamma):
        field = PadicRationals(p)
        units = suites._spot_units(p, gamma)
        universe = reduced_rationals(3)
        for x in universe:
            for y in universe:
                assert suites._spot_candidates(field, x, y, units) == list(
                    dict.fromkeys(_per_pair_spot_candidates(field, x, y, gamma))
                )

    @pytest.mark.parametrize("field", _CANDIDATE_FIELDS, ids=lambda f: f"{f.kind}-{f.p}")
    def test_definitional_member_matches_quotient_form(self, field):
        # valuation differences against the solved quotient, at the level's
        # edge u = 1 +- pi^j for j around gamma, on zero operands, both
        # operands zero, and pairs x, -x * (1 + pi^k) whose sum cancels in
        # part, with the zero class among the candidates
        rng = random.Random(f"quotient:{field.kind}:{field.p}")
        zero, one = field.zero(), field.one()
        verdicts = Counter()
        for gamma in range(4):
            pairs = [(zero, zero)]
            for _ in range(4):
                x, y = field.random_nonzero(rng, 20), field.random_nonzero(rng, 20)
                k = rng.randint(0, 4)
                partial = field.neg(field.mul(x, field.add(one, field.uniformizer_pow(k))))
                pairs += [(x, y), (zero, y), (x, zero), (x, partial), (partial, x)]
            us = [one]
            for j in (gamma - 1, gamma, gamma + 1, gamma + 2):
                us += [field.add(one, field.uniformizer_pow(j)), field.sub(one, field.uniformizer_pow(j))]
            for x, y in pairs:
                zs = [field.add(a, field.mul(b, u)) for u in us for a, b in ((x, y), (y, x))]
                zs += [zero, field.random_element(rng, 20)]
                got = definitional_member(field, zs, x, y, gamma)
                assert got == _quotient_member(field, zs, x, y, gamma), (x, y, gamma)
                verdicts.update(got)
        assert verdicts[True] > 100 and verdicts[False] > 100

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("gamma", [0, 1, 2])
    def test_spot_candidates_match_fraction_keyed(self, monkeypatch, p, gamma):
        # every spot set of the sampled tier in a lee-membership
        # configuration (1000 pairs from height 50), in the same order as
        # when candidates were keyed by their Fraction
        seen = []
        real_spot = suites._spot_candidates

        def spot(field, x, y, units):
            zs = real_spot(field, x, y, units)
            assert zs == _fraction_keyed_spot_candidates(field, x, y, units), (x, y)
            seen.append(len(zs))
            return zs

        monkeypatch.setattr(suites, "_spot_candidates", spot)
        rep = lee_suite(p, gamma, random.Random(f"lee:1:{p}:{gamma}"),
                        exhaustive_bound=0, sample_bound=50, sample_pairs=1000)
        assert rep.passed and len(seen) == 125

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("gamma", [0, 1, 2])
    def test_spot_set_repeats_nothing(self, p, gamma):
        # each multiplier once, so each candidate is checked once: below
        # level 2 one of gamma + 1, gamma, gamma - 1 is already 0, so three
        # distinct j give 8 units, and at level 2 four give 10
        field = PadicRationals(p)
        units = suites._spot_units(p, gamma)
        assert len(set(units)) == len(units) == (8 if gamma < 2 else 10)
        universe = reduced_rationals(3)
        for x in universe:
            for y in universe:
                zs = suites._spot_candidates(field, x, y, units)
                assert len(set(zs)) == len(zs)
