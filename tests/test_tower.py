import random
from collections import Counter
from fractions import Fraction

import pytest

from hypertower import tower
from hypertower.basefields import PadicRationals, RationalFunctions
from hypertower.cosets import GammaCoset, coset_eq, coset_of, hyperadd, hypersum_contains
from hypertower.tower import (
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

Q5 = PadicRationals(5)
PAIRS = [LevelPair(a, b) for a in range(4) for b in range(a, 4)]


def C(x, g, field=Q5):
    return coset_of(field, field.element(x), g)


def elements(rng, n=40, field=Q5):
    out = [field.zero(), field.one(), field.uniformizer_pow(3)]
    for _ in range(n):
        x = field.element(Fraction(rng.randint(-200, 200), rng.randint(1, 60)))
        out.append(x)
    return out


class TestProject:
    def test_keeps_representative_and_value(self):
        c = project(C(27, 2), 1)
        assert c.level == 1 and coset_eq(c, C(2, 1))
        assert c.value() == C(27, 2).value()

    def test_identity(self):
        c = C(7, 2)
        assert coset_eq(project(c, 2), c)

    def test_composition(self):
        rng = random.Random(1)
        for _ in range(50):
            c = C(Fraction(rng.randint(1, 500), rng.randint(1, 50)), 3)
            assert coset_eq(project(c, 0), project(project(c, 2), 0))

    def test_rejects_raising(self):
        with pytest.raises(ValueError):
            project(C(1, 1), 2)
        with pytest.raises(ValueError):
            project(C(1, 1), -1)


def old_triples(levels):
    # the nested loop check_slice_triangles walked before, kept as the reference
    out = []
    for i, lo in enumerate(levels):
        for mid in levels[i:]:
            for hi in levels[levels.index(mid):]:
                if not (lo <= mid <= hi):
                    continue
                out.append((lo, mid, hi))
    return out


class TestSliceTriangles:
    @pytest.mark.parametrize(
        "pairs", [PAIRS, PAIRS[:6], [LevelPair(1, 4), LevelPair(2, 2)], [LevelPair(0, 6)]]
    )
    def test_functoriality_triples_match_nested_loop(self, pairs):
        calls = []

        def recording(c, gamma):
            calls.append((c.level, gamma))
            return project(c, gamma)

        check_slice_triangles(Q5, pairs, [Q5.one()], projector=recording)
        # one call per pair for value preservation, then per triple:
        # hi -> lo directly, hi -> mid, mid -> lo
        rest = calls[len(pairs):]
        got = [(rest[k][1], rest[k + 1][1], rest[k][0]) for k in range(0, len(rest), 3)]
        levels = sorted({p.lower for p in pairs} | {p.upper for p in pairs})
        assert got == old_triples(levels)

    def test_pass(self):
        rng = random.Random(2)
        rep = check_slice_triangles(Q5, PAIRS, elements(rng))
        assert rep.passed and rep.samples > 0

    def test_each_class_built_once(self, monkeypatch):
        built, valued, lowering = Counter(), Counter(), []

        def counting(real):
            def build(field, x, g, *value):
                if not lowering:
                    built[(x, g)] += 1
                return real(field, x, g, *value)

            return build

        def projector(c, g):
            # project builds its lowered class through _valued_coset too;
            # those classes are the pushed-down images, not counted here
            lowering.append(g)
            try:
                return project(c, g)
            finally:
                lowering.pop()

        # a class is built through either constructor, carrying its value or not
        for name in ("coset_of", "_valued_coset"):
            monkeypatch.setattr(tower, name, counting(getattr(tower, name)))
        real_valuation = PadicRationals.valuation

        def valuation(field, x):
            valued[x] += 1
            return real_valuation(field, x)

        monkeypatch.setattr(PadicRationals, "valuation", valuation)
        els = list(dict.fromkeys(elements(random.Random(16), 20)))
        rep = check_slice_triangles(Q5, PAIRS, els, projector=projector)
        # 10 pairs and 20 level triples per element, over 4 levels
        assert rep.passed and rep.samples == len(els) * (len(PAIRS) + 20)
        assert built == {(x, g): 1 for x in els for g in range(4)}
        assert valued == {x: 1 for x in els}

    def test_function_field_pass(self):
        F = RationalFunctions(5)
        rng = random.Random(3)
        els = [F.zero(), F.one()] + [F.random_element(rng) for _ in range(20)]
        rep = check_slice_triangles(F, PAIRS, els)
        assert rep.passed

    def test_zero_class_value_preserved(self):
        rep = check_slice_triangles(Q5, [LevelPair(0, 3)], [Q5.zero()])
        assert rep.passed

    def test_corrupted_projector_detected(self):
        def corrupted(c, gamma):
            bumped = c.field.add(c.rep, c.field.uniformizer_pow(gamma))
            return coset_of(c.field, bumped, gamma)

        rng = random.Random(4)
        rep = check_slice_triangles(Q5, PAIRS, elements(rng), projector=corrupted)
        assert not rep.passed
        assert any(f["law_part"] == "value-preservation" for f in rep.failures)


class TestHomLaw:
    def test_projection_is_hom(self):
        rng = random.Random(5)
        rep = check_hom_law(
            CosetCarrier(Q5, 3), CosetCarrier(Q5, 1), lambda c: project(c, 1), rng
        )
        assert rep.passed

    def test_value_map_is_hom(self):
        rng = random.Random(6)
        for level in (0, 1, 2):
            rep = check_hom_law(
                CosetCarrier(Q5, level), TropCarrier(), GammaCoset.value, rng
            )
            assert rep.passed, rep.failures[:3]

    def test_squaring_is_not_additive(self):
        rng = random.Random(7)

        def square(c):
            return coset_of(c.field, c.field.mul(c.rep, c.rep), c.level)

        rep = check_hom_law(CosetCarrier(Q5, 1), CosetCarrier(Q5, 1), square, rng)
        assert not rep.passed
        assert any(f["law_part"] == "sum-containment" for f in rep.failures)

    def test_shift_map_is_not_multiplicative(self):
        rng = random.Random(8)

        def shift(c):
            return coset_of(c.field, c.field.add(c.rep, c.field.one()), c.level)

        rep = check_hom_law(CosetCarrier(Q5, 1), CosetCarrier(Q5, 1), shift, rng)
        assert not rep.passed


class TestProjectionContainment:
    def test_descriptor_fast_path(self):
        rng = random.Random(9)
        rep = check_projection_containment(Q5, PAIRS, elements(rng, 15))
        assert rep.passed and rep.samples > 0

    def test_one_sum_per_element_pair_and_level(self, monkeypatch):
        built, operands = Counter(), {}

        def counting(a, b):
            built[(a.rep, b.rep, a.level)] += 1
            for c in (a, b):
                # one class per (element, level), carrying its value
                assert c._value is not None
                operands.setdefault((c.rep, c.level), set()).add(id(c))
            return hyperadd(a, b)

        monkeypatch.setattr(tower, "hyperadd", counting)
        els = list(dict.fromkeys(elements(random.Random(14), 10)))
        rep = check_projection_containment(Q5, PAIRS[:6], els)
        assert rep.passed
        n = len(els)
        # only the element pair (zero, zero) is skipped; PAIRS[:6] spans levels 0..3
        assert set(built.values()) == {1}
        assert len(built) == (n * (n + 1) // 2 - 1) * 4
        assert len(operands) == n * 4 and all(len(ids) == 1 for ids in operands.values())

    def test_memberwise_containment(self):
        rng = random.Random(10)
        for _ in range(80):
            g_hi = rng.randint(1, 3)
            g_lo = rng.randint(0, g_hi)
            x = C(Fraction(rng.randint(1, 99), rng.randint(1, 40)), g_hi)
            y = C(Fraction(-rng.randint(1, 99), rng.randint(1, 40)), g_hi)
            s_hi = hyperadd(x, y)
            s_lo = hyperadd(project(x, g_lo), project(y, g_lo))
            from hypertower.sampling import sample_member

            m = sample_member(s_hi, rng)
            assert hypersum_contains(s_lo, project(m, g_lo))


class TestCone:
    def test_plain_vertex(self):
        rng = random.Random(11)

        def sides(g):
            return lambda x: coset_of(Q5, x, g)

        rep = cone_over_diagram(sides, PAIRS, elements(rng, 20))
        assert rep.passed

    def test_digit_stream_vertex(self):
        # sides built from truncated expansions: the completed field seen
        # through its digits is a cone over the same family
        rng = random.Random(12)

        def sides(g):
            def side(x):
                appr = Q5.expand(x, g + 1)
                return coset_of(Q5, Q5.from_approximation(appr), g)

            return side

        els = [x for x in elements(rng, 20) if not Q5.is_zero(x)]
        rep = cone_over_diagram(sides, PAIRS, els)
        assert rep.passed, rep.failures[:3]

    def test_each_leg_built_and_applied_once(self):
        built, applied = Counter(), Counter()

        def sides(g):
            built[g] += 1

            def leg(x):
                applied[(x, g)] += 1
                return coset_of(Q5, x, g)

            return leg

        els = list(dict.fromkeys(elements(random.Random(15), 20)))
        rep = cone_over_diagram(sides, PAIRS, els)
        assert rep.passed and rep.samples == len(els) * len(PAIRS)
        assert built == {g: 1 for g in range(4)}
        assert applied == {(x, g): 1 for x in els for g in range(4)}

    def test_shifted_side_detected(self):
        rng = random.Random(13)

        def sides(g):
            if g == 2:
                return lambda x: coset_of(Q5, Q5.mul(x, Fraction(5)), g)
            return lambda x: coset_of(Q5, x, g)

        els = [x for x in elements(rng, 10) if not Q5.is_zero(x)]
        rep = cone_over_diagram(sides, PAIRS, els)
        assert not rep.passed


class TestLawReport:
    def test_json_sorted(self):
        r = LawReport("demo", samples=1, failures=[{"b": 2}, {"a": 1}])
        doc = r.to_json()
        assert doc["pass"] is False
        assert doc["failures"] == sorted(doc["failures"], key=repr)
