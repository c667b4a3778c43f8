import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from hypertower.oag import INF
from hypertower.basefields import (
    Approximation,
    PadicRationals,
    QuadraticExtension,
    RationalFunctions,
)
from hypertower.cosets import coset_eq, coset_of
from hypertower.tower import project
from hypertower import limit
from hypertower.limit import (
    CoherenceError,
    EqResult,
    RepresentativeFinder,
    check_singlevalued,
    check_universal_property,
    from_cosets,
    from_field,
    hensel_finder,
    limit_arith,
    limit_eq,
    rebuild_from_digits,
    sigma_embed,
    to_approximation,
    zero_element,
)

Q5 = PadicRationals(5)
E5 = QuadraticExtension(5)
RF5 = hensel_finder(E5, Q5)
F5T = RationalFunctions(5)


class TestFromField:
    def test_unit_everywhere(self):
        e = from_field(Q5, 1)
        for g in range(6):
            assert coset_eq(e.at(g), coset_of(Q5, 1, g))

    def test_one_third_digits(self):
        e = from_field(Q5, Fraction(1, 3))
        assert to_approximation(e, 4) == Approximation(0, (2, 3, 1, 3), 5)

    def test_zero(self):
        e = from_field(Q5, 0)
        assert e.valuation() is INF
        assert all(e.at(g).is_zero() for g in range(5))
        assert to_approximation(e, 4) == Approximation(0, (0, 0, 0, 0), 5)

    def test_compatibility_invariant(self):
        e = from_field(Q5, Fraction(7, 3))
        for g in range(8):
            assert coset_eq(project(e.at(g + 1), g), e.at(g))


class TestCoherence:
    def test_incompatible_chain_rejected(self):
        # shrinking perturbations of zero cannot assemble coherently
        chain = [coset_of(Q5, Fraction(5) ** (g + 1), g) for g in range(6)]
        e = from_cosets(Q5, lambda g: chain[g])
        e.at(0)
        with pytest.raises(CoherenceError):
            e.at(1)

    def test_constant_chain_accepted(self):
        chain = [coset_of(Q5, 7, g) for g in range(6)]
        e = from_cosets(Q5, lambda g: chain[g])
        for g in range(6):
            e.at(g)

    def test_value_constancy_enforced(self):
        def gen(level):
            rep = 1 if level < 2 else 5
            return coset_of(Q5, rep, level)

        e = from_cosets(Q5, gen, known_valuation=0)
        e.at(0)
        with pytest.raises(CoherenceError):
            e.at(2)

    def test_wrong_level_rejected(self):
        e = from_cosets(Q5, lambda level: coset_of(Q5, 1, level + 1))
        with pytest.raises(CoherenceError):
            e.at(0)


class TestArith:
    def test_exact_cancellation(self):
        z, _ = limit_arith("add", from_field(Q5, 1), from_field(Q5, -1))
        assert z.valuation() is INF
        assert all(z.at(g).is_zero() for g in range(6))

    def test_cancellation_ledger(self):
        out, ledger = limit_arith("add", from_field(Q5, 1), from_field(Q5, 624))
        assert ledger.total_loss == 4
        assert ledger.query_level(3) == 7
        entry = ledger.entries[-1]
        assert entry.min_valuation == 0 and entry.result_valuation == 4
        assert to_approximation(out, 3) == Q5.expand(625, 3)

    def test_mul_of_embeddings(self):
        s = sigma_embed(E5.generator(), RF5)
        sq, ledger = limit_arith("mul", s, s)
        assert ledger.total_loss == 0
        assert limit_eq(sq, from_field(Q5, 6), 40).equal

    def test_neg_inv(self):
        e = from_field(Q5, Fraction(2, 3))
        n, _ = limit_arith("neg", e)
        i, _ = limit_arith("inv", e)
        assert to_approximation(n, 6) == Q5.expand(Fraction(-2, 3), 6)
        assert to_approximation(i, 6) == Q5.expand(Fraction(3, 2), 6)
        assert i.valuation() == 0

    def test_inv_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            limit_arith("inv", zero_element(Q5))

    def test_inv_needs_witness(self):
        # a sum that cancels beyond the probe bound looks like zero
        a = sigma_embed(E5.generator(), RF5)
        b, _ = limit_arith("neg", a)
        s, _ = limit_arith("add", a, b)
        assert s.valuation() is INF
        with pytest.raises(ZeroDivisionError):
            limit_arith("inv", s)

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            limit_arith("pow", from_field(Q5, 2))

    def test_ledgers_compose_additively(self):
        a, b = from_field(Q5, 1), from_field(Q5, 624)
        s1, l1 = limit_arith("add", a, b)          # loss 4
        s2, l2 = limit_arith("add", s1, from_field(Q5, -625))  # cancels to 0 exactly
        assert s2.valuation() is INF
        c, l3 = limit_arith("add", s1, from_field(Q5, 5))
        # 625 + 5 = 630: min val 1, result val 1: no extra loss, inherits 4
        assert l3.total_loss == l1.total_loss
        d, l4 = limit_arith("add", s1, from_field(Q5, 15000))
        # 625 + 15000 = 5^6: min val 4, result val 6: new loss 2 on top
        assert l4.total_loss == l1.total_loss + 2
        assert to_approximation(d, 3) == Q5.expand(15625, 3)

    def test_ledger_depth_follows_one_path(self):
        # each operand is queried on its own, so losses on separate
        # branches do not add up: at delivered 3, 1 + 624 (loss 4) needs
        # its inputs at 7, 2 + 123 (loss 3) at 6, and their product at 7
        s, _ = limit_arith("add", from_field(Q5, 1), from_field(Q5, 624))
        t, _ = limit_arith("add", from_field(Q5, 2), from_field(Q5, 123))
        prod, lp = limit_arith("mul", s, t)
        assert lp.to_json(delivered=3)["requested"] == 7
        assert to_approximation(prod, 3) == Q5.expand(625 * 125, 3)
        # s + s = 1250 loses nothing more: v(1250) = v(625) = 4
        double, ld = limit_arith("add", s, s)
        assert ld.to_json(delivered=3)["requested"] == 7
        assert len(ld.entries) == 3  # both copies of s's loss, and the new one
        assert to_approximation(double, 3) == Q5.expand(1250, 3)

    def test_ring_laws_at_precision(self):
        rng = random.Random(21)
        for field in (Q5, RationalFunctions(5)):
            for _ in range(25):
                xs = [from_field(field, field.random_element(rng, 30)) for _ in range(3)]
                a, b, c = xs
                ab, _ = limit_arith("add", a, b)
                ba, _ = limit_arith("add", b, a)
                assert limit_eq(ab, ba, 12).equal
                ab_c, _ = limit_arith("add", ab, c)
                bc, _ = limit_arith("add", b, c)
                a_bc, _ = limit_arith("add", a, bc)
                assert limit_eq(ab_c, a_bc, 12).equal
                prod_sum, _ = limit_arith("mul", ab, c)
                ac, _ = limit_arith("mul", a, c)
                bc2, _ = limit_arith("mul", b, c)
                sum_prod, _ = limit_arith("add", ac, bc2)
                assert limit_eq(prod_sum, sum_prod, 12).equal


class TestZeroResults:
    """A zero result claims exactness only when a zero operand is exact."""

    @staticmethod
    def _zero_chain():
        return from_cosets(Q5, lambda level: coset_of(Q5, 0, level))

    @staticmethod
    def _assert_inexact_zero(out, op):
        assert out.exact is False
        assert out.provenance == {"kind": "arith", "op": op}
        assert out.valuation() is INF
        assert all(out.at(g).is_zero() for g in range(4))

    def test_inexact_zero_times_exact(self):
        chain, three = self._zero_chain(), from_field(Q5, 3)
        for args in ((chain, three), (three, chain)):
            out, _ = limit_arith("mul", *args)
            self._assert_inexact_zero(out, "mul")

    def test_inexact_zero_plus_itself(self):
        chain = self._zero_chain()
        out, _ = limit_arith("add", chain, chain)
        self._assert_inexact_zero(out, "add")
        out, _ = limit_arith("add", zero_element(Q5), chain)
        self._assert_inexact_zero(out, "add")

    def test_apparent_zero_sum_is_not_exact(self):
        # s + (-s) agrees with zero at every probed level, which does not
        # prove the sum is zero
        s = sigma_embed(E5.generator(), RF5)
        out, _ = limit_arith("add", s, limit_arith("neg", s)[0])
        assert out.exact is False
        assert out.provenance == {
            "kind": "arith", "op": "add", "apparent_zero_at": limit.ZERO_PROBE,
        }
        assert out.valuation() is INF
        assert all(out.at(g).is_zero() for g in range(4))

    def test_exact_zero_operand_stays_exact(self):
        chain, z = self._zero_chain(), zero_element(Q5)
        cases = [("mul", z, chain), ("mul", chain, z), ("mul", z, from_field(Q5, 3)), ("add", z, z)]
        for op, a, b in cases:
            out, _ = limit_arith(op, a, b)
            assert out.exact is True and out.valuation() is INF, (op, a.exact, b.exact)


def _derived_cases():
    """Name -> (op, operands) over seeded inputs, built fresh per call."""
    rng = random.Random(11)
    inputs = {
        kind: [from_field(field, field.random_nonzero(rng, 20)) for _ in range(2)]
        for kind, field in (("rational", Q5), ("function", F5T), ("quadratic", E5))
    }
    s = sigma_embed(E5.generator(), RF5)
    inputs["sigma"] = [s, sigma_embed(E5.element([2, 3]), RF5)]
    cases = {}
    for kind, (x, y) in inputs.items():
        cases[f"add-{kind}"] = ("add", x, y)
        cases[f"mul-{kind}"] = ("mul", x, y)
        cases[f"neg-{kind}"] = ("neg", x)
        cases[f"inv-{kind}"] = ("inv", x)
    cases["add-zero-operand"] = ("add", zero_element(Q5), from_field(Q5, 7))
    cases["add-zero-operand-sigma"] = ("add", s, zero_element(Q5))
    cases["mul-zero-operand"] = ("mul", zero_element(Q5), s)
    cases["add-one-minus-one"] = ("add", from_field(Q5, 1), from_field(Q5, -1))
    cases["add-loss-four"] = ("add", from_field(Q5, 1), from_field(Q5, 624))
    cases["add-apparent-zero"] = ("add", s, limit_arith("neg", s)[0])
    return cases


# sha256 of each derived element's exactness flag, first six classes and
# ledger, recorded before the arithmetic moved onto one level-wise builder
# (add-apparent-zero re-recorded when a sum that only looks zero within the
# probe bound stopped claiming exactness)
DERIVED_DIGESTS = {
    "add-apparent-zero": "5afc0416b2ff6c46b7370449cdcbd07a4a4d97dc5b85da7d5b9e61f3f3079871",
    "add-function": "4926310d8145f882a0a496911f6db5cc05be9e1846543d70ccad157262815e2f",
    "add-loss-four": "312456fe3aad135f7bde5c31a680991f1cf50bbce1c5f1a382ee7b6e9a746f9b",
    "add-one-minus-one": "a92e3e83b64f62c07d0df99e87c9a2bcdf00c5aee1477dea9a9d1b9a2154cc78",
    "add-quadratic": "63e55d497c55339d32a4bffd8a781fc1fca2c608e9230194dc4e5c0382801761",
    "add-rational": "550f8604dce00b880e1d96c82368d4162f75a0f9543397183788243afedd4783",
    "add-sigma": "b269871988ca4415df74312f494f02a99dcb6a3ea7b7ab0a20b54918f6d0e8e1",
    "add-zero-operand": "78c8cc1a449c77150f5214371eebf7e38c8556d6bafdd2d4815af5ccd67d6244",
    "add-zero-operand-sigma": "08720608fb4a350776669682143760660f3d41146dd0bb84e770abe2a666f543",
    "inv-function": "8fb78b731fa2c553a6b1fe055a136b225820efc4c1bd5b85f52b63f4029bd691",
    "inv-quadratic": "029625c000de3fa72d55618db44b00b6b5da15e6995f32b678cdeeba623d41b9",
    "inv-rational": "a529b62c1879a4c11a13ba90f3cd4f6ce8b04149d5024dde008ee845c084dc9e",
    "inv-sigma": "36461a05e1adb65b94b5d6e34d33fbe3d3f09bda188c2aa75e9190c17079ad2e",
    "mul-function": "2324405965a456beeb37cfb82e6aee8c645b74baf88bcc2f8a4a53f1638fb0be",
    "mul-quadratic": "e882aa882be2209f950bd6bc825c85ba48c6fc9c56eff6ac079fbd14a07d5710",
    "mul-rational": "3fe6c7d197768e2626e3cad26adaeefab40849bbd2cbbabb61ec823f795e8e66",
    "mul-sigma": "dc56dc52e1d8fb2c4e8bc81d2eeccdc4442bb9d928f092ef7d7d5642fc721d61",
    "mul-zero-operand": "a92e3e83b64f62c07d0df99e87c9a2bcdf00c5aee1477dea9a9d1b9a2154cc78",
    "neg-function": "9343549ab5329997ed6425e82a30b76c5d5d26ea91025ae259cebfe360ac6019",
    "neg-quadratic": "d8b8c9d2ec6349d8d0f18a83f73c11d6ec3e807c0d8806f21e36fc1ed37ea6fc",
    "neg-rational": "d5755ef1621f2426de3693cdb7d156cb6d6704c6b74dd7c912124b4ab55f82ca",
    "neg-sigma": "6fd2cb96568e4ce82b21479f0d2af0f2b07199c3e5e7aa3e39e9d19d5aef192e",
}


class TestDerivedElements:
    @pytest.mark.parametrize("name", sorted(_derived_cases()))
    def test_bytes(self, name):
        op, *args = _derived_cases()[name]
        out, ledger = limit_arith(op, *args)
        text = json.dumps(
            {
                "exact": out.exact,
                "element": out.to_json(levels=6),
                "ledger": ledger.to_json(delivered=6),
            },
            sort_keys=True,
        )
        assert hashlib.sha256(text.encode()).hexdigest() == DERIVED_DIGESTS[name]

    @pytest.mark.parametrize("op", ["add", "mul", "neg"])
    def test_long_chain_materializes(self, op):
        # a level of the last link materializes through every link below
        # it, two frames each: 400 links must fit the default recursion limit
        s = sigma_embed(E5.generator(), RF5)
        e = s
        for _ in range(400):
            e, _ = limit_arith(op, e) if op == "neg" else limit_arith(op, e, s)
        assert not e.at(3).is_zero()


class TestEquality:
    def test_same_rational(self):
        a = from_field(Q5, Fraction(1, 3))
        b = from_field(Q5, Fraction(2, 6))
        r = limit_eq(a, b, 24)
        assert r.equal and r.level == 24

    def test_distinct_level(self):
        r = limit_eq(from_field(Q5, 1), from_field(Q5, 6), 8)
        assert not r.equal
        assert r.level == 1  # v(1-6) = 1: classes agree at level 0 only
        assert r.witness == (Fraction(1), Fraction(6))

    def test_sigma_vs_truncation(self):
        s = sigma_embed(E5.generator(), RF5)
        r = limit_eq(s, from_field(Q5, 16), 8)
        assert not r.equal
        # the embedded root is 16 + 4*125 + ... : difference valuation 3
        assert r.level == 3

    def test_field_mismatch(self):
        with pytest.raises(ValueError):
            limit_eq(from_field(Q5, 1), from_field(PadicRationals(3), 1), 4)


def _walk_eq(a, b, n):
    """The level walk that limit_eq replaced, kept as its reference."""
    for level in range(n + 1):
        ca, cb = a.at(level), b.at(level)
        if not coset_eq(ca, cb):
            return EqResult(False, level, (ca.rep, cb.rep))
    return EqResult(True, n)


EQ_DEPTH = 12


def _eq_cases():
    """Label -> maker of a fresh (a, b) pair, over seeded inputs.

    Each side is built anew per call, so the walk and limit_eq each see
    elements nothing has queried yet.
    """
    cases = {}
    for field in (Q5, PadicRationals(13), F5T):
        rng = random.Random(f"eq:{field.descriptor()}")
        for i in range(2):
            # valuations away from 0, so a level is not read as a valuation
            x = field.mul(field.random_nonzero(rng, 40), field.uniformizer_pow(3 * i - 1))
            y = field.random_nonzero(rng, 40)
            v = field.valuation(x)
            u = field.unit_digit(rng.randrange(8))
            key = f"{field.descriptor()}:{i}"

            def bump(k, _x=x, _v=v, _u=u, _f=field):
                return _f.add(_x, _f.mul(_u, _f.uniformizer_pow(_v + k)))

            cases[f"{key}:same"] = lambda _f=field, _x=x: (
                from_field(_f, _x), from_field(_f, _f.element(_f.to_json(_x)))
            )
            for k in range(EQ_DEPTH + 2):
                cases[f"{key}:bump{k}"] = lambda _f=field, _x=x, _k=k, _b=bump: (
                    from_field(_f, _x), from_field(_f, _b(_k))
                )
            cases[f"{key}:other-value"] = lambda _f=field, _x=x: (
                from_field(_f, _x), from_field(_f, _f.mul(_x, _f.uniformizer_pow(1)))
            )
            cases[f"{key}:zero-vs-nonzero"] = lambda _f=field, _x=x: (
                zero_element(_f), from_field(_f, _x)
            )
            cases[f"{key}:zero-vs-zero"] = lambda _f=field: (
                zero_element(_f), limit_arith("add", from_field(_f, 1), from_field(_f, -1))[0]
            )
            # the sum (x + y) + (-y), which cancels y, against x bumped at level k
            for k in (0, 3, EQ_DEPTH, EQ_DEPTH + 1):
                cases[f"{key}:arith{k}"] = lambda _f=field, _x=x, _y=y, _k=k, _b=bump: (
                    limit_arith(
                        "add", from_field(_f, _f.add(_x, _y)), from_field(_f, _f.neg(_y))
                    )[0],
                    from_field(_f, _b(_k)),
                )
    for p in (5, 13):
        base, ext = PadicRationals(p), QuadraticExtension(p)
        rf = hensel_finder(ext, base)
        rng = random.Random(f"eq-sigma:{p}")
        for i in range(2):
            x = ext.random_nonzero(rng, 20)
            y = ext.random_nonzero(rng, 20)
            key = f"sigma-{p}:{i}"
            cases[f"{key}:mul"] = lambda _x=x, _y=y, _e=ext, _r=rf: (
                sigma_embed(_e.mul(_x, _y), _r),
                limit_arith("mul", sigma_embed(_x, _r), sigma_embed(_y, _r))[0],
            )
            cases[f"{key}:add"] = lambda _x=x, _y=y, _e=ext, _r=rf: (
                sigma_embed(_e.add(_x, _y), _r),
                limit_arith("add", sigma_embed(_x, _r), sigma_embed(_y, _r))[0],
            )
            # truncations of the embedded element separate level by level
            for k in range(0, EQ_DEPTH + 2, 2):
                cases[f"{key}:trunc{k}"] = lambda _x=x, _k=k, _b=base, _r=rf: (
                    sigma_embed(_x, _r), from_field(_b, _r(_x, _k))
                )
            cases[f"{key}:zero"] = lambda _x=x, _b=base, _r=rf: (
                sigma_embed(_x, _r), zero_element(_b)
            )
    return cases


class TestEqAgainstWalk:
    @pytest.mark.parametrize("name", sorted(_eq_cases()))
    def test_matches_level_walk(self, name):
        make = _eq_cases()[name]
        ref = _walk_eq(*make(), EQ_DEPTH)
        a, b = make()
        got = limit_eq(a, b, EQ_DEPTH)
        assert (got.equal, got.level) == (ref.equal, ref.level)
        if not got.equal:
            wa, wb = got.witness
            assert not coset_eq(coset_of(a.field, wa, got.level), coset_of(a.field, wb, got.level))
        else:
            assert got.witness is None

    def test_cases_cover_every_level(self):
        cases = _eq_cases()
        levels = set()
        for name in cases:
            r = _walk_eq(*cases[name](), EQ_DEPTH)
            levels.add(r.level if not r.equal else "equal")
        assert levels >= set(range(EQ_DEPTH + 1)) | {"equal"}


class TestDeepestFirst:
    @staticmethod
    def _counting(rep=Fraction(7, 3)):
        calls = []

        def gen(level):
            calls.append(level)
            return coset_of(Q5, rep, level)

        return from_cosets(Q5, gen), calls

    def test_deep_query_answers_the_levels_below(self):
        e, calls = self._counting()
        deep = e.at(32)
        for g in range(32):
            assert e.at(g).rep is deep.rep
        assert calls == [32]

    def test_repeated_query_returns_the_same_object(self):
        e, calls = self._counting()
        e.at(9)
        low = e.at(4)
        assert e.at(4) is low
        high = e.at(20)
        assert e.at(20) is high and e.at(4) is low
        assert calls == [9, 20]

    def test_first_class_checked_against_recorded_value(self):
        e = from_cosets(Q5, lambda g: coset_of(Q5, 5, g), known_valuation=0)
        with pytest.raises(CoherenceError):
            e.at(6)
        z = from_cosets(Q5, lambda g: coset_of(Q5, 1, g), known_valuation=INF)
        with pytest.raises(CoherenceError):
            z.at(6)

    def test_drift_between_queried_levels_raises(self):
        e = from_cosets(Q5, lambda g: coset_of(Q5, Fraction(1 + 5 * g), g))
        e.at(3)
        with pytest.raises(CoherenceError) as exc:
            e.at(9)
        assert exc.value.level == 9


class TestApproximation:
    def test_matches_oracle_on_samples(self):
        rng = random.Random(22)
        for field in (Q5, PadicRationals(2), RationalFunctions(5)):
            for _ in range(40):
                x = field.random_element(rng, 10 ** 4)
                e = from_field(field, x)
                assert to_approximation(e, 12) == field.expand(x, 12)

    def test_opaque_zero_is_zero_at_level_0(self):
        # the zero class holds 0 alone: a zero level-0 class is the zero
        # element, read with one generator call
        calls = []

        def gen(level):
            calls.append(level)
            return coset_of(Q5, 0, level)

        e = from_cosets(Q5, gen)
        assert e.valuation() is INF
        assert calls == [0]
        assert to_approximation(e, 4) == Approximation(0, (0, 0, 0, 0), 5)
        assert calls == [0]

    def test_zero_prefix_then_nonzero_raises(self):
        # zero on levels 0-3, nonzero at 4: no element has these classes
        e = from_cosets(Q5, lambda g: coset_of(Q5, 0 if g < 4 else 5 ** 9, g))
        for g in range(4):
            assert e.at(g).is_zero()
        with pytest.raises(CoherenceError) as exc:
            e.at(4)
        assert exc.value.level == 4

    def test_rebuild_round_trip(self):
        rng = random.Random(23)
        for _ in range(50):
            x = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
            e = from_field(Q5, x)
            rebuilt = rebuild_from_digits(Q5, to_approximation(e, 13))
            assert limit_eq(e, rebuilt, 12).equal


class TestSigma:
    def test_generator_digits(self):
        s = sigma_embed(E5.generator(), RF5)
        assert to_approximation(s, 3) == Approximation(0, (1, 3, 0), 5)

    def test_restriction_to_base_is_identity(self):
        s = sigma_embed(E5.element(7), RF5)
        assert limit_eq(s, from_field(Q5, 7), 24).equal

    def test_additive(self):
        one_plus = sigma_embed(E5.element({"a": 1, "b": 1}), RF5)
        s, _ = limit_arith("add", from_field(Q5, 1), sigma_embed(E5.generator(), RF5))
        assert limit_eq(one_plus, s, 24).equal

    def test_multiplicative_on_samples(self):
        rng = random.Random(24)
        for _ in range(15):
            x = E5.random_nonzero(rng, 20)
            y = E5.random_nonzero(rng, 20)
            lhs = sigma_embed(E5.mul(x, y), RF5)
            sx, sy = sigma_embed(x, RF5), sigma_embed(y, RF5)
            rhs, _ = limit_arith("mul", sx, sy)
            assert limit_eq(lhs, rhs, 16).equal

    def test_value_preserving(self):
        rng = random.Random(25)
        for _ in range(25):
            x = E5.random_nonzero(rng, 30)
            assert sigma_embed(x, RF5).valuation() == E5.valuation(x)

    def test_contract_violation_value(self):
        bad = RepresentativeFinder(Q5, E5, lambda x, g: Fraction(5) if g > 1 else Fraction(1))
        e = sigma_embed(E5.one(), bad)
        e.at(0)
        with pytest.raises(CoherenceError):
            e.at(2)

    def test_contract_violation_compat(self):
        # value-correct representatives that drift between levels
        bad = RepresentativeFinder(Q5, E5, lambda x, g: Fraction(1 + 5 * g))
        e = sigma_embed(E5.one(), bad)
        e.at(0)
        e.at(1)  # 1 vs 6 still agree at level 1? v(5g diff) -- check raises below
        with pytest.raises(CoherenceError):
            for g in range(2, 8):
                e.at(g)

    def test_mismatched_p(self):
        with pytest.raises(ValueError):
            hensel_finder(QuadraticExtension(13), Q5)


class TestInvariants:
    def test_compatibility_of_arith_results(self):
        rng = random.Random(41)
        for _ in range(20):
            a = from_field(Q5, Q5.random_element(rng, 50))
            b = from_field(Q5, Q5.random_element(rng, 50))
            s, _ = limit_arith("add", a, b)
            m, _ = limit_arith("mul", a, b)
            for e in (s, m):
                for g in range(10):
                    assert coset_eq(project(e.at(g + 1), g), e.at(g))

    def test_compatibility_of_sigma(self):
        e = sigma_embed(E5.element({"a": 2, "b": 3}), RF5)
        for g in range(10):
            assert coset_eq(project(e.at(g + 1), g), e.at(g))

    @pytest.mark.parametrize("p", [5, 13])
    def test_hensel_finder_coheres_upward(self, p):
        # the finder's own classes, one per level, not the element's memo
        # (which answers lower levels by projection)
        base, ext = PadicRationals(p), QuadraticExtension(p)
        rf = hensel_finder(ext, base)
        rng = random.Random(f"hensel:{p}")
        xs = [ext.generator()] + [ext.random_nonzero(rng, 20) for _ in range(6)]
        for x in xs:
            at = [coset_of(base, rf(x, g), g) for g in range(41)]
            for g in range(40):
                assert coset_eq(project(at[g + 1], g), at[g])
                assert at[g].value() == ext.valuation(x)

    def test_density_representatives_live_downstairs(self):
        # every stored representative is a plain base-field element
        s = sigma_embed(E5.generator(), RF5)
        e, _ = limit_arith("add", s, from_field(Q5, Fraction(1, 3)))
        for g in range(8):
            rep = e.at(g).rep
            assert Q5.check(rep) == rep
            assert coset_eq(coset_of(Q5, rep, g), e.at(g))


class TestSinglevalued:
    def test_unit_pair(self):
        rng = random.Random(26)
        rep = check_singlevalued(from_field(Q5, 1), from_field(Q5, 1), 16, rng)
        assert rep.passed and rep.samples > 0

    def test_cancelling_pair(self):
        rng = random.Random(27)
        rep = check_singlevalued(from_field(Q5, 1), from_field(Q5, -1), 16, rng)
        assert rep.passed

    def test_sigma_pair(self):
        rng = random.Random(28)
        a = sigma_embed(E5.generator(), RF5)
        rep = check_singlevalued(a, from_field(Q5, 2), 12, rng, chains=4)
        assert rep.passed

    def test_level_sums_shared_by_chains(self, monkeypatch):
        calls = []
        real = limit.hyperadd

        def counting(a, b):
            calls.append(a.level)
            return real(a, b)

        monkeypatch.setattr(limit, "hyperadd", counting)
        rep = check_singlevalued(from_field(Q5, 1), from_field(Q5, 1), 12, random.Random(30), chains=4)
        assert rep.passed and rep.samples == 4
        assert calls == list(range(13))

    def test_degenerate_zero_operand(self):
        rng = random.Random(29)
        rep = check_singlevalued(from_field(Q5, 0), from_field(Q5, 7), 10, rng)
        assert rep.passed

    def test_fixed_perturbation_is_incoherent(self):
        # a constant bump riding on a nonzero sum: the chain is a valid
        # coherent element but leaves the descriptor at higher levels, so
        # it is not a member choice; as a chain around a cancelling sum it
        # is rejected by the compatibility invariant instead
        chain = [coset_of(Q5, 5, g) for g in range(8)]
        e = from_cosets(Q5, lambda g: chain[g])
        for g in range(8):
            e.at(g)  # constant chains cohere
        shrink = [coset_of(Q5, 5 ** (g + 1), g) for g in range(8)]
        e2 = from_cosets(Q5, lambda g: shrink[g])
        e2.at(0)
        with pytest.raises(CoherenceError):
            e2.at(1)


class TestUniversal:
    def test_plain_cone_factors(self):
        rng = random.Random(30)
        xs = [Q5.random_nonzero(rng, 50) for _ in range(6)]
        rep = check_universal_property(
            Q5,
            xs,
            lambda x, g: coset_of(Q5, x, g),
            [("plain", lambda x: from_field(Q5, x))],
            16,
        )
        assert rep.passed

    def test_extension_cone_factors(self):
        xs = [E5.generator(), E5.element({"a": 2, "b": 3}), E5.element(7)]
        rep = check_universal_property(
            Q5,
            xs,
            lambda x, g: coset_of(Q5, RF5(x, g), g),
            [
                ("sigma", lambda x: sigma_embed(x, RF5)),
                # a second, representative-shifted factorization candidate:
                # must be indistinguishable from the mediating map
                (
                    "sigma-shifted",
                    lambda x: sigma_embed(
                        x,
                        RepresentativeFinder(
                            Q5,
                            E5,
                            lambda y, g: RF5(y, g)
                            + (
                                Fraction(5) ** (g + E5.valuation(y) + 1)
                                if not E5.is_zero(y)
                                else Fraction(0)
                            ),
                        ),
                    ),
                ),
            ],
            16,
        )
        assert rep.passed, rep.failures[:3]

    def test_negated_candidate_fails(self):
        rng = random.Random(31)
        xs = [Q5.random_nonzero(rng, 50) for _ in range(4)]
        rep = check_universal_property(
            Q5,
            xs,
            lambda x, g: coset_of(Q5, x, g),
            [("negated", lambda x: from_field(Q5, Q5.neg(x)))],
            16,
        )
        assert not rep.passed
        assert any(f["law_part"] == "not-a-factorization" for f in rep.failures)

    def test_incoherent_sides_reported(self):
        def sides(x, g):
            return coset_of(Q5, x + 5 ** max(0, g - 2), g)

        rep = check_universal_property(Q5, [Fraction(1)], sides, [], 8)
        assert not rep.passed

    def test_incoherent_sides_name_the_level(self):
        # level 3 is the first side that leaves the classes below it
        def sides(x, g):
            return coset_of(Q5, x + 5 ** max(0, g - 2), g)

        rep = check_universal_property(Q5, [Fraction(1)], sides, [], 8)
        assert rep.failures == [{"element": repr(Fraction(1)), "law_part": "cone-coherence", "level": 3}]

    def test_sides_called_once_per_element_and_level(self):
        # the sigma cone of the universal suite at its default p = 5
        calls = Counter()

        def sides(x, g):
            calls[x, g] += 1
            return coset_of(Q5, RF5(x, g), g)

        ys = [E5.generator(), E5.element([2, 3])]
        rep = check_universal_property(Q5, ys, sides, [("sigma", lambda x: sigma_embed(x, RF5))], 12)
        assert rep.passed
        assert len(calls) == 2 * 13
        assert set(calls.values()) == {1}
