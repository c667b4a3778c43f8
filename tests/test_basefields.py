import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from hypertower.oag import INF
from hypertower.basefields import (
    ValuedField,
    _MR_BOUND,
    Approximation,
    PadicRationals,
    QuadElement,
    QuadraticExtension,
    RatFunc,
    RationalFunctions,
    int_valuation,
    padic_valuation,
    _digits_of,
    _is_prime,
    _poly_add,
    _poly_div,
    make_field,
)
from hypertower import basefields

Q5 = PadicRationals(5)
Q2 = PadicRationals(2)
F5T = RationalFunctions(5)
E5 = QuadraticExtension(5)


class TestArith:
    def test_rational_add(self):
        assert Q5.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)

    def test_function_field_mul(self):
        # (t+1)(t-1) = t^2 - 1 = t^2 + 4 over GF(5)
        a = F5T.element([1, 1])
        b = F5T.element([-1, 1])
        assert F5T.mul(a, b) == F5T.element([4, 0, 1])

    def test_quadratic_inv(self):
        # (0 + 1*r)^-1 = r/6 when r*r = 6
        alpha = E5.generator()
        assert E5.inv(alpha) == QuadElement(5, 0, Fraction(1, 6))
        assert E5.mul(alpha, E5.inv(alpha)) == E5.one()

    def test_each_field_owns_its_arithmetic(self):
        names = {"add", "sub", "neg", "mul", "inv", "is_zero"}
        assert not names & set(vars(ValuedField))
        for field in (Q5, F5T, E5):
            assert names <= set(vars(type(field))), field.kind

    def test_inv_zero(self):
        with pytest.raises(ZeroDivisionError):
            Q5.inv(Fraction(0))
        with pytest.raises(ZeroDivisionError):
            F5T.inv(F5T.zero())
        with pytest.raises(ZeroDivisionError):
            E5.inv(E5.zero())

    @pytest.mark.parametrize("field", [Q5, F5T, E5], ids=lambda f: f.kind)
    def test_check_rejects_bool(self, field):
        # as in the parsers, a bool is not a number; an int still is
        assert field.check(1) == field.one()
        assert field.sub_valuation(field.check(50), 0) == field.valuation(field.check(50))
        for b in (True, False):
            with pytest.raises(ValueError):
                field.check(b)
            with pytest.raises(ValueError):
                field.sub_valuation(b, field.one())

    def test_descriptor_mismatch(self):
        with pytest.raises(ValueError):
            Q5.add(Fraction(1), F5T.one())
        with pytest.raises(ValueError):
            E5.add(E5.one(), QuadElement(7, 1, 0))


def _rational_operands(rng, p):
    """Seeded Q_p operands: zero, plain ints, negatives, p-power
    denominators, and numerators or denominators past 2^200."""
    big = 2 ** 200
    out = [0, Fraction(0), 1, -1, p, -p ** 3, Fraction(1, p), Fraction(-1, p ** 4)]
    for _ in range(40):
        kind = rng.randrange(5)
        if kind == 0:
            out.append(rng.randint(-10 ** 6, 10 ** 6))
        elif kind == 1:
            out.append(Fraction(rng.randint(-500, 500), rng.randint(1, 500)))
        elif kind == 2:
            out.append(Fraction(rng.randint(-500, 500), p ** rng.randint(1, 12)))
        elif kind == 3:
            num = rng.choice((-1, 1)) * rng.randint(big, 4 * big)
            out.append(Fraction(num, rng.randint(1, 10 ** 9)))
        else:
            den = rng.randint(big, 4 * big) * p ** rng.randint(0, 5)
            out.append(Fraction(rng.randint(-10 ** 6, 10 ** 6), den))
    return out


class TestRationalKernel:
    """Q_p's own add, sub, mul and inv against Python's Fraction operators."""

    @staticmethod
    def _assert_normal(got, want):
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert gcd(got.numerator, got.denominator) == 1
        assert got.denominator > 0

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_fraction_operators(self, p):
        field = PadicRationals(p)
        rng = random.Random(67 + p)
        xs = _rational_operands(rng, p)
        pairs = [(x, y) for x in xs[:12] for y in xs[:12]]
        pairs += list(zip(xs, reversed(xs)))
        pairs += [(rng.choice(xs), rng.choice(xs)) for _ in range(300)]
        for x, y in pairs:
            fx, fy = Fraction(x), Fraction(y)
            self._assert_normal(field.add(x, y), fx + fy)
            self._assert_normal(field.sub(x, y), fx - fy)
            self._assert_normal(field.mul(x, y), fx * fy)
        for x in xs:
            if x:
                self._assert_normal(field.inv(x), 1 / Fraction(x))
            else:
                with pytest.raises(ZeroDivisionError):
                    field.inv(x)

    @pytest.mark.parametrize("bad", [True, False, 0.5, 2.0], ids=repr)
    def test_rejects_bool_and_float(self, bad):
        one = Fraction(1)
        for method in (Q5.add, Q5.sub, Q5.mul):
            with pytest.raises(ValueError):
                method(bad, one)
            with pytest.raises(ValueError):
                method(one, bad)
        with pytest.raises(ValueError):
            Q5.inv(bad)


def _plain_digits(n, p, count):
    """Little-endian base-p digits of n mod p^count, one divmod at a time."""
    out = []
    for _ in range(count):
        n, r = divmod(n, p)
        out.append(r)
    return tuple(out)


# -- a + b*r arithmetic from the plain formulas, with r*r = 1 + p: the
# referee for Q(r)'s integer kernels, independent of them


def _quad_add(x, y):
    assert x.p == y.p, "mixed quadratic extensions"
    return QuadElement(x.p, x.a + y.a, x.b + y.b)


def _quad_neg(x):
    return QuadElement(x.p, -x.a, -x.b)


def _quad_sub(x, y):
    return _quad_add(x, _quad_neg(y))


def _quad_mul(x, y):
    assert x.p == y.p, "mixed quadratic extensions"
    d = 1 + x.p
    return QuadElement(x.p, x.a * y.a + d * x.b * y.b, x.a * y.b + x.b * y.a)


def _quad_conj(x):
    return QuadElement(x.p, x.a, -x.b)


def _quad_norm(x):
    return x.a * x.a - (1 + x.p) * x.b * x.b


def _quad_is_zero(x):
    return x.a == 0 and x.b == 0


def _quad_inv(x):
    n = _quad_norm(x)
    if n == 0:
        raise ZeroDivisionError("inverse of zero")
    return QuadElement(x.p, x.a / n, -x.b / n)


def _quad_operands(rng, p):
    """Seeded Q(r) operands: plain ints and Fractions, zero components,
    and components drawn from the Q_p operands (p-power denominators,
    numerators or denominators past 2^200)."""
    parts = _rational_operands(rng, p)
    out = [0, 7, Fraction(-3, p), QuadElement(p, 0, 0), QuadElement(p, 0, 1),
           QuadElement(p, Fraction(1, p ** 3), 0)]
    out += [QuadElement(p, rng.choice(parts), rng.choice(parts)) for _ in range(40)]
    return out


class TestQuadraticKernel:
    """Q(r)'s own add, sub, neg, mul, inv and is_zero against the plain
    a + b*r formulas."""

    @staticmethod
    def _assert_normal(got, want):
        assert type(got) is QuadElement and got.p == want.p
        for g, w in ((got.a, want.a), (got.b, want.b)):
            assert type(g) is Fraction
            assert (g.numerator, g.denominator) == (w.numerator, w.denominator)
            assert gcd(g.numerator, g.denominator) == 1
            assert g.denominator > 0

    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_matches_quad_element_operators(self, p):
        field = QuadraticExtension(p)
        rng = random.Random(71 + p)
        xs = _quad_operands(rng, p)
        pairs = [(x, y) for x in xs[:12] for y in xs[:12]]
        pairs += list(zip(xs, reversed(xs)))
        pairs += [(rng.choice(xs), rng.choice(xs)) for _ in range(200)]
        for x, y in pairs:
            qx, qy = field.check(x), field.check(y)
            self._assert_normal(field.add(x, y), _quad_add(qx, qy))
            self._assert_normal(field.sub(x, y), _quad_sub(qx, qy))
            self._assert_normal(field.mul(x, y), _quad_mul(qx, qy))
        for x in xs:
            qx = field.check(x)
            self._assert_normal(field.neg(x), _quad_neg(qx))
            assert field.is_zero(x) == _quad_is_zero(qx)
            if _quad_is_zero(qx):
                with pytest.raises(ZeroDivisionError):
                    field.inv(x)
            else:
                self._assert_normal(field.inv(x), _quad_inv(qx))

    @pytest.mark.parametrize("bad", [True, False, 0.5, 2.0, QuadElement(7, 1, 0)], ids=repr)
    def test_rejects_bool_float_and_foreign_p(self, bad):
        one = E5.one()
        for method in (E5.add, E5.sub, E5.mul):
            with pytest.raises(ValueError):
                method(bad, one)
            with pytest.raises(ValueError):
                method(one, bad)
        for method in (E5.neg, E5.inv, E5.is_zero):
            with pytest.raises(ValueError):
                method(bad)


class TestDigitsOf:
    """The split ``_digits_of`` against a plain divmod loop."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_divmod_loop(self, p):
        rng = random.Random(80 + p)
        cut = basefields._DIGITS_CUTOFF
        for count in (1, cut - 1, cut, cut + 1, 1000, 10_000):
            m = p ** count
            for n in (0, m - 1, rng.randrange(m), rng.randrange(m * p ** 7)):
                got = _digits_of(n, p, count)
                assert got == _plain_digits(n, p, count), (p, count)
                total = 0
                for d in reversed(got):
                    total = total * p + d
                assert total == n % m, (p, count)


class TestWindowReferees:
    """``expand`` and ``from_approximation`` against the Fraction formulas,
    for shifts -12..12."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_rational_expand(self, p):
        field = PadicRationals(p)
        rng = random.Random(90 + p)

        def unit_int():
            while True:
                k = rng.randint(1, 10 ** 9)
                if k % p:
                    return k

        for shift in range(-12, 13):
            for n in (1, 7, 40):
                x = Fraction(rng.choice((-1, 1)) * unit_int(), unit_int()) * Fraction(p) ** shift
                u = x / Fraction(p) ** shift
                m = p ** n
                val = u.numerator * pow(u.denominator, -1, m) % m
                assert field.expand(x, n) == Approximation(shift, _plain_digits(val, p, n), p)

    @pytest.mark.parametrize(
        "kind, p", [("rational", p) for p in (2, 3, 5, 7)] + [("quadratic", 5), ("quadratic", 7)]
    )
    def test_from_approximation(self, kind, p):
        # the referees _resum and _direct_quadratic are defined with the
        # field-constant tests below
        field = make_field(kind, p)
        direct = _resum if kind == "rational" else _direct_quadratic
        rng = random.Random(100 + p)
        for shift in range(-12, 13):
            for length in (0, 1, 5, 30):
                digits = tuple(rng.randrange(p) for _ in range(length))
                want = direct(p, shift, digits)
                assert field.from_approximation(Approximation(shift, digits, p)) == want


_WINDOW_FIELDS = [Q2, Q5, RationalFunctions(3), F5T, E5, QuadraticExtension(7)]


class TestTrustedWindow:
    """``expand`` builds its window without re-checking the digits; the
    window must equal, and hash like, the publicly constructed one."""

    @pytest.mark.parametrize("field", _WINDOW_FIELDS, ids=lambda f: f"{f.kind}-{f.p}")
    def test_expand_matches_public_constructor(self, field):
        rng = random.Random(field.p)
        xs = [field.zero(), field.one()] + [field.random_nonzero(rng) for _ in range(30)]
        for x in xs:
            for n in (1, 5, 17):
                got = field.expand(x, n)
                public = Approximation(got.shift, got.digits, got.p)
                assert got == public and hash(got) == hash(public)
                assert type(got.shift) is int and type(got.digits) is tuple
                assert len(got.digits) == n
                assert all(type(d) is int and 0 <= d < field.p for d in got.digits)

    def test_public_constructor_rejects_out_of_range_digits(self):
        for digits in ((5,), (-1,), (0, 7)):
            with pytest.raises(ValueError, match="0..p-1"):
                Approximation(0, digits, 5)


class TestValuation:
    def test_examples(self):
        assert Q5.valuation(50) == 2
        assert Q5.valuation(0) is INF
        assert Q5.valuation(Fraction(3, 10)) == -1

    def test_padic_valuation_takes_fraction_or_int(self):
        assert padic_valuation(8, 2) == 3
        assert padic_valuation(Fraction(3, 4), 2) == -2
        assert padic_valuation(0, 2) is INF
        # a float is not read by its binary fraction, nor a bool as 0 or 1
        for bad in (0.1, 2.0, True, False, "1/2"):
            with pytest.raises(ValueError):
                padic_valuation(bad, 2)

    def test_function_field(self):
        t = F5T.element([0, 1])
        assert F5T.valuation(t) == 1
        assert F5T.valuation(F5T.zero()) is INF
        x = F5T.mul(F5T.element([0, 0, 3]), F5T.inv(F5T.element([0, 1])))  # 3t^2 / t
        assert F5T.valuation(x) == 1
        assert F5T.valuation(F5T.inv(F5T.element([0, 0, 1]))) == -2

    def test_quadratic(self):
        # 2 + 3r with r = 1 mod 5: image is 2 + 3*16 = 50 mod 125
        x = QuadElement(5, 2, 3)
        assert E5.valuation(x) == 2
        assert E5.valuation(E5.generator()) == 0
        assert E5.valuation(E5.zero()) is INF


@st.composite
def rationals(draw, height=200):
    n = draw(st.integers(-height, height))
    d = draw(st.integers(1, height))
    return Fraction(n, d)


@given(rationals(), rationals())
def test_valuation_multiplicative(x, y):
    for F in (Q2, Q5):
        got = F.valuation(F.mul(x, y))
        vx, vy = F.valuation(x), F.valuation(y)
        if vx is INF or vy is INF:
            assert got is INF
        else:
            assert got == vx + vy


@given(rationals(), rationals())
def test_valuation_ultrametric(x, y):
    for F in (Q2, Q5):
        vx, vy = F.valuation(x), F.valuation(y)
        vs = F.valuation(F.add(x, y))
        assert vs >= min(vx, vy)
        if vx != vy:
            assert vs == min(vx, vy)


@settings(max_examples=40)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_val_axioms_function_field(a, b, c, d):
    x = F5T.element([a, b, 1])
    y = F5T.element([c, d])
    vs = F5T.valuation(F5T.add(x, y))
    assert vs >= min(F5T.valuation(x), F5T.valuation(y))
    assert F5T.valuation(F5T.mul(x, y)) == F5T.valuation(x) + F5T.valuation(y)


class TestIntValuation:
    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(23)
        for p in (2, 3, 5, 7, 13, 101):
            for _ in range(300):
                k = rng.choice((0, 0, 1, 2, rng.randint(3, 70)))
                n = rng.choice((-1, 1)) * rng.randint(1, 10**6) * p**k
                assert int_valuation(n, p) == sympy.multiplicity(p, n), (n, p)

    @pytest.mark.parametrize("p,v,unit", [(2, 100000, 3), (5, 20000, 7)])
    def test_large_powers(self, p, v, unit):
        n = p**v * unit
        start = time.perf_counter()
        assert int_valuation(n, p) == v
        assert int_valuation(-n, p) == v
        assert time.perf_counter() - start < 0.1

    def test_zero(self):
        with pytest.raises(ValueError):
            int_valuation(0, 5)


def _divided_valuation(q, p):
    """v_p of a rational by repeated division by p, one factor at a time."""
    q = Fraction(q)
    if not q:
        return INF
    v = 0
    while q.numerator % p == 0:
        q, v = q / p, v + 1
    while q.denominator % p == 0:
        q, v = q * p, v - 1
    return v


class TestRationalValuationKernels:
    """padic_valuation and Q_p's sub_valuation, which value a denominator
    only when p divides it, against Fraction subtraction and repeated
    division by p."""

    @staticmethod
    def _operands(rng, p):
        # ints and Fractions whose denominators p divides or not, with
        # numerators up to p^40, of either sign; each shifted by p^40 too,
        # so differences cancel deep
        def unit():
            return rng.choice([n for n in range(1, 200) if n % p])

        out = []
        for k in (0, 1, 3, 40):
            num = rng.choice((-1, 1)) * unit() * p ** k
            out += [num, Fraction(num, unit()), Fraction(num, unit() * p ** rng.randint(1, 40))]
        out += [Fraction(-unit(), p ** 2), 0, Fraction(0)]
        return out + [x + Fraction(p ** 40, unit() * p ** rng.randint(0, 2)) for x in out]

    @pytest.mark.parametrize("p", [2, 3, 5, 13])
    def test_match_repeated_division(self, p):
        field = PadicRationals(p)
        xs = self._operands(random.Random(f"kernels:{p}"), p)
        dens = Counter()
        for x in xs:
            assert padic_valuation(x, p) == _divided_valuation(x, p), x
            for y in xs:
                assert field.sub_valuation(x, y) == _divided_valuation(Fraction(x) - Fraction(y), p), (x, y)
                dens[(Fraction(x).denominator % p == 0) + (Fraction(y).denominator % p == 0)] += 1
        # p divides no denominator, one or both, and equal operands give INF
        assert min(dens[0], dens[1], dens[2]) > 50
        assert field.sub_valuation(xs[1], xs[1]) is INF
        assert field.sub_valuation(7, Fraction(7)) is INF


def _shifted_elements(field, rng, count):
    """Seeded elements with p-power denominators and shifts by p^(+-k)."""
    p = field.p
    out = []
    for _ in range(count):
        x = field.random_element(rng, 40)
        x = field.mul(x, field.uniformizer_pow(rng.randint(-4, 4)))
        if isinstance(field, QuadraticExtension):
            a = x.a / p ** rng.randint(0, 3)
            b = x.b * Fraction(p) ** rng.randint(-3, 3)
            x = QuadElement(p, a, b)
        out.append(x)
    return out


def _assert_sub_valuation(field, a, b):
    """sub_valuation against v(field.sub(a, b)) and, for Q_p, against
    Python's own Fraction subtraction, which shares no code with the
    field's sub."""
    got = field.sub_valuation(a, b)
    assert got == field.valuation(field.sub(a, b))
    if isinstance(field, PadicRationals):
        assert got == padic_valuation(a - b, field.p)


class TestKernels:
    """The integer kernels against plain field arithmetic."""

    @pytest.mark.parametrize(
        "field",
        [Q5, Q2, F5T, RationalFunctions(2), E5, QuadraticExtension(13)],
        ids=lambda f: f"{f.kind}-{f.p}",
    )
    def test_sub_valuation_matches_difference(self, field):
        rng = random.Random(29)
        xs = _shifted_elements(field, rng, 60)
        ys = _shifted_elements(field, rng, 60)
        for x, y in zip(xs, ys):
            # near - x = y * p^k: a difference k digits deeper than y
            near = field.add(x, field.mul(y, field.uniformizer_pow(rng.randint(0, 6))))
            for a, b in ((x, y), (x, near), (y, x), (x, field.zero()), (field.zero(), y)):
                _assert_sub_valuation(field, a, b)
            assert field.sub_valuation(x, x) is INF
            assert field.sub_valuation(field.zero(), field.zero()) is INF

    @pytest.mark.parametrize(
        "field",
        [Q5, Q2, F5T, RationalFunctions(2), RationalFunctions(7), E5, QuadraticExtension(13)],
        ids=lambda f: f"{f.kind}-{f.p}",
    )
    def test_sub_valuation_equal_operands_and_power_denominators(self, field):
        rng = random.Random(43)
        xs = _shifted_elements(field, rng, 40)
        ys = _shifted_elements(field, rng, 40)
        for x, y in zip(xs, ys):
            # equal values held by distinct objects
            twin = field.element(field.to_json(x))
            assert twin is not x
            assert field.sub_valuation(x, twin) is INF
            assert field.sub_valuation(twin, x) is INF
            # t-power or p-power denominators on both sides, and a
            # difference whose low-order terms cancel
            for k in range(1, 4):
                a = field.mul(x, field.uniformizer_pow(-k))
                b = field.mul(y, field.uniformizer_pow(-rng.randint(1, 4)))
                near = field.add(a, field.mul(b, field.uniformizer_pow(rng.randint(1, 8))))
                for u, w in ((a, b), (b, a), (a, near), (near, a), (b, near)):
                    _assert_sub_valuation(field, u, w)

    @pytest.mark.parametrize("p", [5, 13])
    def test_window_core_accepts_unreduced_fractions(self, p):
        # sub_valuation feeds the core cross differences that share factors
        # of p with their denominators; the window must not depend on that
        field = QuadraticExtension(p)
        rng = random.Random(59 + p)
        for x in [field.zero()] + _shifted_elements(field, rng, 30):
            a, b = x.a, x.b
            want = field._window_ints(*field._parts(x), 6)
            for k in range(4):
                c, e = p ** k * rng.randint(1, 9), p ** rng.randint(0, 3) * rng.randint(1, 9)
                got = field._window_ints(
                    a.numerator * c, a.denominator * c, b.numerator * e, b.denominator * e, 6
                )
                assert got == want

    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_representative_matches_digit_resum(self, p):
        field = QuadraticExtension(p)
        rng = random.Random(31 + p)
        xs = [field.generator(), field.one(), field.zero()] + _shifted_elements(field, rng, 12)
        for x in xs:
            for level in range(41):
                want = _digit_resum_representative(field, x, level)
                assert field.representative(x, level) == want

    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_generator_matches_hensel(self, p):
        field = QuadraticExtension(p)
        assert field.expand(field.generator(), 40) == hensel_sqrt(p, 1 + p, 1, 40)


def _digit_resum_representative(field, x, level):
    """Reference for representative: resum the digits of expand(x, level + 1)
    one Fraction term at a time."""
    if field.is_zero(x):
        return Fraction(0)
    appr = field.expand(x, level + 1)
    total = Fraction(0)
    for i, d in enumerate(appr.digits):
        if d:
            total += d * Fraction(field.p) ** (appr.shift + i)
    return total


class TestExpand:
    def test_minus_one(self):
        assert Q5.expand(-1, 4) == Approximation(0, (4, 4, 4, 4), 5)

    def test_one_third(self):
        # inverse of 3 mod 625 is 417 = 2 + 3*5 + 1*25 + 3*125
        assert Q5.expand(Fraction(1, 3), 4) == Approximation(0, (2, 3, 1, 3), 5)

    def test_one(self):
        assert Q5.expand(1, 6) == Approximation(0, (1, 0, 0, 0, 0, 0), 5)

    def test_zero(self):
        assert Q5.expand(0, 3) == Approximation(0, (0, 0, 0), 5)

    def test_shifted(self):
        got = Q5.expand(Fraction(3, 10), 3)
        assert got.shift == -1
        # 3/10 = 5^-1 * 3/2; 3/2 mod 125 = 64 = 4 + 2*5 + 2*25
        assert got.digits == (4, 2, 2)

    def test_geometric_series(self):
        # 1/(1-t) = 1 + t + t^2 + ...
        one = F5T.one()
        x = F5T.inv(F5T.element([1, -1]))
        assert F5T.expand(x, 5) == Approximation(0, (1, 1, 1, 1, 1), 5)

    def test_laurent_shift(self):
        x = F5T.mul(F5T.element([2]), F5T.inv(F5T.element([0, 0, 1])))  # 2/t^2
        assert F5T.expand(x, 3) == Approximation(-2, (2, 0, 0), 5)

    def test_quadratic_expand(self):
        got = E5.expand(QuadElement(5, 2, 3), 5)
        assert got.shift == 2
        assert got.digits[0] == 2

    def test_roundtrip_window(self):
        rng = random.Random(11)
        for F in (Q2, Q5):
            for _ in range(200):
                x = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
                appr = F.expand(x, 8)
                back = F.from_approximation(appr)
                if x == back:
                    continue
                assert F.valuation(x - back) > appr.shift + 7

    def test_roundtrip_function_field(self):
        rng = random.Random(12)
        for _ in range(100):
            x = F5T.random_nonzero(rng)
            appr = F5T.expand(x, 8)
            back = F5T.from_approximation(appr)
            diff = F5T.sub(x, back)
            if F5T.is_zero(diff):
                continue
            assert F5T.valuation(diff) > appr.shift + 7

    def test_precision_validation(self):
        with pytest.raises(ValueError):
            Q5.expand(1, 0)


def hensel_sqrt(p, c, seed, n):
    """Digits of the square root of a p-adic unit square, lifted mod p^n:
    the referee for ``QuadraticExtension.root_mod``, through the expansion
    of the generator.

    The seed must be a simple root of X^2 = c modulo p; the returned
    window is the unique lift congruent to the seed, verified by squaring.
    """
    if p == 2:
        raise ValueError("lifting a square root needs an odd prime")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("precision must be >= 1")
    c = Fraction(c)
    if padic_valuation(c, p) != 0:
        raise ValueError("c must be a p-adic unit")
    modulus = p ** n
    cmod = c.numerator * pow(c.denominator, -1, modulus) % modulus
    seed = seed % p
    if (seed * seed - cmod) % p != 0:
        raise ValueError(f"{seed} is not a square root of c modulo {p}")
    if (2 * seed) % p == 0:
        raise ValueError("the seed is not a simple root")
    x, have = seed, 1
    while have < n:
        have = min(2 * have, n)
        m = p ** have
        x = (x + cmod * pow(x, -1, m)) * pow(2, -1, m) % m
    if (x * x - cmod) % modulus != 0:
        raise AssertionError("lift failed to verify")
    return Approximation(0, _plain_digits(x, p, n), p)


class TestHensel:
    def test_root_of_six_seed_one(self):
        assert hensel_sqrt(5, 6, 1, 3) == Approximation(0, (1, 3, 0), 5)

    def test_exact_root(self):
        assert hensel_sqrt(5, 1, 1, 5) == Approximation(0, (1, 0, 0, 0, 0), 5)

    def test_root_of_six_seed_four(self):
        assert hensel_sqrt(5, 6, 4, 2) == Approximation(0, (4, 1), 5)

    def test_square_matches(self):
        rng = random.Random(3)
        for p in (5, 13, 101):
            for _ in range(20):
                s = rng.randint(1, p - 1)
                c = s * s % p + p * rng.randint(0, 50)
                if c % p == 0:
                    continue
                n = rng.randint(1, 30)
                appr = hensel_sqrt(p, c, s, n)
                root = sum(d * p ** i for i, d in enumerate(appr.digits))
                assert (root * root - c) % p ** n == 0
                assert root % p == s

    def test_bad_seed(self):
        with pytest.raises(ValueError):
            hensel_sqrt(5, 6, 2, 3)

    def test_p_two_rejected(self):
        with pytest.raises(ValueError):
            hensel_sqrt(2, 1, 1, 3)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            hensel_sqrt(5, 25, 1, 3)

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(32)
        for p in (3, 5, 7, 13, 101):
            for _ in range(20):
                s = rng.randint(1, p - 1)
                d = rng.choice([k for k in range(1, 30) if k % p])
                c = Fraction(s * s * d % p + p * rng.randint(0, 50), d)  # c = s^2 mod p
                n = rng.randint(1, 20)
                m = p ** n
                appr = hensel_sqrt(p, c, s, n)
                root = sum(digit * p ** i for i, digit in enumerate(appr.digits))
                cmod = c.numerator * pow(c.denominator, -1, m) % m
                roots = sympy.ntheory.sqrt_mod(cmod, m, all_roots=True)
                assert [root] == [r for r in roots if r % p == s], (p, c, s, n)


class TestQuadraticField:
    def test_bad_primes(self):
        with pytest.raises(ValueError):
            QuadraticExtension(2)
        with pytest.raises(ValueError):
            QuadraticExtension(3)
        with pytest.raises(ValueError):
            QuadraticExtension(9)

    def test_root_squares_to_target(self):
        for p in (5, 13):
            E = QuadraticExtension(p)
            for k in (1, 4, 17, 40):
                r = E.root_mod(k)
                assert (r * r - (1 + p)) % p ** k == 0
                assert r % p == 1

    def test_norm_val_consistency(self):
        rng = random.Random(7)
        for _ in range(60):
            x = E5.random_nonzero(rng, height=40)
            lhs = E5.valuation(x) + E5.valuation(_quad_conj(x))
            assert lhs == Q5.valuation(_quad_norm(x))

    def test_representative_classes(self):
        x = QuadElement(5, 2, 3)
        for level in range(6):
            y = E5.representative(x, level)
            # the truncation must sit within the level's relative error
            full = E5.expand(x, level + 8)
            resummed = Q5.from_approximation(full)
            v = E5.valuation(x)
            assert Q5.valuation(resummed - y) > level + v


class TestPrimality:
    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        for n in range(20001):
            assert _is_prime(n) == sympy.isprime(n), n
        big = (10**18 + 1, 10**18 + 3, 10**18 + 9, 2**61 - 1, 2**62 + 1, _MR_BOUND - 2)
        for n in big:
            assert _is_prime(n) == sympy.isprime(n), n

    def test_bound_is_a_usage_error(self):
        # the bound is composite yet a strong pseudoprime to all 13 bases
        with pytest.raises(ValueError):
            _is_prime(_MR_BOUND)


def _trimmed(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _reduce(cs, p):
    return _trimmed(int(c) % p for c in cs)


def _conv(a, b, p):
    """Schoolbook product of coefficient sequences, reduced mod p and
    trimmed; kept apart from _poly_mul."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return _reduce(out, p)


def _combine(a, b, p, sign=1):
    """a + sign * b coefficientwise, reduced mod p and trimmed; kept apart
    from _poly_add."""
    width = max(len(a), len(b))
    a, b = list(a) + [0] * (width - len(a)), list(b) + [0] * (width - len(b))
    return _reduce([x + sign * y for x, y in zip(a, b)], p)


class TestPolyAlgebra:
    """Division over GF(p)[t] as RatFunc normalizes: ``_poly_div`` gives
    the remainder, or with ``quotient`` the quotient."""

    def test_divmod(self):
        a = (1, 0, 1)  # 1 + t^2
        b = (1, 1)     # 1 + t
        r = _poly_div(a, b, 5)
        q = _poly_div(a, b, 5, quotient=True)
        assert q == _poly_div(_combine(a, r, 5, -1), b, 5, quotient=True)
        assert (q, r) == ((4, 1), (2,))  # 1 + t^2 = (t - 1)(t + 1) + 2
        assert _combine(_conv(q, b, 5), r, 5) == a

    def test_gcd_monic(self):
        # 2t(1+t) / 3t: the common factor t cancels, 1/3 = 2 mod 5
        x = RatFunc(5, (0, 2, 2), (0, 3))
        assert (x.p, x.num, x.den) == (5, (4, 4), (1,))
        # 2(1+t)(2+t) / 3(1+t)(3+t) = (3 + 4t) / (3 + t), a non-monic gcd
        one_t = (1, 1)
        y = RatFunc(
            5,
            _conv(_conv(one_t, (2, 1), 5), (2,), 5),
            _conv(_conv(one_t, (3, 1), 5), (3,), 5),
        )
        assert (y.num, y.den) == ((3, 4), (3, 1))

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.symbols("t")
        rng = random.Random(31)

        for p in (2, 3, 5, 7):

            def to_sympy(f):
                return sympy.Poly(list(reversed(f)) or [0], t, modulus=p)

            def from_sympy(g):
                # sympy prints symmetric residues; _reduce takes them mod p
                return _reduce(reversed(g.all_coeffs()), p)

            for _ in range(40):
                a, b = _draw_poly(rng, p, 0, 8), _draw_poly(rng, p, 1, 6)
                if not b:
                    continue
                sq, sr = divmod(to_sympy(a), to_sympy(b))
                q, r = from_sympy(sq), from_sympy(sr)
                assert _poly_div(a, b, p) == r, (a, b)
                assert _poly_div(a, b, p, quotient=True) == q, (a, b)
                assert _poly_div(_conv(q, b, p), b, p, quotient=True) == q, (a, b)

    def test_ratfunc_reduction(self):
        x = RatFunc(5, (0, 2, 2), (0, 4))
        assert x == RatFunc(5, (3, 3))  # (2t+2t^2)/4t = (2+2t)/4 = 3+3t

    def test_zero_den(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(5, (1,), (0, 5))


def _draw_poly(rng, p, lo, hi):
    return _reduce([rng.randrange(p) for _ in range(rng.randint(lo, hi))], p)


def _draw_ratfunc_parts(rng, p):
    """A numerator and a nonzero denominator sharing a factor, often a
    power of t, so that normalization has something to cancel."""
    common = _draw_poly(rng, p, 1, 3)
    if not common:
        common = (0,) * rng.randint(1, 3) + (1,)
    den = _draw_poly(rng, p, 1, 4)
    if not den:
        den = (0,) * rng.randint(0, 2) + (1,)
    return _conv(_draw_poly(rng, p, 0, 5), common, p), _conv(den, common, p)


def _euclid_gcd(a, b, p):
    """Monic gcd of two GF(p)[t] coefficient lists by schoolbook Euclid, a
    referee that shares no code with RatFunc's normalization."""

    def trim(cs):
        while cs and cs[-1] == 0:
            cs.pop()
        return cs

    a, b = trim([c % p for c in a]), trim([c % p for c in b])
    while b:
        inv_lead = pow(b[-1], -1, p)
        while len(a) >= len(b):
            f, k = a[-1] * inv_lead % p, len(a) - len(b)
            for j, c in enumerate(b):
                a[k + j] = (a[k + j] - f * c) % p
            trim(a)
        a, b = b, a
    inv_lead = pow(a[-1], -1, p)
    return [c * inv_lead % p for c in a]


class TestMonomialCancel:
    """Against a monomial c*t^k, ``_cancel`` divides out t^min(k, order of
    the other) with no division; Euclid is the referee."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_euclid(self, monkeypatch, p):
        divisions = []
        real = basefields._poly_div

        def counting(*args, **kwargs):
            divisions.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(basefields, "_poly_div", counting)
        rng = random.Random(71 + p)
        shifted = 0
        for _ in range(120):
            other = _draw_poly(rng, p, 2, 7) or (0, 1)
            if rng.random() < 0.5:
                other = (0,) * rng.randint(1, 3) + other
            mono = (0,) * rng.randint(0, 5) + (rng.randrange(1, p),)
            for a, b in ((mono, other), (other, mono)):
                ca, cb = basefields._cancel(a, b, p)
                # the same ratio, in lowest terms, with Euclid's gcd divided out
                assert _conv(ca, b, p) == _conv(cb, a, p), (a, b)
                assert _euclid_gcd(ca, cb, p) == [1], (a, b)
                g = _euclid_gcd(a, b, p)
                assert len(ca) == len(a) - len(g) + 1, (a, b)
                shifted += len(g) > 1
        assert divisions == [] and shifted > 50

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_random_element_normal_form(self, p):
        # the trusted construction equals the general constructor on the
        # same draws
        field = RationalFunctions(p)
        for seed in range(40):
            x = field.random_element(random.Random(seed))
            draw = random.Random(seed)
            num = [draw.randrange(p) for _ in range(4)]
            while not any(den := [draw.randrange(p) for _ in range(4)]):
                pass
            want = RatFunc(p, num, den)
            assert (x.num, x.den) == (want.num, want.den)


class TestRatFunc:
    """The coefficient-tuple normalization against independent routes."""

    def test_normal_form(self):
        rng = random.Random(47)
        for p in (2, 3, 5, 7):
            for _ in range(60):
                num, den = _draw_ratfunc_parts(rng, p)
                x = RatFunc(p, num, den)
                assert x.p == p and x.den[-1] == 1
                assert _euclid_gcd(x.num, x.den, p) == [1]
                # the same element: x.num / x.den == num / den
                assert _conv(x.num, den, p) == _conv(num, x.den, p)
                if not num:
                    assert x.den == (1,)

    def test_arith_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.symbols("t")
        rng = random.Random(53)

        for p in (2, 3, 5, 7):
            field = RationalFunctions(p)

            def to_sympy(f):
                return sympy.Poly(list(reversed(f)) or [0], t, modulus=p)

            for _ in range(30):
                (an, ad), (bn, bd) = _draw_ratfunc_parts(rng, p), _draw_ratfunc_parts(rng, p)
                x, y = RatFunc(p, an, ad), RatFunc(p, bn, bd)
                san, sad, sbn, sbd = map(to_sympy, (an, ad, bn, bd))
                # each result r = rn / rd must satisfy rn * want_den == rd * want_num,
                # the operation written on the drawn, unreduced operands
                cases = [
                    (field.add(x, y), san * sbd + sbn * sad, sad * sbd),
                    (field.sub(x, y), san * sbd - sbn * sad, sad * sbd),
                    (field.mul(x, y), san * sbn, sad * sbd),
                    (field.neg(x), -san, sad),
                ]
                if an:
                    cases.append((field.inv(x), sad, san))
                for r, want_num, want_den in cases:
                    assert to_sympy(r.num) * want_den == to_sympy(r.den) * want_num, (x, y)
                    assert r.p == p and r.den[-1] == 1
                    assert to_sympy(r.num).gcd(to_sympy(r.den)).degree() <= 0


class TestHenrici:
    """F_p(t) sums and products against the general constructor fed a
    test-side cross-multiplication, and against sympy's cancellation."""

    @staticmethod
    def _operands(rng, p):
        # reduced pairs whose denominators do and do not share a factor,
        # and polynomials (constant denominators)
        common = (rng.randrange(p), 1)
        mode = rng.choice(["polynomial", "shared", "drawn"])
        parts = []
        for k in range(2):
            num, den = _draw_ratfunc_parts(rng, p)
            if mode == "polynomial" and k == 0:
                den = (1,)
            elif mode == "shared":
                den = _conv(den, common, p)
            parts.append(RatFunc(p, num, den))
        return parts

    def test_matches_general_constructor_and_sympy(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.symbols("t")
        rng = random.Random(61)
        shared = 0
        for p in (2, 3, 5, 7):
            field = RationalFunctions(p)

            def to_sympy(f):
                return sympy.Poly(list(reversed(f)) or [0], t, modulus=p)

            def cancel(num, den):
                # sympy's lowest terms, scaled to a monic denominator
                g = num.gcd(den)
                num, den = num.exquo(g), den.exquo(g)
                lead = den.LC()
                num, den = num.exquo_ground(lead), den.exquo_ground(lead)
                return _reduce(reversed(num.all_coeffs()), p), _reduce(reversed(den.all_coeffs()), p)

            for _ in range(60):
                x, y = self._operands(rng, p)
                a, b, c, d = x.num, x.den, y.num, y.den
                shared += _euclid_gcd(b, d, p) != [1]
                cross_add = (_combine(_conv(a, d, p), _conv(c, b, p), p), _conv(b, d, p))
                cross_mul = (_conv(a, c, p), _conv(b, d, p))
                for got, (num, den) in ((field.add(x, y), cross_add), (field.mul(x, y), cross_mul)):
                    assert got == RatFunc(p, num, den), (x, y)
                    want = cancel(to_sympy(num), to_sympy(den)) if num else (num, (1,))
                    assert (got.num, got.den) == want, (x, y)
        assert shared > 20

    def test_polynomial_sum_runs_no_division(self, monkeypatch):
        calls = []
        real = basefields._poly_div

        def counting(a, b, p, quotient=False):
            calls.append((a, b))
            return real(a, b, p, quotient)

        x = RatFunc(5, (1, 2, 0, 3), (2, 1, 1))
        y = F5T.element([4, 0, 1, 1])
        monkeypatch.setattr(basefields, "_poly_div", counting)
        total = (F5T.add(x, y), F5T.add(y, x), F5T.sub(x, y))
        assert calls == []
        monkeypatch.undo()
        cross = _conv(y.num, x.den, 5)
        assert total[0] == total[1] == RatFunc(5, _combine(x.num, cross, 5), x.den)
        assert total[2] == RatFunc(5, _combine(x.num, cross, 5, -1), x.den)


class TestQuadraticValueShortCut:
    """valuation and sub_valuation read min(v(a), v(b)) when the component
    values differ; the norm window is the referee."""

    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_matches_window(self, p):
        field = QuadraticExtension(p)
        rng = random.Random(67 + p)

        def component(k):
            # a unit times p^k; a negative k gives a p-divisible denominator
            u = Fraction(rng.choice([1, -1]) * rng.randint(1, 40), rng.randint(1, 40))
            while padic_valuation(u, p):
                u = Fraction(rng.randint(1, 40), rng.randint(1, 40))
            return u * Fraction(p) ** k if k is not None else Fraction(0)

        kinds = {"equal": 0, "unequal": 0}
        for _ in range(200):
            i, j = rng.choice([None, -2, -1, 0, 1, 2]), rng.choice([None, -2, -1, 0, 1, 2])
            if rng.random() < 0.4:
                j = i  # equal values, where cancellation can hide the leading digit
            kinds["equal" if i == j else "unequal"] += 1
            x = QuadElement(p, component(i), component(j))
            assert field.valuation(x) == field._window_ints(*field._parts(x), 1)[0], x
            y = QuadElement(p, x.a + component(rng.randint(-2, 3)), x.b + component(rng.randint(-2, 3)))
            assert field.sub_valuation(x, y) == field._window_ints(*field._parts(_quad_sub(x, y)), 1)[0], (x, y)
        assert min(kinds.values()) > 50

    def test_window_skipped_on_unequal_values(self, monkeypatch):
        field = QuadraticExtension(5)
        x = QuadElement(5, Fraction(3, 25), Fraction(2))
        monkeypatch.setattr(field, "_window_ints", None)
        assert field.valuation(x) == -2
        assert field.sub_valuation(x, QuadElement(5, Fraction(3, 25), Fraction(7))) == 1


class TestQuadraticWindowBranches:
    """The quadratic digit window returns at once when the unit part
    (a + b s) / p^min(v(a), v(b)) is a p-adic unit, and widens its search by
    the norm when p divides it (a near -b s).  Both branches are checked
    against a + b s_K in Q_p, with s_K the Hensel lift of the square root of
    1 + p to K digits: ``expand`` against ``_direct_quadratic`` of its own
    digits, ``representative`` against the digit resum."""

    K = 80

    @pytest.mark.parametrize("p", [5, 7, 13])
    def test_both_branches_match_the_lifted_root(self, p):
        field = QuadraticExtension(p)
        rng = random.Random(83 + p)
        root = int(_resum(p, 0, hensel_sqrt(p, 1 + p, 1, self.K).digits))

        def unit():
            while True:
                u = Fraction(rng.choice([1, -1]) * rng.randint(1, 40), rng.randint(1, 40))
                if not padic_valuation(u, p):
                    return u

        kinds = {"unit": 0, "divisible": 0}
        for _ in range(120):
            j = rng.randint(-2, 2)
            b = unit() * Fraction(p) ** j
            if rng.random() < 0.5:
                # a = -b s mod p^(j + k): the leading k digits cancel
                k = rng.randint(1, 8)
                a = -b * (root % p ** k) + rng.choice([0, unit()]) * Fraction(p) ** (j + k)
            else:
                a = rng.choice([0, unit()]) * Fraction(p) ** rng.randint(-2, 2)
                b = rng.choice([0, b])
            if not a and not b:
                continue
            x = QuadElement(p, a, b)
            image = a + b * root  # agrees with x's image past v(b) + K
            m = min(padic_valuation(c, p) for c in (a, b) if c)
            kinds["unit" if padic_valuation(image, p) == m else "divisible"] += 1
            for n in (1, 4, 12):
                appr = field.expand(x, n)
                assert appr.digits[0] and all(0 <= d < p for d in appr.digits), (x, n)
                assert appr.shift + n <= (padic_valuation(b, p) + self.K if b else INF)
                resummed = _direct_quadratic(p, appr.shift, appr.digits)
                assert resummed.b == 0
                assert padic_valuation(image - resummed.a, p) >= appr.shift + n, (x, n)
            for level in (0, 5, 11):
                assert field.representative(x, level) == _digit_resum_representative(field, x, level)
        assert min(kinds.values()) > 40, kinds

    @pytest.mark.parametrize("p", [5, 7])
    def test_unreduced_components_match_the_lifted_root(self, p):
        # sub_valuation hands the window cross-multiplied components: p and
        # a common factor may sit in both numerator and denominator of each
        field = QuadraticExtension(p)
        rng = random.Random(191 + p)
        depth = 260  # the lift, past the deepest window: 200 digits after v
        root = int(_resum(p, 0, hensel_sqrt(p, 1 + p, 1, depth).digits))

        def unit():
            while True:
                u = Fraction(rng.choice([1, -1]) * rng.randint(1, 40), rng.randint(1, 40))
                if not padic_valuation(u, p):
                    return u

        def unreduced(c):
            k = rng.randint(1, 30) * p ** rng.randint(0, 3)
            return c.numerator * k, c.denominator * k

        near = 0
        for _ in range(80):
            j = rng.randint(-2, 2)
            b = rng.choice([0, unit(), unit()]) * Fraction(p) ** j
            if b and rng.random() < 0.6:
                # a = -b s mod p^(j + k): the leading k digits cancel
                k = rng.randint(1, 8)
                a = -b * (root % p ** k) + rng.choice([0, unit()]) * Fraction(p) ** (j + k)
                near += 1
            else:
                a = rng.choice([0, unit()]) * Fraction(p) ** rng.randint(-2, 2)
            image = a + b * root  # agrees with the image of a + b r past v(b) + depth
            for n in (1, 33, 200):
                v, u = field._window_ints(*unreduced(a), *unreduced(b), n)
                if not a and not b:
                    assert (v, u) == (INF, 0)
                    continue
                digits = _plain_digits(u, p, n)
                assert u < p ** n and digits[0], (a, b, n)
                assert v + n <= (padic_valuation(b, p) + depth if b else INF)
                resummed = _direct_quadratic(p, v, digits)
                assert padic_valuation(image - resummed.a, p) >= v + n, (a, b, n)
                assert field.expand(QuadElement(p, a, b), n) == Approximation(v, digits, p)
        assert near > 20


@pytest.mark.parametrize(
    "build",
    [
        lambda: QuadElement(5, 0.1, 0),
        lambda: QuadElement(5, 1, True),
        lambda: RatFunc(5, (1.7, 1)),
        lambda: RatFunc(5, (1,), (1, True)),
        lambda: Approximation(0, (1.9,), 5),
        lambda: Approximation(0, (False,), 5),
    ],
    ids=["quad-float", "quad-bool", "poly-float", "poly-bool", "digit-float", "digit-bool"],
)
def test_float_or_bool_component_rejected(build):
    # a float would be truncated and a bool read as a number
    with pytest.raises(ValueError, match="must be an integer"):
        build()


def test_index_types_still_accepted():
    sympy = pytest.importorskip("sympy")
    x = RatFunc(5, (sympy.Integer(7), 1), (sympy.Integer(3),))
    assert x == RatFunc(5, (4, 2)) and all(type(c) is int for c in x.num + x.den)
    assert QuadElement(5, sympy.Integer(3), 0) == QuadElement(5, Fraction(3), Fraction(0))
    assert Approximation(0, (sympy.Integer(4),), 5).digits == (4,)


class TestJson:
    def test_rational(self):
        assert Q5.to_json(Fraction(-7, 2)) == "-7/2"
        assert Q5.element("-7/2") == Fraction(-7, 2)
        assert Q5.element([3, 4]) == Fraction(3, 4)

    def test_function_field(self):
        x = F5T.element({"num": [0, 1], "den": [1, 1]})
        assert F5T.to_json(x) == {"num": [0, 1], "den": [1, 1]}

    @pytest.mark.parametrize(
        "obj,text",
        [
            ({"num": [0, 2, 0, 1], "den": [1, 1]}, "(2*t + t^3)/(1 + t)"),
            ([3, 0, 1], "3 + t^2"),
            ([], "0"),
            ({"num": [1], "den": [0, 0, 2]}, "(3)/(t^2)"),
            ([0, 1], "t"),
        ],
    )
    def test_function_field_repr(self, obj, text):
        assert repr(F5T.element(obj)) == str(F5T.element(obj)) == text

    def test_quadratic(self):
        x = E5.element({"a": "1/2", "b": "3"})
        assert x == QuadElement(5, Fraction(1, 2), Fraction(3))
        assert E5.to_json(x) == {"a": "1/2", "b": "3"}

    @pytest.mark.parametrize(
        "field,obj",
        [
            (Q5, "1e3"),
            (E5, "2E-1"),
            (E5, {"a": "1e2", "b": 0}),
            (E5, ["0", "-1e1"]),
        ],
        ids=["rational", "quadratic", "quadratic-a", "quadratic-b"],
    )
    def test_exponent_notation_rejected(self, field, obj):
        # every rational string goes through _exact_rational, which would
        # otherwise hand "1e20000000" to Fraction and expand every digit
        with pytest.raises(ValueError, match="exponent notation"):
            field.element(obj)

    def test_approximation(self):
        a = Approximation(-1, (4, 2, 2), 5)
        assert a.to_json() == {"shift": -1, "digits": [4, 2, 2], "p": 5}

    def test_make_field(self):
        assert make_field("rational", 5) == Q5
        assert make_field("function-field", 5) == F5T
        with pytest.raises(ValueError):
            make_field("rational", 6)


# referees for the field constants: each builds the element
# p^shift * sum(digits[i] * p^i) (t in place of p for F_p(t)) directly from
# Fraction, QuadElement or RatFunc(p, num, den)
def _resum(p, shift, digits):
    return sum((d * Fraction(p) ** (shift + i) for i, d in enumerate(digits)), Fraction(0))


def _direct_quadratic(p, shift, digits):
    return QuadElement(p, _resum(p, shift, digits), Fraction(0))


def _direct_laurent(p, shift, digits):
    num = (0,) * max(shift, 0) + tuple(digits)
    den = (0,) * max(-shift, 0) + (1,)
    return RatFunc(p, num, den)


_HELPER_FIELDS = (
    [(PadicRationals(p), _resum) for p in (2, 3, 5, 7)]
    + [(RationalFunctions(p), _direct_laurent) for p in (2, 3, 5)]
    + [(QuadraticExtension(p), _direct_quadratic) for p in (5, 7)]
)


class TestFieldHelpers:
    @pytest.mark.parametrize(
        "field, direct", _HELPER_FIELDS, ids=[f"{f.kind}-{f.p}" for f, _ in _HELPER_FIELDS]
    )
    def test_constants_match_direct_construction(self, field, direct):
        p = field.p
        assert field.zero() == direct(p, 0, ())
        assert field.one() == direct(p, 0, (1,))
        assert field.is_zero(field.zero()) and not field.is_zero(field.one())
        for i in range(10):
            assert field.unit_digit(i) == direct(p, 0, (1 + i % (p - 1),)), i
        for k in range(-4, 5):
            assert field.uniformizer_pow(k) == direct(p, k, (1,)), k
        rng = random.Random(p)
        for shift in range(-3, 4):
            for length in range(0, 6):
                digits = tuple(rng.randrange(p) for _ in range(length))
                if length and rng.random() < 0.3:
                    digits = (0,) + digits[1:]  # a leading zero digit
                appr = Approximation(shift, digits, p)
                assert field.from_approximation(appr) == direct(p, shift, digits), appr
            assert field.from_approximation(Approximation(shift, (0, 0), p)) == field.zero()
        for _ in range(20):
            x = field.random_nonzero(rng)
            assert field.mul(x, field.inv(x)) == field.one()

    def test_rational_constants_are_fractions(self):
        for x in (Q5.zero(), Q5.one(), Q5.unit_digit(3), Q5.uniformizer_pow(-2),
                  Q5.from_approximation(Approximation(-1, (1, 2), 5))):
            assert type(x) is Fraction


def _series_referee(num, den, p, n):
    """(shift, first n Laurent coefficients) of num / den at t = 0, from
    plain little-endian coefficient lists by power-series long division."""
    num = [c % p for c in num]
    den = [c % p for c in den]
    if not any(num):
        return 0, [0] * n
    on = next(i for i, c in enumerate(num) if c)
    od = next(i for i, c in enumerate(den) if c)
    rem = num[on:] + [0] * n
    den = den[od:]
    inv0 = pow(den[0], -1, p)
    out = []
    for k in range(n):
        q = rem[k] * inv0 % p
        out.append(q)
        for j, d in enumerate(den):
            if k + j < len(rem):
                rem[k + j] = (rem[k + j] - q * d) % p
    return on - od, out


class TestFunctionFieldTuples:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_expand_matches_series_division(self, p):
        field = RationalFunctions(p)
        rng = random.Random(100 + p)
        for _ in range(150):
            num = [0] * rng.randint(0, 4) + [rng.randrange(p) for _ in range(rng.randint(0, 5))]
            den = [0] * rng.randint(0, 4) + [rng.randrange(p) for _ in range(rng.randint(1, 5))]
            if not any(c % p for c in den):
                den.append(1)
            x = RatFunc(p, num, den)
            for n in range(1, 13):
                shift, coeffs = _series_referee(num, den, p, n)
                assert field.expand(x, n) == Approximation(shift, tuple(coeffs), p), (num, den, n)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_poly_sub_and_neg_match_coefficientwise(self, p):
        field = RationalFunctions(p)
        rng = random.Random(200 + p)
        for _ in range(300):
            a = [rng.randint(-2 * p, 2 * p) for _ in range(rng.randint(0, 6))]
            b = [rng.randint(-2 * p, 2 * p) for _ in range(rng.randint(0, 6))]
            if rng.random() < 0.2:
                b = list(a)  # a - a cancels to the zero polynomial
            width = max(len(a), len(b))
            pa, pb = a + [0] * (width - len(a)), b + [0] * (width - len(b))
            want = _trimmed((x - y) % p for x, y in zip(pa, pb))
            ra, rb = _trimmed(x % p for x in a), _trimmed(x % p for x in b)
            assert _poly_add(ra, rb, p, -1) == want
            assert _poly_add(rb, ra, p) == _trimmed((x + y) % p for x, y in zip(pa, pb))
            diff = field.sub(RatFunc(p, a), RatFunc(p, b))
            assert (diff.p, diff.num, diff.den) == (p, want, (1,))
            assert field.neg(RatFunc(p, a)).num == _trimmed(-x % p for x in a)
