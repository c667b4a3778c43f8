"""Exact valued fields used as tower bases, plus independent digit oracles.

Three fields are supported, all with value group Z:

* ``PadicRationals(p)`` -- the rationals with the p-adic valuation.
* ``RationalFunctions(p)`` -- rational functions over GF(p) with the
  order-of-vanishing valuation at t = 0.
* ``QuadraticExtension(p)`` -- Q(r) with r*r = 1 + p, valued through the
  embedding that sends r to the square root of 1 + p congruent to 1 mod p.

The oracles are deliberately low-tech so they can act as independent
referees: base-p expansion by modular long division, Laurent expansion by
power-series division, and square-root lifting modulo prime powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from operator import mul as _mul

from .oag import INF, _exact_index

__all__ = [
    "Approximation",
    "RatFunc",
    "QuadElement",
    "ValuedField",
    "PadicRationals",
    "RationalFunctions",
    "QuadraticExtension",
    "make_field",
]


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below _MR_BOUND (Sorenson and Webster, 2015); the bound itself is a strong
# pseudoprime to every one of those bases
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    if n >= _MR_BOUND:
        raise ValueError(f"cannot certify primality at or above {_MR_BOUND}")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def int_valuation(n, p):
    """Exponent of p in a nonzero integer.

    Most calls see a valuation of 0 or 1, so the test for p | n comes
    first; past it, p = 2 reads the lowest set bit and other primes
    divide by p, p^2, p^4, ... and back down, so a large valuation costs
    a logarithmic number of big-integer divisions.
    """
    if n == 0:
        raise ValueError("0 has no finite valuation")
    if n % p:
        return 0
    if p == 2:
        return (n & -n).bit_length() - 1
    v = 0
    steps = []
    pk, k = p, 1
    while n % pk == 0:
        n //= pk
        v += k
        steps.append((pk, k))
        pk, k = pk * pk, 2 * k
    for pk, k in reversed(steps):
        if n % pk == 0:
            n //= pk
            v += k
    return v


def _exact_int(c, what):
    """The integer given as an int or a decimal string.  A parser must not
    truncate a float or read a bool as a number, so both are errors."""
    if isinstance(c, bool) or not isinstance(c, (int, str)):
        raise ValueError(f"{what} must be an integer, got {c!r}")
    return int(c)


def _exact_rational(c, what):
    """The rational given as an int, a Fraction or a string such as "1/2";
    a float or a bool is an error, as in ``_exact_int``.  Exponent notation
    is an error too: ``Fraction("1e20000000")`` expands to twenty million
    digits before any bound on the input can be checked."""
    if isinstance(c, bool) or not isinstance(c, (int, Fraction, str)):
        raise ValueError(f"{what} must be an integer or a rational string, got {c!r}")
    if isinstance(c, str) and ("e" in c or "E" in c):
        raise ValueError(f"{what} must not use exponent notation, got {c!r}")
    return Fraction(c)


def _int_coeffs(obj):
    if not isinstance(obj, (list, tuple)):
        raise ValueError(f"coefficients must be a list of integers, got {obj!r}")
    return [_exact_int(c, "coefficient") for c in obj]


def padic_valuation(q, p):
    """v_p of a Fraction or an int.  Converting anything else would read a
    float by its binary fraction and a bool as 0 or 1, so both are errors."""
    if type(q) is not Fraction and (isinstance(q, bool) or not isinstance(q, (Fraction, int))):
        raise ValueError(f"not a rational: {q!r}")
    if not q:
        return INF
    d = q.denominator  # a reduced fraction holds p in at most one part
    return -int_valuation(d, p) if d % p == 0 else int_valuation(q.numerator, p)


# below this many digits _digits_of peels them off one divmod at a time
_DIGITS_CUTOFF = 64


def _digits_of(n, p, count):
    """The first ``count`` little-endian base-p digits of a nonnegative
    integer.

    A long window is split at p^(count // 2) and each half expanded on its
    own, so the big divisions shrink geometrically and ``count`` digits
    cost a few big-integer divisions instead of ``count`` of them.
    """
    if count <= _DIGITS_CUTOFF:
        out = []
        for _ in range(count):
            n, r = divmod(n, p)
            out.append(r)
        return tuple(out)
    half = count // 2
    hi, lo = divmod(n, p ** half)
    return _digits_of(lo, p, half) + _digits_of(hi, p, count - half)


@dataclass(frozen=True, slots=True)
class Approximation:
    """A finite digit window: p^shift * sum(digits[i] * p^i).

    For function fields the digits are GF(p) Laurent coefficients and p is
    the characteristic; the encoding is shared.
    """

    shift: int
    digits: tuple
    p: int

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple([_exact_index(d, "a digit") for d in self.digits]))
        if any(d < 0 or d >= self.p for d in self.digits):
            raise ValueError("digits must lie in 0..p-1")

    @classmethod
    def _trusted(cls, shift, digits, p):
        """Wrap a tuple of ints already in 0..p-1, as ``expand`` makes
        them, without re-checking each digit."""
        appr = object.__new__(cls)
        object.__setattr__(appr, "shift", shift)
        object.__setattr__(appr, "digits", digits)
        object.__setattr__(appr, "p", p)
        return appr

    def to_json(self):
        return {"shift": self.shift, "digits": list(self.digits), "p": self.p}


def _trim(cs):
    """A coefficient list without trailing zeros, as a tuple."""
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _order(cs):
    """Index of the lowest nonzero coefficient of a nonzero tuple."""
    for i, c in enumerate(cs):
        if c:
            return i


def _poly_text(cs):
    """A coefficient tuple written as a polynomial in t, lowest term first."""
    terms = []
    for i, c in enumerate(cs):
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append("t" if c == 1 else f"{c}*t")
        else:
            terms.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
    return " + ".join(terms) or "0"


def _poly_add(a, b, p, sign=1):
    """a + sign * b over GF(p), for reduced, trimmed tuples."""
    return _trim([(x + sign * y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def _poly_mul(a, b, p):
    """Product of two reduced, trimmed tuples over GF(p), reduced once at
    the end; GF(p) has no zero divisors, so nothing needs trimming."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                out[i + j] += c * d
    return tuple([c % p for c in out])


def _poly_div(a, b, p, quotient=False):
    """Long division of a by b over GF(p), both reduced, trimmed tuples (b
    nonzero): the remainder, or with ``quotient`` the quotient.

    Only the leading coefficient is reduced inside the loop; the
    remainder is reduced and trimmed once at the end.  The quotient is
    recorded only when asked for, so Euclid builds no quotient.
    """
    db = len(b) - 1
    if len(a) <= db:
        return () if quotient else a
    a = list(a)
    inv = pow(b[-1], -1, p)
    q = [0] * (len(a) - db) if quotient else None
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % p
        if c:
            f = c * inv % p
            off = i - db
            if quotient:
                q[off] = f
            for j in range(db):
                a[off + j] -= f * b[j]
    if quotient:
        return tuple(q)
    return _trim([c % p for c in a[:db]])


def _cancel(a, b, p):
    """a and b, both nonzero, with their gcd divided out up to a shared
    constant: as they are when either is constant; against a monomial c*t^k
    the gcd is t^min(k, order of the other), with no division; else Euclid's."""
    if len(a) == 1 or len(b) == 1:
        return a, b
    if not any(a[:-1]) or not any(b[:-1]):
        j = min(_order(a), _order(b))
        return a[j:], b[j:]
    g, r = b, _poly_div(a, b, p)
    while r:
        g, r = r, _poly_div(g, r, p)
    if len(g) == 1:
        return a, b
    return _poly_div(a, g, p, quotient=True), _poly_div(b, g, p, quotient=True)


def _monic(p, n, d):
    """n and d scaled by the inverse of d's leading coefficient."""
    inv = pow(d[-1], -1, p)
    if inv == 1:
        return n, d
    return tuple([c * inv % p for c in n]), tuple([c * inv % p for c in d])


def _lowest_terms(p, n, d):
    """n/d, for reduced, trimmed tuples with d nonzero, as a coprime
    numerator and a monic denominator; (1,) is the denominator of zero."""
    return _monic(p, *_cancel(n, d, p)) if n else ((), (1,))


class RatFunc:
    """An element of GF(p)(t) in normal form: ``num`` and ``den`` are
    coprime little-endian coefficient tuples, reduced mod p and trimmed,
    and ``den`` is monic.  ``RationalFunctions`` does the arithmetic."""

    __slots__ = ("p", "num", "den")

    def __init__(self, p, num, den=(1,)):
        n, d = (_trim([_exact_index(c, "a coefficient") % p for c in cs]) for cs in (num, den))
        if not d:
            raise ZeroDivisionError("zero denominator")
        self.p = p
        self.num, self.den = _lowest_terms(p, n, d)

    @classmethod
    def _normal(cls, p, n, d):
        """Wrap a coprime numerator and a monic denominator as they are."""
        x = object.__new__(cls)
        x.p, x.num, x.den = p, n, d if n else (1,)
        return x

    def __eq__(self, other):
        return (
            isinstance(other, RatFunc)
            and self.p == other.p
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.p, self.num, self.den))

    def __repr__(self):
        if len(self.den) == 1:
            return _poly_text(self.num)
        return f"({_poly_text(self.num)})/({_poly_text(self.den)})"


@dataclass(frozen=True, slots=True)
class QuadElement:
    """a + b*r with r*r = 1 + p and exact rational components."""

    p: int
    a: Fraction
    b: Fraction

    def __post_init__(self):
        for name in ("a", "b"):
            c = getattr(self, name)
            if type(c) is not Fraction:
                object.__setattr__(self, name, Fraction(_exact_index(c, "a component")))

    @classmethod
    def _normal(cls, p, a, b):
        """Wrap two Fractions as they are, without re-running ``__post_init__``."""
        x = object.__new__(cls)
        object.__setattr__(x, "p", p)
        object.__setattr__(x, "a", a)
        object.__setattr__(x, "b", b)
        return x

    def __repr__(self):
        return f"({self.a} + {self.b}*r)"


def _ratio_sum(n1, d1, n2, d2):
    """n1/d1 + n2/d2 in lowest terms, from one normalization."""
    return Fraction(n1 * d2 + n2 * d1, d1 * d2)


class ValuedField:
    """Shared plumbing for the supported exact valued fields.

    A field class defines ``kind`` and the whole surface of its elements:
    ``check(x)`` (its own elements pass, an int, and a ``Fraction`` where
    the field contains Q, converts, anything else is a ``ValueError``),
    the JSON parser ``element(obj)``, the arithmetic ``add``, ``sub``,
    ``neg``, ``mul``, ``inv`` and ``is_zero``, ``valuation(x)``,
    ``sub_valuation(x, y)`` for v(x - y), ``expand(x, n)`` for the first n
    digits as an ``Approximation``, ``random_element(rng, height)`` and
    ``to_json(x)``.

    The base gives, through those, the constants ``zero``, ``one``,
    ``unit_digit`` and ``uniformizer_pow``, ``from_approximation`` (a
    Horner resum on integers), ``random_nonzero`` and ``descriptor``.
    """

    kind = None

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, ValuedField)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"{type(self).__name__}({self.p})"

    def zero(self):
        return self.check(0)

    def one(self):
        return self.check(1)

    def unit_digit(self, i):
        """The unit 1 + (i mod (p - 1)): a nonzero digit for every i."""
        return self.check(1 + i % (self.p - 1))

    def uniformizer_pow(self, k):
        return self.check(Fraction(self.p ** k) if k >= 0 else Fraction(1, self.p ** -k))

    def descriptor(self):
        return {"kind": self.kind, "p": self.p}

    def random_nonzero(self, rng, height=50):
        while True:
            x = self.random_element(rng, height)
            if not self.is_zero(x):
                return x

    def from_approximation(self, appr):
        """The element p^shift * sum(digits[i] * p^i) of a digit window,
        resummed by Horner's rule on integers."""
        p = self.p
        if appr.p != p:
            raise ValueError("approximation base mismatch")
        total = 0
        for d in reversed(appr.digits):
            total = total * p + d
        if appr.shift >= 0:
            return self.check(total * p ** appr.shift)
        return self.check(Fraction(total, p ** -appr.shift))


class PadicRationals(ValuedField):
    """The rationals with the p-adic valuation."""

    kind = "rational"

    def check(self, x):
        # the exact type first, as the hot path; a bool is not a number,
        # as in the parsers
        if type(x) is Fraction or isinstance(x, Fraction):
            return x
        if isinstance(x, int) and not isinstance(x, bool):
            return Fraction(x)
        raise ValueError(f"not a rational element: {x!r}")

    def element(self, obj):
        if isinstance(obj, bool):
            raise ValueError(f"cannot parse rational element from {obj!r}")
        if isinstance(obj, (Fraction, int)):
            return Fraction(obj)
        if isinstance(obj, str):
            return _exact_rational(obj, "rational element")
        if isinstance(obj, (list, tuple)) and len(obj) == 2:
            num, den = (_exact_int(c, "rational component") for c in obj)
            return Fraction(num, den)
        raise ValueError(f"cannot parse rational element from {obj!r}")

    def is_zero(self, x):
        return not self.check(x)

    # one normalization in the public Fraction(n, d) per result, instead of
    # Fraction's operators, whose private fast paths changed between
    # Python versions
    def add(self, x, y):
        if type(x) is not Fraction:
            x = self.check(x)
        if type(y) is not Fraction:
            y = self.check(y)
        xd, yd = x.denominator, y.denominator
        return Fraction(x.numerator * yd + y.numerator * xd, xd * yd)

    def sub(self, x, y):
        if type(x) is not Fraction:
            x = self.check(x)
        if type(y) is not Fraction:
            y = self.check(y)
        xd, yd = x.denominator, y.denominator
        return Fraction(x.numerator * yd - y.numerator * xd, xd * yd)

    def neg(self, x):
        return -self.check(x)

    def mul(self, x, y):
        if type(x) is not Fraction:
            x = self.check(x)
        if type(y) is not Fraction:
            y = self.check(y)
        return Fraction(x.numerator * y.numerator, x.denominator * y.denominator)

    def inv(self, x):
        if type(x) is not Fraction:
            x = self.check(x)
        if not x:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(x.denominator, x.numerator)

    def valuation(self, x):
        return padic_valuation(self.check(x), self.p)

    def sub_valuation(self, x, y):
        # v(x - y) from the cross difference, without building x - y
        if type(x) is not Fraction:
            x = self.check(x)
        if type(y) is not Fraction:
            y = self.check(y)
        xd, yd, p = x.denominator, y.denominator, self.p
        diff = x.numerator * yd - y.numerator * xd
        if not diff:
            return INF
        v = int_valuation(diff, p)
        # a denominator is valued only when p divides it
        if xd % p == 0:
            v -= int_valuation(xd, p)
        if yd % p == 0:
            v -= int_valuation(yd, p)
        return v

    def expand(self, x, n):
        """First n base-p digits of x, starting at its valuation.

        Exact contract: x minus the resummed window has valuation
        strictly greater than shift + n - 1.
        """
        if n < 1:
            raise ValueError("precision must be >= 1")
        x, p = self.check(x), self.p
        if not x:
            return Approximation._trusted(0, (0,) * n, p)
        # numerator and denominator are coprime: at most one holds p
        num, den = x.numerator, x.denominator
        vn, vd = int_valuation(num, p), int_valuation(den, p)
        if vn:
            num //= p ** vn
        elif vd:
            den //= p ** vd
        m = p ** n
        val = num * pow(den, -1, m) % m
        return Approximation._trusted(vn - vd, _digits_of(val, p, n), p)

    def random_element(self, rng, height=50):
        return Fraction(rng.randint(-height, height), rng.randint(1, height))

    def to_json(self, x):
        x = self.check(x)
        return str(x)


class RationalFunctions(ValuedField):
    """Rational functions over GF(p) valued by order of vanishing at t = 0."""

    kind = "function-field"

    def check(self, x):
        if isinstance(x, RatFunc) and x.p == self.p:
            return x
        if isinstance(x, int) and not isinstance(x, bool):
            return RatFunc(self.p, (x,))
        raise ValueError(f"not a function-field element: {x!r}")

    def element(self, obj):
        if isinstance(obj, (RatFunc, int)) and not isinstance(obj, bool):
            return self.check(obj)
        if isinstance(obj, dict):
            extra = set(obj) - {"num", "den"}
            if extra:
                raise ValueError(f"unknown function-field keys: {sorted(extra)!r}")
            num, den = _int_coeffs(obj.get("num", ())), _int_coeffs(obj.get("den", (1,)))
            return RatFunc(self.p, num, den)
        if isinstance(obj, (list, tuple)):
            return RatFunc(self.p, _int_coeffs(obj))
        raise ValueError(f"cannot parse function-field element from {obj!r}")

    # arithmetic on the coefficient tuples of the normal forms; sums and
    # products follow Henrici's rule, as fractions.Fraction does
    def _parts(self, x):
        """(num, den) of x, checked as an element."""
        if type(x) is not RatFunc or x.p != self.p:
            x = self.check(x)
        return x.num, x.den

    def _sum(self, x, y, sign):
        # with g = gcd(b, d), a/b + c/d = (a(d/g) + c(b/g)) / ((b/g)d), which
        # is already reduced when g = 1
        (a, b), (c, d), p = self._parts(x), self._parts(y), self.p
        bg, dg = _cancel(b, d, p)
        num = _poly_add(_poly_mul(a, dg, p), _poly_mul(c, bg, p), p, sign)
        den = _poly_mul(bg, d, p)
        if len(bg) == len(b):
            return RatFunc._normal(p, num, den)
        return RatFunc._normal(p, *_lowest_terms(p, num, den))

    def add(self, x, y):
        return self._sum(x, y, 1)

    def sub(self, x, y):
        return self._sum(x, y, -1)

    def neg(self, x):
        n, d = self._parts(x)
        p = self.p
        return RatFunc._normal(p, tuple([-c % p for c in n]), d)

    def mul(self, x, y):
        # cancel gcd(a, d) and gcd(c, b) first: (a/b)(c/d) is then reduced
        (a, b), (c, d), p = self._parts(x), self._parts(y), self.p
        if not a or not c:
            return RatFunc._normal(p, (), (1,))
        (a, d), (c, b) = _cancel(a, d, p), _cancel(c, b, p)
        return RatFunc._normal(p, *_monic(p, _poly_mul(a, c, p), _poly_mul(b, d, p)))

    def inv(self, x):
        n, d = self._parts(x)
        if not n:
            raise ZeroDivisionError("inverse of zero")
        return RatFunc._normal(self.p, *_monic(self.p, d, n))

    def is_zero(self, x):
        return not self._parts(x)[0]

    def valuation(self, x):
        n, d = self._parts(x)
        return _order(n) - _order(d) if n else INF

    def sub_valuation(self, x, y):
        # normal forms are unique, so equal operands differ by zero; else
        # the t-order of x - y is the lowest nonzero coefficient of the
        # cross difference xn*yd - yn*xd, found without forming the product
        (xn, xd), (yn, yd) = self._parts(x), self._parts(y)
        if xn == yn and xd == yd:
            return INF
        p = self.p
        top = max(len(xn) + len(yd), len(yn) + len(xd)) - 1
        # coefficient k of a*b is sum(a[k - j] * b[j]): with a reversed and
        # zero-padded to length top, a[k - j] sits at index top - 1 - k + j
        xr = (0,) * (top - len(xn)) + xn[::-1]
        yr = (0,) * (top - len(yn)) + yn[::-1]
        for k in range(top):
            s = top - 1 - k
            if (sum(map(_mul, xr[s:], yd)) - sum(map(_mul, yr[s:], xd))) % p:
                return k - _order(xd) - _order(yd)
        return INF

    def _t_times(self, e, unit):
        """unit * t^e, for a trimmed coefficient tuple with a nonzero
        constant term: t^e and unit are coprime, so this is the normal form."""
        t = (0,) * abs(e)
        if e >= 0:
            return RatFunc._normal(self.p, t + unit, (1,))
        return RatFunc._normal(self.p, unit, t + (1,))

    def uniformizer_pow(self, k):
        return self._t_times(k, (1,))

    def expand(self, x, n):
        """First n Laurent coefficients of x at t = 0."""
        if n < 1:
            raise ValueError("precision must be >= 1")
        num, den = self._parts(x)
        if not num:
            return Approximation._trusted(0, (0,) * n, self.p)
        on, od = _order(num), _order(den)
        nn, dd = num[on:on + n], den[od:]
        nn += (0,) * (n - len(nn))
        inv0 = pow(dd[0], -1, self.p)
        coeffs = []
        for k in range(n):
            acc = nn[k]
            for j in range(1, min(k, len(dd) - 1) + 1):
                acc -= dd[j] * coeffs[k - j]
            coeffs.append(acc * inv0 % self.p)
        return Approximation._trusted(on - od, tuple(coeffs), self.p)

    def from_approximation(self, appr):
        if appr.p != self.p:
            raise ValueError("approximation base mismatch")
        nonzero = [i for i, d in enumerate(appr.digits) if d]
        if not nonzero:
            return self.zero()
        lo, hi = nonzero[0], nonzero[-1]
        return self._t_times(appr.shift + lo, appr.digits[lo:hi + 1])

    def random_element(self, rng, height=50, degree=3):
        p = self.p
        num = [rng.randrange(p) for _ in range(degree + 1)]
        while True:
            den = [rng.randrange(p) for _ in range(degree + 1)]
            if any(den):
                # digits drawn in range: normalized with no validation
                return RatFunc._normal(p, *_lowest_terms(p, _trim(num), _trim(den)))

    def to_json(self, x):
        n, d = self._parts(x)
        return {"num": list(n), "den": list(d)}


class QuadraticExtension(ValuedField):
    """Q(r) with r*r = 1 + p, valued via the embedding r -> s, s = 1 mod p.

    Requires an odd prime other than 3: for p = 3 the defining square
    1 + p = 4 is a perfect square and the extension degenerates.
    """

    kind = "quadratic"

    def __init__(self, p):
        super().__init__(p)
        if p == 2:
            raise ValueError("p = 2 is not supported for the quadratic extension")
        if p == 3:
            raise ValueError("1 + p is a perfect square for p = 3; not a field")
        self._root = (1, 1)  # (precision k, value mod p^k); s = 1 mod p

    def check(self, x):
        if isinstance(x, QuadElement) and x.p == self.p:
            return x
        if isinstance(x, (Fraction, int)) and not isinstance(x, bool):
            return QuadElement(self.p, Fraction(x), Fraction(0))
        raise ValueError(f"not a quadratic-extension element: {x!r}")

    def element(self, obj):
        if isinstance(obj, (QuadElement, Fraction, int)) and not isinstance(obj, bool):
            return self.check(obj)
        if isinstance(obj, dict):
            extra = set(obj) - {"a", "b"}
            if extra:
                raise ValueError(f"unknown quadratic keys: {sorted(extra)!r}")
            obj = (obj.get("a", 0), obj.get("b", 0))
        if isinstance(obj, (list, tuple)) and len(obj) == 2:
            a, b = (_exact_rational(c, "quadratic component") for c in obj)
            return QuadElement(self.p, a, b)
        if isinstance(obj, str):
            return QuadElement(self.p, _exact_rational(obj, "quadratic element"), Fraction(0))
        raise ValueError(f"cannot parse quadratic element from {obj!r}")

    # arithmetic on the components' integer numerators and denominators,
    # one normalization in the public Fraction(n, d) per component, and the
    # result wrapped without re-running QuadElement.__post_init__
    def _parts(self, x):
        """(an, ad, bn, bd) of x = an/ad + (bn/bd) r, checked as an element."""
        if type(x) is not QuadElement or x.p != self.p:
            x = self.check(x)
        a, b = x.a, x.b
        return a.numerator, a.denominator, b.numerator, b.denominator

    def add(self, x, y):
        an, ad, bn, bd = self._parts(x)
        cn, cd, dn, dd = self._parts(y)
        return QuadElement._normal(self.p, _ratio_sum(an, ad, cn, cd), _ratio_sum(bn, bd, dn, dd))

    def sub(self, x, y):
        an, ad, bn, bd = self._parts(x)
        cn, cd, dn, dd = self._parts(y)
        return QuadElement._normal(self.p, _ratio_sum(an, ad, -cn, cd), _ratio_sum(bn, bd, -dn, dd))

    def neg(self, x):
        an, ad, bn, bd = self._parts(x)
        return QuadElement._normal(self.p, Fraction(-an, ad), Fraction(-bn, bd))

    def mul(self, x, y):
        # (a + b r)(c + d r) = (ac + (1+p) bd) + (ad + bc) r
        an, ad, bn, bd = self._parts(x)
        cn, cd, dn, dd = self._parts(y)
        return QuadElement._normal(
            self.p,
            _ratio_sum(an * cn, ad * cd, (1 + self.p) * bn * dn, bd * dd),
            _ratio_sum(an * dn, ad * dd, bn * cn, bd * cd),
        )

    def inv(self, x):
        # (a + b r)^-1 = (a - b r) / N, where N = a^2 - (1+p) b^2 = n / (ad bd)^2
        # is nonzero for nonzero x, as 1 + p is not a square
        an, ad, bn, bd = self._parts(x)
        if not an and not bn:
            raise ZeroDivisionError("inverse of zero")
        n, adbd = (an * bd) ** 2 - (1 + self.p) * (bn * ad) ** 2, ad * bd
        return QuadElement._normal(self.p, Fraction(an * adbd * bd, n), Fraction(-bn * adbd * ad, n))

    def is_zero(self, x):
        an, _, bn, _ = self._parts(x)
        return not an and not bn

    def generator(self):
        return QuadElement(self.p, Fraction(0), Fraction(1))

    def root_mod(self, k):
        """The embedded square root of 1 + p modulo p^k (congruent to 1 mod p)."""
        if k < 1:
            raise ValueError("precision must be >= 1")
        have, x = self._root  # single-attribute cache: safe to share
        if k > have:
            while have < k:
                have = min(2 * have, k)
                m = self.p ** have
                c = (1 + self.p) % m
                x = (x + c * pow(x, -1, m)) * pow(2, -1, m) % m
            self._root = (have, x)
        return x % self.p ** k

    def _window_ints(self, an, ad, bn, bd, n):
        """(valuation, first n digits of the unit part as one integer) of
        the embedded image of x = an/ad + (bn/bd) r; (INF, 0) for zero.

        Works on the integer numerators and nonzero denominators of the two
        components.  It reads only valuations and residues, so the fractions
        need not be in lowest terms.  The norm a^2 - (1+p) b^2 bounds how
        deep the leading digit can hide, so the search window is finite and
        the result exact.
        """
        p = self.p
        vad, vbd = int_valuation(ad, p), int_valuation(bd, p)
        m = min(int_valuation(an, p) - vad if an else INF, int_valuation(bn, p) - vbd if bn else INF)
        if m is INF:
            return INF, 0
        # a / p^m = A / D and b / p^m = B / E, D and E prime to p (exact, as v >= m)
        ka, kb = m + vad, m + vbd
        A = an // p ** ka if ka >= 0 else an * p ** -ka
        B = bn // p ** kb if kb >= 0 else bn * p ** -kb
        D, E = ad // p ** vad, bd // p ** vbd

        def unit_part(span):
            # (a + b s) / p^m = (A E + B D s) / (D E) mod p^span: one inverse
            modulus = p ** span
            return (A * E + B * D * self.root_mod(span)) * pow(D * E, -1, modulus) % modulus

        # s = 1 mod p: p divides the unit part exactly when it divides A E + B D
        if (A * E + B * D) % p:
            return m, unit_part(n)
        # v(norm) = v(x) + v(conj x), from the cross-multiplied norm
        norm = an * an * bd * bd - (1 + p) * bn * bn * ad * ad
        u = unit_part(int_valuation(norm, p) - 2 * (vad + vbd + m) + n + 1)
        if u == 0:
            raise AssertionError("window exhausted before the leading digit")
        ord_u = int_valuation(u, p)
        return m + ord_u, u // p ** ord_u % p ** n

    def _value_ints(self, an, ad, bn, bd):
        """v(an/ad + (bn/bd) r).  The root s is a unit, so components of unequal
        value cannot cancel; only equal values need the norm window."""
        p = self.p
        va = int_valuation(an, p) - int_valuation(ad, p) if an else INF
        vb = int_valuation(bn, p) - int_valuation(bd, p) if bn else INF
        if va != vb:
            return min(va, vb)
        return self._window_ints(an, ad, bn, bd, 1)[0]

    def valuation(self, x):
        return self._value_ints(*self._parts(x))

    def sub_valuation(self, x, y):
        # v(x - y) from the component cross differences, left unreduced
        xs, ys = self._parts(x), self._parts(y)
        if xs == ys:
            return INF
        (an, ad, bn, bd), (cn, cd, dn, dd) = xs, ys
        return self._value_ints(an * cd - cn * ad, ad * cd, bn * dd - dn * bd, bd * dd)

    def expand(self, x, n):
        if n < 1:
            raise ValueError("precision must be >= 1")
        v, unit = self._window_ints(*self._parts(x), n)
        return Approximation._trusted(0 if v is INF else v, _digits_of(unit, self.p, n), self.p)

    def representative(self, x, level):
        """A rational whose level-`level` class is the image of x.

        Truncates the embedded expansion one digit past the level, which
        keeps the error valuation above level + v(x).
        """
        if level < 0:
            raise ValueError("negative level")
        v, unit = self._window_ints(*self._parts(x), level + 1)
        if v is INF:
            return Fraction(0)
        if v >= 0:
            return Fraction(unit * self.p ** v)
        return Fraction(unit, self.p ** -v)

    def random_element(self, rng, height=50):
        return QuadElement(
            self.p,
            Fraction(rng.randint(-height, height), rng.randint(1, height)),
            Fraction(rng.randint(-height, height), rng.randint(1, height)),
        )

    def to_json(self, x):
        x = self.check(x)
        return {"a": str(x.a), "b": str(x.b)}


def make_field(kind, p):
    if kind == "rational":
        return PadicRationals(p)
    if kind in ("function", "function-field"):
        return RationalFunctions(p)
    if kind == "quadratic":
        return QuadraticExtension(p)
    raise ValueError(f"unknown field kind: {kind!r}")

