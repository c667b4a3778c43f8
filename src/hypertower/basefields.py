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
from operator import mul as _mul

from .oag import INF, _exact_index

__all__ = [
    "Approximation",
    "FpPoly",
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
    if not isinstance(q, (Fraction, int)):
        q = Fraction(q)
    if not q:
        return INF
    return int_valuation(q.numerator, p) - int_valuation(q.denominator, p)


def _digits_of(n, p, count):
    """Little-endian base-p digits of a nonnegative integer."""
    out = []
    for _ in range(count):
        n, r = divmod(n, p)
        out.append(r)
    return tuple(out)


@dataclass(frozen=True)
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

    def to_json(self):
        return {"shift": self.shift, "digits": list(self.digits), "p": self.p}


class FpPoly:
    """Dense polynomial over GF(p): little-endian coefficients, no trailing zeros."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs=()):
        cs = [_exact_index(c, "a coefficient") % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.p = p
        self.coeffs = tuple(cs)

    @classmethod
    def _reduced(cls, p, coeffs):
        """Wrap a tuple already reduced mod p and trimmed, without re-checking."""
        poly = object.__new__(cls)
        poly.p = p
        poly.coeffs = coeffs
        return poly

    @classmethod
    def constant(cls, p, c):
        return cls(p, (c,))

    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def order(self):
        """Index of the lowest nonzero coefficient; None for zero."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None

    def __add__(self, other):
        a, b, p = self.coeffs, other.coeffs, self.p
        if len(a) < len(b):
            a, b = b, a
        cs = [(x + y) % p for x, y in zip(a, b)] + list(a[len(b):])
        while cs and cs[-1] == 0:
            cs.pop()
        return FpPoly._reduced(p, tuple(cs))

    def __neg__(self):
        p = self.p
        return FpPoly._reduced(p, tuple([-c % p for c in self.coeffs]))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return FpPoly._reduced(self.p, _poly_mul(self.coeffs, other.coeffs, self.p))

    def __eq__(self, other):
        return (
            isinstance(other, FpPoly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __repr__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append("t" if c == 1 else f"{c}*t")
            else:
                terms.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
        return " + ".join(terms)


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
    r = [c % p for c in a[:db]]
    while r and r[-1] == 0:
        r.pop()
    return tuple(r)


def _cancel(a, b, p):
    """a and b, a nonzero, with their gcd found by Euclid divided out; as
    they are when either is a nonzero constant."""
    if len(a) == 1 or len(b) == 1:
        return a, b
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


class RatFunc:
    """Reduced ratio of GF(p)[t] polynomials with a monic denominator; sums
    and products follow Henrici's rule, as ``fractions.Fraction`` does."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = FpPoly.constant(num.p, 1)
        if num.p != den.p:
            raise ValueError("mixed characteristics")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        p, n, d = den.p, num.coeffs, den.coeffs
        n, d = _monic(p, *_cancel(n, d, p)) if n else ((), (1,))
        self.num, self.den = FpPoly._reduced(p, n), FpPoly._reduced(p, d)

    @classmethod
    def _normal(cls, p, n, d):
        """Wrap a coprime numerator and a monic denominator as they are."""
        x = object.__new__(cls)
        x.num, x.den = FpPoly._reduced(p, n), FpPoly._reduced(p, d if n else (1,))
        return x

    @property
    def p(self):
        return self.den.p

    def is_zero(self):
        return self.num.is_zero()

    def t_order(self):
        if self.is_zero():
            return INF
        return self.num.order() - self.den.order()

    def __add__(self, other):
        # with g = gcd(b, d), a/b + c/d = (a(d/g) + c(b/g)) / ((b/g)d), which
        # is already reduced when g = 1
        p = self.p
        b, d = _cancel(self.den.coeffs, other.den.coeffs, p)
        num = self.num * FpPoly._reduced(p, d) + other.num * FpPoly._reduced(p, b)
        den = FpPoly._reduced(p, _poly_mul(b, other.den.coeffs, p))
        if len(b) == len(self.den.coeffs):
            return RatFunc._normal(p, num.coeffs, den.coeffs)
        return RatFunc(num, den)

    def __neg__(self):
        return RatFunc._normal(self.p, (-self.num).coeffs, self.den.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        # cancel gcd(a, d) and gcd(c, b) first: (a/b)(c/d) is then reduced
        p, a, b = self.p, self.num.coeffs, self.den.coeffs
        c, d = other.num.coeffs, other.den.coeffs
        if not a or not c:
            return RatFunc._normal(p, (), (1,))
        (a, d), (c, b) = _cancel(a, d, p), _cancel(c, b, p)
        return RatFunc._normal(p, *_monic(p, _poly_mul(a, c, p), _poly_mul(b, d, p)))

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc._normal(self.p, *_monic(self.p, self.den.coeffs, self.num.coeffs))

    def __eq__(self, other):
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den.degree == 0:
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


@dataclass(frozen=True)
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

    def is_zero(self):
        return self.a == 0 and self.b == 0

    def conj(self):
        return QuadElement(self.p, self.a, -self.b)

    def norm(self):
        return self.a * self.a - (1 + self.p) * self.b * self.b

    def _chk(self, other):
        if not isinstance(other, QuadElement) or other.p != self.p:
            raise ValueError("mixed quadratic extensions")

    def __add__(self, other):
        self._chk(other)
        return QuadElement(self.p, self.a + other.a, self.b + other.b)

    def __neg__(self):
        return QuadElement(self.p, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._chk(other)
        d = 1 + self.p
        return QuadElement(
            self.p,
            self.a * other.a + d * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def inverse(self):
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return QuadElement(self.p, self.a / n, -self.b / n)

    def __repr__(self):
        return f"({self.a} + {self.b}*r)"


class ValuedField:
    """Shared plumbing for the supported exact valued fields.

    A field class defines ``kind`` and these methods:

    * ``check(x)`` -- x as an element of the field: its own elements pass,
      an int (and a ``Fraction`` where the field contains Q) converts,
      anything else is a ``ValueError``;
    * ``element(obj)`` -- the parser for JSON input;
    * ``valuation(x)``, ``sub_valuation(x, y)`` -- v(x) and v(x - y);
    * ``expand(x, n)`` -- the first n digits of x as an ``Approximation``;
    * ``random_element(rng, height)`` and ``to_json(x)``.

    Everything else is written here once, through ``check`` and the
    element type's own ``+``, ``-``, ``*``, ``is_zero`` and ``inverse``:
    ``add``, ``sub``, ``neg``, ``mul``, ``inv``, ``is_zero``, the constants
    ``zero``, ``one``, ``unit_digit`` and ``uniformizer_pow``,
    ``from_approximation``, ``random_nonzero`` and ``descriptor``.
    ``PadicRationals`` overrides ``is_zero`` and ``inv``, as a ``Fraction``
    has neither method; ``RationalFunctions`` overrides ``uniformizer_pow``
    and ``from_approximation``, as its uniformizer is t, not p.
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

    def check(self, x):
        raise NotImplementedError

    def add(self, x, y):
        return self.check(x) + self.check(y)

    def sub(self, x, y):
        return self.check(x) - self.check(y)

    def neg(self, x):
        return -self.check(x)

    def mul(self, x, y):
        return self.check(x) * self.check(y)

    def inv(self, x):
        return self.check(x).inverse()

    def is_zero(self, x):
        return self.check(x).is_zero()

    def zero(self):
        return self.check(0)

    def one(self):
        return self.check(1)

    def unit_digit(self, i):
        """The unit 1 + (i mod (p - 1)): a nonzero digit for every i."""
        return self.check(1 + i % (self.p - 1))

    def uniformizer_pow(self, k):
        return self.check(Fraction(self.p) ** k)

    def descriptor(self):
        return {"kind": self.kind, "p": self.p}

    def random_nonzero(self, rng, height=50):
        while True:
            x = self.random_element(rng, height)
            if not self.is_zero(x):
                return x

    def from_approximation(self, appr):
        """The element p^shift * sum(digits[i] * p^i) of a digit window."""
        if appr.p != self.p:
            raise ValueError("approximation base mismatch")
        total = Fraction(0)
        for i, d in enumerate(appr.digits):
            if d:
                total += d * Fraction(self.p) ** (appr.shift + i)
        return self.check(total)


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

    def inv(self, x):
        x = self.check(x)
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / x

    def valuation(self, x):
        return padic_valuation(self.check(x), self.p)

    def sub_valuation(self, x, y):
        # v(x - y) from the cross difference, without building x - y;
        # int_valuation runs only on a term that p divides
        if type(x) is not Fraction:
            x = self.check(x)
        if type(y) is not Fraction:
            y = self.check(y)
        xd, yd, p = x.denominator, y.denominator, self.p
        diff = x.numerator * yd - y.numerator * xd
        if not diff:
            return INF
        v = int_valuation(diff, p) if diff % p == 0 else 0
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
        x = self.check(x)
        if x == 0:
            return Approximation(0, (0,) * n, self.p)
        e = padic_valuation(x, self.p)
        u = x / Fraction(self.p) ** e
        m = self.p ** n
        val = u.numerator * pow(u.denominator, -1, m) % m
        return Approximation(e, _digits_of(val, self.p, n), self.p)

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
            return RatFunc(FpPoly.constant(self.p, x))
        raise ValueError(f"not a function-field element: {x!r}")

    def element(self, obj):
        if isinstance(obj, (RatFunc, int)) and not isinstance(obj, bool):
            return self.check(obj)
        if isinstance(obj, dict):
            extra = set(obj) - {"num", "den"}
            if extra:
                raise ValueError(f"unknown function-field keys: {sorted(extra)!r}")
            num = FpPoly(self.p, _int_coeffs(obj.get("num", ())))
            den = FpPoly(self.p, _int_coeffs(obj.get("den", (1,))))
            return RatFunc(num, den)
        if isinstance(obj, (list, tuple)):
            return RatFunc(FpPoly(self.p, _int_coeffs(obj)))
        raise ValueError(f"cannot parse function-field element from {obj!r}")

    def poly(self, *coeffs):
        return RatFunc(FpPoly(self.p, coeffs))

    def valuation(self, x):
        return self.check(x).t_order()

    def sub_valuation(self, x, y):
        # normal forms are unique, so equal operands differ by zero; else
        # the t-order of x - y is the lowest nonzero coefficient of the
        # cross difference xn*yd - yn*xd, found without forming the product
        x, y = self.check(x), self.check(y)
        xn, xd = x.num.coeffs, x.den.coeffs
        yn, yd = y.num.coeffs, y.den.coeffs
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
                return k - x.den.order() - y.den.order()
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
        x = self.check(x)
        if x.is_zero():
            return Approximation(0, (0,) * n, self.p)
        on, od = x.num.order(), x.den.order()
        nn, dd = x.num.coeffs[on:on + n], x.den.coeffs[od:]
        nn += (0,) * (n - len(nn))
        inv0 = pow(dd[0], -1, self.p)
        coeffs = []
        for k in range(n):
            acc = nn[k]
            for j in range(1, min(k, len(dd) - 1) + 1):
                acc -= dd[j] * coeffs[k - j]
            coeffs.append(acc * inv0 % self.p)
        return Approximation(on - od, tuple(coeffs), self.p)

    def from_approximation(self, appr):
        if appr.p != self.p:
            raise ValueError("approximation base mismatch")
        nonzero = [i for i, d in enumerate(appr.digits) if d]
        if not nonzero:
            return self.zero()
        lo, hi = nonzero[0], nonzero[-1]
        return self._t_times(appr.shift + lo, appr.digits[lo:hi + 1])

    def random_element(self, rng, height=50, degree=3):
        num = FpPoly(self.p, [rng.randrange(self.p) for _ in range(degree + 1)])
        while True:
            den = FpPoly(self.p, [rng.randrange(self.p) for _ in range(degree + 1)])
            if not den.is_zero():
                return RatFunc(num, den)

    def to_json(self, x):
        x = self.check(x)
        return {"num": list(x.num.coeffs), "den": list(x.den.coeffs)}


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

    def _window(self, x, n):
        """(valuation, first n digits of the unit part as one integer) of
        the embedded image of x; (INF, 0) for zero.

        Works on the integer numerators and denominators of the two
        components.  The norm a^2 - (1+p) b^2 bounds how deep the leading
        digit can hide, so the search window is finite and the result exact.
        """
        x = self.check(x)
        a, b = x.a, x.b
        return self._window_ints(a.numerator, a.denominator, b.numerator, b.denominator, n)

    def _window_ints(self, an, ad, bn, bd, n):
        """The core of `_window` on x = an/ad + (bn/bd) r, with nonzero
        denominators; it reads only valuations and residues, so the
        fractions need not be in lowest terms."""
        p = self.p
        vad, vbd = int_valuation(ad, p), int_valuation(bd, p)
        vals = [int_valuation(num, p) - vden for num, vden in ((an, vad), (bn, vbd)) if num]
        if not vals:
            return INF, 0
        m = min(vals)
        # v(norm) = v(x) + v(conj x), from the cross-multiplied norm
        norm = an * an * bd * bd - (1 + p) * bn * bn * ad * ad
        bound = int_valuation(norm, p) - 2 * (vad + vbd)
        span = (bound - 2 * m) + n + 1
        modulus = p ** span

        def _residue(num, den, vden):
            # num / (den * p^m) mod p^span; v(num / den) >= m by choice of m
            if num == 0:
                return 0
            shift = m + vden
            num = num // p ** shift if shift >= 0 else num * p ** -shift
            if vden:
                den //= p ** vden
            return num * pow(den, -1, modulus)

        u = (_residue(an, ad, vad) + _residue(bn, bd, vbd) * self.root_mod(span)) % modulus
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
        x = self.check(x)
        a, b = x.a, x.b
        return self._value_ints(a.numerator, a.denominator, b.numerator, b.denominator)

    def sub_valuation(self, x, y):
        # v(x - y) from the component cross differences, left unreduced
        x, y = self.check(x), self.check(y)
        xa, xb, ya, yb = x.a, x.b, y.a, y.b
        if xa == ya and xb == yb:
            return INF
        ad, bd = xa.denominator * ya.denominator, xb.denominator * yb.denominator
        an = xa.numerator * ya.denominator - ya.numerator * xa.denominator
        bn = xb.numerator * yb.denominator - yb.numerator * xb.denominator
        return self._value_ints(an, ad, bn, bd)

    def expand(self, x, n):
        if n < 1:
            raise ValueError("precision must be >= 1")
        v, unit = self._window(x, n)
        return Approximation(0 if v is INF else v, _digits_of(unit, self.p, n), self.p)

    def representative(self, x, level):
        """A rational whose level-`level` class is the image of x.

        Truncates the embedded expansion one digit past the level, which
        keeps the error valuation above level + v(x).
        """
        if level < 0:
            raise ValueError("negative level")
        v, unit = self._window(x, level + 1)
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

