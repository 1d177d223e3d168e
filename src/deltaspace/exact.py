"""Exact ordered arithmetic in Q and Q(sqrt(D)).

Every number in the library is an ExactReal: either a rational or a
quadratic surd a + b*sqrt(D) with a, b rational and D a squarefree integer
>= 2.  It is stored in one canonical integer form (p + q*sqrt(d)) / den
with den > 0, gcd(p, q, den) == 1 and d == 0 exactly when q == 0, so
equality and hashing are integer tuple operations and an order comparison
is an exact integer cross-multiplication.  The rational parts a = p/den
and b = q/den are derived from that form.  Comparison, addition,
multiplication and division are exact; no floating point is ever
consulted for a decision.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction


class ExactError(Exception):
    pass


class MixedRadicands(ExactError):
    """Two surds with different radicands met in an ordered operation."""


class DivisionByZero(ExactError):
    pass


class ParseError(ExactError):
    pass


def _squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, m) with n = s*s*m and m squarefree.

    Trial division takes out every prime p with p**3 at most what is
    left of n.  What is then left has no prime factor up to its cube
    root, so it is 1, a prime, a product of two primes or the square of
    one, and a single isqrt tells the square apart."""
    if n <= 0:
        raise ValueError("radicand must be positive")
    s, m, p = 1, 1, 2
    while p * p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            m *= p
        p += 1 if p == 2 else 2
    r = math.isqrt(n)
    if r * r == n:
        return s * r, m
    return s, m * n


class ExactReal:
    """Immutable number (p + q*sqrt(d)) / den in canonical form: den > 0,
    gcd(p, q, den) == 1, and d == 0 exactly when q == 0 (rational)."""

    __slots__ = ("p", "q", "den", "d")

    def __init__(self, a, b=0, d=0):
        a = Fraction(a)
        b = Fraction(b)
        if b == 0:
            d = 0
        else:
            if d < 2:
                raise ValueError("surd radicand must be >= 2")
            s, m = _squarefree_split(d)
            if m == 1:
                # perfect square: collapse to a rational
                a, b, d = a + b * s, Fraction(0), 0
            else:
                b, d = b * s, m
        # over the lcm of two reduced denominators, gcd(p, q, den) is 1
        den = math.lcm(a.denominator, b.denominator)
        _set_p(self, a.numerator * (den // a.denominator))
        _set_q(self, b.numerator * (den // b.denominator))
        _set_den(self, den)
        _set_d(self, d)

    def __setattr__(self, *_):
        raise AttributeError("ExactReal is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def sqrt(d: int) -> "ExactReal":
        return ExactReal(0, 1, d)

    @property
    def a(self) -> Fraction:
        """The rational part."""
        return Fraction(self.p, self.den)

    @property
    def b(self) -> Fraction:
        """The coefficient of sqrt(d)."""
        return Fraction(self.q, self.den)

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        d = _radicand(self, other)
        n, m = self.den, other.den
        if n == m:
            return _make(self.p + other.p, self.q + other.q, n, d)
        return _make(self.p * m + other.p * n, self.q * m + other.q * n, n * m, d)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.p, -self.q, self.den, self.d)

    def __sub__(self, other):
        other = _coerce(other)
        d = _radicand(self, other)
        n, m = self.den, other.den
        if n == m:
            return _make(self.p - other.p, self.q - other.q, n, d)
        return _make(self.p * m - other.p * n, self.q * m - other.q * n, n * m, d)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        d = _radicand(self, other)
        p, q, r, s = self.p, self.q, other.p, other.q
        return _make(p * r + q * s * d, p * s + q * r, self.den * other.den, d)

    __rmul__ = __mul__

    def inverse(self) -> "ExactReal":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        # den/(p+q*sqrt(d)) = den*(p-q*sqrt(d)) / (p^2 - q^2 d); the norm
        # is nonzero since sqrt(d) is irrational.
        p, q, d = self.p, self.q, self.d
        return _make(self.den * p, -self.den * q, p * p - q * q * d, d)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- order ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def sign(self) -> int:
        """Exact sign of (p + q*sqrt(d)) / den; den > 0."""
        return _sign(self.p, self.q, self.d)

    def __eq__(self, other):
        if isinstance(other, ExactReal):
            # The form is canonical; distinct radicands give distinct
            # numbers, as sqrt(d) and sqrt(d') are linearly independent
            # over Q for distinct squarefree d, d'.
            return (self.p == other.p and self.den == other.den
                    and self.q == other.q and self.d == other.d)
        if isinstance(other, (int, Fraction)):
            return self.q == 0 and self.p == other.numerator and self.den == other.denominator
        return NotImplemented

    def __hash__(self):
        # hash(_form(self)), spelled out: a call to _form costs as much again
        return hash((self.p, self.q, self.den, self.d))

    def __lt__(self, other):
        return _cmp(self, other) < 0

    def __le__(self, other):
        return _cmp(self, other) <= 0

    def __gt__(self, other):
        return _cmp(self, other) > 0

    def __ge__(self, other):
        return _cmp(self, other) >= 0

    def __float__(self):
        v = self.p / self.den
        if self.q:
            v += self.q / self.den * math.sqrt(self.d)
        return v

    def floor(self) -> int:
        p, q, den = self.p, self.q, self.den
        if q:
            # |q|*sqrt(d) is irrational, strictly between r and r + 1, so
            # p + q*sqrt(d) has floor p + r or p - r - 1; dividing by den
            # > 0 keeps that integer's floor.
            r = math.isqrt(q * q * self.d)
            p = p + r if q > 0 else p - r - 1
        return p // den

    # -- text form ------------------------------------------------------

    def __str__(self):
        if self.is_rational:
            return f"{self.p}/{self.den}"
        b = self.b
        surd = f"{b.numerator}/{b.denominator}*sqrt({self.d})"
        if self.p == 0:
            return surd
        a = self.a
        return f"{a.numerator}/{a.denominator}+{surd}"

    def __repr__(self):
        return f"ExactReal({self})"


_new = object.__new__
_set_p, _set_q = ExactReal.p.__set__, ExactReal.q.__set__
_set_den, _set_d = ExactReal.den.__set__, ExactReal.d.__set__


def _make(p: int, q: int, den: int, d: int) -> ExactReal:
    """The trusted constructor for operation results: d is already
    squarefree (or 0), and den != 0.  Only the sign of den and the common
    gcd are normalised; __init__ and its radicand split are bypassed."""
    if den < 0:
        p, q, den = -p, -q, -den
    g = math.gcd(p, q, den)
    if g != 1:
        p, q, den = p // g, q // g, den // g
    x = _new(ExactReal)
    _set_p(x, p)
    _set_q(x, q)
    _set_den(x, den)
    _set_d(x, d if q else 0)
    return x


def _coerce(x) -> ExactReal:
    if isinstance(x, ExactReal):
        return x
    if isinstance(x, (int, Fraction)):
        return _make(x.numerator, 0, x.denominator, 0)
    raise TypeError(f"cannot coerce {x!r} to ExactReal")


def _radicand(x: ExactReal, y: ExactReal) -> int:
    """The common radicand of x and y (0 when both are rational)."""
    if x.d and y.d and x.d != y.d:
        raise MixedRadicands(f"sqrt({x.d}) vs sqrt({y.d})")
    return x.d or y.d


def _sign(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d), d squarefree when b != 0."""
    if b == 0:
        return (a > 0) - (a < 0)
    sb = 1 if b > 0 else -1
    if a == 0 or (a > 0) == (b > 0):
        return sb
    # opposite signs: a^2 != b^2 d as sqrt(d) is irrational
    return -sb if a * a > b * b * d else sb


def _cmp(x: ExactReal, y) -> int:
    """-1, 0 or 1 as x <, =, > y, by integer cross-multiplication of the
    two canonical forms; allocates no ExactReal for an ExactReal y."""
    if not isinstance(y, ExactReal):
        y = _coerce(y)
    n, m = x.den, y.den
    if x.q or y.q:
        d = _radicand(x, y)
        return _sign(x.p * m - y.p * n, x.q * m - y.q * n, d)
    a, b = x.p * m, y.p * n
    return (a > b) - (a < b)


_RAT = r"(-?\d+)/(\d+)"
_SURD_RE = re.compile(rf"^(?:{_RAT}\+)?{_RAT}\*sqrt\((\d+)\)$")
_RAT_RE = re.compile(rf"^{_RAT}$")
MAX_RADICAND = 10 ** 12  # a prime near it splits by trial division to its cube root in about 1 ms


def parse(text: str) -> ExactReal:
    """Parse the bit-exact grammar: "p/q" or "p/q+r/s*sqrt(D)" (rational
    part omitted when zero, signs attached to numerators), D at most
    MAX_RADICAND, as its square part is split off by trial division."""
    if not isinstance(text, str):
        raise ParseError(f"expected a number string, got {text!r}")
    text = text.strip()
    m = _RAT_RE.match(text) or _SURD_RE.match(text)
    if m is None:
        raise ParseError(f"cannot parse {text!r}")
    try:
        ints = [*map(int, filter(None, m.groups()))]
    except ValueError:  # more digits than int() converts
        raise ParseError(f"too many digits in a number string of {len(text)} characters") from None
    if 0 in ints[1::2]:  # the denominators
        raise ParseError(f"zero denominator in {text!r}")
    if len(ints) == 2:  # p/q with q > 0: only the gcd to divide out
        return _make(ints[0], 0, ints[1], 0)
    *a, bp, bq, d = ints
    if bp == 0 or d < 2:
        raise ParseError(f"degenerate surd in {text!r}")
    if d > MAX_RADICAND:
        raise ParseError(f"radicand {d} is above the limit {MAX_RADICAND} in {text!r}")
    x = ExactReal(Fraction(*a) if a else Fraction(0), Fraction(bp, bq), d)
    if x.d != d:
        raise ParseError(f"radicand {d} is not squarefree in {text!r}")
    return x


def compare(x: ExactReal, y: ExactReal) -> int:
    """-1, 0 or 1 as x <, =, > y.  Raises MixedRadicands for surds over
    distinct radicands (ordering across fields is out of scope)."""
    return _cmp(_coerce(x), y)


def rational_between(lo: ExactReal, hi: ExactReal) -> Fraction:
    """Some rational strictly inside the open interval (lo, hi), found by
    exact dyadic bisection of [a, b] = [floor(lo), floor(hi) + 1].  The
    midpoint is inside once (b - a) / 2 < hi - lo, within the bit lengths
    of b - a and floor(1 / (hi - lo)) steps; past them, a fault fails.
    After s steps a and b are ints over 2^s, and each midpoint m is
    tested by the exact signs of lo - m and hi - m on integer forms, so
    no number is built until the one returned."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    a, b = lo.floor(), hi.floor() + 1
    steps = (b - a).bit_length() + (hi - lo).inverse().floor().bit_length() + 2
    for s in range(1, steps + 1):
        mid = a + b  # over 2^s
        if _sign((lo.p << s) - mid * lo.den, lo.q << s, lo.d) >= 0:
            a, b = mid, b << 1  # mid <= lo
        elif _sign((hi.p << s) - mid * hi.den, hi.q << s, hi.d) > 0:
            return Fraction(mid, 1 << s)
        else:
            a, b = a << 1, mid  # mid >= hi
    raise AssertionError(f"no rational found between {lo} and {hi} in {steps} bisection steps")


# The canonical integers of an ExactReal: equal exactly when the numbers
# are.  A C-level getter, so ValueTable keys its values on it without a
# Python-level __hash__ call per pair.
_form = operator.attrgetter("p", "q", "den", "d")


class ValueTable:
    """A construction's values in ascending order, each named by its
    index (its id), with the sums the construction reads.  It is built
    from groups (xs, ys) of values: for x in xs with id u and y in ys
    with id t, add[t][u] is the id of x + y; add holds no other sums.
    top is the id of the bound, or of the largest value when bound is
    None.  Id order is value order, so the shortest of several routes is
    an int min, and so is its truncation at the bound: a min that starts
    at top.  Each distinct pair of values in the groups is summed once,
    and the values are sorted once."""

    def __init__(self, groups, bound: ExactReal | None):
        objs = {} if bound is None else {_form(bound): bound}  # key -> an input object of that value
        sums = {}  # key -> a sum of that value
        rows = {}  # key of y -> {key of x: key of x + y}
        for xs, ys in groups:
            xs, ys = dict(zip(map(_form, xs), xs)), dict(zip(map(_form, ys), ys))
            objs.update(xs)
            objs.update(ys)
            for fy, y in ys.items():
                row = rows.setdefault(fy, {})
                todo = {fx: x for fx, x in xs.items() if fx not in row} if row else xs
                total = list(map(y.__add__, todo.values()))
                keys = list(map(_form, total))
                row.update(zip(todo, keys))
                sums.update(zip(keys, total))
        values = list({**sums, **objs}.values())  # an input object before a sum of the same value
        try:  # floats put most values in order, so the exact sort after makes about one compare a value
            values.sort(key=float)
        except OverflowError:  # a value past the float range: the exact sort alone
            pass
        values.sort()
        self.values = tuple(values)
        self._index = index = dict(zip(map(_form, values), range(len(values))))
        self.top = len(values) - 1 if bound is None else index[_form(bound)]
        self.add = {index[fy]: dict(zip(map(index.__getitem__, row), map(index.__getitem__, row.values())))
                    for fy, row in rows.items()}

    def ids(self, entries) -> list[int]:
        """The id of each entry."""
        return list(map(self._index.__getitem__, map(_form, entries)))
