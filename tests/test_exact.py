import itertools
import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from deltaspace import exact
from deltaspace.exact import (
    MAX_RADICAND,
    DivisionByZero,
    ExactReal,
    MixedRadicands,
    ParseError,
    ValueTable,
    _squarefree_split,
    compare,
    parse,
    rational_between,
)
import oracles
from oracles import old, old_add, old_compare, old_inverse, old_mul, old_neg, old_sign

SQRT2 = ExactReal.sqrt(2)


def test_compare_rationals():
    assert compare(ExactReal(Fraction(1, 2)), ExactReal(Fraction(1, 3))) == 1


def test_compare_surd_with_rational():
    # sign analysis: 2 < 9/4 after squaring
    assert compare(SQRT2, ExactReal(Fraction(3, 2))) == -1


def test_compare_equal_surds():
    assert compare(SQRT2, ExactReal.sqrt(2)) == 0


def test_compare_mixed_radicands_raises():
    with pytest.raises(MixedRadicands):
        compare(SQRT2, ExactReal.sqrt(3))


def test_eq_across_radicands_is_false():
    # sqrt(2) and sqrt(3) are distinct reals; equality is decidable even
    # though ordering across fields is not supported
    assert SQRT2 != ExactReal.sqrt(3)
    assert not (SQRT2 == ExactReal.sqrt(3))


def test_conjugate_product():
    assert (ExactReal(1) + SQRT2) * (ExactReal(1) - SQRT2) == ExactReal(-1)


def test_rationalized_inverse():
    inv = ExactReal(1) / SQRT2
    assert inv == ExactReal(0, Fraction(1, 2), 2)
    assert inv * SQRT2 == ExactReal(1)


def test_additive_identity():
    x = ExactReal(Fraction(3, 7), Fraction(-2, 5), 3)
    assert x + ExactReal(0) == x


def test_sqrt_squares_to_radicand():
    for d in (2, 3, 5, 6, 7, 10, 11, 13):
        assert ExactReal.sqrt(d) * ExactReal.sqrt(d) == ExactReal(d)


def test_radicand_normalization():
    assert ExactReal.sqrt(8) == ExactReal(0, 2, 2)
    assert ExactReal.sqrt(12) == ExactReal(0, 2, 3)
    # perfect squares collapse to rationals
    assert ExactReal(0, 1, 9) == ExactReal(3)
    assert ExactReal(0, 1, 9).is_rational


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        ExactReal(1) / ExactReal(0)


def test_str_grammar():
    assert str(ExactReal(Fraction(-3, 4))) == "-3/4"
    assert str(SQRT2) == "1/1*sqrt(2)"
    assert str(ExactReal(Fraction(1, 2), Fraction(-2, 3), 5)) == "1/2+-2/3*sqrt(5)"


def test_parse_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        d = rng.choice([2, 3, 5, 7])
        x = ExactReal(a, b, d)
        assert parse(str(x)) == x


def test_parse_rejects_bad_input():
    # a denominator spelt "00" in a surd was a ZeroDivisionError
    for text in ("", "1", "1/0", "sqrt(2)", "1/2+1/3*sqrt(4)", "0/1*sqrt(2)",
                 "1/00+1/1*sqrt(2)", "1/00*sqrt(2)", "1/1+1/00*sqrt(2)"):
        with pytest.raises(ParseError):
            parse(text)


def test_parse_rejects_a_radicand_above_the_limit():
    # the radicand's split trial-divides up to its square root, so a
    # 30-digit one would take hours; it is rejected before the split
    start = time.perf_counter()
    for text in ("1/1*sqrt(" + "7" * 30 + ")", "1/2+1/1*sqrt(1000000000039)"):
        with pytest.raises(ParseError, match=f"above the limit {MAX_RADICAND}"):
            parse(text)
    assert time.perf_counter() - start < 1
    assert parse("1/1*sqrt(999999999989)").d == 999999999989  # a prime just below the limit


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int() has a digit limit only on Python 3.11+")
def test_parse_rejects_more_digits_than_int_converts():
    # int() raised a ValueError
    with pytest.raises(ParseError, match="too many digits"):
        parse("1" * (sys.get_int_max_str_digits() + 1) + "/1")


def test_floor():
    assert SQRT2.floor() == 1
    assert (-SQRT2).floor() == -2
    assert ExactReal(Fraction(7, 2)).floor() == 3
    assert ExactReal(3).floor() == 3


def test_rational_between():
    lo, hi = SQRT2, ExactReal(Fraction(3, 2))
    mid = rational_between(lo, hi)
    assert lo < ExactReal(mid) < hi
    with pytest.raises(ValueError):
        rational_between(hi, lo)


def test_rational_between_fails_rather_than_loops(monkeypatch):
    # with every sign read as positive, each midpoint of [3, 5] seems at or
    # below 3, so the bisection only raises its lower end and never enters
    # (3, 4)
    monkeypatch.setattr(exact, "_sign", lambda a, b, d: 1)
    start = time.perf_counter()
    with pytest.raises(AssertionError, match="bisection steps"):
        rational_between(ExactReal(3), ExactReal(4))
    assert time.perf_counter() - start < 1


def test_compare_agrees_with_float_on_random_surds():
    rng = random.Random(20260824)
    checked = 0
    for _ in range(10000):
        d = rng.choice([2, 3, 5, 7])
        x = ExactReal(Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
                      Fraction(rng.randint(-50, 50), rng.randint(1, 20)), d)
        y = ExactReal(Fraction(rng.randint(-50, 50), rng.randint(1, 20)),
                      Fraction(rng.randint(-50, 50), rng.randint(1, 20)), d)
        gap = float(x) - float(y)
        if abs(gap) <= 1e-6:
            continue
        checked += 1
        assert compare(x, y) == (1 if gap > 0 else -1)
    assert checked > 9000  # the filter should discard very few pairs


def test_field_axioms_on_random_triples():
    rng = random.Random(99)
    for _ in range(300):
        d = rng.choice([2, 5])
        def r():
            return ExactReal(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                             Fraction(rng.randint(-9, 9), rng.randint(1, 9)), d)
        a, b, c = r(), r(), r()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not b.is_zero():
            assert (a * b) / b == a


# -- cross-checks against the Fraction-pair formulas of the earlier
# representation (tests/oracles.py)

def components(x: ExactReal):
    return x.a, x.b, x.d


BIG = 10 ** 30
RADICANDS = (2, 3, 5, 1000003)
# small values make equal numbers and zero parts likely; large ones stress
# the cross-multiplication
fractions = st.one_of(
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)),
)
surd_parts = st.one_of(st.just(Fraction(0)), fractions)


@st.composite
def pairs_over_one_radicand(draw):
    d = draw(st.sampled_from(RADICANDS))
    return (draw(fractions), draw(surd_parts), d), (draw(fractions), draw(surd_parts), d)


def assert_canonical(x: ExactReal):
    assert x.den > 0
    assert math.gcd(x.p, x.q, x.den) == 1
    assert (x.d == 0) == (x.q == 0)
    if x.d:
        assert oracles.squarefree_split(x.d)[0] == 1


@settings(max_examples=300, deadline=None)
@given(pairs_over_one_radicand())
def test_arithmetic_agrees_with_the_fraction_formulas(pair):
    (xa, xb, d), (ya, yb, _) = pair
    x, y = ExactReal(xa, xb, d), ExactReal(ya, yb, d)
    ox, oy = old(xa, xb, d), old(ya, yb, d)
    assert components(x) == ox and components(y) == oy
    results = [
        (x + y, old_add(ox, oy)),
        (x - y, old_add(ox, old_neg(oy))),
        (-x, old_neg(ox)),
        (x * y, old_mul(ox, oy)),
    ]
    if not y.is_zero():
        results += [(x / y, old_mul(ox, old_inverse(oy))), (y.inverse(), old_inverse(oy))]
    for got, want in results:
        assert components(got) == want
        assert_canonical(got)


@settings(max_examples=300, deadline=None)
@given(pairs_over_one_radicand())
def test_order_and_equality_agree_with_the_fraction_formulas(pair):
    (xa, xb, d), (ya, yb, _) = pair
    x, y = ExactReal(xa, xb, d), ExactReal(ya, yb, d)
    want = old_compare(old(xa, xb, d), old(ya, yb, d))
    assert compare(x, y) == want == -compare(y, x)
    assert x.sign() == old_sign(old(xa, xb, d))
    assert (x < y, x <= y, x > y, x >= y) == (want < 0, want <= 0, want > 0, want >= 0)
    assert (x == y) == (want == 0)
    assert (x == xa) == (x.b == 0) == (x == ExactReal(xa))
    if want == 0:
        assert hash(x) == hash(y)
    # the same value reached another way is equal and hashes equal
    z = (x + y) - y
    assert z == x and hash(z) == hash(x)
    n = x.floor()
    assert old_compare(old(n), old(xa, xb, d)) <= 0 < old_compare(old(n + 1), old(xa, xb, d))


@settings(max_examples=200, deadline=None)
@given(fractions, surd_parts, st.sampled_from(RADICANDS))
def test_parse_inverts_str(a, b, d):
    x = ExactReal(a, b, d)
    assert parse(str(x)) == x


@settings(max_examples=200, deadline=None)
@given(fractions, surd_parts, st.sampled_from((4, 8, 9, 12, 18, 50, 4 * 1000003)))
def test_public_constructor_splits_the_radicand(a, b, d):
    x = ExactReal(a, b, d)
    assert components(x) == old(a, b, d)
    assert_canonical(x)
    s, m = oracles.squarefree_split(d)
    split = ExactReal(a, b * s, m) if m > 1 else ExactReal(a + b * s)
    assert x == split and hash(x) == hash(split)


def _primes_near(centre, count):
    """The count primes closest below centre and the count from centre up."""
    def prime(n):
        return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))
    below = itertools.islice(filter(prime, range(centre - 1, 1, -1)), count)
    return [*below, *itertools.islice(filter(prime, itertools.count(centre)), count)]


# primes near 10**4 and 10**6, whose products split only past the cube
# root or need the closing isqrt to tell p*p from p*q
NEAR_PRIMES = _primes_near(10 ** 4, 4) + _primes_near(10 ** 6, 4)
structured = st.builds(lambda p, q, shape: (p * p, p * q, p * p * q)[shape],
                       st.sampled_from(NEAR_PRIMES), st.sampled_from(NEAR_PRIMES), st.integers(0, 2))


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.integers(1, MAX_RADICAND), structured.filter(lambda n: n <= MAX_RADICAND)))
def test_squarefree_split_matches_plain_trial_division(n):
    assert _squarefree_split(n) == oracles.squarefree_split(n)


def test_squarefree_split_matches_plain_trial_division_below_two_thousand():
    assert [_squarefree_split(n) for n in range(1, 2000)] == [oracles.squarefree_split(n) for n in range(1, 2000)]


@settings(max_examples=100, deadline=None)
@given(fractions, fractions.filter(bool), fractions, fractions.filter(bool),
       st.sampled_from([(2, 3), (5, 1000003), (3, 1000003)]))
def test_mixed_radicands_raise(xa, xb, ya, yb, radicands):
    x, y = ExactReal(xa, xb, radicands[0]), ExactReal(ya, yb, radicands[1])
    assert x != y
    for op in (
        lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y,
        lambda: x < y, lambda: x <= y, lambda: x > y, lambda: x >= y, lambda: compare(x, y),
    ):
        with pytest.raises(MixedRadicands):
            op()


@settings(max_examples=200, deadline=None)
@given(fractions, surd_parts, fractions, surd_parts, st.sampled_from((0, 2, 5, 1000003)))
def test_rational_between_matches_the_bisection(xa, xb, ya, yb, d):
    # d = 0 draws a rational interval
    x, y = (ExactReal(a, b, d) if d else ExactReal(a) for a, b in ((xa, xb), (ya, yb)))
    assume(x != y)
    lo, hi = min(x, y), max(x, y)
    assert rational_between(lo, hi) == oracles.rational_between(lo, hi)


# -- the value table ---------------------------------------------------------

# small parts make repeated values and repeated pairs likely, and keep
# distinct values apart by far more than a float's rounding
small = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def table_groups(draw):
    """Groups (xs, ys) of rationals (d = 0) or of surds over one
    radicand, and a bound drawn from the same values, or None."""
    d = draw(st.sampled_from((0, 2, 5)))
    value = st.builds(lambda a, b: ExactReal(a, b, d) if d else ExactReal(a), small, small)
    groups = draw(st.lists(st.tuples(st.lists(value, max_size=6), st.lists(value, max_size=6)), max_size=3))
    return groups, draw(st.none() | value)


@settings(max_examples=300, deadline=None)
@given(table_groups())
def test_value_table_sorts_names_and_sums_its_groups(drawn):
    groups, bound = drawn
    sums, compares = [], []
    add, lt = ExactReal.__add__, ExactReal.__lt__
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ExactReal, "__add__", lambda x, y: sums.append(1) or add(x, y))
        mp.setattr(ExactReal, "__lt__", lambda x, y: compares.append(1) or lt(x, y))
        table = ValueTable(groups, bound)
    values = table.values
    pairs = {(x, y) for xs, ys in groups for x in xs for y in ys}  # distinct by value
    assert len(sums) == len(pairs)  # one sum per distinct pair
    assert all(x < y for x, y in zip(values, values[1:]))
    assert set(values) == {*(x + y for x, y in pairs), *(v for g in groups for vs in g for v in vs),
                           *([] if bound is None else [bound])}
    assert table.ids(values) == list(range(len(values)))
    ids = dict(zip(values, range(len(values))))
    assert table.top == (len(values) - 1 if bound is None else ids[bound])
    assert {(t, u) for t, row in table.add.items() for u in row} == {(ids[y], ids[x]) for x, y in pairs}
    assert all(values[table.add[ids[y]][ids[x]]] == x + y for x, y in pairs)
    # the float presort leaves the exact sort one compare a value
    assert len(compares) <= max(len(values) - 1, 0)
