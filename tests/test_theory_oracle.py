"""check_theory_T on bitmasks against its predecessor, tests/oracles.py.

Models come from random fragments (rational and over three quadratic
fields), with the default sample or a short user sample, and then have
their rq tables mutated by hand; a few have 4 to 6 values, the sizes of
the benchmark's theory jobs; others are hand-built random tables.
Clean models reach only the Satisfied branches, so the test also asserts
that the generated models reach every Violated branch and witness shape
of clauses (1)-(6).
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from deltaspace.coding import (
    NOT_FALSIFIABLE,
    SATISFIED,
    SMALL_RATIONALS,
    VIOLATED,
    EncodedModel,
    check_theory_T,
    model_encode,
)
from deltaspace.dvs import make_set
from deltaspace.exact import ExactReal

import oracles

RADICANDS = (0, 2, 5, 1000003)
# a coarse grid, so that sums of values are often values (clause 6)
GRID = [Fraction(p, q) for q in (1, 2) for p in range(1, 7)]


@st.composite
def fragment_values(draw, count=st.integers(1, 3)):
    """count (by default 1 to 3) positive values, over Q(sqrt D) some of them
    a + b*sqrt(D), and with two values often the sum of both, so that the
    model has sums."""
    d = draw(st.sampled_from(RADICANDS))
    out = []
    for _ in range(draw(count)):
        a = draw(st.sampled_from(GRID))
        if d and draw(st.booleans()):
            b = draw(st.sampled_from((Fraction(1, 3), Fraction(1, 2), Fraction(1))))
            out.append(ExactReal(a, b, d))
        else:
            out.append(ExactReal(a))
    if len(out) == 2 and draw(st.booleans()):
        out.append(out[0] + out[1])
    return out


# 9/2 = 3/2 * 3 and 9 = 3 * 3 lie outside SMALL_RATIONALS, so a clause (4)
# witness can be a triple of the listed block
BUILT_SAMPLE = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2), Fraction(2),
                Fraction(3), Fraction(4), Fraction(9, 2), Fraction(9)]
samples = st.one_of(
    st.none(),  # the default sample
    st.just([Fraction(1)]),
    st.lists(st.sampled_from(GRID + [Fraction(1, 6), Fraction(7, 2), Fraction(9)]), min_size=1, max_size=6),
)


@st.composite
def encoded_models(draw, values=fragment_values(), sample=samples):
    """model_encode on a random fragment, then a few hand mutations."""
    model = model_encode(make_set(draw(values)), draw(sample))
    n = len(model.universe)
    qs = sorted(model.rq)
    for _ in range(draw(st.integers(0, 4))):
        q = draw(st.sampled_from(qs))
        pairs = model.rq[q]
        kind = draw(st.sampled_from(("remove", "unsum", "add")))
        if kind == "remove" and pairs:
            model.rq[q] = pairs - {draw(st.sampled_from(sorted(pairs)))}
        elif kind == "unsum" and model.plus:
            # a sum's cut loses one of its q: what clause (6) can prove wrong
            pair = (draw(st.sampled_from(sorted(model.plus.values()))), draw(st.integers(1, n - 1)))
            cut = [p for p in qs if pair in model.rq[p]]
            if cut:
                p = draw(st.sampled_from(cut))
                model.rq[p] = model.rq[p] - {pair}
        else:
            # index 0, past the universe and negative indices included
            i, j = draw(st.integers(-2, n + 1)), draw(st.integers(-2, n + 1))
            model.rq[q] = pairs | {(i, j)}
    return model


def _entry(rnd, q, pair, n):
    """A random entry; on the diagonal mostly the unit cut's, so that the
    unit cut, reported after the other clause (2) checks of its row, does
    not hide them."""
    i, j = pair
    if i == j and 0 < i < n:
        return (q < 1) != (rnd.random() < 0.25)
    return rnd.random() < 0.5


@st.composite
def built_models(draw):
    """Hand-built tables: random pairs, out-of-range ones included, over a
    short sample rich in sums and products, and a random addition table.
    Most clauses have several violations here, so the witness rule shows."""
    values = draw(st.lists(st.sampled_from(GRID), min_size=1, max_size=4, unique=True))
    universe = (ExactReal(0),) + tuple(ExactReal(v) for v in values)
    index = st.integers(-1, len(universe))
    every_pair = list(itertools.product(range(-1, len(universe) + 1), repeat=2))
    qs = draw(st.lists(st.sampled_from(BUILT_SAMPLE), min_size=1, unique=True))
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    rq = {q: frozenset(pair for pair in every_pair if _entry(rnd, q, pair, len(universe))) for q in qs}
    plus = draw(st.dictionaries(st.tuples(index, index), index, max_size=3))
    return EncodedModel(universe, ExactReal(0), plus, rq)


def _branches(model, key, st_):
    """The branches of clause `key` that produced st_, for coverage; for
    (4) also the block of its witness triple: small when p, q and pq are
    all SMALL_RATIONALS, listed when one is outside them."""
    w = st_.witness
    if st_.status != VIOLATED:
        return [(key, st_.status)]
    if key == "2":
        return [(key, w[0] if isinstance(w[0], str) else "hole")]
    if key == "4":
        p, q, i, j, _ = w
        block = "small triple" if {p, q, p * q} <= set(SMALL_RATIONALS) else "listed triple"
        return [(key, "product missing" if (i, j) in model.rq[p] else "product unforced"), (key, block)]
    return [(key, VIOLATED)]


REQUIRED = {
    ("1", VIOLATED), ("2", "hole"), ("2", "full cut"), ("2", "unit cut"), ("3", VIOLATED),
    ("4", "product missing"), ("4", "product unforced"), ("4", "small triple"), ("4", "listed triple"),
    ("5", VIOLATED), ("5", NOT_FALSIFIABLE),
    ("6", VIOLATED), ("7", SATISFIED), ("7", NOT_FALSIFIABLE),
}


def _agree(models, examples, reached):
    @settings(max_examples=examples, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(models)
    def check(model):
        expected = oracles.check_theory_T(model)
        assert check_theory_T(model) == expected
        for key, st_ in expected.items():
            reached.update(_branches(model, key, st_))

    check()


def test_check_theory_T_matches_the_oracle():
    reached = Counter()
    _agree(encoded_models(), 100, reached)
    # the workload's sizes: 4 to 6 values on the default sample, 700 to 950
    # product triples, so the lifted masks span many machine words
    wide = fragment_values(st.integers(4, 6)).filter(lambda values: len(set(values)) >= 4)
    _agree(encoded_models(wide, st.none()), 15, reached)
    _agree(built_models(), 400, reached)
    assert REQUIRED <= set(reached), sorted(REQUIRED - set(reached))
