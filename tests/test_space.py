import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaspace import space
from deltaspace.dvs import make_set
from deltaspace.exact import ExactReal, MixedRadicands, parse
from deltaspace.space import (
    OK,
    PartialIsometry,
    Space,
    SpaceError,
    Violation,
    copies_of,
    isomorphic,
    make_space,
    uniform_space,
    validate,
)
import oracles
from util import random_space


def n1(v):
    return ExactReal(Fraction(v))


def test_validate_ok():
    assert validate(uniform_space(3, n1(1))) == OK


def test_validate_triangle_violation():
    x = make_space("abc", {(0, 1): n1(1), (1, 2): n1(1), (0, 2): n1(3)}, order=(0, 1, 2))
    v = validate(x)
    assert isinstance(v, Violation) and v.kind == "Triangle"


def test_validate_delta_violation():
    delta = make_set([n1(1), n1(2)])
    x = make_space("ab", {(0, 1): n1(3)}, order=(0, 1), delta=delta)
    v = validate(x)
    assert v.kind == "NotInDelta"


def test_validate_symmetry_and_order():
    bad = Space(("a", "b"), ((ExactReal(0), n1(1)), (n1(2), ExactReal(0))), (0, 1))
    assert validate(bad).kind == "Symmetry"
    bad_order = make_space("ab", {(0, 1): n1(1)}, order=(0, 0))
    assert validate(bad_order).kind == "BadOrder"


def test_copies_uniform():
    c = uniform_space(3, n1(1))
    a = uniform_space(2, n1(1))
    assert copies_of(c, a) == [(0, 1), (0, 2), (1, 2)]


def test_copies_absent_distance():
    c = uniform_space(3, n1(1))
    a = uniform_space(2, n1(5))
    assert copies_of(c, a) == []


def test_copies_of_a_larger_space_is_empty_at_once():
    # every distance matches, so only the size stops the rank-order search
    start = time.perf_counter()
    assert copies_of(uniform_space(30, n1(1)), uniform_space(45, n1(1))) == []
    assert time.perf_counter() - start < 1.0


def test_copies_of_hashes_each_value_of_a_once(monkeypatch):
    # value ids cached, as loading does: a's distinct values are looked
    # up in c's index once each, not once per pair of a's points
    c, a = uniform_space(62, n1(1)), uniform_space(60, n1(1))
    assert validate(c) == OK and validate(a) == OK
    hashes = []
    real = ExactReal.__hash__
    monkeypatch.setattr(ExactReal, "__hash__", lambda x: hashes.append(1) or real(x))
    found = copies_of(c, a)
    monkeypatch.undo()
    assert len(found) == 62 * 61 // 2 and found == sorted(found)
    assert len(hashes) < a.n


def test_copies_of_ignores_an_index_value_no_entry_of_a_has():
    # from_ids may seed a's index with a value no entry has; c lacking it
    # rules out no copy
    a = Space.from_ids(("x", "y"), (n1(0), n1(1), n1(7)), ((0, 1), (1, 0)), (0, 1))
    assert copies_of(uniform_space(3, n1(1)), a) == [(0, 1), (0, 2), (1, 2)]
    assert copies_of(uniform_space(3, n1(2)), a) == []


def test_copies_path():
    c = make_space("abc", {(0, 1): n1(1), (1, 2): n1(1), (0, 2): n1(2)}, order=(0, 1, 2))
    a = make_space("xy", {(0, 1): n1(2)}, order=(0, 1))
    assert copies_of(c, a) == [(0, 2)]


def test_isomorphic_identity():
    x = uniform_space(4, n1(1))
    assert isomorphic(x, x) == (0, 1, 2, 3)


def test_isomorphic_distance_mismatch():
    x = make_space("ab", {(0, 1): n1(1)}, order=(0, 1))
    y = make_space("ab", {(0, 1): n1(2)}, order=(0, 1))
    assert isomorphic(x, y) is None


def test_isomorphic_ordered_vs_unordered():
    x = make_space("ab", {(0, 1): n1(1)}, order=(0, 1))
    y = make_space("ab", {(0, 1): n1(1)})
    assert isomorphic(x, y) is None


def test_isomorphic_recovers_permutation():
    rng = random.Random(23)
    d = make_set([n1(1), n1(2), n1(3)], cap=n1(3))
    for _ in range(20):
        x = random_space(rng, 5, d)
        perm = list(range(5))
        rng.shuffle(perm)
        # move point i of x to position perm[i], keeping order and metric
        inv = [0] * 5
        for i, p in enumerate(perm):
            inv[p] = i
        dist = tuple(tuple(x.dist[inv[i]][inv[j]] for j in range(5)) for i in range(5))
        labels = tuple(x.labels[inv[i]] for i in range(5))
        order = tuple(perm[i] for i in x.order)
        y = Space(labels, dist, order, x.delta)
        assert validate(y) == OK
        m = isomorphic(x, y)
        assert m == tuple(perm)


def test_isomorphic_unordered_backtracking():
    x = make_space("abc", {(0, 1): n1(1), (1, 2): n1(2), (0, 2): n1(3)})
    y = make_space("abc", {(0, 1): n1(3), (1, 2): n1(1), (0, 2): n1(2)})
    m = isomorphic(x, y)
    assert m is not None
    for i in range(3):
        for j in range(3):
            assert x.dist[i][j] == y.dist[m[i]][m[j]]


def test_copies_cross_check_exhaustive():
    rng = random.Random(31)
    d = make_set([n1(1), n1(2)], cap=n1(2))
    for _ in range(10):
        c = random_space(rng, 6, d)
        a = random_space(rng, 3, d)
        found = set(copies_of(c, a))
        for subset in itertools.combinations(range(6), 3):
            hit = isomorphic(c.induced(subset), a) is not None
            assert hit == (subset in found)


def test_validate_hereditary():
    rng = random.Random(37)
    d = make_set([n1(1), n1(2), n1(4)], cap=n1(4))
    for _ in range(20):
        x = random_space(rng, 6, d)
        assert validate(x) == OK
        for size in range(1, 6):
            for subset in itertools.combinations(range(6), size):
                assert validate(x.induced(subset)) == OK


def test_partial_isometry_flags():
    x = uniform_space(3, n1(1))
    p = PartialIsometry(x, ((0, 1), (1, 2)))
    assert p.is_isometry()
    assert p.order_preserving
    q = PartialIsometry(x, ((0, 2), (1, 0)))
    assert q.is_isometry()  # uniform space: all distances equal
    assert not q.order_preserving  # 0 < 1 but the images satisfy 2 > 0
    with pytest.raises(SpaceError):
        PartialIsometry(x, ((0, 1), (0, 2)))


def test_partial_isometry_order_flag_detects_reversal():
    x = uniform_space(3, n1(1))
    rev = PartialIsometry(x, ((0, 2), (2, 0)))
    assert not rev.order_preserving


def test_order_preserving_is_derived_not_passed():
    # an unordered space has no order to preserve
    assert not PartialIsometry(uniform_space(3, n1(1), ordered=False), ((0, 1),)).order_preserving
    with pytest.raises(TypeError):
        PartialIsometry(uniform_space(3, n1(1)), ((0, 2), (2, 0)), order_preserving=True)


def test_json_round_trip():
    rng = random.Random(41)
    d = make_set([n1(1), n1(2)], cap=n1(2))
    x = random_space(rng, 4, d)
    assert Space.from_json(x.to_json()) == x
    y = make_space("ab", {(0, 1): n1(1)})
    assert Space.from_json(y.to_json()) == y


# in the fragment {1, 2, 3}, out of it, zero, and irrational
ENTRIES = [ExactReal(0), n1(Fraction(1, 2)), n1(1), n1(2), n1(3), n1(4), n1(7), ExactReal.sqrt(2)]


@st.composite
def grown_spaces(draw):
    """(x, y): a valid random space x and y, x with 1-2 appended points
    whose rows are arbitrary: possibly out of the fragment, non-metric,
    asymmetric, with a nonzero diagonal or a broken order."""
    d = make_set([n1(1), n1(2), n1(3)], cap=n1(3))
    ordered, bound = draw(st.booleans()), draw(st.booleans())
    x = random_space(random.Random(draw(st.integers(0, 10 ** 6))), draw(st.integers(0, 4)), d,
                     ordered=ordered, delta_bound=bound)
    n = x.n + draw(st.integers(1, 2))
    entry = st.sampled_from(ENTRIES)
    dist = [list(row) + [None] * (n - x.n) for row in x.dist] + [[None] * n for _ in range(n - x.n)]
    for p in range(x.n, n):
        dist[p][p] = draw(entry) if draw(st.integers(0, 7)) == 0 else ExactReal(0)
        for q in range(p):
            v = draw(entry)
            dist[p][q] = v
            dist[q][p] = draw(entry) if draw(st.integers(0, 7)) == 0 else v
    order = None
    if ordered:
        order = list(x.order)
        for p in range(x.n, n):
            order.insert(draw(st.integers(0, len(order))), p)
        if draw(st.integers(0, 7)) == 0:
            order[draw(st.integers(0, n - 1))] = draw(st.integers(0, n - 1))
    y = Space(tuple(f"p{i}" for i in range(n)), tuple(tuple(r) for r in dist),
              tuple(order) if ordered else None, x.delta)
    return x, y


@settings(max_examples=300, deadline=None)
@given(grown_spaces())
def test_validate_since_agrees_with_the_full_check(xy):
    x, y = xy
    assert validate(x) == OK
    full = validate(y)
    # complete: x is valid, so only entries touching the new points can fail
    assert validate(y, since=x.n) == full
    expected = oracles.validate(y)
    assert (full == OK) == (expected == OK)
    if full != OK:
        assert full.kind == expected.kind
        if full.kind == "Triangle":
            i, j, k = full.witness
            assert len({i, j, k}) == 3 and y.dist[i][k] > y.dist[i][j] + y.dist[j][k]
        else:
            assert full == expected


def test_validate_since_skips_the_prefix():
    # the violation sits among points 0-2 only; since=3 trusts them
    x = make_space("abcd", {(0, 1): n1(1), (1, 2): n1(1), (0, 2): n1(3),
                            (0, 3): n1(2), (1, 3): n1(2), (2, 3): n1(2)})
    assert validate(x).kind == "Triangle"
    assert validate(x, since=3) == OK


@st.composite
def distinct_spaces(draw):
    """A space whose distances are mostly distinct, so the triangle memo
    mostly misses: rationals in [1/2, 3] with large denominators, some
    multiples of sqrt(2) and rarely of sqrt(3).  Sometimes asymmetric,
    with a nonzero diagonal, a broken order or a fragment."""
    n = draw(st.integers(0, 7))
    value = st.one_of(
        st.fractions(Fraction(1, 2), 3, max_denominator=1000).map(ExactReal),
        st.fractions(Fraction(1, 2), 2, max_denominator=20).map(lambda b: ExactReal(0, b, 2)),
    )
    rare = st.integers(0, 15).map(lambda r: r == 0)
    dist = [[ExactReal(0)] * n for _ in range(n)]
    for i in range(n):
        if draw(rare):
            dist[i][i] = draw(value)
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = ExactReal.sqrt(3) if draw(rare) else draw(value)
            if draw(rare):
                dist[j][i] = draw(value)
    order = None
    if draw(st.booleans()):
        order = list(draw(st.permutations(range(n))))
        if n and draw(rare):
            order[0] = order[-1]
    delta = make_set([n1(1), n1(2), n1(3)], cap=n1(3)) if draw(st.booleans()) else None
    return Space(tuple(f"p{i}" for i in range(n)), tuple(map(tuple, dist)),
                 tuple(order) if order is not None else None, delta)


def outcome(check, y, since):
    try:
        return check(y, since)
    except MixedRadicands as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.one_of(grown_spaces().map(lambda xy: xy[1]), distinct_spaces()))
def test_memoised_validate_matches_the_triple_by_triple_test(y):
    # equal kind and witness, or the same MixedRadicands, for every since
    for since in range(y.n + 1):
        assert outcome(validate, y, since) == outcome(oracles.validate_by_triple, y, since)


# What one entry of a valid space over {1, 2, 3} becomes: another value
# of the fragment, zero, its negative, a value outside the fragment, or
# an equal value in a new object (no violation at all).
CORRUPTIONS = {
    "other": lambda v, draw: draw(st.sampled_from([w for w in (n1(1), n1(2), n1(3)) if w != v])),
    "zero": lambda v, draw: ExactReal(0),
    "negative": lambda v, draw: -v,
    "outside": lambda v, draw: draw(st.sampled_from([n1(Fraction(5, 2)), n1(4)])),
    "copy": lambda v, draw: parse(str(v)),
}


@st.composite
def corrupted_spaces(draw):
    """A valid random space over {1, 2, 3}, bound to it, with one entry
    corrupted, on one side of the diagonal or on both."""
    d = make_set([n1(1), n1(2), n1(3)], cap=n1(3))
    x = random_space(random.Random(draw(st.integers(0, 10 ** 6))), draw(st.integers(2, 7)), d,
                     ordered=draw(st.booleans()))
    i, j = draw(st.permutations(range(x.n)))[:2]
    dist = [list(row) for row in x.dist]
    dist[i][j] = CORRUPTIONS[draw(st.sampled_from(sorted(CORRUPTIONS)))](dist[i][j], draw)
    if draw(st.booleans()):
        dist[j][i] = dist[i][j]
    return Space(x.labels, tuple(map(tuple, dist)), x.order, x.delta)


@settings(max_examples=200, deadline=None)
@given(corrupted_spaces())
def test_pair_checks_on_value_ids_keep_the_witness(y):
    # Symmetry, Positivity and NotInDelta read value ids, which are keyed
    # on objects first: the same first violation, witness included, for
    # every since
    for since in range(y.n + 1):
        assert validate(y, since) == oracles.validate_by_triple(y, since)


SQRT2 = ExactReal.sqrt(2)
# (values of a valid start, values an entry may change to): few distinct
# values, so the full check decides triangles on masks unless the
# values span two radicands
VALUE_KINDS = [
    ([n1(1), n1(2), n1(3)], [n1(1), n1(5)]),
    ([n1(1), SQRT2, 2 * SQRT2], [n1(3), 3 * SQRT2]),
    ([n1(1), n1(2)], [SQRT2, ExactReal.sqrt(3), n1(4)]),
]


@st.composite
def few_value_spaces(draw):
    """A valid random space over few values with one to three entries
    changed, symmetrically: few broken triangles, or none, so a mask
    test that misses one shows."""
    start, extra = draw(st.sampled_from(VALUE_KINDS))
    n = draw(st.integers(6, 10))
    x = random_space(random.Random(draw(st.integers(0, 10 ** 6))), n, make_set(start),
                     ordered=draw(st.booleans()), delta_bound=False)
    dist = [list(row) for row in x.dist]
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.permutations(range(n)))[:2]
        dist[i][j] = dist[j][i] = draw(st.sampled_from(start + extra))
    return Space(x.labels, tuple(map(tuple, dist)), x.order)


@settings(max_examples=150, deadline=None)
@given(few_value_spaces())
def test_mask_validate_matches_the_loops(y):
    # the check on masks, full or from any since, gives the
    # triple-by-triple test's verdict, witness or exception
    for since in range(y.n + 1):
        assert outcome(validate, y, since) == outcome(oracles.validate_by_triple, y, since)
    if len({v.d for v in y.value_ids[0] if v.d}) <= 1:
        full, expected = validate(y), oracles.validate(y)
        assert (full == OK) == (expected == OK)
        assert full == OK or full.kind == expected.kind == "Triangle"


@st.composite
def mask_test_spaces(draw):
    """A few_value_spaces space, sometimes with a zero off the diagonal."""
    y = draw(few_value_spaces())
    if draw(st.booleans()):
        i, j = draw(st.permutations(range(y.n)))[:2]
        dist = [list(row) for row in y.dist]
        dist[i][j] = dist[j][i] = ExactReal(0)
        y = Space(y.labels, tuple(map(tuple, dist)), y.order)
    return y


@settings(max_examples=150, deadline=None)
@given(mask_test_spaces())
def test_the_sorted_bad_pair_table_matches_the_scan(y):
    # the same table, and the same mask verdict for every since, with the
    # same fallbacks: an old zero off the diagonal, or two radicands
    vals = list(y.value_ids[0])
    if len({v.d for v in vals if v.d}) <= 1:
        pos = [u for u, v in enumerate(vals) if not v.is_zero()]
        assert space._bad_pairs(vals, pos) == oracles.bad_pairs(vals, pos)
    for since in range(y.n + 1):
        assert space._no_broken_triangle(y, vals, since) == oracles.no_broken_triangle(y, vals, since)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([0, 2, 5]).flatmap(lambda d: st.lists(
    st.builds(lambda a, b: ExactReal(a, b, d) if d else ExactReal(a),
              st.fractions(-2, 4, max_denominator=4), st.fractions(0, 2, max_denominator=3)),
    max_size=14, unique=True)))
def test_the_sorted_bad_pair_table_matches_the_scan_on_many_values(vals):
    # up to 14 values of one field, negative ones too, ids in drawn order
    pos = [u for u, v in enumerate(vals) if not v.is_zero()]
    assert space._bad_pairs(vals, pos) == oracles.bad_pairs(vals, pos)


# (a fragment, a value outside it) for spaces built from ids
ID_FRAGMENTS = [
    ([n1(1), n1(2), n1(3)], n1(Fraction(5, 2))),
    ([n1(Fraction(1, 2)), n1(1), n1(Fraction(3, 2)), n1(2)], n1(Fraction(7, 4))),
    ([SQRT2, 2 * SQRT2, 3 * SQRT2], n1(1)),
]


@st.composite
def id_rows(draw):
    """(labels, values, ids, order, delta): a valid random space over a
    fragment, as ids into a drawn order of 0, the fragment, a value
    outside it and 3 times its cap.  Mostly one entry is corrupted: on
    one side of the diagonal, or on both to zero, to the outside value,
    or to 3 times the cap, which breaks every triangle it is in."""
    frag, outside = draw(st.sampled_from(ID_FRAGMENTS))
    d = make_set(frag, cap=frag[-1])
    n = draw(st.integers(0, 8))
    x = random_space(random.Random(draw(st.integers(0, 10 ** 6))), n, d, ordered=draw(st.booleans()))
    big = 3 * frag[-1]
    values = draw(st.permutations([ExactReal(0), *frag, outside, big]))
    name = dict(zip(values, range(len(values))))
    ids = [[name[v] for v in row] for row in x.dist]
    kind = draw(st.sampled_from(["none", "one side", "zero", "outside", "triangle"]))
    if n >= 2 and kind != "none":
        i, j = draw(st.permutations(range(n)))[:2]
        if kind == "one side":
            ids[i][j] = draw(st.sampled_from([u for u in range(len(values)) if u != ids[i][j]]))
        else:
            ids[i][j] = ids[j][i] = name[{"zero": ExactReal(0), "outside": outside, "triangle": big}[kind]]
    return x.labels, values, ids, x.order, d if draw(st.booleans()) else None


@settings(max_examples=200, deadline=None)
@given(id_rows())
def test_a_space_built_from_ids_is_the_space_of_its_values(drawn):
    # the same space, verdict, witness, text and masks (up to the names
    # of the ids) as the space built from the values, for every since
    labels, values, ids, order, delta = drawn
    x = Space.from_ids(labels, values, ids, order, delta)
    y = Space(labels, tuple(tuple(values[u] for u in row) for row in ids), order, delta)
    assert all(x.dist[i][j] == values[u] for i, row in enumerate(ids) for j, u in enumerate(row))
    assert x.value_ids[1] == tuple(map(tuple, ids))  # seeded: the rows given, not renumbered
    assert x == y and x.to_json() == y.to_json()
    for since in range(x.n + 1):
        assert outcome(validate, x, since) == outcome(validate, y, since)

    def by_value(s):
        return [{v: mask for v, mask in zip(s.value_ids[0], row) if mask} for row in s.masks]

    assert by_value(x) == by_value(y)


def test_from_ids_needs_ids_that_name_distinct_values():
    with pytest.raises(SpaceError, match="values must be distinct"):
        Space.from_ids("ab", [n1(0), n1(1), n1(1)], [[0, 1], [1, 0]])
    for bad in (-1, 2):  # a negative id would index the values from the end
        with pytest.raises(SpaceError, match=f"id {bad} names no value"):
            Space.from_ids("ab", [n1(0), n1(1)], [[0, bad], [bad, 0]])


def test_mask_validate_tests_old_pairs_through_a_new_middle_point():
    # over {1, 2, 3}: the one broken triangle is 0-5-1, its long side
    # d(0, 1) = 3 between points below every since from 2 to 5
    dists = {(i, j): n1(2) for i, j in itertools.combinations(range(6), 2)}
    dists[0, 1], dists[0, 5], dists[1, 5] = n1(3), n1(1), n1(1)
    x = make_space("abcdef", dists)
    assert len(x.value_ids[0]) ** 3 <= x.n * (x.n - 1) * (x.n - 2)  # the masks decide
    for since in range(x.n + 1):
        assert validate(x, since) == oracles.validate_by_triple(x, since)
    assert validate(x, 5) == Violation("Triangle", (0, 5, 1))
    assert validate(x, 6) == OK


def test_mask_validate_leaves_an_old_zero_to_the_loop():
    # d(0, 1) = 0 below since breaks 0-1-5 (2 > 0 + 1); the table has no
    # zero id, so the loop decides
    dists = {(i, j): n1(2) for i, j in itertools.combinations(range(6), 2)}
    dists[0, 1], dists[1, 5] = ExactReal(0), n1(1)
    x = make_space("abcdef", dists)
    for since in range(x.n + 1):
        assert validate(x, since) == oracles.validate_by_triple(x, since)
    assert validate(x, 5) == Violation("Triangle", (0, 1, 5))


def test_validate_falls_back_to_the_loop_on_many_values():
    # 4 points and 6 distinct distances besides 0: |V|^3 = 343 > 4 * 3 * 2
    x = make_space("abcd", {(0, 1): n1(1), (0, 2): n1(2), (1, 2): n1(Fraction(7, 2)),
                            (0, 3): n1(3), (1, 3): n1(4), (2, 3): n1(5)})
    assert len(x.value_ids[0]) ** 3 > x.n * (x.n - 1) * (x.n - 2)
    assert validate(x) == oracles.validate_by_triple(x) == Violation("Triangle", (1, 0, 2))


def test_masks_list_the_points_at_each_distance():
    x = make_space("abc", {(0, 1): n1(1), (0, 2): n1(2), (1, 2): n1(1)})
    index, ids = x.value_ids
    assert list(index) == [n1(0), n1(1), n1(2)]
    assert ids == ((0, 1, 2), (1, 0, 1), (2, 1, 0))
    assert x.masks == ((0b001, 0b010, 0b100), (0b010, 0b101, 0), (0b100, 0b010, 0b001))


def test_two_radicands_keep_the_loop_witness():
    # few enough values for masks, but sqrt(2) and sqrt(3) cannot meet in
    # the table: the loop finds the broken triangle at points 0-2 before
    # any triple that mixes them
    dists = {(i, j): n1(2) for i, j in itertools.combinations(range(8), 2)}
    dists[0, 1] = dists[1, 2] = n1(1)
    dists[0, 2] = n1(3)
    dists[5, 7], dists[6, 7] = SQRT2, ExactReal.sqrt(3)
    x = make_space("abcdefgh", dists)
    assert len(x.value_ids[0]) ** 3 <= x.n * (x.n - 1) * (x.n - 2)
    assert validate(x) == oracles.validate_by_triple(x) == Violation("Triangle", (0, 1, 2))


def test_mixed_radicands_raise_in_both_validates():
    x = make_space("abc", {(0, 1): ExactReal.sqrt(2), (1, 2): ExactReal.sqrt(3), (0, 2): n1(1)})
    for check in (validate, oracles.validate_by_triple):
        with pytest.raises(MixedRadicands):
            check(x)


TEXTS = ["0/1", "1/1", " 1/1", "2/2", "3/2", "1/1*sqrt(2)", "-1/1+1/1*sqrt(2)", "1/1+1/1*sqrt(2)"]


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.sampled_from(TEXTS), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_parse_cache_matches_the_uncached_parse(rows):
    x = Space.from_json({"labels": [f"p{i}" for i in range(len(rows))], "dist": rows})
    assert x.dist == tuple(tuple(parse(v) for v in row) for row in rows)
