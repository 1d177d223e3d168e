"""The backtracking engine, and cross-checks of every search built on it
against brute-force enumeration (tests/oracles.py, no search code)."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltaspace.coding import DvsCode, TriangleStructure, approx_check, triangle_structure, ts_isomorphic
from deltaspace.dvs import make_set
from deltaspace.exact import ExactReal
from deltaspace.ramsey import FAILS, HOLDS, UNKNOWN, RamseyError, arrow
from deltaspace.recheck import _induces, verify_bad_coloring
from deltaspace.search import BudgetExceeded, injective_maps
from deltaspace.space import Space, copies_of, isomorphic, isomorphisms, make_space, uniform_space

import oracles


def permutation_maps(n, k, budget=None):
    return injective_maps(n, lambda m, i: range(k), lambda m, i: True, budget)


def test_search_yields_in_depth_first_order_and_counts_nodes():
    assert list(permutation_maps(3, 3)) == list(itertools.permutations(range(3)))
    # 3 + 6 + 6 nodes: a budget of 15 completes, one of 14 does not
    assert list(permutation_maps(3, 3, budget=15)) == list(itertools.permutations(range(3)))
    with pytest.raises(BudgetExceeded, match="search exceeded 14 nodes"):
        list(permutation_maps(3, 3, budget=14))


def test_search_empty_assignment():
    assert list(permutation_maps(0, 2)) == [()]
    assert list(permutation_maps(0, 2, budget=0)) == [()]
    assert list(permutation_maps(2, 0)) == []
    assert list(permutation_maps(3, 2)) == []  # no injective map of 3 into 2


def test_search_budget_counts_the_node_that_crosses_it():
    # consistent sees each node within the budget; the 6th node raises
    # before it is placed, after the maps found by then are yielded
    tried = []

    def consistent(m, i):
        tried.append((i, m[i]))
        return True

    maps = injective_maps(3, lambda m, i: range(3), consistent, budget=5)
    assert [next(maps), next(maps)] == [(0, 1, 2), (0, 2, 1)]
    with pytest.raises(BudgetExceeded, match="search exceeded 5 nodes"):
        next(maps)
    assert tried == [(0, 0), (1, 1), (2, 2), (1, 2), (2, 1)]


def test_search_depth_is_not_bounded_by_recursion():
    def chain(budget):
        return injective_maps(20000, lambda m, i: (i,), lambda m, i: True, budget)

    assert list(chain(20000)) == [tuple(range(20000))]
    with pytest.raises(BudgetExceeded):
        list(chain(19999))


def test_injective_maps_are_the_permutations():
    assert list(permutation_maps(4, 4)) == list(itertools.permutations(range(4)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: st.lists(st.lists(st.integers(0, 5), max_size=6), min_size=n, max_size=n)),
       st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5))))
def test_injective_maps_match_the_recursive_oracle(images, allowed):
    # images[i] lists i's candidates, repeats included; a pair of images
    # (m[t], m[i]) with t < i must be allowed
    n = len(images)

    def candidates(m, i):
        return images[i]

    def consistent(m, i):
        return all((m[t], m[i]) in allowed for t in range(i))

    maps, nodes = oracles.injective_maps(n, candidates, consistent)
    assert list(injective_maps(n, candidates, consistent)) == maps
    assert list(injective_maps(n, candidates, consistent, budget=nodes)) == maps
    if nodes:
        with pytest.raises(BudgetExceeded, match=f"search exceeded {nodes - 1} nodes"):
            list(injective_maps(n, candidates, consistent, budget=nodes - 1))


# ---------------------------------------------------------------------------
# cross-checks against the brute-force oracles

ONE, TWO, THREE = ExactReal(1), ExactReal(2), ExactReal(3)


@st.composite
def spaces(draw, min_n=0, max_n=6, ordered=None, values=(ONE, TWO)):
    """Spaces over {1, 2}, or over values where every distance assignment
    is a metric too ({2, 3}, say)."""
    n = draw(st.integers(min_n, max_n))
    dists = {(i, j): draw(st.sampled_from(values)) for i in range(n) for j in range(i + 1, n)}
    if ordered is None:
        ordered = draw(st.booleans())
    order = draw(st.permutations(range(n))) if ordered else None
    return make_space([f"p{i}" for i in range(n)], dists, order)


@settings(max_examples=150, deadline=None)
@given(spaces(ordered=False), st.data())
def test_unordered_isomorphic_matches_brute_force(x, data):
    perm = data.draw(st.permutations(range(x.n)))
    dist = [[x.dist[perm[i]][perm[j]] for j in range(x.n)] for i in range(x.n)]
    if x.n >= 2 and data.draw(st.booleans()):
        i, j = data.draw(st.sampled_from(list(itertools.combinations(range(x.n), 2))))
        dist[i][j] = dist[j][i] = TWO if dist[i][j] == ONE else ONE
    # a switch of two 1-pairs with two 2-pairs keeps every point's profile
    switches = [(a, b, c, e) for a, b, c, e in itertools.permutations(range(x.n), 4)
                if dist[a][b] == dist[c][e] == ONE and dist[a][c] == dist[b][e] == TWO]
    if switches and data.draw(st.booleans()):
        a, b, c, e = data.draw(st.sampled_from(switches))
        dist[a][b] = dist[b][a] = dist[c][e] = dist[e][c] = TWO
        dist[a][c] = dist[c][a] = dist[b][e] = dist[e][b] = ONE
    y = Space(x.labels, tuple(tuple(row) for row in dist))
    valid = [p for p in itertools.permutations(range(x.n)) if oracles.preserves_distances(x, y, p)]
    assert isomorphic(x, y) == (valid[0] if valid else None)


def test_isomorphic_equal_profiles_not_isomorphic():
    # a hexagon and two triangles: every point has two 1s and three 2s
    hexagon = {(i, (i + 1) % 6) for i in range(6)}
    triangles = {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)}

    def space(ones):
        pairs = {tuple(sorted(p)) for p in ones}
        return make_space("abcdef", {(i, j): ONE if (i, j) in pairs else TWO
                                     for i in range(6) for j in range(i + 1, 6)})

    assert isomorphic(space(hexagon), space(triangles)) is None


@settings(max_examples=150, deadline=None)
@given(spaces())
def test_automorphisms_match_brute_force(x):
    expected = [
        p for p in itertools.permutations(range(x.n))
        if oracles.preserves_distances(x, x, p) and (x.order is None or oracles.preserves_order(x, p))
    ]
    assert list(isomorphisms(x, x)) == expected


fragments = st.lists(st.integers(1, 9), min_size=1, max_size=5, unique=True).map(
    lambda vs: make_set([ExactReal(Fraction(v, 2)) for v in vs])
)


@st.composite
def structure_pairs(draw):
    """Two triangle structures of fragments, the second often of a scaled
    copy, which has the same structure; or a structure on up to 5 points
    with an arbitrary relation, which unlike a triangle relation need not
    be symmetric in its coordinates, and another one or a relabelled copy."""
    if draw(st.booleans()):
        d1 = draw(fragments)
        d2 = draw(st.one_of(fragments, st.integers(1, 3).map(lambda r: make_set([v * r for v in d1.values]))))
        return triangle_structure(d1), triangle_structure(d2)
    n = draw(st.integers(1, 5))
    universe, relations = tuple(map(ExactReal, range(n))), st.sets(st.tuples(*[st.integers(0, n - 1)] * 3))
    rel = draw(relations)
    p = draw(st.permutations(range(n)))
    other = draw(st.one_of(relations, st.just({(p[a], p[b], p[c]) for a, b, c in rel})))
    return TriangleStructure(universe, frozenset(rel)), TriangleStructure(universe, frozenset(other))


# Two relabelled copies where a check that skipped the triples (a, b, i)
# with a, b < i when position i is placed would accept a map before the
# first isomorphism; random relations find such a pair rarely.
SKEW = TriangleStructure(tuple(map(ExactReal, range(3))), frozenset(
    [(0, 0, 1), (0, 1, 2), (0, 2, 0), (1, 1, 0), (1, 2, 1), (2, 0, 2), (2, 1, 2), (2, 2, 0), (2, 2, 1)]))
SKEWED = TriangleStructure(SKEW.universe, frozenset(
    [(0, 0, 1), (0, 0, 2), (0, 1, 0), (0, 2, 0), (1, 0, 1), (1, 1, 2), (2, 0, 2), (2, 1, 0), (2, 2, 1)]))


@settings(max_examples=150, deadline=None)
@given(structure_pairs())
@example((SKEW, SKEWED))
def test_ts_isomorphic_matches_brute_force(pair):
    s, t = pair
    assert ts_isomorphic(s, t) == oracles.ts_isomorphic(s, t)


@settings(max_examples=100, deadline=None)
@given(structure_pairs())
def test_incidence_counts_each_triple_once(pair):
    # ts_isomorphic prunes on these counts, so what they count sets the
    # nodes that a search charges against SEARCH_NODES
    for s in pair:
        assert s.incidence() == [sum(1 for t in s.relation if i in t) for i in range(len(s.universe))]


codes = st.lists(st.integers(0, 9), min_size=0, max_size=5).map(
    lambda vs: DvsCode(tuple(ExactReal(Fraction(v, 2)) for v in vs))
)


@settings(max_examples=200, deadline=None)
@given(codes, st.data())
def test_approx_check_matches_brute_force(c1, data):
    shuffled = st.permutations(c1.prefix).map(lambda vs: DvsCode(tuple(vs)))
    c2 = data.draw(st.one_of(codes, shuffled))
    assert approx_check(c1, c2) == oracles.approx_check(c1, c2)


# a + b*sqrt(2) for a in {0, 1/2, ..., 2} and b in {0, 1/2, 1}: few
# enough that codes repeat values, with 0 among them
SURDS = [ExactReal(Fraction(a, 2), Fraction(b, 2), 2) for a in range(5) for b in range(3)]
surd_codes = st.lists(st.sampled_from(SURDS), max_size=6).map(lambda vs: DvsCode(tuple(vs)))


@settings(max_examples=200, deadline=None)
@given(surd_codes, st.data())
def test_approx_check_matches_brute_force_on_surd_codes(c1, data):
    # against another code, or a shuffle of c1 rescaled by 1, 3/2 or sqrt(2)
    r = data.draw(st.sampled_from([ExactReal(1), ExactReal(Fraction(3, 2)), ExactReal(0, 1, 2)]))
    shuffled = st.permutations(c1.prefix).map(lambda vs: DvsCode(tuple(v * r for v in vs)))
    c2 = data.draw(st.one_of(surd_codes, shuffled))
    assert approx_check(c1, c2) == oracles.approx_check(c1, c2)


@settings(max_examples=300, deadline=None)
@given(spaces(max_n=7), st.data())
def test_copies_of_matches_subset_scan(c, data):
    # a is a substructure of c, reordered or not, or a random space whose
    # values may be missing from c; its order is drawn apart from c's, so
    # ordered, unordered and mixed pairs all occur
    n = data.draw(st.integers(0, c.n + 1))
    kind = data.draw(st.sampled_from(("induced", "random", "foreign")))
    if kind == "induced" and n <= c.n:
        a = c.induced(data.draw(st.permutations(range(c.n)))[:n])
    else:
        a = data.draw(spaces(n, n, values=(TWO, THREE) if kind == "foreign" else (ONE, TWO)))
    if data.draw(st.booleans()):
        a = Space(a.labels, a.dist, tuple(data.draw(st.permutations(range(a.n)))))
    elif data.draw(st.booleans()):
        a = Space(a.labels, a.dist)
    found = oracles.copies_of(c, a)
    assert copies_of(c, a) == found
    # arrow's check that each key of a bad coloring is a copy of a agrees
    assert [t for t in itertools.combinations(range(c.n), a.n) if _induces(c, t, a)] == found


@settings(max_examples=100, deadline=None)
@given(spaces(min_n=1, max_n=5), st.sampled_from((2, 3)), st.data())
def test_arrow_matches_brute_force(c, k, data):
    bpts = data.draw(st.lists(st.integers(0, c.n - 1), min_size=1, max_size=min(c.n, 4), unique=True))
    b = c.induced(bpts)
    # a may be empty: then every copy of b closes at the one copy of a
    a = b.induced(data.draw(st.lists(st.integers(0, b.n - 1), min_size=0, max_size=b.n, unique=True)))
    # the copies come from the subset scan, which shares no enumeration with arrow
    copies_a, copies_b = oracles.copies_of(c, a), oracles.copies_of(c, b)
    first_bad = oracles.first_bad_coloring(copies_a, copies_b, k)
    verdict = arrow(c, b, a, k)
    if first_bad is None:
        assert verdict.status == HOLDS
    else:
        assert verdict.status == FAILS
        assert verdict.bad_coloring == dict(zip(copies_a, first_bad))
    searched, nodes = oracles.arrow_search(copies_a, copies_b, k)
    assert searched == first_bad and verdict.nodes == nodes
    # a budget below the node count is Unknown, counting the node that crossed it
    budget = data.draw(st.integers(0, nodes - 1))
    with pytest.raises(oracles.OverBudget) as over:
        oracles.arrow_search(copies_a, copies_b, k, budget)
    cut = arrow(c, b, a, k, budget)
    assert cut.status == UNKNOWN and cut.bad_coloring is None
    assert cut.nodes == over.value.nodes == budget + 1


@settings(max_examples=100, deadline=None)
@given(spaces(min_n=4, max_n=7, values=(ONE, ONE, ONE, TWO)), st.sampled_from((4, 5, 6)), st.data())
def test_arrow_with_more_colors_than_copies_matches_the_search_oracle(c, k, data):
    # b of 2 or 3 points, a smaller and not empty, on mostly 1s: the
    # Holds cases exhaust colorings such as the proper vertex colorings
    # of K5, so backtracking crosses many colors that no placed copy
    # holds; a run past 5,000 nodes is compared as Unknown
    b = c.induced(data.draw(st.permutations(range(c.n)))[:data.draw(st.integers(2, 3))])
    a = b.induced(data.draw(st.permutations(range(b.n)))[:data.draw(st.integers(1, b.n - 1))])
    copies_a, copies_b = oracles.copies_of(c, a), oracles.copies_of(c, b)
    verdict = arrow(c, b, a, k, budget=5000)
    try:
        searched, nodes = oracles.arrow_search(copies_a, copies_b, k, 5000)
    except oracles.OverBudget as over:
        assert (verdict.status, verdict.nodes) == (UNKNOWN, over.nodes)
        return
    assert verdict.nodes == nodes
    if searched is None:
        assert verdict.status == HOLDS and verdict.bad_coloring is None
    else:
        assert verdict.status == FAILS and verdict.bad_coloring == dict(zip(copies_a, searched))


@settings(max_examples=100, deadline=None)
@given(spaces(min_n=1, max_n=5), st.sampled_from((2, 3, 4)), st.data())
def test_arrow_at_a_budget_of_its_node_count_finishes(c, k, data):
    # the last node tried is within the budget, so the verdict is the
    # unbudgeted one; one node less is Unknown
    b = c.induced(data.draw(st.lists(st.integers(0, c.n - 1), min_size=1, max_size=min(c.n, 4), unique=True)))
    a = b.induced(data.draw(st.lists(st.integers(0, b.n - 1), min_size=0, max_size=b.n, unique=True)))
    verdict = arrow(c, b, a, k)
    assert arrow(c, b, a, k, budget=verdict.nodes) == verdict
    cut = arrow(c, b, a, k, budget=verdict.nodes - 1)
    assert (cut.status, cut.nodes, cut.bad_coloring) == (UNKNOWN, verdict.nodes, None)


# The known-answer jobs of the benchmark's arrow workload, as (c points,
# b points, a points, k, holds): K_n -> (K_m) on edges and pigeonholes on
# vertices, in uniform spaces.  K9 -> (K4) on edges with 2 colors (12,474
# nodes) is left out: its oracle run takes about 1 s.
ARROW_WORKLOAD = [(6, 3, 2, 2, True), (5, 3, 2, 2, False), (8, 4, 2, 2, False),
                  (7, 4, 1, 2, True), (6, 4, 1, 2, False), (10, 4, 1, 3, True),
                  (11, 4, 1, 3, True), (9, 5, 1, 2, True), (8, 5, 1, 2, False)]


@pytest.mark.parametrize("n, nb, na, k, holds", ARROW_WORKLOAD)
def test_arrow_workload_instances_match_the_search_oracle(n, nb, na, k, holds):
    c, b, a = (uniform_space(p, ONE) for p in (n, nb, na))
    copies_a, copies_b = oracles.copies_of(c, a), oracles.copies_of(c, b)
    searched, nodes = oracles.arrow_search(copies_a, copies_b, k)
    verdict = arrow(c, b, a, k)
    assert (verdict.status, verdict.nodes) == (HOLDS if holds else FAILS, nodes)
    assert (searched is None) == holds
    assert verdict.bad_coloring == (None if holds else dict(zip(copies_a, searched)))
    assert arrow(c, b, a, k, budget=nodes) == verdict


def _reordered(data, x):
    """x with its order kept, redrawn or dropped."""
    kind = data.draw(st.sampled_from(("kept", "redrawn", "dropped")))
    if kind == "kept":
        return x
    return Space(x.labels, x.dist, tuple(data.draw(st.permutations(range(x.n)))) if kind == "redrawn" else None)


@settings(max_examples=300, deadline=None)
@given(spaces(min_n=2, max_n=7, ordered=True), st.booleans(), st.data())
def test_bad_coloring_recheck_matches_subset_scan(c, mixed, data):
    # b and a are substructures, a possibly empty; when mixed, the orders
    # of all three are kept, redrawn or dropped, so unordered and mixed
    # triples occur beside the ordered ones
    b = c.induced(data.draw(st.permutations(range(c.n)))[:data.draw(st.sampled_from((3, 4, 2, 3, 4, 1, 0)))])
    a = b.induced(data.draw(st.permutations(range(b.n)))[:data.draw(st.sampled_from((1, 2, 0)))])
    if mixed:
        c, b, a = _reordered(data, c), _reordered(data, b), _reordered(data, a)
    keys = oracles.copies_of(c, a)
    kind = data.draw(st.sampled_from(("found", "random", "zero")))
    coloring = {t: data.draw(st.integers(0, 2)) if kind == "random" else 0 for t in keys}
    if kind == "found":  # a bad coloring found by arrow, when it finds one
        try:
            verdict = arrow(c, b, a, data.draw(st.sampled_from((2, 3))), budget=10 ** 4)
        except RamseyError:  # b or a does not embed, or the orders are mixed
            verdict = None
        if verdict is not None and verdict.status == FAILS:
            coloring = verdict.bad_coloring
    if keys and data.draw(st.booleans()):  # one key recolored
        t = data.draw(st.sampled_from(keys))
        coloring[t] = data.draw(st.sampled_from([x for x in range(3) if x != coloring[t]]))
    assert verify_bad_coloring(c, b, a, coloring) == oracles.verify_bad_coloring(c, b, a, coloring)
