import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from deltaspace.amalgam import DegenerateAmalgam, OverlapNotIsometric, free_amalgam
from deltaspace.dvs import make_set
from deltaspace.exact import ExactReal
from deltaspace.limitbuilder import Extension, density_perturb, realize
from deltaspace.space import OK, Space, make_space, uniform_space, validate
from oracles import cap_distances
from util import closed_fragment, doubled_space, extend_with_random_points, random_space


def n1(v):
    return ExactReal(Fraction(v))


def test_single_overlap_point():
    b = make_space("ab", {(0, 1): n1(1)})
    c = make_space("ac", {(0, 1): n1(2)})
    out = free_amalgam(b, c, [(0, 0)])
    assert out.n == 3
    assert out.dist[1][2] == n1(3)


def test_empty_overlap_uses_diameters():
    b = uniform_space(2, n1(1), ordered=False)
    c = uniform_space(3, n1(2), ordered=False)
    out = free_amalgam(b, c, [])
    for x in range(2):
        for y in range(2, 5):
            assert out.dist[x][y] == n1(3)


def test_min_over_overlap():
    b = make_space(["a1", "a2", "b"], {(0, 1): n1(2), (0, 2): n1(1), (1, 2): n1(1)})
    # points 0, 1 are the overlap a1, a2 at distance 2; b at distance 1 from both
    c = make_space(["a1", "a2", "c"], {(0, 1): n1(2), (0, 2): n1(3), (1, 2): n1(1)})
    out = free_amalgam(b, c, [(0, 0), (1, 1)])
    # d(b, c) = min(1+3, 1+1) = 2
    assert out.dist[2][3] == n1(2)
    assert validate(out) == OK


def test_overlap_must_be_isometric():
    b = make_space("ab", {(0, 1): n1(1)})
    c = make_space("ab", {(0, 1): n1(2)})
    with pytest.raises(OverlapNotIsometric):
        free_amalgam(b, c, [(0, 0), (1, 1)])


def test_degenerate_singletons():
    b = uniform_space(1, n1(1), ordered=False)
    with pytest.raises(DegenerateAmalgam):
        free_amalgam(b, b, [])


def test_embeddings_are_isometric():
    rng = random.Random(8)
    d = make_set([n1(1), n1(2), n1(3)], cap=n1(3))
    for _ in range(100):
        a_n = rng.randint(0, 3)
        a = random_space(rng, a_n, d, ordered=False)
        b = extend_with_random_points(rng, a, rng.randint(0 if a_n else 2, 3), d)
        c = extend_with_random_points(rng, a, rng.randint(0 if a_n else 2, 3), d)
        out = free_amalgam(b, c, [(i, i) for i in range(a_n)])
        assert validate(out) == OK
        # b sits at indices 0..b.n-1
        for i in range(b.n):
            for j in range(b.n):
                assert out.dist[i][j] == b.dist[i][j]
        # c: overlap index i -> i, fresh index j -> b.n + offset
        fresh = list(range(a_n, c.n))
        cmap = {i: i for i in range(a_n)}
        for k, j in enumerate(fresh):
            cmap[j] = b.n + k
        for i in range(c.n):
            for j in range(c.n):
                assert out.dist[cmap[i]][cmap[j]] == c.dist[i][j]
        # cross distances never beat any route through the overlap
        for i in range(b.n):
            for j in fresh:
                for z in range(a_n):
                    assert out.dist[i][cmap[j]] <= b.dist[i][z] + c.dist[z][j]


def test_cap_identity_cases():
    x = uniform_space(3, n1(1))
    assert cap_distances(x, n1(2)).dist == x.dist
    assert cap_distances(x, n1(1)).dist == x.dist


def test_cap_truncates_and_revalidates():
    b = make_space("ab", {(0, 1): n1(1)})
    c = make_space("ac", {(0, 1): n1(2)})
    out = cap_distances(free_amalgam(b, c, [(0, 0)]), n1(2))
    assert out.dist[1][2] == n1(2)
    assert validate(out) == OK


def test_cap_idempotent_and_metric_preserving():
    rng = random.Random(9)
    d = make_set([n1(1), n1(2), n1(4), n1(5)], cap=n1(5))
    for _ in range(1000):
        x = random_space(rng, rng.randint(2, 5), d, delta_bound=False)
        cap = rng.choice([n1(1), n1(2), n1(3), n1(4)])
        once = cap_distances(x, cap)
        assert validate(once) == OK
        assert cap_distances(once, cap).dist == once.dist


# -- the row builder against the whole-matrix constructions -----------------

FRAGMENTS = [
    closed_fragment([n1(1)], n1(3)),  # {1, 2, 3}, cap 3
    closed_fragment([n1(Fraction(1, 4))], n1(2)),  # {1/4, ..., 2}, cap 2
    closed_fragment([n1(1), ExactReal.sqrt(2)], n1(3)),  # over Q(sqrt 2), cap 3
    make_set([n1(1), n1(2), n1(3), n1(4)]),  # unbounded: nothing is truncated
]


def outcome(fn, *args):
    """What a call gives: its result, or its exception's type and text."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 6), st.sampled_from(FRAGMENTS), st.booleans(), st.data())
def test_realize_matches_the_whole_matrix_amalgam(seed, n, d, admissible, data):
    rng = random.Random(seed)
    m = random_space(rng, n, d)
    subset = tuple(sorted(rng.sample(range(n), data.draw(st.integers(0, min(n, 3))))))
    vectors = list(oracles.distance_vectors(m.induced(subset), d)) if admissible else []
    vec = rng.choice(vectors) if vectors else tuple(rng.choice(d.values) for _ in subset)
    ext = Extension(subset, vec, data.draw(st.integers(0, len(subset))))
    assert outcome(realize, m, ext, d) == outcome(oracles.realize, m, ext, d)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.sampled_from(FRAGMENTS), st.data())
def test_density_perturb_matches_the_whole_matrix_amalgam(seed, k, d, data):
    rng = random.Random(seed)
    kind = data.draw(st.sampled_from(["copy", "identity", "any"] if d.bounded and k > 1 else ["identity", "any"]))
    if kind == "copy":  # part of the copy map of a doubled space, in any order
        m, pairs = doubled_space(rng, k, d)
        pairs = rng.sample(pairs, rng.randint(1, k))
    else:  # the identity on some points, or any injective map (often no isometry)
        m = random_space(rng, rng.randint(k, 5), d)
        xs = rng.sample(range(m.n), k)
        pairs = list(zip(xs, xs if kind == "identity" else rng.sample(range(m.n), k)))
    eps = data.draw(st.sampled_from(d.values[1:]))  # some value lies below it
    max_points = m.n + len(pairs) + 3 - data.draw(st.integers(0, 4))  # 4: one point short
    assert outcome(density_perturb, m, pairs, eps, d, max_points) == \
        outcome(oracles.density_perturb, m, pairs, eps, d, max_points)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 3), st.sampled_from(FRAGMENTS), st.data())
def test_free_amalgam_matches_the_whole_matrix_amalgam(seed, a_n, d, data):
    rng = random.Random(seed)
    a = random_space(rng, a_n, d, ordered=False)
    b = extend_with_random_points(rng, a, rng.randint(0, 3), d)
    c = extend_with_random_points(rng, a, rng.randint(0, 3), d)
    shared = rng.sample(range(a_n), rng.randint(0, a_n))
    overlap = data.draw(st.sampled_from([
        [(i, i) for i in shared],  # isometric: any part of the common base
        [(i, rng.randrange(c.n)) for i in shared] if c.n else [],  # often not isometric or injective
    ]))
    assert outcome(free_amalgam, b, c, overlap) == outcome(oracles.free_amalgam, b, c, overlap)


def _distinct_space(n, start, shared=None):
    """n points at pairwise distinct distances in [1, 2), so any choice
    is a metric; the first points copy shared's distances when given."""
    dist = [[n1(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = shared.dist[i][j] if shared is not None and j < shared.n else n1(1 + Fraction(start + i * n + j, 1000))
            dist[i][j] = dist[j][i] = v
    return Space(tuple(f"p{i}" for i in range(n)), tuple(map(tuple, dist)))


def test_free_amalgam_sums_each_route_at_most_once(monkeypatch):
    # no value repeats, so the table can save no sum; it must make no more
    # than one per (point of b, overlap point, new point), plus the bound
    b = _distinct_space(9, 0)
    c = _distinct_space(8, 500, shared=b.induced(range(3)))
    overlap = [(i, i) for i in range(3)]
    expected = oracles.free_amalgam(b, c, overlap)
    sums = []
    add = ExactReal.__add__
    monkeypatch.setattr(ExactReal, "__add__", lambda x, y: sums.append(1) or add(x, y))
    out = free_amalgam(b, c, overlap)
    monkeypatch.undo()
    assert out.dist == expected.dist
    assert len(sums) <= b.n * len(overlap) * (c.n - len(overlap)) + 1


def test_values_past_the_float_range_are_still_sorted_exactly():
    # float() overflows on every value, so the table's order is the exact sort alone
    big = 10 ** 400
    b = make_space("abc", {(0, 1): n1(big + 1), (0, 2): n1(big + 3), (1, 2): n1(big + 2)})
    c = make_space("abd", {(0, 1): n1(big + 1), (0, 2): n1(big + 5), (1, 2): n1(big)})
    overlap = [(0, 0), (1, 1)]
    assert free_amalgam(b, c, overlap).dist == oracles.free_amalgam(b, c, overlap).dist
