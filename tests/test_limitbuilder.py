import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaspace import limitbuilder
from deltaspace.amalgam import free_amalgam
from deltaspace.dvs import make_set
from deltaspace.exact import ExactReal
from deltaspace.limitbuilder import (
    BuilderError,
    Extension,
    FragmentNotClosed,
    FragmentUnbounded,
    NoSmallEnoughDelta,
    density_perturb,
    extend_partial_isometry,
    extension_property_check,
    find_realizer,
    realize,
    saturate,
)
from deltaspace.space import OK, PartialIsometry, Space, Violation, make_space, uniform_space, validate
from util import closed_fragment, doubled_space, random_space, triangle_ok

import oracles


def n1(v):
    return ExactReal(Fraction(v))


D12 = make_set([n1(1), n1(2)], cap=n1(2))


# The one-point extensions of a whole space are those that
# extension_property_check enumerates at k = n on top of the ones at k = n-1.

def test_one_point_extensions_of_empty():
    empty = Space((), (), (), D12)
    report = extension_property_check(empty, D12, 0)
    assert report.checked == 1
    (ext,) = report.unrealized
    out, want = realize(empty, ext, D12), Space(("z",), ((n1(0),),), (0,), D12)
    assert out == want and out.to_json() == want.to_json()
    # no fragment cap to truncate at: the one point is the same
    unbounded = make_set([n1(1), n1(2)])
    assert realize(empty, ext, unbounded) == Space(("z",), ((n1(0),),), (0,), unbounded)


def test_one_point_extensions_single_point():
    x = uniform_space(1, n1(1), delta=D12)
    report = extension_property_check(x, D12, 1)
    assert report.checked == 1 + 4  # the empty subset; 2 distances x 2 order slots
    assert len(report.unrealized) == 4  # the one point cannot realize itself
    for ext in report.unrealized:
        assert validate(realize(x, ext, D12)) == OK


def test_one_point_extensions_triangle_filter():
    # two points at distance 2, candidate distances only {1}: the single
    # admissible vector is (1, 1), since |1-1| <= 2 <= 1+1
    d1 = make_set([n1(1)], cap=n1(1))
    x = uniform_space(2, n1(2))
    pairs = extension_property_check(x, d1, 2).checked - extension_property_check(x, d1, 1).checked
    assert pairs == 3  # the single vector (1, 1) in each of 3 slots


def test_extension_check_unrealized():
    m = uniform_space(1, n1(1), delta=make_set([n1(1)], cap=n1(1)))
    report = extension_property_check(m, m.delta, 1)
    assert len(report.unrealized) == 2  # distance 1, order slots 0 and 1


def test_extension_check_k0_nonempty():
    m = uniform_space(2, n1(1))
    report = extension_property_check(m, D12, 0)
    assert report.empty


def test_realize_adds_matching_point():
    m = uniform_space(2, n1(1), delta=D12)
    ext = Extension((0, 1), (n1(1), n1(2)), 1)
    out = realize(m, ext, D12)
    assert out.n == 3
    assert out.dist[2][0] == n1(1) and out.dist[2][1] == n1(2)
    by_rank = sorted((0, 1), key=out.rank)
    assert sum(1 for s in by_rank if out.before(s, 2)) == 1
    assert validate(out) == OK


def test_constructions_check_the_points_they_add():
    d = make_set([n1(1), n1(3)], cap=n1(3))  # not closed: 1 + 1 is missing
    m = uniform_space(2, n1(1), delta=d)
    # at 1 from point 0, the new point lands at 2 from point 1; the sum 2
    # is outside d, yet a value of realize's table, and it is the witness
    ext = Extension((0,), (n1(1),), 1)
    with pytest.raises(BuilderError) as fast:
        realize(m, ext, d)
    with pytest.raises(BuilderError) as slow:
        oracles.realize(m, ext, d)
    assert str(fast.value) == str(slow.value) == \
        f"realized space invalid: {Violation('NotInDelta', (1, 2, n1(2)))}"
    # at 1 and 3 from two points at distance 1: no metric
    with pytest.raises(BuilderError, match="Triangle"):
        realize(m, Extension((0, 1), (n1(1), n1(3)), 1), d)
    # the copy of point 0 sits at 1 from it, so at 2 from point 1
    with pytest.raises(BuilderError) as fast:
        density_perturb(m, [(0, 0)], n1(2), d)
    with pytest.raises(BuilderError) as slow:
        oracles.density_perturb(m, [(0, 0)], n1(2), d)
    assert str(fast.value) == str(slow.value) == \
        f"perturbed space invalid: {Violation('NotInDelta', (1, 2, n1(2)))}"


@pytest.mark.parametrize("v", [n1(0), n1(-1)])
def test_realize_checks_a_non_positive_distance_like_the_oracle(v):
    # the new point's diagonal is 0 whatever the table's smallest value,
    # so the first violation is the pair at v, as in the whole-matrix
    # construction
    d = make_set([n1(1), n1(2), n1(3)], cap=n1(3))
    m = uniform_space(2, n1(1), delta=d)
    ext = Extension((0,), (v,), 0)
    with pytest.raises(BuilderError) as fast:
        realize(m, ext, d)
    with pytest.raises(BuilderError) as slow:
        oracles.realize(m, ext, d)
    assert str(fast.value) == str(slow.value) == \
        f"realized space invalid: {Violation('Positivity', (0, 2))}"


def test_saturate_k1_single_point():
    m = uniform_space(1, n1(1), delta=D12)
    sat, report = saturate(m, D12, 1)
    assert report.empty
    check = extension_property_check(sat, D12, 1, source_n=1)
    assert check.empty


def test_saturate_k2_and_idempotence():
    m = uniform_space(1, n1(1), delta=D12)
    sat, report = saturate(m, D12, 2)
    assert report.empty
    assert extension_property_check(sat, D12, 2, source_n=m.n).empty
    again, report2 = saturate(sat, D12, 2, source_n=m.n)
    assert again.n == sat.n
    assert report2.empty


def test_saturate_from_empty_k0():
    empty = Space((), (), (), D12)
    sat, report = saturate(empty, D12, 0)
    assert sat.n == 1 and sat == oracles.saturate(empty, D12, 0)[0]  # one point, labelled z
    assert report.empty


def test_extend_isometry_identity_profile():
    rng = random.Random(51)
    m = random_space(rng, 4, D12)
    p = PartialIsometry(m, ((0, 0), (1, 1)))
    m2, p2 = extend_partial_isometry(m, p, 2)
    assert 2 in dict(p2.pairs)
    assert p2.is_isometry() and p2.order_preserving
    assert m2.n == m.n  # some existing point realizes the profile


def test_extend_isometry_adds_point():
    m = make_space("ab", {(0, 1): n1(1)}, order=(0, 1), delta=D12)
    p = PartialIsometry(m, ((0, 1),))
    m2, p2 = extend_partial_isometry(m, p, 1)
    # the image must sit above point 1 at distance 1; no such point exists
    assert m2.n == 3
    y = dict(p2.pairs)[1]
    assert m2.dist[1][y] == n1(1)
    assert m2.before(1, y)
    assert p2.is_isometry() and p2.order_preserving


def test_extend_isometry_back_step():
    m = make_space("ab", {(0, 1): n1(1)}, order=(0, 1), delta=D12)
    p = PartialIsometry(m, ((0, 1),))
    m2, q = extend_partial_isometry(m, p.inverse(), 0)
    p2 = q.inverse()
    assert 0 in [q for _, q in p2.pairs]
    assert p2.is_isometry() and p2.order_preserving


def test_extend_isometry_random_battery():
    rng = random.Random(53)
    d = closed_fragment([n1(1)], n1(3))
    for _ in range(25):
        m, pairs = doubled_space(rng, rng.randint(2, 3), d)
        p = PartialIsometry(m, pairs)
        assert p.is_isometry() and p.order_preserving
        base_dist = m.dist
        cur, q = m, p
        for _ in range(2):
            candidates = [x for x in range(cur.n) if x not in dict(q.pairs)]
            if not candidates:
                break
            cur, q = extend_partial_isometry(cur, q, rng.choice(candidates))
            assert q.is_isometry() and q.order_preserving
        # the original distances never change
        for i in range(m.n):
            for j in range(m.n):
                assert cur.dist[i][j] == base_dist[i][j]


def test_density_perturb_single_pair():
    d = closed_fragment([n1(Fraction(1, 4))], n1(4))
    m = uniform_space(2, n1(1), delta=d)
    out, images = density_perturb(m, [(0, 1)], n1(Fraction(1, 2)), d)
    (y_new,) = images
    assert out.dist[1][y_new] == n1(Fraction(1, 4))  # exactly delta
    assert validate(out) == OK


def test_density_perturb_requires_small_delta():
    d = make_set([n1(1), n1(2)], cap=n1(2))
    m = uniform_space(2, n1(1), delta=d)
    with pytest.raises(NoSmallEnoughDelta):
        density_perturb(m, [(0, 1)], n1(1), d)


def test_density_perturb_two_pairs():
    d = closed_fragment([n1(Fraction(1, 4))], n1(4))
    rng = random.Random(57)
    m, pairs = doubled_space(rng, 2, d)
    out, images = density_perturb(m, list(pairs), n1(Fraction(1, 2)), d)
    delta = n1(Fraction(1, 4))
    xs = [a for a, _ in pairs]
    ys = [b for _, b in pairs]
    for i in range(2):
        assert out.dist[ys[i]][images[i]] == delta
    for i in range(2):
        for j in range(2):
            assert out.dist[images[i]][images[j]] == m.dist[xs[i]][xs[j]]
            if i != j:
                assert out.before(images[i], images[j]) == m.before(xs[i], xs[j])
    assert validate(out) == OK


def test_saturate_rejects_a_non_closed_fragment_up_front():
    d = make_set([n1(1), n1(3)], cap=n1(3))  # 1 + 1 is missing
    m = uniform_space(1, n1(1), delta=d)
    with pytest.raises(FragmentNotClosed, match="1/1 and 1/1"):
        saturate(m, d, 1)


def test_saturate_rejects_an_unbounded_fragment_up_front():
    # closed up to its largest value, but a 1-point extension can sit at
    # 1 and 2 from two points at distance 1, and 1 + 2 is not in it
    d = make_set([n1(1), n1(2)])
    with pytest.raises(FragmentUnbounded):
        saturate(uniform_space(2, n1(1)), d, 1)


def test_extend_isometry_rejects_an_unordered_space():
    m = uniform_space(3, n1(1), ordered=False)
    with pytest.raises(BuilderError, match="ordered"):
        extend_partial_isometry(m, PartialIsometry(m, ((0, 1),)), 2)


def test_extension_checks_reject_an_unordered_space():
    m = uniform_space(2, n1(1), ordered=False)
    for check in (extension_property_check, saturate):
        with pytest.raises(BuilderError, match="ordered"):
            check(m, D12, 0)
    with pytest.raises(BuilderError, match="ordered"):
        find_realizer(m, Extension((0,), (n1(1),), 0))


UNORDERED = uniform_space(2, n1(1), ordered=False, delta=D12)
CONSTRUCTIONS = {
    "saturate": lambda m: saturate(m, D12, 1),
    "extension_property_check": lambda m: extension_property_check(m, D12, 1),
    "find_realizer": lambda m: find_realizer(m, Extension((0,), (n1(1),), 0)),
    "realize": lambda m: realize(m, Extension((0,), (n1(2),), 0), D12),
    "extend_partial_isometry": lambda m: extend_partial_isometry(m, PartialIsometry(m, ((0, 1),)), 1),
    "density_perturb": lambda m: density_perturb(m, [(0, 1)], n1(2), D12),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_constructions_reject_an_unordered_space(name):
    # realize and density_perturb once failed deep inside with a TypeError
    with pytest.raises(BuilderError, match="space must be ordered"):
        CONSTRUCTIONS[name](UNORDERED)
    CONSTRUCTIONS[name](uniform_space(2, n1(1), delta=D12))  # the same call on an ordered space runs


D13 = closed_fragment([n1(1)], n1(3))  # {1, 2, 3}, cap 3
HALVES = closed_fragment([n1(Fraction(1, 2))], n1(2))  # {1/2, 1, 3/2, 2}, cap 2
SURDS = closed_fragment([ExactReal.sqrt(2)], 3 * ExactReal.sqrt(2))  # {sqrt 2, 2 sqrt 2, 3 sqrt 2}, cap 3 sqrt 2


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 6), st.data())
def test_realize_places_the_new_point_in_its_slot(seed, n, data):
    rng = random.Random(seed)
    m = random_space(rng, n, D13)
    subset = tuple(sorted(rng.sample(range(n), data.draw(st.integers(1, n)))))
    sub = m.induced(subset)
    vec = tuple(rng.choice(D13.values) for _ in subset)
    if not triangle_ok(vec, sub):
        vec = (D13.max(),) * len(subset)
    slot = data.draw(st.integers(0, len(subset)))
    out = realize(m, Extension(subset, vec, slot), D13)
    z = m.n
    assert tuple(i for i in out.order if i != z) == m.order
    assert sum(1 for s in subset if out.before(s, z)) == slot
    by_rank = sorted(subset, key=m.rank)
    above = out.order[out.rank(z) + 1:]
    if slot < len(subset):
        assert above[0] == by_rank[slot]
    else:
        assert above == ()


D_QUARTERS = closed_fragment([n1(Fraction(1, 4))], n1(2))  # {1/4, ..., 2}


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.data())
def test_density_perturb_appends_the_images_in_source_order(n, data):
    # on a uniform space every injective map is an isometry, so the
    # sources and the images can lie in any relative order
    u = uniform_space(n, n1(1))
    m = Space(u.labels, u.dist, tuple(data.draw(st.permutations(range(n)))), D_QUARTERS)
    size = data.draw(st.integers(1, n))
    xs = data.draw(st.permutations(range(n)))[:size]
    ys = data.draw(st.permutations(range(n)))[:size]
    pairs = list(zip(xs, ys))
    out, images = density_perturb(m, pairs, n1(Fraction(1, 2)), D_QUARTERS)
    assert images == list(range(m.n, m.n + len(pairs)))
    by_source = sorted(range(len(pairs)), key=lambda i: m.rank(pairs[i][0]))
    assert out.order == m.order + tuple(images[i] for i in by_source)


# -- the neighbourhood masks against the realizer scan and the profile index --


def flat(report):
    """What a report says: how many pairs were checked, and the ordered
    list of unrealized extensions."""
    return report.checked, report.unrealized


def with_twins(rng, m: Space, count: int) -> Space:
    """m plus `count` twins, each of a random earlier point p: at p's
    distances from the other points, at the least fragment value from p,
    and directly above p in the order.  A twin and p have the same profile
    over every subset that avoids both."""
    for _ in range(count):
        p = rng.randrange(m.n)
        near = m.delta.values[0]
        dist = [list(row) + [near if i == p else row[p]] for i, row in enumerate(m.dist)]
        dist.append([near if i == p else v for i, v in enumerate(m.dist[p])] + [ExactReal(0)])
        at = m.rank(p) + 1
        m = Space(m.labels + (f"t{m.n}",), tuple(tuple(r) for r in dist),
                  m.order[:at] + (m.n,) + m.order[at:], m.delta)
    assert validate(m) == OK
    return m


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 5), st.integers(1, 3), st.integers(0, 2), st.data())
def test_mask_check_matches_the_scan(seed, n, twins, k, data):
    rng = random.Random(seed)
    d = data.draw(st.sampled_from([D12, D13]))
    m = with_twins(rng, random_space(rng, n, d), twins)
    source_n = data.draw(st.integers(0, m.n - 1))
    assert flat(extension_property_check(m, d, k, source_n=source_n)) == \
        flat(oracles.extension_property_check(m, d, k, source_n))
    # every extension, realized or not, has the scan's lowest-index realizer
    for ext in oracles.subset_extensions(m, d, k):
        assert find_realizer(m, ext) == oracles.find_realizer(m, ext)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 3), st.integers(0, 2), st.integers(1, 14),
       st.integers(1, 400), st.data())
def test_saturate_matches_the_scan_loop(seed, n, k, max_points, max_pairs, data):
    # the benchmark's three fragments and D12; on the surds the value
    # table's id order is checked against exact order in Q(sqrt 2)
    rng = random.Random(seed)
    d = data.draw(st.sampled_from([D12, D13, HALVES, SURDS]))
    m = random_space(rng, n, d)
    source_n = data.draw(st.one_of(st.none(), st.integers(0, n)))
    fast = saturate(m, d, k, max_points, max_pairs, source_n)
    slow = oracles.saturate(m, d, k, max_points, max_pairs, source_n)
    assert fast[0] == slow[0]  # the same points, distances and order
    assert flat(fast[1]) == flat(slow[1])  # the same checked count and unrealized list


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 6), st.integers(1, 2), st.data())
def test_an_extension_off_the_fragment_stays_unrealized(seed, n, k, data):
    rng = random.Random(seed)
    m = random_space(rng, n, D13)
    # checked over {1, 2}: a point at 3 from a subset point realizes nothing
    assert flat(extension_property_check(m, D12, k)) == flat(oracles.extension_property_check(m, D12, k))
    # a distance no point of m has is realized by no point
    subset = tuple(sorted(rng.sample(range(n), k)))
    dists = [rng.choice(D13.values) for _ in subset]
    dists[data.draw(st.integers(0, k - 1))] = n1(Fraction(5, 2))
    ext = Extension(subset, tuple(dists), data.draw(st.integers(0, k)))
    assert find_realizer(m, ext) is None
    assert oracles.find_realizer(m, ext) is None


@settings(max_examples=4, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(65, 72), st.data())
def test_masks_wider_than_a_machine_word_match_the_oracles(seed, n, data):
    # masks of 65 or more points span more than one 64-bit word
    rng = random.Random(seed)
    d = data.draw(st.sampled_from([D12, D13]))
    m = with_twins(rng, random_space(rng, 20, d), n - 20)  # twins are cheap to add
    source_n = data.draw(st.integers(n - 8, n))
    report = extension_property_check(m, d, 2, source_n=source_n)
    assert flat(report) == flat(oracles.profile_extension_property_check(m, d, 2, source_n))
    # random extensions, mostly realized, and some unrealized ones, against the scan
    exts = report.unrealized[:20]
    for _ in range(60):
        subset = tuple(sorted(rng.sample(range(m.n), rng.randint(0, 2))))
        vec = rng.choice(list(oracles.distance_vectors(m.induced(subset), d)))
        exts.append(Extension(subset, vec, rng.randint(0, len(subset))))
    for ext in exts:
        assert find_realizer(m, ext) == oracles.find_realizer(m, ext)


def test_saturate_matches_the_scan_past_a_machine_word():
    # saturation from 5 points runs out of its 68-point budget, so the
    # masks it keeps up to date span more than one word
    m = random_space(random.Random(61), 5, D13)
    fast = saturate(m, D13, 2, max_points=68)
    slow = oracles.saturate(m, D13, 2, max_points=68)
    assert fast[0].n > 64
    assert fast[0] == slow[0] and flat(fast[1]) == flat(slow[1])


# -- subsets of three points: the prefix and suffix ANDs of the rank-split rows --


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(3, 5), st.integers(0, 2), st.data())
def test_mask_check_matches_the_scan_at_k3(seed, n, twins, data):
    rng = random.Random(seed)
    d = data.draw(st.sampled_from([D12, D13]))
    m = with_twins(rng, random_space(rng, n, d), twins)
    source_n = data.draw(st.integers(0, m.n))
    assert flat(extension_property_check(m, d, 3, source_n=source_n)) == \
        flat(oracles.extension_property_check(m, d, 3, source_n))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(3, 9), st.data())
def test_find_realizer_on_three_point_subsets_matches_the_scan(seed, n, data):
    rng = random.Random(seed)
    d = data.draw(st.sampled_from([D12, D13, HALVES]))
    m = with_twins(rng, random_space(rng, n, d), data.draw(st.integers(0, 3)))
    for _ in range(6):
        subset = tuple(rng.sample(range(m.n), 3))  # in any index order
        vecs = list(oracles.distance_vectors(m.induced(subset), d))
        for vec in rng.sample(vecs, min(4, len(vecs))) + [tuple(rng.choice(d.values) for _ in subset)]:
            for slot in range(4):
                ext = Extension(subset, vec, slot)
                assert find_realizer(m, ext) == oracles.find_realizer(m, ext)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 4), st.integers(1, 12), st.integers(1, 300), st.data())
def test_saturate_matches_the_scan_loop_at_k3(seed, n, max_points, max_pairs, data):
    rng = random.Random(seed)
    d = data.draw(st.sampled_from([D12, D13]))
    m = random_space(rng, n, d)
    source_n = data.draw(st.one_of(st.none(), st.integers(0, n)))
    fast = saturate(m, d, 3, max_points, max_pairs, source_n)
    slow = oracles.saturate(m, d, 3, max_points, max_pairs, source_n)
    assert fast[0] == slow[0] and flat(fast[1]) == flat(slow[1])


@pytest.mark.parametrize("labels, first", [
    (("z*''", "a", "z*", "b"), "z*'"),  # a gap: z*' is free, then z*''' is next
    (("z*", "z*'", "z*''", "b"), "z*'''"),
])
def test_new_labels_skip_the_primed_labels_a_start_space_uses(labels, first):
    # saturate keeps the last label it made and primes on from it; the
    # scan loop primes each new z* starting again at z*
    m = random_space(random.Random(23), 4, D13)
    m = Space(labels, m.dist, m.order, m.delta)
    fast, slow = saturate(m, D13, 2, max_points=40), oracles.saturate(m, D13, 2, max_points=40)
    assert fast[0] == slow[0] and flat(fast[1]) == flat(slow[1])
    assert fast[0].n == 40 and len(set(fast[0].labels)) == 40
    assert fast[0].labels[4:6] == (first, "z*'''" if first == "z*'" else "z*''''")
    # free_amalgam primes each of c's labels that b has, as before
    b = Space(labels[:2], m.induced([0, 1]).dist)
    c = Space(labels[2:] + labels[:2], m.induced([2, 3, 0, 1]).dist)
    glued = free_amalgam(b, c, [])
    assert glued == oracles.free_amalgam(b, c, [])
    assert glued.labels[:4] == labels and len(set(glued.labels)) == 6


def test_saturate_builds_one_space_at_scale(monkeypatch):
    # the 106-point result is built once, from the id rows, not once per
    # point added
    made = []

    class Counting:
        def __call__(self, *args, **kwargs):
            made.append("Space")
            return Space(*args, **kwargs)

        def from_ids(self, *args, **kwargs):
            made.append("from_ids")
            return Space.from_ids(*args, **kwargs)

    monkeypatch.setattr(limitbuilder, "Space", Counting())
    out, report = saturate(uniform_space(8, n1(1), delta=D13), D13, 2, max_points=128)
    assert out.n == 106 and report.empty
    assert made == ["from_ids"]


@pytest.mark.parametrize("k, source_n, what", [
    (-1, None, "k must be non-negative, not -1"),
    (1, 5, "source_n must be in 0..3, not 5"),
    (1, -1, "source_n must be in 0..3, not -1"),
])
def test_extension_checks_reject_bad_bounds(k, source_n, what):
    m = uniform_space(3, n1(1), delta=D12)
    for check in (extension_property_check, saturate):
        with pytest.raises(BuilderError, match=what):
            check(m, D12, k, source_n=source_n)


# Each way an Extension can fail to fit a 3-point space.
BAD_EXTENSIONS = {
    "slot -1": Extension((0, 1), (n1(1), n1(1)), -1),
    "slot past the last": Extension((0, 1), (n1(1), n1(1)), 3),
    "negative index": Extension((-1,), (n1(1),), 0),
    "index out of range": Extension((0, 3), (n1(1), n1(1)), 0),
    "repeated index": Extension((0, 0), (n1(1), n1(1)), 0),
    "too few distances": Extension((0, 1), (n1(1),), 0),
    "too many distances": Extension((0,), (n1(1), n1(2)), 0),
}


@pytest.mark.parametrize("case", BAD_EXTENSIONS)
def test_realize_and_find_realizer_reject_an_extension_that_does_not_fit(case):
    m = uniform_space(3, n1(1), delta=D12)
    ext = BAD_EXTENSIONS[case]
    with pytest.raises(BuilderError, match="extension does not fit 3 points"):
        realize(m, ext, D12)
    with pytest.raises(BuilderError, match="extension does not fit 3 points"):
        find_realizer(m, ext)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_density_perturb_with_no_pairs_returns_the_space(n):
    m = uniform_space(n, n1(1), delta=D_QUARTERS)
    # nothing moves, so no fragment value need lie below eps
    for eps in (n1(Fraction(1, 2)), n1(Fraction(1, 4))):
        assert density_perturb(m, [], eps, D_QUARTERS) == (m, [])
