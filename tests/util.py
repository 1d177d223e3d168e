"""Shared helpers for the test suite: seeded random generators for
fragments, spaces and partial isometries."""

from fractions import Fraction

from deltaspace.amalgam import free_amalgam
from deltaspace.dvs import DistanceSet, close, make_set
from deltaspace.exact import ExactReal
from deltaspace.space import OK, Space, validate
from oracles import cap_distances


def rat(p, q=1) -> ExactReal:
    return ExactReal(Fraction(p, q))


def closed_fragment(values, cap) -> DistanceSet:
    """A sum-closed bounded fragment generated from seed values."""
    return close(make_set(values, cap=cap), cap)


def triangle_ok(vec, sp: Space) -> bool:
    for i in range(sp.n):
        for j in range(i + 1, sp.n):
            dij = sp.dist[i][j]
            if abs(vec[i] - vec[j]) > dij or dij > vec[i] + vec[j]:
                return False
    return True


def random_space(rng, n, d: DistanceSet, ordered=True, delta_bound=True) -> Space:
    """A random valid n-point space with distances drawn from d.values.

    Points are added one at a time; each new point samples distance
    vectors until one passes the triangle check against the points so
    far, falling back to the all-max vector (always admissible, since
    every prior distance is at most the largest value).
    """
    sp = Space((), (), () if ordered else None, d if delta_bound else None)
    vmax = d.values[-1]
    for step in range(n):
        vec = None
        for _ in range(40):
            cand = tuple(rng.choice(d.values) for _ in range(sp.n))
            if triangle_ok(cand, sp):
                vec = cand
                break
        if vec is None:
            vec = (vmax,) * sp.n
        dist = [list(row) + [vec[i]] for i, row in enumerate(sp.dist)]
        dist.append(list(vec) + [ExactReal(0)])
        order = None
        if ordered:
            slot = rng.randrange(sp.n + 1)
            order = sp.order[:slot] + (sp.n,) + sp.order[slot:]
        sp = Space(
            tuple(f"p{i}" for i in range(sp.n + 1)),
            tuple(tuple(r) for r in dist),
            order,
            d if delta_bound else None,
        )
    assert validate(sp) == OK
    return sp


def extend_with_random_points(rng, base: Space, extra: int, d: DistanceSet) -> Space:
    """Grow base by `extra` random points (unordered), distances in d."""
    sp = Space(base.labels, base.dist, None, base.delta)
    vmax = d.values[-1]
    for step in range(extra):
        vec = None
        for _ in range(40):
            cand = tuple(rng.choice(d.values) for _ in range(sp.n))
            if triangle_ok(cand, sp):
                vec = cand
                break
        if vec is None:
            vec = (vmax,) * sp.n
        dist = [list(row) + [vec[i]] for i, row in enumerate(sp.dist)]
        dist.append(list(vec) + [ExactReal(0)])
        sp = Space(
            sp.labels + (f"q{step}",),
            tuple(tuple(r) for r in dist),
            None,
            sp.delta,
        )
    return sp


def doubled_space(rng, k, d: DistanceSet):
    """An ordered space containing two disjoint isometric copies of a
    random k-point space, plus the copy map as index pairs.

    The copy map is an order-preserving partial isometry by construction:
    labels interleave so that both copies carry the same relative order.
    """
    core = random_space(rng, k, d, ordered=False)
    copy = Space(tuple(f"p{i}'" for i in range(k)), core.dist)
    amal = free_amalgam(core, copy, [])
    if d.bounded:
        amal = cap_distances(amal, d.cap)
    order = tuple(sorted(range(amal.n), key=lambda i: amal.labels[i]))
    ordered = Space(amal.labels, amal.dist, order, d)
    assert validate(ordered) == OK
    pairs = tuple((i, k + i) for i in range(k))
    return ordered, pairs
