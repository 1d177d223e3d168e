import hashlib
import json
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from deltaspace.exact import ExactReal
from deltaspace.dvs import make_set
from deltaspace.ramsey import (
    FAILS,
    HOLDS,
    UNKNOWN,
    NotEmbeddable,
    arrow,
    is_rigid,
)
from deltaspace.recheck import _induces, verify_bad_coloring
from deltaspace.space import Space, isomorphisms, make_space, uniform_space
from util import random_space
import oracles


def n1(v):
    return ExactReal(Fraction(v))


def test_arrow_holds_at_six():
    verdict = arrow(uniform_space(6, n1(1)), uniform_space(3, n1(1)), uniform_space(2, n1(1)), 2)
    assert verdict.status == HOLDS
    assert verdict.copies_a == 15 and verdict.copies_b == 20
    assert verdict.nodes == 987


def test_arrow_fails_at_five():
    verdict = arrow(uniform_space(5, n1(1)), uniform_space(3, n1(1)), uniform_space(2, n1(1)), 2)
    assert verdict.status == FAILS
    assert verdict.nodes == 71
    assert verdict.bad_coloring is not None
    assert verify_bad_coloring(
        uniform_space(5, n1(1)), uniform_space(3, n1(1)), uniform_space(2, n1(1)),
        verdict.bad_coloring,
    )


def test_arrow_trivial_when_a_equals_b():
    b = uniform_space(3, n1(1))
    verdict = arrow(uniform_space(4, n1(1)), b, b, 2)
    assert verdict.status == HOLDS


def test_arrow_one_color():
    verdict = arrow(uniform_space(4, n1(1)), uniform_space(3, n1(1)), uniform_space(2, n1(1)), 1)
    assert verdict.status == HOLDS


def test_arrow_monotone_in_c():
    # once the arrow holds it keeps holding in larger ambient spaces
    b = uniform_space(3, n1(1))
    a = uniform_space(2, n1(1))
    for n in (6, 7):
        assert arrow(uniform_space(n, n1(1)), b, a, 2).status == HOLDS


def test_arrow_not_embeddable():
    with pytest.raises(NotEmbeddable):
        arrow(uniform_space(2, n1(1)), uniform_space(3, n1(1)), uniform_space(2, n1(1)), 2)


def test_arrow_a_not_embeddable_into_b_is_read_off_the_copies():
    # a, two points at distance 2, embeds into c but not into b, a
    # triangle of 1s: arrow says so for one color and for two
    c = make_space([f"p{i}" for i in range(4)], {(i, j): n1(2 if j == 3 else 1)
                                                for i in range(4) for j in range(i + 1, 4)}, (0, 1, 2, 3))
    b = uniform_space(3, n1(1))
    a = make_space("uv", {(0, 1): n1(2)}, (0, 1))
    for k in (1, 2):
        with pytest.raises(NotEmbeddable, match="^a does not embed into b$"):
            arrow(c, b, a, k)


def test_arrow_not_embeddable_when_a_is_larger_than_c():
    c = uniform_space(30, n1(1))
    start = time.perf_counter()
    with pytest.raises(NotEmbeddable):
        arrow(c, c, uniform_space(45, n1(1)), 2)
    with pytest.raises(NotEmbeddable):
        arrow(c, uniform_space(45, n1(1)), uniform_space(2, n1(1)), 2)
    assert time.perf_counter() - start < 1.0


def test_arrow_budget_unknown():
    verdict = arrow(uniform_space(6, n1(1)), uniform_space(3, n1(1)), uniform_space(2, n1(1)), 2, budget=10)
    assert verdict.status == UNKNOWN
    assert verdict.nodes == 11  # the node that crossed the budget is counted


def test_arrow_memory_does_not_grow_with_the_colors_tried():
    # b holds one copy of a, so every color placed on that copy completes
    # it.  No copy of b holds a color there, so the first color is tried
    # and found dead, and the other 10**9 - 1 colors are counted in one
    # step, not tried: the count crosses the budget at once.  Counting
    # them must not cost memory per color.  The colors held at a position
    # are 0..j-1, j at most the copies placed, so a loop that tries many
    # colors needs many copies of a and keeps has within their number
    b = make_space("xyz", {(0, 1): n1(1), (0, 2): n1(2), (1, 2): n1(2)})
    c = make_space("pqrs", {(0, 1): n1(1), (0, 2): n1(1), (0, 3): n1(1),
                            (1, 2): n1(1), (1, 3): n1(2), (2, 3): n1(2)})
    tracemalloc.start()
    try:
        verdict = arrow(c, b, b.induced([0, 1]), 10 ** 9, budget=20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.status == UNKNOWN and verdict.nodes == 20001
    assert peak < 200_000  # a table row per color tried would take over 1 MB


def test_arrow_deeper_than_recursion_limit():
    # 1200 copies of a one-point space: the search is 1200 levels deep
    c = uniform_space(1200, n1(1))
    verdict = arrow(c, c, uniform_space(1, n1(1)), 2)
    assert verdict.status == FAILS
    assert verdict.nodes == 1201
    assert verdict.copies_a == 1200 and verdict.copies_b == 1
    # all but the last copy get color 0; only the last completes c
    assert [verdict.bad_coloring[(i,)] for i in range(1200)] == [0] * 1199 + [1]


def test_bad_coloring_verifier_rejects_good_coloring():
    c = uniform_space(5, n1(1))
    b = uniform_space(3, n1(1))
    a = uniform_space(2, n1(1))
    from deltaspace.space import copies_of
    constant = {t: 0 for t in copies_of(c, a)}
    assert not verify_bad_coloring(c, b, a, constant)


def test_bad_coloring_verifier_does_not_use_copies_of():
    # the re-check of a Fails finds the copies of b on its own: recheck
    # imports no space, so copies_of is out of its reach
    # (test_package.test_recheck_imports_no_engine)
    c, b, a = uniform_space(5, n1(1)), uniform_space(3, n1(1)), uniform_space(2, n1(1))
    verdict = arrow(c, b, a, 2)
    assert verdict.status == FAILS
    assert verify_bad_coloring(c, b, a, verdict.bad_coloring)
    assert not verify_bad_coloring(c, b, a, dict.fromkeys(verdict.bad_coloring, 0))


def test_unordered_recheck_on_mixed_radicands():
    # the re-check counts distances by hash: sorting sqrt(2) against
    # sqrt(3) would raise MixedRadicands
    r2, r3 = ExactReal(0, 1, 2), ExactReal(0, 1, 3)
    x = make_space("uvw", {(0, 1): n1(1), (0, 2): r2, (1, 2): r3})
    y = make_space("uvw", {(0, 1): r3, (0, 2): n1(1), (1, 2): r2})
    z = make_space("uvw", {(0, 1): r2, (0, 2): r2, (1, 2): r3})
    assert _induces(x, (0, 1, 2), y) and not _induces(x, (0, 1, 2), z)
    assert _induces(x, (0, 2), y.induced((1, 2))) and not _induces(x, (1, 2), y.induced((1, 2)))


def test_unordered_recheck_tells_apart_spaces_of_equal_distances():
    # a 6-cycle and two triangles of 1s, 2 elsewhere: each has six 1s and
    # nine 2s, every point at 1 from two points and at 2 from three, and
    # no bijection keeps every distance
    pts = [f"p{i}" for i in range(6)]
    cycle = make_space(pts, {(i, j): n1(1 if (j - i) % 6 in (1, 5) else 2) for i in range(6) for j in range(i + 1, 6)})
    triangles = make_space(pts, {(i, j): n1(1 if i // 3 == j // 3 else 2) for i in range(6) for j in range(i + 1, 6)})
    assert _induces(cycle, tuple(range(6)), cycle) and _induces(triangles, tuple(range(6)), triangles)
    assert not _induces(cycle, tuple(range(6)), triangles) and not _induces(triangles, tuple(range(6)), cycle)


def at_scale():
    """(c, b, a) of 16/5/2, 18/5/2 and 20/5/1 points: random ordered
    spaces over {1, 2}, with b induced on c and a on b."""
    rng = random.Random(5)
    out = []
    for n, m, k in ((16, 5, 2), (18, 5, 2), (20, 5, 1)):
        dist = {(i, j): rng.choice((n1(1), n1(2))) for i in range(n) for j in range(i + 1, n)}
        c = make_space([f"p{i}" for i in range(n)], dist, tuple(rng.sample(range(n), n)))
        b = c.induced(rng.sample(range(n), m))
        out.append((c, b, b.induced(rng.sample(range(m), k))))
    return out


def test_arrow_at_scale_is_pinned():
    # verdict, nodes, copy counts and a digest of the bad coloring; the
    # re-check agrees with the subset scan on that coloring and on the
    # all-zero one
    pins = [(65, 62, 9, "5f7cb4611960a88c"), (66, 60, 17, "3e19ab9efcdddde3"), (22, 20, 12, "dc27cd7d1185353c")]
    for (c, b, a), (nodes, copies_a, copies_b, digest) in zip(at_scale(), pins):
        verdict = arrow(c, b, a, 2)
        assert (verdict.status, verdict.nodes, verdict.copies_a, verdict.copies_b) == (FAILS, nodes, copies_a, copies_b)
        coloring = verdict.bad_coloring
        assert hashlib.sha256(json.dumps(sorted(coloring.items())).encode()).hexdigest()[:16] == digest
        for col in (coloring, dict.fromkeys(coloring, 0)):
            assert verify_bad_coloring(c, b, a, col) == oracles.verify_bad_coloring(c, b, a, col)


def test_ordered_recheck_is_a_search_not_the_subset_scan(monkeypatch):
    # on ordered inputs arrow may not fall back to testing subsets with
    # isomorphic on induced spaces, nor the re-check of its Fails to
    # testing subsets with _induces; arrow holds its own _induces, which
    # checks the keys
    from deltaspace import recheck, space
    c, b, a = at_scale()[0]

    def refuse(*args):
        raise AssertionError("the ordered search or re-check tested a subset")

    monkeypatch.setattr(space, "isomorphic", refuse)
    monkeypatch.setattr(Space, "induced", refuse)
    verdict = arrow(c, b, a, 2)
    assert verdict.status == FAILS
    monkeypatch.setattr(recheck, "_induces", refuse)
    assert verify_bad_coloring(c, b, a, verdict.bad_coloring)
    assert not verify_bad_coloring(c, b, a, dict.fromkeys(verdict.bad_coloring, 0))


def test_ordered_spaces_are_rigid():
    rng = random.Random(61)
    d = make_set([n1(1), n1(2), n1(3)], cap=n1(3))
    for _ in range(40):
        x = random_space(rng, rng.randint(1, 6), d)
        assert is_rigid(x)
        assert list(isomorphisms(x, x)) == [tuple(range(x.n))]


def test_ordered_uniform_rigid_without_enumerating_distance_automorphisms():
    # all 12! permutations preserve the distances; the order prunes at once
    x = uniform_space(12, n1(1))
    assert is_rigid(x)
    assert list(isomorphisms(x, x)) == [tuple(range(12))]


def test_ordered_uniform_rigid_at_64_points():
    # one candidate image per point: linear, not one node per order-preserving partial map
    assert is_rigid(uniform_space(64, n1(1)))


def test_unordered_uniform_pair_not_rigid():
    assert not is_rigid(uniform_space(2, n1(1), ordered=False))
    assert not is_rigid(uniform_space(3, n1(1), ordered=False))


def test_unordered_uniform_not_rigid_without_enumerating_automorphisms():
    # 12! automorphisms; the verdict needs only the second one
    start = time.perf_counter()
    assert not is_rigid(uniform_space(12, n1(1), ordered=False))
    assert time.perf_counter() - start < 1.0


def test_unordered_scalene_triangle_rigid():
    x = make_space("abc", {(0, 1): n1(2), (1, 2): n1(3), (0, 2): n1(4)})
    assert is_rigid(x)


def test_arrow_budget_inside_a_counted_run_of_colors():
    # K7 -> (K3) on vertices with 3 colors holds.  Past the first color
    # that no B-copy holds, the rest of a position is counted in one step,
    # not searched; a budget that runs out inside that step is still
    # Unknown with budget + 1 nodes, every budget below the count is,
    # and a budget of the count gives the verdict
    c, b, a = uniform_space(7, n1(1)), uniform_space(3, n1(1)), uniform_space(1, n1(1))
    verdict = arrow(c, b, a, 3)
    assert verdict.status == HOLDS
    assert verdict.nodes == oracles.arrow_search(oracles.copies_of(c, a), oracles.copies_of(c, b), 3)[1] == 271
    for budget in range(verdict.nodes):
        cut = arrow(c, b, a, 3, budget)
        assert (cut.status, cut.nodes, cut.bad_coloring) == (UNKNOWN, budget + 1, None)
    assert arrow(c, b, a, 3, verdict.nodes) == verdict
