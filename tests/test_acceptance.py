"""Acceptance suite: one test per criterion, one printed verdict line each.

All checks are exact; no tolerances apply anywhere except the explicit
1e-6 float-gap filter of the arithmetic cross-check, which guards the
floating-point oracle, not the library.
"""

import random
import time
from fractions import Fraction

from deltaspace.amalgam import free_amalgam
from deltaspace.coding import (
    SATISFIED,
    VIOLATED,
    approx_check,
    check_theory_T,
    encode_dvs,
    model_encode,
    sim_check,
    triangle_structure,
    ts_isomorphic,
)
from deltaspace.dvs import gen_delta_alpha, make_set, scale
from deltaspace.equiv import (
    EQUIVALENT,
    INEQUIVALENT,
    gl2_apply,
    gl2_equivalent,
    linearity_check,
    scaling_witness,
)
from deltaspace.exact import ExactReal, compare
from deltaspace.limitbuilder import (
    density_perturb,
    extend_partial_isometry,
    extension_property_check,
    saturate,
)
from deltaspace.ramsey import FAILS, HOLDS, arrow, is_rigid
from deltaspace.recheck import verify_bad_coloring
from deltaspace.space import OK, PartialIsometry, isomorphisms, uniform_space, validate
from oracles import cap_distances, gl2_search
from util import closed_fragment, doubled_space, extend_with_random_points, random_space

SQRT2 = ExactReal.sqrt(2)
SQRT3 = ExactReal.sqrt(3)


def n1(v):
    return ExactReal(Fraction(v))


def report(num, label, ok):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_01_arrow_matches_classical_ramsey():
    one = n1(1)
    a, b = uniform_space(2, one), uniform_space(3, one)
    start = time.monotonic()
    holds = arrow(uniform_space(6, one), b, a, 2)
    fails = arrow(uniform_space(5, one), b, a, 2)
    elapsed = time.monotonic() - start
    ok = (
        holds.status == HOLDS
        and fails.status == FAILS
        and fails.bad_coloring is not None
        and verify_bad_coloring(uniform_space(5, one), b, a, fails.bad_coloring)
        and elapsed < 5.0
    )
    report(1, "arrow certification", ok)


def test_criterion_02_scaling_equivalence():
    d = gen_delta_alpha(SQRT2, 3, n1(5))
    w = scaling_witness(d, scale(d, SQRT2))
    other = gen_delta_alpha(SQRT3, 3, n1(5))
    ok = w is not None and w.ratio == SQRT2
    ok = ok and scaling_witness(d, other) is None
    ok = ok and linearity_check(w.pairs(), d)
    # a second witness on a rational fragment, same exactness demand
    e = make_set([n1(1), n1(2), n1(3)])
    w2 = scaling_witness(e, scale(e, n1(Fraction(7, 3))))
    ok = ok and w2 is not None and linearity_check(w2.pairs(), e)
    report(2, "scaling witnesses", ok)


def _random_surd(rng, d):
    a = Fraction(rng.randint(0, 6), rng.randint(1, 4))
    b = Fraction(rng.randint(1, 6), rng.randint(1, 4))
    return ExactReal(a, b, d)


def test_criterion_03_gl2_orbits():
    ok = True
    v = gl2_equivalent(SQRT2, ExactReal(1) + 3 * SQRT2)
    ok = ok and v.status == EQUIVALENT and gl2_apply(v.matrix, SQRT2) == ExactReal(1) + 3 * SQRT2

    rng = random.Random(301)
    radicands = [2, 3, 5, 7, 11, 13]
    for _ in range(20):
        d1, d2 = rng.sample(radicands, 2)
        alpha, beta = _random_surd(rng, d1), _random_surd(rng, d2)
        ok = ok and gl2_equivalent(alpha, beta).status == INEQUIVALENT
        ok = ok and gl2_search(alpha, beta, 10) is None
    for _ in range(20):
        d = rng.choice(radicands)
        alpha, beta = _random_surd(rng, d), _random_surd(rng, d)
        verdict = gl2_equivalent(alpha, beta)
        ok = ok and verdict.status == EQUIVALENT
        ok = ok and gl2_apply(verdict.matrix, alpha) == beta
    report(3, "GL2 orbit decisions", ok)


def test_criterion_04_amalgamation_suite():
    rng = random.Random(401)
    fragments = [
        closed_fragment([n1(1)], n1(3)),
        closed_fragment([n1(Fraction(1, 2))], n1(2)),
        closed_fragment([SQRT2], 3 * SQRT2),
    ]
    passed = 0
    for _ in range(500):
        delta = rng.choice(fragments)
        a_n = rng.randint(0, 3)
        a = random_space(rng, a_n, delta, ordered=False)
        b = extend_with_random_points(rng, a, rng.randint(2 if a_n == 0 else 0, 6 - a_n), delta)
        c = extend_with_random_points(rng, a, rng.randint(2 if a_n == 0 else 0, 6 - a_n), delta)
        out = free_amalgam(b, c, [(i, i) for i in range(a_n)])
        good = validate(out) == OK
        fresh = list(range(a_n, c.n))
        cmap = {i: i for i in range(a_n)}
        for k, j in enumerate(fresh):
            cmap[j] = b.n + k
        for i in range(b.n):
            for j in range(b.n):
                good = good and out.dist[i][j] == b.dist[i][j]
        for i in range(c.n):
            for j in range(c.n):
                good = good and out.dist[cmap[i]][cmap[j]] == c.dist[i][j]
        capped = cap_distances(out, delta.cap)
        for i in range(capped.n):
            for j in range(i + 1, capped.n):
                good = good and capped.dist[i][j] in delta
        if good:
            passed += 1
    report(4, "amalgamation suite", passed == 500)


def test_criterion_05_extension_property():
    delta = make_set([n1(1), n1(2)], cap=n1(2))
    m = uniform_space(1, n1(1), delta=delta)
    sat, rep = saturate(m, delta, 2, max_points=64)
    ok = rep.empty
    ok = ok and extension_property_check(sat, delta, 2, source_n=m.n).empty
    again, rep2 = saturate(sat, delta, 2, source_n=m.n)
    ok = ok and again.n == sat.n and rep2.empty
    report(5, "extension property", ok)


def test_criterion_06_density_perturbation():
    rng = random.Random(601)
    fragments = [
        closed_fragment([n1(Fraction(1, 4))], n1(4)),
        closed_fragment([n1(Fraction(1, 8))], n1(2)),
    ]
    ok = True
    for _ in range(100):
        delta = rng.choice(fragments)
        k = rng.randint(2, 3)
        m, pairs = doubled_space(rng, k, delta)
        eps = n1(Fraction(1, 2))
        below = [v for v in delta.values if v < eps]
        dlt = below[-1]
        out, images = density_perturb(m, list(pairs), eps, delta)
        xs = [a for a, _ in pairs]
        ys = [b for _, b in pairs]
        ok = ok and validate(out) == OK
        for i in range(k):
            ok = ok and out.dist[ys[i]][images[i]] == dlt
            for j in range(k):
                ok = ok and out.dist[images[i]][images[j]] == m.dist[xs[i]][xs[j]]
                if i != j:
                    ok = ok and out.before(images[i], images[j]) == m.before(xs[i], xs[j])
        moved = PartialIsometry(out, tuple(zip(xs, images)))
        ok = ok and moved.is_isometry() and moved.order_preserving
    report(6, "density perturbation", ok)


def test_criterion_07_back_and_forth():
    rng = random.Random(701)
    delta = closed_fragment([n1(1)], n1(3))
    ok = True
    for _ in range(100):
        m, pairs = doubled_space(rng, 3, delta)
        base_dist = m.dist
        cur, p = m, PartialIsometry(m, pairs)
        for _ in range(5):
            candidates = [x for x in range(cur.n) if x not in dict(p.pairs)]
            if not candidates:
                break
            prev_pairs = p.pairs
            cur, p = extend_partial_isometry(cur, p, rng.choice(candidates))
            ok = ok and p.pairs[:-1] == prev_pairs
            ok = ok and p.is_isometry() and p.order_preserving
        for i in range(m.n):
            for j in range(m.n):
                ok = ok and cur.dist[i][j] == base_dist[i][j]
    report(7, "back-and-forth steps", ok)


def test_criterion_08_rigidity():
    rng = random.Random(801)
    delta = make_set([n1(1), n1(2), n1(3), n1(4)], cap=n1(4))
    ok = True
    for _ in range(200):
        x = random_space(rng, rng.randint(1, 7), delta)
        ok = ok and is_rigid(x)
        ok = ok and list(isomorphisms(x, x)) == [tuple(range(x.n))]
    ok = ok and not is_rigid(uniform_space(3, n1(1), ordered=False))
    report(8, "rigidity", ok)


def _random_fragment(rng, size):
    vals = set()
    while len(vals) < size:
        vals.add(Fraction(rng.randint(1, 8), rng.randint(1, 8)))
    return make_set([ExactReal(v) for v in vals])


def _corrupt_one_entry(model, rng):
    """Flip one interior Rq entry; returns False if no interior entry
    exists (never the case with the default Farey sample)."""
    qs = sorted(model.rq)
    # removal: a cut element strictly below the cut's max
    candidates = []
    for q in qs:
        for pair in model.rq[q]:
            if any(p > q and pair in model.rq[p] for p in qs):
                candidates.append((q, pair, "remove"))
    # addition: the largest non-member of a cut with another non-member
    # below it (the gap makes downward closure provably fail)
    all_pairs = sorted({t for q in qs for t in model.rq[q]})
    for pair in all_pairs:
        missing = [q for q in qs if pair not in model.rq[q]]
        if len(missing) >= 2:
            candidates.append((max(missing), pair, "add"))
    if not candidates:
        return False
    q, pair, kind = rng.choice(candidates)
    if kind == "remove":
        model.rq[q] = frozenset(model.rq[q] - {pair})
    else:
        model.rq[q] = frozenset(model.rq[q] | {pair})
    return True


def test_criterion_09_coding_bridge():
    rng = random.Random(901)
    ok = True

    pairs = []
    for _ in range(20):  # scaled pairs: witness exists
        d = _random_fragment(rng, rng.randint(3, 4))
        r = ExactReal(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        pairs.append((d, scale(d, r), True))
    for _ in range(15):  # same length, not a scaling
        d = _random_fragment(rng, 3)
        e = make_set([v + n1(Fraction(1, 97)) for v in d.values[:-1]] + [d.values[-1] * 2])
        pairs.append((d, e, False))
    for _ in range(15):  # cross-field pairs
        d = _random_fragment(rng, 3)
        pairs.append((scale(d, SQRT2), scale(d, SQRT3), False))

    assert len(pairs) == 50
    for d, e, scaled in pairs:
        w = scaling_witness(d, e)
        s = sim_check(encode_dvs(d), encode_dvs(e))
        ok = ok and (w is None) == (s is None)
        if w is not None and s is not None:
            ok = ok and w.ratio == s[1]
            ok = ok and approx_check(encode_dvs(d), encode_dvs(e)) is not None
        if scaled:
            ok = ok and w is not None
            ok = ok and ts_isomorphic(triangle_structure(d), triangle_structure(e)) is not None

    detected = 0
    for _ in range(20):
        d = _random_fragment(rng, 3)
        model = model_encode(d)
        clean = check_theory_T(model)
        ok = ok and all(clean[key].status == SATISFIED for key in ("1", "2", "3", "4", "5", "6"))
        assert _corrupt_one_entry(model, rng)
        bad = check_theory_T(model)
        if bad["2"].status == VIOLATED or bad["4"].status == VIOLATED:
            detected += 1
    ok = ok and detected == 20
    report(9, "coding bridge", ok)


def test_criterion_10_exact_arithmetic():
    rng = random.Random(1001)
    ok = True
    checked = 0
    for _ in range(10000):
        d = rng.choice([2, 3, 5, 7, 11])
        x = ExactReal(Fraction(rng.randint(-60, 60), rng.randint(1, 24)),
                      Fraction(rng.randint(-60, 60), rng.randint(1, 24)), d)
        y = ExactReal(Fraction(rng.randint(-60, 60), rng.randint(1, 24)),
                      Fraction(rng.randint(-60, 60), rng.randint(1, 24)), d)
        gap = float(x) - float(y)
        if abs(gap) <= 1e-6:
            continue
        checked += 1
        ok = ok and compare(x, y) == (1 if gap > 0 else -1)
    ok = ok and checked > 9000
    for d in (2, 3, 5, 6, 7, 10, 11, 13, 14, 15):
        ok = ok and ExactReal.sqrt(d) * ExactReal.sqrt(d) == ExactReal(d)
    for _ in range(500):
        d = rng.choice([2, 3, 5])
        a = ExactReal(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                      Fraction(rng.randint(-9, 9), rng.randint(1, 9)), d)
        b = ExactReal(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                      Fraction(rng.randint(-9, 9), rng.randint(1, 9)), d)
        if b.is_zero():
            continue
        ok = ok and (a / b) * b == a and (a * b) / b == a
    report(10, "exact arithmetic", ok)
