"""Run-time re-checks of a verb's witness by plain exact evaluation.

A check reads a space's distances and order, a model's universe and
cut tables, or two codes' prefixes, as they are, with no masks or
derived tables, and may run a plain loop of its own, by design, so it
shares nothing with the engine that found the witness: this module
imports no engine (limitbuilder, ramsey, coding, search or amalgam) and
not space, and a tier-1 test holds it to that.  A witness that fails
its check is an AssertionError, which the CLI reports as an internal
error (exit 4), never as a verdict.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .exact import MixedRadicands


def realizer(m, subset, dists, slot: int):
    """The lowest-index point of the ordered space m outside subset, at
    exactly dists[i] from subset[i] for each i, with exactly slot of the
    subset's points ranked below it; None if no point of m is one."""
    rank = {p: r for r, p in enumerate(m.order)}
    for p in range(m.n):
        row = m.dist[p]
        if (p not in subset and all(row[s] == v for s, v in zip(subset, dists))
                and sum(rank[s] < rank[p] for s in subset) == slot):
            return p
    return None


def check_unrealized(m, subset, dists, slot: int) -> None:
    """AssertionError unless no point of m realizes the extension of
    subset at dists in order slot slot."""
    p = realizer(m, subset, dists, slot)
    if p is not None:
        raise AssertionError(f"the extension of {tuple(subset)} in slot {slot} was reported "
                             f"unrealized, but point {p} realizes it")


def check_product_cut(rq, witness) -> None:
    """AssertionError unless the clause (4) witness (p, q, x, y, z) of
    the cut tables rq is a violation: (x, y) in rq[p] and (y, z) in
    rq[q] must disagree with (x, z) in rq[p * q], both holding where it
    does not, or neither holding where it does."""
    p, q, x, y, z = witness
    where = f"clause (4) was reported violated at p = {p}, q = {q}, (x, y, z) = {(x, y, z)}"
    if not {p, q, p * q} <= rq.keys():
        raise AssertionError(f"{where}, but p, q or pq has no cut table")
    a, b, c = (x, y) in rq[p], (y, z) in rq[q], (x, z) in rq[p * q]
    if not ((a and b and not c) or (c and not a and not b)):
        raise AssertionError(f"{where}, but R_p(x, y), R_q(y, z) and R_pq(x, z) are {a}, {b} and {c}")


def check_small_ratio(universe, rq, witness) -> None:
    """AssertionError unless the clause (7) witness (q, x, i) has q the
    least rational of the cut tables rq, x and i nonzero indices of
    universe, and universe[x] <= q * universe[i] exactly."""
    q, x, i = witness
    where = f"clause (7) was reported satisfied with (q, x, i) = {(q, x, i)}"
    # q <= p for every p in rq, on ints: Fraction comparisons, as in
    # min(rq), cost 2.5 times as much over a sample of 70
    if q not in rq or any(p.numerator * q.denominator < q.numerator * p.denominator for p in rq):
        raise AssertionError(f"{where}, but the least sample rational is {min(rq)}")
    if not {x, i} <= set(range(1, len(universe))):
        raise AssertionError(f"{where}, but x and i must be nonzero indices below {len(universe)}")
    if not universe[x] <= q * universe[i]:
        raise AssertionError(f"{where}, but {universe[x]} > {q} * {universe[i]}")


def check_similarity(c, d, g, r) -> None:
    """AssertionError unless g is a permutation of the positions of the
    prefixes c and d, and d[g[i]] == r * c[i] for every i, zeros included."""
    where = f"check-sim reported the permutation {list(g)} and ratio {r}"
    if len(c) != len(d) or sorted(g) != list(range(len(c))):
        raise AssertionError(f"{where}, but that is no permutation of the {len(c)} and {len(d)} positions")
    for i, v in enumerate(c):
        try:
            image = r * v
        except MixedRadicands:
            raise AssertionError(f"{where}, but r * c[{i}] = {r} * {v} mixes radicands") from None
        if d[g[i]] != image:
            raise AssertionError(f"{where}, but d[{g[i]}] = {d[g[i]]} is not r * c[{i}] = {image}")


def _by_rank(x) -> list[list]:
    """rows[r][t]: the distance between x's r-th and t-th points in its
    order, for t < r."""
    order = x.order
    return [[row[q] for q in order[:r]] for r, row in enumerate(map(x.dist.__getitem__, order))]


def _shape(dist, pts) -> tuple:
    """(classes, want) of the points pts of an unordered space: classes
    groups them by each one's multiset of distances to the others,
    counted by hash (a sort could mix radicands), and want lists their
    pairwise distances, the points taken class by class."""
    classes = {}
    for p in pts:
        classes.setdefault(frozenset(Counter(dist[p][q] for q in pts if q != p).items()), []).append(p)
    return classes, [dist[p][q] for p, q in itertools.combinations(itertools.chain(*classes.values()), 2)]


def _induces(c, t: tuple[int, ...], a, shape=None) -> bool:
    """Whether the points t of c induce a copy of a, with no copies_of or
    isomorphic: by rank with exact == when c and a are ordered, never
    when one is ordered and the other not.  When both are unordered,
    the multisets of distances must agree, then t's classes must match
    a's in size, and then some bijection that maps each class onto a's
    must keep every distance.  shape is a's _shape, if given."""
    if len(t) != a.n or (c.order is None) != (a.order is None):
        return False
    if c.order is None:
        classes, want = shape or _shape(a.dist, range(a.n))
        if Counter(c.dist[p][q] for p, q in itertools.combinations(t, 2)) != Counter(want):
            return False
        got = _shape(c.dist, t)[0]
        if any(len(got.get(key, ())) != len(ps) for key, ps in classes.items()):
            return False
        return any([c.dist[p][q] for p, q in itertools.combinations(itertools.chain(*g), 2)] == want
                   for g in itertools.product(*map(itertools.permutations, map(got.__getitem__, classes))))
    pts = sorted(t, key=c.ranks.__getitem__)
    return [[c.dist[p][q] for q in pts[:r]] for r, p in enumerate(pts)] == _by_rank(a)


def verify_bad_coloring(c, b, a, coloring: dict) -> bool:
    """Independent re-check that a coloring witnesses failure: every copy
    of b contains two differently colored copies of a, the copies of a
    being the coloring's keys.  It finds the copies of b itself and shares
    no code with the arrow search, copies_of or isomorphic; arrow checks
    the keys with _induces first.

    When c and b are ordered it searches for a monochromatic copy of b:
    c's points are picked in increasing rank, the r-th pick standing for
    b's r-th point, each pick's distances to the earlier picks compared
    with exact == in one list compare, which tries identity before
    ExactReal.__eq__.  A pick adds the colors of the keys whose
    highest-rank point it is and whose points are all picked, and a
    branch is cut as soon as it holds two colors.  Otherwise every
    subset of c is tested with _induces."""
    if c.order is None or b.order is None:
        shape = _shape(b.dist, range(b.n))
        for bc in itertools.combinations(range(c.n), b.n):
            if _induces(c, bc, b, shape) and len({x for t, x in coloring.items() if set(t) <= set(bc)}) < 2:
                return False  # a copy of b with at most one color
        return True
    k, n, order, ranks, dist = b.n, c.n, c.order, c.ranks, c.dist
    if k > n:  # no copy of b, and the slice bound below would count from the end
        return True
    want = _by_rank(b)
    tops = [[] for _ in range(n)]  # tops[p]: the keys (points, color) whose highest-rank point is p
    cols = [None] * (k + 1)  # cols[r]: the one color of the keys inside the first r picks, or None
    for t, col in coloring.items():
        if t:
            tops[max(t, key=ranks.__getitem__)].append((t, col))
        else:  # the empty key lies inside every copy of b
            cols[0] = col
    if k == 0:
        return False  # the empty copy of b holds at most one color
    picked, pts = [False] * n, [0] * k
    stack = [iter(order[:n - k + 1])]  # stack[r]: the untried points of pick r
    while stack:
        r = len(stack) - 1
        earlier, w = pts[:r], want[r]
        for p in stack[r]:
            if list(map(dist[p].__getitem__, earlier)) != w:
                continue
            picked[p], col = True, cols[r]
            for t, x in tops[p]:
                if all(picked[q] for q in t):
                    if col is None:
                        col = x
                    elif x != col:
                        break  # two colors: every completion of this branch holds them
            else:
                if r + 1 == k:
                    return False  # a copy of b with at most one color
                pts[r], cols[r + 1] = p, col
                stack.append(iter(order[ranks[p] + 1:n - k + r + 2]))
                break
            picked[p] = False
        else:
            stack.pop()
            if r:
                picked[pts[r - 1]] = False
    return True
