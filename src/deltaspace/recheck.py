"""Run-time re-checks of a verb's witness by plain exact evaluation.

A check reads a space's distances and order, a model's universe and
cut tables, or two codes' prefixes, as they are, with no masks, derived
tables or search, so it shares nothing with the engine that found the
witness: this module imports no engine (limitbuilder, ramsey, coding,
search or amalgam), and a tier-1 test holds it to that.  A witness that
fails its check is an AssertionError, which the CLI reports as an
internal error (exit 4), never as a verdict.
"""

from __future__ import annotations

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
