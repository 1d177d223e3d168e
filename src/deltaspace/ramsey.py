"""Brute-force certification of the partition arrow on small ordered
structures, plus rigidity checking.

A verdict of Holds is only ever produced by a completed search over all
colorings (backtracking counts as complete when its tree is exhausted);
anything cut short by the budget is Unknown.  A verdict of Fails carries
the bad coloring and is re-verified before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .search import BudgetExceeded, Search
from .space import Space, copies_of, isomorphisms


class RamseyError(Exception):
    pass


class NotEmbeddable(RamseyError):
    pass


HOLDS = "Holds"
FAILS = "Fails"
UNKNOWN = "Unknown"


@dataclass
class ArrowVerdict:
    status: str
    bad_coloring: Optional[dict[tuple[int, ...], int]] = None
    copies_a: int = 0
    copies_b: int = 0
    nodes: int = 0


def arrow(c: Space, b: Space, a: Space, k: int, budget: int = 10 ** 7) -> ArrowVerdict:
    """Certify or refute: every k-coloring of the copies of a in c has a
    monochromatic copy of b."""
    if k < 1:
        raise RamseyError("need k >= 1")
    copies_a = copies_of(c, a)
    copies_b = copies_of(c, b)
    if not copies_b:
        raise NotEmbeddable("b does not embed into c")
    if a.n > 0 and not copies_of(b, a):
        raise NotEmbeddable("a does not embed into b")
    verdict = ArrowVerdict(UNKNOWN, copies_a=len(copies_a), copies_b=len(copies_b))
    if k == 1:
        verdict.status = HOLDS
        return verdict

    m = len(copies_a)
    if m == 0:
        # the empty coloring is constant on every copy of B
        verdict.status = HOLDS
        return verdict
    b_sets = [set(t) for t in copies_b]
    b_for_a = [[bi for bi, s in enumerate(b_sets) if s.issuperset(t)] for t in copies_a]
    size_b = [sum(map(s.issuperset, copies_a)) for s in b_sets]
    # left[col][bi]: the members of B-copy bi not yet colored col.  A color
    # has a row only while a placed copy has that color, so rows <= m for any k.
    left = {}
    made = [False] * m  # made[i]: placing copy i made its color's row

    def place(i, col):
        row = left.get(col)
        made[i] = row is None
        if made[i]:
            row = left[col] = size_b.copy()
        alive = True
        for bi in b_for_a[i]:
            row[bi] -= 1
            if not row[bi]:
                alive = False  # this B-copy came out monochromatic
        return alive

    def undo(i, col):
        if made[i]:
            del left[col]  # the placements after copy i are undone already
            return
        row = left[col]
        for bi in b_for_a[i]:
            row[bi] += 1

    # symmetry reduction: the first copy is pinned to color 0
    first, rest = range(1), range(k)
    search = Search(m, lambda i: rest if i else first, place, undo, budget)
    try:
        bad = next(iter(search), None)
    except BudgetExceeded:
        verdict.nodes = search.nodes
        return verdict
    verdict.nodes = search.nodes
    if bad is None:
        verdict.status = HOLDS
        return verdict
    coloring = {copies_a[i]: bad[i] for i in range(m)}
    if not verify_bad_coloring(c, b, a, coloring):
        raise AssertionError("bad coloring failed re-verification")
    verdict.status = FAILS
    verdict.bad_coloring = coloring
    return verdict


def verify_bad_coloring(c: Space, b: Space, a: Space, coloring: dict) -> bool:
    """Independent re-check that a coloring witnesses failure: every copy
    of b contains two differently colored copies of a."""
    copies_b = copies_of(c, b)
    copies_a = list(coloring)
    for bc in copies_b:
        bset = set(bc)
        cols = {coloring[t] for t in copies_a if set(t) <= bset}
        if len(cols) <= 1:
            return False
    return True


def automorphisms(x: Space):
    """All automorphisms of x (identity included), in lexicographic order."""
    return list(isomorphisms(x, x))


def is_rigid(x: Space) -> bool:
    """True iff the identity is the only automorphism.  Ordered spaces
    are rigid a priori (a finite linear order has no nontrivial
    automorphism)."""
    return all(m == tuple(range(x.n)) for m in automorphisms(x))
