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

    a_sets = [set(t) for t in copies_a]
    a_in_b = []
    for bc in copies_b:
        bset = set(bc)
        a_in_b.append([i for i, s in enumerate(a_sets) if s <= bset])
    b_for_a = [[] for _ in copies_a]
    for bi, members in enumerate(a_in_b):
        for ai in members:
            b_for_a[ai].append(bi)

    m = len(copies_a)
    if m == 0:
        # the empty coloring is constant on every copy of B
        verdict.status = HOLDS
        return verdict
    # per-B-copy bookkeeping: how many members colored, which colors seen
    size_b = [len(members) for members in a_in_b]
    assigned = [0] * len(copies_b)
    seen = [set() for _ in copies_b]
    touched = [None] * m  # touched[i]: (B-copy, color newly seen) pairs of copy i

    def place(i, col):
        alive = True
        t = touched[i] = []
        for bi in b_for_a[i]:
            assigned[bi] += 1
            s = seen[bi]
            added = col not in s
            if added:
                s.add(col)
            t.append((bi, added))
            if assigned[bi] == size_b[bi] and len(s) <= 1:
                alive = False  # this B-copy came out monochromatic
        return alive

    def undo(i, col):
        for bi, added in touched[i]:
            assigned[bi] -= 1
            if added:
                seen[bi].discard(col)

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
