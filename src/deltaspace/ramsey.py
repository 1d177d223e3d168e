"""Brute-force certification of the partition arrow on small ordered
structures, plus rigidity checking.

A verdict of Holds is only ever produced by a completed search over all
colorings (backtracking counts as complete when its tree is exhausted);
anything cut short by the budget is Unknown.  A verdict of Fails carries
the bad coloring and is re-verified, by code the search does not use,
before being returned.

The search colors the copies of a in index order, so a copy of b can
come out monochromatic only when its last copy of a is colored.  Each
copy of a keeps the bitmasks of the copies of b it closes, and each color
in use keeps the bitmask of the copies that have it; a node is dead when
one closing mask lies inside its color's mask.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .search import BudgetExceeded, Search
from .space import Space, copies_of, isomorphic, isomorphisms


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
    # closing[i]: the masks (bit j for A-copy j) of the B-copies whose
    # highest-index member is i, the copy whose placement can complete them
    index = {t: i for i, t in enumerate(copies_a)}
    closing = [[] for _ in range(m)]
    for bc in copies_b:
        members = [index[s] for s in itertools.combinations(bc, a.n) if s in index]
        if members:
            closing[max(members)].append(sum(1 << j for j in members))
    # masks[col]: the placed copies of color col.  A color has a mask only
    # while a placed copy has that color, so masks <= m for any k.
    masks = {}

    def place(i, col):
        mask = masks[col] = masks.get(col, 0) | 1 << i
        for bm in closing[i]:
            if bm & mask == bm:
                return False  # this B-copy came out monochromatic
        return True

    def undo(i, col):
        mask = masks[col] ^ 1 << i
        if mask:
            masks[col] = mask
        else:
            del masks[col]

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
    of b contains two differently colored copies of a.  It shares no code
    with the arrow search or copies_of, so a fault there cannot certify
    its own output."""
    copies_a = list(coloring)
    for bc in itertools.combinations(range(c.n), b.n):
        if isomorphic(c.induced(bc), b) is None:
            continue
        bset = set(bc)
        cols = {coloring[t] for t in copies_a if set(t) <= bset}
        if len(cols) <= 1:
            return False
    return True


def is_rigid(x: Space) -> bool:
    """True iff the identity is the only automorphism.  Ordered spaces
    are rigid a priori (a finite linear order has no nontrivial
    automorphism).  The search stops at the second automorphism."""
    return all(m == tuple(range(x.n)) for m in itertools.islice(isomorphisms(x, x), 2))
