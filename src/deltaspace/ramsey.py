"""Brute-force certification of the partition arrow on small ordered
structures, plus rigidity checking.

A verdict of Holds is only ever produced by a completed search over all
colorings (backtracking counts as complete when its tree is exhausted,
and a subtree that a swap of two colors maps onto one searched counts
as searched); anything cut short by the budget is Unknown.  A verdict
of Fails carries the bad coloring and is re-verified before being
returned, by one call of recheck.verify_bad_coloring: every key of the
coloring must induce a copy of a, and every copy of b, found afresh,
must hold two colors.  c, b and a must
all be ordered or all unordered: between the two kinds no copy is
defined, so no embedding is reported missing.

The search colors the copies of a in index order, so a copy of b can
come out monochromatic only when its last copy of a is colored.  Each
copy of a keeps two bitmasks over the copies of b: those that contain it
and those it closes.  The search is one flat loop, _color, not a run
of search.injective_maps, with its state in locals: has[col], the copies
of b that hold color col, for each color in use; every, their union; and
mixed, the copies of b that hold two colors.  A node (a color tried at a position) is dead when it closes
a copy of b that holds one color; a dead node changes no state, and the
loop tries the next color.  A live node at position i keeps has[col],
every and mixed in saved[i] before it changes them, and backtracking to
position i restores saved[i] and tries the color after the one placed.
A color is unheld at a position when no copy of b holds it (has[col] is
0 or absent).  Two unheld colors are interchangeable, so a position
searches its first unheld color only and counts the later ones, each a
subtree of the same size, without visiting them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .recheck import verify_bad_coloring
from .search import BudgetExceeded
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
    if len({x.order is None for x in (c, b, a)}) > 1:
        raise RamseyError("c, b and a must all be ordered or all unordered")
    copies_a = copies_of(c, a)
    copies_b = copies_of(c, b)
    if not copies_b:
        raise NotEmbeddable("b does not embed into c")
    m = len(copies_a)
    index = {t: i for i, t in enumerate(copies_a)}
    # a copy of a in b lies inside every copy of b, so one copy tells
    if not any(s in index for s in itertools.combinations(copies_b[0], a.n)):
        raise NotEmbeddable("a does not embed into b")
    verdict = ArrowVerdict(UNKNOWN, copies_a=m, copies_b=len(copies_b))
    if k == 1:
        verdict.status = HOLDS
        return verdict
    # contains[i], closes[i]: the B-copies (bit j for B-copy j) that hold
    # A-copy i, and those whose highest-index A-copy is i, so that placing
    # i completes them
    contains, closes = [0] * m, [0] * m
    get = index.get
    for j, bc in enumerate(copies_b):
        bit, last = 1 << j, -1
        for s in itertools.combinations(bc, a.n):
            i = get(s, -1)
            if i >= 0:
                contains[i] |= bit
                if i > last:
                    last = i
        if last >= 0:
            closes[last] |= bit
    try:
        bad, verdict.nodes = _color(m, k, contains, closes, budget)
    except BudgetExceeded:
        verdict.nodes = budget + 1  # the node that crossed the budget is counted
        return verdict
    if bad is None:
        verdict.status = HOLDS
        return verdict
    coloring = {copies_a[i]: bad[i] for i in range(m)}
    if not verify_bad_coloring(c, b, a, coloring):
        raise AssertionError("bad coloring failed re-verification")
    verdict.status = FAILS
    verdict.bad_coloring = coloring
    return verdict


def _color(m: int, k: int, contains: list[int], closes: list[int], budget: int):
    """(colors, nodes): the first coloring of positions 0..m-1, in the
    order of the recursive search that tries colors 0..k-1 at each
    position (only 0 at position 0), that completes no monochromatic
    B-copy, or None when there is none.  One node is counted per color
    tried, before the budget check; past budget nodes it raises
    BudgetExceeded.

    Only the first unheld color of a position is searched.  Two unheld
    colors are interchangeable: swapping them maps the subtree of one
    onto the other's, node for node, and neither holds a bad coloring
    once the first is exhausted.  The colors held are always 0..j-1, so
    every color after the first unheld one is unheld too, and the rest
    of the position is counted at once: the first one's subtree size
    (1 if its node is dead) times the colors left.  The budget is then
    checked as the exhausted position is left, so a count that crosses
    it raises as the node it crossed at would have."""
    # has, every, mixed and saved as in the module docstring; saved[i]
    # also keeps the node count at the live node, so that restoring it
    # gives the size of its subtree.  A color has an entry in has only
    # while a placed copy has that color, so has <= m for any k.
    colors, saved = [0] * m, [None] * m
    has = {}
    get = has.get
    every = mixed = nodes = 0
    i = col = 0
    top = 1  # the colors of position i are range(top)
    over = f"search exceeded {budget} nodes"
    while True:
        if col < top:
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(over)
            held, bits = get(col, 0), contains[i]
            now_mixed = mixed | bits & every & ~held
            if closes[i] & ~now_mixed:  # dead: a B-copy came out monochromatic
                col += 1
                if not held:  # the first unheld color: the rest are unheld and dead too
                    nodes += top - col
                    col = top
                continue
            saved[i], colors[i] = (held, every, mixed, nodes), col
            mixed = now_mixed
            has[col] = held | bits
            every |= bits
            i += 1
            if i == m:
                return colors, nodes
            col, top = 0, k
            continue
        # position i is exhausted, its colors tried or counted: a count may
        # have crossed the budget
        if nodes > budget:
            raise BudgetExceeded(over)
        if not i:
            return None, nodes
        # restore position i - 1 and try its next color
        i -= 1
        held, every, mixed, start = saved[i]
        col, top = colors[i], k if i else 1
        if held:
            has[col] = held
            col += 1
        else:  # a later restore of col may have dropped it already, if contains[i] is 0
            has.pop(col, None)
            # col was the first unheld color: each later color's subtree is as large
            nodes += (top - col - 1) * (nodes - start + 1)
            col = top


def is_rigid(x: Space) -> bool:
    """True iff the identity is the only automorphism.  Ordered spaces
    are rigid a priori (a finite linear order has no nontrivial
    automorphism).  The search stops at the second automorphism."""
    return all(m == tuple(range(x.n)) for m in itertools.islice(isomorphisms(x, x), 2))
