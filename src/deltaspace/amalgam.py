"""Free amalgamation.

`column` is the one row builder of every construction that glues points
over anchor points: the ids, in an `exact.ValueTable`, of one new
point's distances to the old points, each the shortest route through
the anchors truncated at the table's bound, as an int min over table
lookups.  `saturate` calls it on the id rows it keeps; `adjoin` wraps
it for `free_amalgam`, `realize` and `density_perturb`, which glue
points to a `Space` of values, and builds its table from their bound.
Both name new points with `fresh_label`.  Neither carries an order: the
order amalgamates freely too, so each construction places its new
points in the order itself.
"""

from __future__ import annotations

from itertools import repeat
from typing import Optional

from .exact import ExactReal, ValueTable
from .space import Space


class AmalgamError(Exception):
    pass


class OverlapNotIsometric(AmalgamError):
    pass


class DegenerateAmalgam(AmalgamError):
    """Empty overlap between two diameter-zero spaces: the cross distance
    formula degenerates to 0, which no metric allows."""


def fresh_label(label: str, taken: set) -> str:
    """label with a prime added while it is in taken, then added to taken."""
    while label in taken:
        label += "'"
    taken.add(label)
    return label


def column(table: ValueTable, n: int, near, anchors, to) -> list[int]:
    """The ids in table of a new point's distances to n points: to[i]
    from anchors[i], whose ids to all n points are near[i], and from any
    other point a the shortest route through the anchors, min_i
    near[i][a] + to[i], truncated at the table's bound (with no anchors,
    the bound): one table lookup per point and anchor, and one int min
    per point.  table must hold those sums, as adjoin builds them.
    Nothing is checked."""
    add = table.add
    routes = [map(add[t].__getitem__, ids) for ids, t in zip(near, to)]
    col = list(map(min, repeat(table.top, n), *routes)) if routes else [table.top] * n
    for a, t in zip(anchors, to):
        col[a] = t
    return col


def adjoin(b: Space, anchors, to_anchors, among, labels, bound: Optional[ExactReal]):
    """The labels and distance rows of b with one new point per label
    appended, glued to b over the anchor points.

    New point j is at to_anchors[j][i] from anchors[i], at among[j][k]
    from new point k, and from the other points of b as `column` puts
    it, truncated at bound.  Its table sums only what `column` reads:
    anchor i's row of b against column i of to_anchors.  Each label
    goes through `fresh_label`.  Nothing is checked: the caller's inputs
    must make the result a metric space."""
    taken = set(b.labels)
    names = (*b.labels, *[fresh_label(lbl, taken) for lbl in labels])
    table = ValueTable(zip(map(b.dist.__getitem__, anchors), zip(*to_anchors)), bound)
    # near[i][a]: the id of d(anchors[i], a), read only when a point is added
    near = [table.ids(b.dist[s]) for s in anchors] if to_anchors else []
    cols = [list(map(table.values.__getitem__, column(table, b.n, near, anchors, to)))
            for to in map(table.ids, to_anchors)]  # cols[j][a]: new point j's distance to point a of b
    rows = list(map(tuple.__add__, b.dist, zip(*cols))) if cols else list(b.dist)
    rows += [tuple(col) + tuple(new) for col, new in zip(cols, among)]
    return names, tuple(rows)


def free_amalgam(b: Space, c: Space, overlap) -> Space:
    """Glue b and c along the overlap [(index in b, index in c), ...].

    Points are b's points followed by c's non-overlap points.  Cross
    distances take the shortest route through the overlap, truncated at
    the sum of the two diameters: no route is longer, and with an empty
    overlap that sum is the cross distance.  The routes are summed in
    `adjoin`'s table, once per distinct pair of values through an
    overlap point.  The result carries no order and no Delta binding.
    Precondition: b and c are valid spaces; the free amalgam of metric
    spaces over an isometric overlap is then a metric space, so it is
    not checked again.
    """
    overlap = list(overlap)
    b_side = [i for i, _ in overlap]
    c_side = [j for _, j in overlap]
    taken = set(c_side)
    if len(set(b_side)) != len(b_side) or len(taken) != len(c_side):
        raise AmalgamError("overlap map must be injective")
    for (i1, j1) in overlap:
        for (i2, j2) in overlap:
            if b.dist[i1][i2] != c.dist[j1][j2]:
                raise OverlapNotIsometric(
                    f"d_B({i1},{i2}) = {b.dist[i1][i2]} != {c.dist[j1][j2]} = d_C({j1},{j2})"
                )
    bound = b.diameter() + c.diameter()
    if not overlap and bound.is_zero():
        raise DegenerateAmalgam("two singletons with empty overlap")
    fresh = [j for j in range(c.n) if j not in taken]
    return Space(*adjoin(b, b_side, [[c.dist[jj][j] for jj in c_side] for j in fresh],
                         [[c.dist[j][k] for k in fresh] for j in fresh], [c.labels[j] for j in fresh], bound))
