"""Free amalgamation.

`adjoin` writes the rows of new points glued to a space over some of its
points: it is the one row builder of `free_amalgam` and of every
construction that grows the ordered limit.  Neither carries an order: the
order amalgamates freely too, so each construction places its new points
in the order itself.
"""

from __future__ import annotations

from typing import Optional

from .exact import ExactReal
from .space import Space


class AmalgamError(Exception):
    pass


class OverlapNotIsometric(AmalgamError):
    pass


class DegenerateAmalgam(AmalgamError):
    """Empty overlap between two diameter-zero spaces: the cross distance
    formula degenerates to 0, which no metric allows."""


def adjoin(b: Space, anchors, to_anchors, among, labels, bound: Optional[ExactReal]):
    """The labels and distance rows of b with one new point per label
    appended, glued to b over the anchor points.

    New point j is at to_anchors[j][i] from anchors[i], at among[j][k]
    from new point k, and from any other point a of b at the shortest
    route through the anchors, min_i d(a, anchors[i]) + to_anchors[j][i],
    truncated at bound unless bound is None (with no anchors, at bound).
    A label gets a prime added while it is taken.  Nothing is checked:
    the caller's inputs must make the result a metric space."""
    names = list(b.labels)
    for lbl in labels:
        while lbl in names:
            lbl += "'"
        names.append(lbl)
    at = {a: i for i, a in enumerate(anchors)}
    cols = []  # cols[j][a]: new point j's distance to point a of b
    for to in to_anchors:
        col = []
        for a, row in enumerate(b.dist):
            i = at.get(a)
            if i is not None:
                col.append(to[i])
                continue
            v = min((row[s] + t for s, t in zip(anchors, to)), default=bound)
            col.append(bound if bound is not None and v > bound else v)
        cols.append(col)
    rows = [row + tuple([col[a] for col in cols]) for a, row in enumerate(b.dist)]
    rows += [tuple(col) + tuple(near) for col, near in zip(cols, among)]
    return tuple(names), tuple(rows)


def free_amalgam(b: Space, c: Space, overlap) -> Space:
    """Glue b and c along the overlap [(index in b, index in c), ...].

    Points are b's points followed by c's non-overlap points.  Cross
    distances take the shortest route through the overlap, truncated at
    the sum of the two diameters: no route is longer, and with an empty
    overlap that sum is the cross distance.  The result carries no order
    and no Delta binding.  Precondition: b and c are valid spaces; the
    free amalgam of metric spaces over an isometric overlap is then a
    metric space, so it is not checked again.
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
    labels, dist = adjoin(
        b, b_side,
        [[c.dist[jj][j] for jj in c_side] for j in fresh],
        [[c.dist[j][k] for k in fresh] for j in fresh],
        [c.labels[j] for j in fresh],
        bound,
    )
    return Space(labels, dist)
