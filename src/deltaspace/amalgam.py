"""Free amalgamation and distance capping.

These are the two metric primitives out of which the larger
constructions (saturation, back-and-forth steps, density perturbation)
are assembled.  The free amalgam carries no order: the order amalgamates
freely too, so each construction places its new points in the order
itself.
"""

from __future__ import annotations

from .exact import ExactReal
from .space import Space


class AmalgamError(Exception):
    pass


class OverlapNotIsometric(AmalgamError):
    pass


class DegenerateAmalgam(AmalgamError):
    """Empty overlap between two diameter-zero spaces: the cross distance
    formula degenerates to 0, which no metric allows."""


def free_amalgam(b: Space, c: Space, overlap) -> Space:
    """Glue b and c along the overlap [(index in b, index in c), ...].

    Points are b's points followed by c's non-overlap points.  Cross
    distances take the shortest route through the overlap, or the sum of
    the two diameters when the overlap is empty.  The result carries no
    order and no Delta binding.  Precondition: b and c are valid spaces;
    the free amalgam of metric spaces over an isometric overlap is then a
    metric space, so it is not checked again.
    """
    overlap = list(overlap)
    b_side = [i for i, _ in overlap]
    c_side = [j for _, j in overlap]
    if len(set(b_side)) != len(b_side) or len(set(c_side)) != len(c_side):
        raise AmalgamError("overlap map must be injective")
    for (i1, j1) in overlap:
        for (i2, j2) in overlap:
            if b.dist[i1][i2] != c.dist[j1][j2]:
                raise OverlapNotIsometric(
                    f"d_B({i1},{i2}) = {b.dist[i1][i2]} != {c.dist[j1][j2]} = d_C({j1},{j2})"
                )
    cross_default = None
    if not overlap:
        cross_default = b.diameter() + c.diameter()
        if cross_default.is_zero():
            raise DegenerateAmalgam("two singletons with empty overlap")

    c_to_b = {j: i for i, j in overlap}
    fresh = [j for j in range(c.n) if j not in c_to_b]
    n = b.n + len(fresh)
    labels = list(b.labels)
    for j in fresh:
        lbl = c.labels[j]
        while lbl in labels:
            lbl += "'"
        labels.append(lbl)
    # index map: c point -> amalgam index
    c_idx = dict(c_to_b)
    for k, j in enumerate(fresh):
        c_idx[j] = b.n + k

    zero = ExactReal(0)
    dist = [[zero] * n for _ in range(n)]
    for i1 in range(b.n):
        for i2 in range(b.n):
            dist[i1][i2] = b.dist[i1][i2]
    for j1 in range(c.n):
        for j2 in range(c.n):
            dist[c_idx[j1]][c_idx[j2]] = c.dist[j1][j2]
    for x in range(b.n):
        if x in c_to_b.values():
            continue
        for j in fresh:
            y = c_idx[j]
            if overlap:
                v = min(b.dist[x][i] + c.dist[jj][j] for i, jj in overlap)
            else:
                v = cross_default
            dist[x][y] = v
            dist[y][x] = v

    return Space(tuple(labels), tuple(tuple(row) for row in dist))


def cap_distances(x: Space, cap: ExactReal) -> Space:
    """Replace every distance by min(d, cap).  Precondition: x is a metric
    space; truncation at a positive cap keeps the triangle inequality, so
    the result is one too."""
    if cap.sign() <= 0:
        raise AmalgamError("cap must be positive")
    dist = tuple(
        tuple(v if (i == j or v <= cap) else cap for j, v in enumerate(row))
        for i, row in enumerate(x.dist)
    )
    return Space(x.labels, dist, x.order, x.delta)
