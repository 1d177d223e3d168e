"""Finite approximations of the ordered homogeneous limit.

Everything here works on a concrete finite ordered space M over a closed
distance fragment D: enumerating one-point extensions, saturating M so
that every small substructure has all its one-point extensions realized,
extending partial isometries one point at a time (a single back-and-forth
step), and the order-preserving perturbation of a partial isometry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .amalgam import cap_distances, free_amalgam
from .dvs import DistanceSet, validate_closure
from .exact import ExactReal
from .search import BudgetExceeded
from .space import OK, PartialIsometry, Space, validate


class BuilderError(Exception):
    pass


class NoSmallEnoughDelta(BuilderError):
    pass


class FragmentNotClosed(BuilderError):
    def __init__(self, gap):
        super().__init__(f"fragment not closed: the truncated sum of {gap.x} and {gap.y} is missing")
        self.gap = gap


class FragmentUnbounded(BuilderError):
    def __init__(self):
        super().__init__("fragment unbounded: saturate needs a cap on the sums it creates")


class ZNotInDelta(BuilderError):
    def __init__(self, value):
        super().__init__(f"perturbation distance {value} is not in the fragment")
        self.value = value


@dataclass(frozen=True)
class Extension:
    """A one-point extension of the substructure on `subset`: the new
    point sits at dists[i] from subset[i] and at order position `slot`
    among the subset's points (0 = before all of them)."""

    subset: tuple[int, ...]
    dists: tuple[ExactReal, ...]
    slot: int


@dataclass
class ExtensionReport:
    checked: int = 0
    unrealized: list[Extension] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.unrealized


def _distance_vectors(x: Space, d: DistanceSet):
    """All vectors (d(z, p))_p over d.values satisfying the triangle
    inequality against x's distances."""
    pts = range(x.n)
    for vec in itertools.product(d.values, repeat=x.n):
        ok = True
        for i, j in itertools.combinations(pts, 2):
            dij = x.dist[i][j]
            if abs(vec[i] - vec[j]) > dij or dij > vec[i] + vec[j]:
                ok = False
                break
        if ok:
            yield vec


def _subset_extensions(m: Space, d: DistanceSet, k: int, source_n: Optional[int] = None):
    """All (subset, extension) pairs over <= k-point subsets drawn from
    the first source_n points of m (all of m when None)."""
    pool = range(m.n if source_n is None else source_n)
    for size in range(0, k + 1):
        for subset in itertools.combinations(pool, size):
            sub = m.induced(subset)
            # subset is sorted by index; align vectors with index order
            for vec in _distance_vectors(sub, d):
                for slot in range(size + 1):
                    yield Extension(subset, vec, slot)


def _realizes(m: Space, ext: Extension, p: int) -> bool:
    if p in ext.subset:
        return False
    for i, s in enumerate(ext.subset):
        if m.dist[p][s] != ext.dists[i]:
            return False
    rank_among = sum(1 for s in ext.subset if m.before(s, p))
    return rank_among == ext.slot


def find_realizer(m: Space, ext: Extension) -> Optional[int]:
    for p in range(m.n):
        if _realizes(m, ext, p):
            return p
    return None


def extension_property_check(
    m: Space, d: DistanceSet, k: int, max_pairs: int = 1000000,
    source_n: Optional[int] = None,
) -> ExtensionReport:
    """For every <= k-subset of m (or of its first source_n points) and
    every one-point extension over d, look for a realizing point in m."""
    report = ExtensionReport()
    for ext in _subset_extensions(m, d, k, source_n):
        report.checked += 1
        if report.checked > max_pairs:
            raise BudgetExceeded(f"more than {max_pairs} (subset, extension) pairs")
        if find_realizer(m, ext) is None:
            report.unrealized.append(ext)
    return report


def _adjoin(m: Space, block: Space, overlap, order, d: DistanceSet, what: str) -> Space:
    """Free amalgam of m with block over the overlap, capped at d's cap,
    with the given total order and bound to d.  The order lists m.order
    with block's new points placed in it; of the result, only those new
    points are checked."""
    amal = free_amalgam(m, block, overlap)
    if d.bounded:
        amal = cap_distances(amal, d.cap)
    out = Space(amal.labels, amal.dist, order, d)
    verdict = validate(out, since=m.n)
    if verdict != OK:
        raise BuilderError(f"{what} space invalid: {verdict}")
    return out


def realize(m: Space, ext: Extension, d: DistanceSet) -> Space:
    """Adjoin a point realizing ext to m: free amalgam of m with the
    extension space over the subset, capped at the fragment's cap.  The
    new point goes directly below the subset point of rank ext.slot, or
    on top when the slot is past the last one.  Precondition: m is a
    valid ordered space over d; only the new point is checked."""
    if not ext.subset and m.n > 0:
        raise BuilderError("empty-subset extension is realized by any point")
    if m.n == 0:
        return Space(("z",), ((ExactReal(0),),), (0,), d)
    sub = m.induced(ext.subset)
    # extension space: subset points then z
    dist = [list(row) + [ext.dists[i]] for i, row in enumerate(sub.dist)]
    dist.append(list(ext.dists) + [ExactReal(0)])
    ext_space = Space(
        sub.labels + ("z*",),
        tuple(tuple(r) for r in dist),
    )
    overlap = [(s, i) for i, s in enumerate(ext.subset)]
    by_rank = sorted(ext.subset, key=m.rank)
    at = m.rank(by_rank[ext.slot]) if ext.slot < len(by_rank) else m.n
    order = m.order[:at] + (m.n,) + m.order[at:]
    return _adjoin(m, ext_space, overlap, order, d, "realized")


def saturate(
    m: Space, d: DistanceSet, k: int, max_points: int = 64, max_pairs: int = 1000000,
    source_n: Optional[int] = None,
) -> tuple[Space, ExtensionReport]:
    """Realize every one-point extension of every <= k-subset of the
    ORIGINAL m.  Existing points are reused before new ones are added, so
    re-saturation at the same k adds nothing.  When the point budget runs
    out, the partial result is returned with the skipped extensions
    listed in the report.  Precondition: m is a valid ordered space over
    d.  d must be bounded, else FragmentUnbounded: an unbounded fragment
    is closed only up to its largest value, and a new distance past it
    would fail realize's final check mid-run.  d must be closed, else
    FragmentNotClosed, since the new distances are truncated sums."""
    if not d.bounded:
        raise FragmentUnbounded()
    if not d.closed:
        raise FragmentNotClosed(validate_closure(d))
    report = ExtensionReport()
    cur = m
    for ext in _subset_extensions(m, d, k, source_n):
        report.checked += 1
        if report.checked > max_pairs:
            report.unrealized.append(ext)
            continue
        if find_realizer(cur, ext) is not None:
            continue
        if not ext.subset and cur.n > 0:
            continue  # any point realizes the empty extension
        if cur.n + 1 > max_points:
            report.unrealized.append(ext)
            continue
        cur = realize(cur, ext, d)
    return cur, report


def extend_partial_isometry(
    m: Space, p: PartialIsometry, x: int, max_points: int = 64
) -> tuple[Space, PartialIsometry]:
    """One forward back-and-forth step: enlarge p to cover x, growing m
    by at most one point.

    The image must mirror x's distance-and-order profile over the domain.
    If no point of m fits, a fresh one is adjoined by amalgamating a
    one-point extension of the range over the range.  Precondition: m is
    a valid space over its fragment m.delta; an unordered m is rejected.
    The back step, enlarging the range to cover a point y, is this step
    on p.inverse() with x = y, inverted again.
    """
    if m.order is None:
        raise BuilderError("space must be ordered")
    if not p.is_isometry() or not p.order_preserving:
        raise BuilderError("p must be an order-preserving partial isometry")
    dom = [a for a, _ in p.pairs]
    if x in dom:
        raise BuilderError("x already in the domain")
    # profile over the range, aligned to sorted range indices
    pair_for = {b: a for a, b in p.pairs}
    rng = tuple(sorted(pair_for))
    ext_dists = tuple(m.dist[x][pair_for[r]] for r in rng)
    # slot: the rank x takes among the domain, transported to the range
    slot = sum(1 for a in dom if m.before(a, x))
    # order slot is over the range sorted by image rank; p order-preserving
    # makes domain rank order and range rank order agree
    ext = Extension(rng, ext_dists, slot)
    y = find_realizer(m, ext)
    cur = m
    if y is None:
        if m.n + 1 > max_points:
            raise BudgetExceeded("point budget")
        d = m.delta
        if d is None:
            raise BuilderError("space must carry a fragment binding to grow")
        cur = realize(m, ext, d)
        y = cur.n - 1
    p2 = PartialIsometry(cur, p.pairs + ((x, y),))
    if not p2.is_isometry():
        raise AssertionError("extension broke the isometry")
    return cur, p2


def density_perturb(
    m: Space,
    pairs,
    eps: ExactReal,
    d: DistanceSet,
    max_points: int = 64,
) -> tuple[Space, list[int]]:
    """Nudge the images of a partial isometry into order-preserving
    position, moving each by exactly the largest fragment value below eps.

    Builds the double space on the current images y_i and their shifted
    copies z_i with d(y_i, z_j) = delta + d(y_i, y_j), orders the z block
    above the y block with the z's in the source order, realizes it over
    m, and returns the new space with the indices of the perturbed
    images.  Precondition: m is a valid space over d; the double space is
    checked in full, and of the result only the new points.
    """
    pairs = list(pairs)
    pi = PartialIsometry(m, tuple(pairs))
    if not pi.is_isometry():
        raise BuilderError("pairs must form a partial isometry")
    below = [v for v in d.values if v < eps]
    if not below:
        raise NoSmallEnoughDelta(f"no fragment value below {eps}")
    delta = below[-1]
    xs = [a for a, _ in pairs]
    ys = [b for _, b in pairs]
    n = len(pairs)

    zero = ExactReal(0)
    dist = [[zero] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            dyy = m.dist[ys[i]][ys[j]]
            dist[i][j] = dyy
            dist[n + i][n + j] = dyy
            cross = delta + dyy
            if d.bounded and cross > d.cap:
                cross = d.cap
            if cross not in d:
                raise ZNotInDelta(cross)
            dist[i][n + j] = cross
            dist[n + j][i] = cross
    labels = tuple(f"y{i}" for i in range(n)) + tuple(f"z{i}" for i in range(n))
    # order: y's as in m, all y's below all z's, z's in the x order
    y_by_rank = sorted(range(n), key=lambda i: m.rank(ys[i]))
    z_by_rank = sorted(range(n), key=lambda i: m.rank(xs[i]))
    order = tuple(y_by_rank) + tuple(n + i for i in z_by_rank)
    z_space = Space(labels, tuple(tuple(r) for r in dist), order, d)
    verdict = validate(z_space)
    if verdict != OK:
        raise BuilderError(f"perturbation space invalid: {verdict}")

    if m.n + n > max_points:
        raise BudgetExceeded("point budget")
    overlap = [(ys[i], i) for i in range(n)]
    # the z's follow m's points in amalgam order, and go on top of m's
    # order in the source order
    order = m.order + tuple(m.n + i for i in z_by_rank)
    out = _adjoin(m, z_space, overlap, order, d, "perturbed")
    return out, list(range(m.n, m.n + n))
