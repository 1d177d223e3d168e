"""Finite (optionally ordered) metric spaces with exact distances.

Points are indexed 0..n-1 internally; labels are for I/O only.  The order
is stored as a permutation listing point indices from least to greatest,
so order-rank matching of two ordered spaces is a single pass; its
inverse, the rank of each point, is computed once per space and cached,
as are the ids of the distinct distances and each point's neighbourhood
masks.  A construction that holds its distances as ids into a list of
values builds its space once with `Space.from_ids`, which writes the
entries from the ids and seeds the cached ids with them.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass
from typing import Optional

from .dvs import DistanceSet
from .exact import ExactReal, parse
from .search import injective_maps


class SpaceError(Exception):
    pass


OK = "ok"


@dataclass(frozen=True)
class Violation:
    kind: str  # Symmetry | Diagonal | Positivity | Triangle | NotInDelta | BadOrder
    witness: tuple


@dataclass(frozen=True)
class Space:
    labels: tuple[str, ...]
    dist: tuple[tuple[ExactReal, ...], ...]
    order: Optional[tuple[int, ...]] = None  # indices, least to greatest
    delta: Optional[DistanceSet] = None

    @property
    def n(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def ranks(self) -> tuple[int, ...]:
        """ranks[i] is the position of point i in the order (0 = least)."""
        ranks = [0] * self.n
        for r, i in enumerate(self.order):
            ranks[i] = r
        return tuple(ranks)

    @classmethod
    def from_ids(cls, labels, values, ids, order=None, delta=None) -> "Space":
        """The space with dist[i][j] = values[ids[i][j]], its value_ids
        seeded from the same rows, with values[u] as id u, so the index
        may hold values that no entry has.  values must be distinct and
        each id in range(len(values)), else SpaceError."""
        index, by_id = dict(zip(values, range(len(values)))), dict(enumerate(values))
        if len(index) != len(values):
            raise SpaceError("values must be distinct")
        ids = tuple(map(tuple, ids))
        try:  # by_id, not values, so that a negative id names no value
            dist = tuple(tuple(map(by_id.__getitem__, row)) for row in ids)
        except KeyError as e:
            raise SpaceError(f"id {e.args[0]} names no value") from None
        out = cls(tuple(labels), dist, tuple(order) if order is not None else None, delta)
        out.__dict__["value_ids"] = (index, ids)
        return out

    @functools.cached_property
    def value_ids(self) -> tuple[dict[ExactReal, int], tuple[tuple[int, ...], ...]]:
        """(index, ids): index gives each distance a small int, its id,
        and ids[i][j] is the id of dist[i][j]; the index's keys in order
        are the values by id.  Unless from_ids seeded them, the ids
        number the distinct distances in order of first occurrence row
        by row, keyed by object identity first, so one value hash per
        distinct entry object.  Consumers look values up by value and
        print nothing in id order, so no output depends on the
        numbering."""
        objs = _entry_objects(self.dist)
        index = {}
        by_obj = {key: index.setdefault(v, len(index)) for key, v in objs.items()}
        ids = tuple(tuple(map(by_obj.__getitem__, map(id, row))) for row in self.dist)
        return index, ids

    @functools.cached_property
    def masks(self) -> tuple[tuple[int, ...], ...]:
        """masks[a][u] is the bitmask of the points at distance id u from
        point a: bit p is set when value_ids[1][a][p] == u."""
        index, ids = self.value_ids
        bits = [1 << p for p in range(self.n)]
        out = []
        for row in ids:
            mask = [0] * len(index)
            for bit, u in zip(bits, row):
                mask[u] |= bit
            out.append(tuple(mask))
        return tuple(out)

    def rank(self, i: int) -> int:
        """Position of point i in the order (0 = least)."""
        return self.ranks[i]

    def before(self, i: int, j: int) -> bool:
        ranks = self.ranks
        return ranks[i] < ranks[j]

    def diameter(self) -> ExactReal:
        best = ExactReal(0)
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self.dist[i][j] > best:
                    best = self.dist[i][j]
        return best

    def induced(self, points) -> "Space":
        """Substructure on the given point indices (sorted), with the
        induced relative order."""
        pts = sorted(points)
        dist = tuple(tuple(self.dist[i][j] for j in pts) for i in pts)
        order = None
        if self.order is not None:
            by_rank = sorted(pts, key=self.ranks.__getitem__)
            order = tuple(pts.index(i) for i in by_rank)
        return Space(tuple(self.labels[i] for i in pts), dist, order, self.delta)

    def with_delta(self, delta: Optional[DistanceSet]) -> "Space":
        return Space(self.labels, self.dist, self.order, delta)

    def to_json(self) -> dict:
        out = {
            "labels": list(self.labels),
            "dist": _entry_texts(self.dist),
            "order": list(self.order) if self.order is not None else None,
        }
        if self.delta is not None:
            out["delta"] = self.delta.to_json()
        return out

    @staticmethod
    def from_json(obj: dict) -> "Space":
        """Parse a space, rejecting a shape that validate cannot judge:
        no labels or no dist, labels that are not a list of strings, a
        distance matrix that is not an n x n list of lists for n labels, or
        an order that is not a list of integers."""
        for key in ("labels", "dist"):
            if key not in obj:
                raise SpaceError(f"a space needs {key}")
        labels, rows = obj["labels"], obj["dist"]
        if not isinstance(labels, list):
            raise SpaceError(f"labels must be a list, not {labels!r}")
        if not all(isinstance(lbl, str) for lbl in labels):
            raise SpaceError("labels must be strings")
        n = len(labels)
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise SpaceError("dist must be a list of rows, each a list")
        if len(rows) != n or any(len(row) != n for row in rows):
            raise SpaceError(f"dist must have one row and one column per label ({n})")
        order = obj.get("order")
        if order is not None and (not isinstance(order, list) or not all(type(i) is int for i in order)):
            raise SpaceError(f"order entries must be point indices: {order}")
        delta = DistanceSet.from_json(obj["delta"]) if obj.get("delta") else None
        parsed = {}  # each distinct entry text is parsed once; parse rejects a non-string
        for row in rows:
            for v in row:
                if not isinstance(v, str) or v not in parsed:
                    parsed[v] = parse(v)
        return Space(
            tuple(labels),
            tuple(tuple(map(parsed.__getitem__, row)) for row in rows),
            tuple(order) if order is not None else None,
            delta,
        )


def _entry_objects(dist) -> dict[int, ExactReal]:
    """The distinct entry objects of a matrix by id(), in order of first
    occurrence row by row.  The matrix keeps them alive, so no two share
    an id while the dict is in use."""
    objs = {}
    for row in dist:
        objs.update(zip(map(id, row), row))
    return objs


def _entry_texts(dist) -> list[list[str]]:
    """The text of each entry, formatted once per distinct entry object."""
    text = {key: str(v) for key, v in _entry_objects(dist).items()}
    return [list(map(text.__getitem__, map(id, row))) for row in dist]


def make_space(labels, dists, order=None, delta=None) -> Space:
    """Build a space from labels and a dict {(i, j): distance}."""
    n = len(labels)
    zero = ExactReal(0)
    matrix = [[zero] * n for _ in range(n)]
    for (i, j), v in dists.items():
        matrix[i][j] = v
        matrix[j][i] = v
    return Space(
        tuple(labels),
        tuple(tuple(row) for row in matrix),
        tuple(order) if order is not None else None,
        delta,
    )


def uniform_space(n: int, value: ExactReal, ordered: bool = True, delta=None) -> Space:
    labels = tuple(f"p{i}" for i in range(n))
    dists = {(i, j): value for i in range(n) for j in range(i + 1, n)}
    order = tuple(range(n)) if ordered else None
    return make_space(labels, dists, order, delta)


def validate(x: Space, since: int = 0):
    """OK, or the first violation of the metric/order/Delta axioms among
    the entries touching a point of index >= since, by kind: Diagonal,
    Symmetry or Positivity, Triangle (each triple once, at its largest
    index), NotInDelta, BadOrder.  since=0 is the full check; a larger
    since is complete when the points below it form a valid space.

    Triangles go to the masks first (_no_broken_triangle).  On a hit, or
    when the masks are not used, a loop tests them on value ids and runs
    each distinct id triple's exact check once, in the triple-by-triple
    test's order: same witness, same MixedRadicands.  The pair checks
    (Symmetry, Positivity, NotInDelta) read the value ids too: sign and
    fragment membership once per distinct value among the checked pairs,
    then an int compare and a set lookup per pair, in the same order,
    with the same witness."""
    n, dist = x.n, x.dist
    for i in range(since, n):
        if not dist[i][i].is_zero():
            return Violation("Diagonal", (i,))
    index, ids = x.value_ids
    vals = list(index)
    pair_rows = _pair_rows(ids, since)
    checked = set().union(*[row for _, _, row in pair_rows])
    positive = {u for u in checked if vals[u].sign() > 0}
    for i, lo, row in pair_rows:
        if row != tuple([r[i] for r in ids[lo:]]) or not positive.issuperset(row):
            for j, u in enumerate(row, lo):
                if u != ids[j][i]:
                    return Violation("Symmetry", (i, j))
                if u not in positive:
                    return Violation("Positivity", (i, j))
    if not _no_broken_triangle(x, vals, since):
        ok = set()  # id triples (ac, ab, bc) with d(a, c) <= d(a, b) + d(b, c)
        for k in range(max(since, 2), n):
            for i, j in itertools.combinations(range(k), 2):
                for a, b, c in ((i, j, k), (j, i, k), (i, k, j)):  # each point as the middle one
                    key = (ids[a][c], ids[a][b], ids[b][c])
                    if key not in ok:
                        if vals[key[0]] > vals[key[1]] + vals[key[2]]:
                            return Violation("Triangle", (a, b, c))
                        ok.add(key)
    if x.delta is not None:
        member = {u for u in checked if vals[u] in x.delta}
        for i, lo, row in pair_rows:
            if not member.issuperset(row):
                j = next(j for j, u in enumerate(row, lo) if u not in member)
                return Violation("NotInDelta", (i, j, dist[i][j]))
    if x.order is not None and sorted(x.order) != list(range(n)):
        return Violation("BadOrder", tuple(x.order))
    return OK


def _pair_rows(ids, since: int) -> list:
    """(i, lo, ids[i][lo:]) for each row i, lo = max(i + 1, since): the
    ids of the pairs (i, j), j >= lo, that validate checks, row by row."""
    return [(i, lo, row[lo:]) for i, row in enumerate(ids) for lo in [max(i + 1, since)]]


def _no_broken_triangle(x: Space, vals, since: int) -> bool:
    """True when the masks show that no triple with a point at or above
    since breaks the triangle inequality (validate has checked the
    entries touching those points).  The id pairs (u, v) with vals[w] >
    vals[u] + vals[v] are found once; points a < c at distance id w
    break a triangle exactly when masks[a][u] & masks[c][v] is nonzero
    for one of them, counting only middle points at or above since when
    c is below it.  False on a hit, and when the masks are not used:
    values over two radicands (only the loop raises MixedRadicands where
    the triple-by-triple test does), a zero off the diagonal below since
    (the table has no zero id), or |V|^3 > n(n-1)(n-2), the number of
    ordered triples (the table would cost more exact checks than the
    loop)."""
    n, size = x.n, len(vals)
    if size ** 3 > n * (n - 1) * (n - 2) or len({v.d for v in vals if v.d}) > 1:
        return False
    masks, ids = x.masks, x.value_ids[1]
    pos = [u for u in range(size) if not vals[u].is_zero()]  # b = a or b = c breaks none
    if any(masks[a][u] != 1 << a for u in range(size) if u not in pos for a in range(since)):
        return False
    bad = _bad_pairs(vals, pos)
    high = -1 << since  # a pair below since needs its middle point at or above it
    cols = [tuple([mask & high for mask in masks[c]]) for c in range(since)] + list(masks[since:])
    for a in range(n):
        ma, row = masks[a], ids[a]
        for c in range(a + 1, n):
            mc = cols[c]
            for u, v in bad[row[c]]:
                if ma[u] & mc[v]:
                    return False
    return True


def _bad_pairs(vals, pos) -> list[list[tuple[int, int]]]:
    """bad[w]: the pairs (u, v) of ids in pos with vals[w] > vals[u] +
    vals[v], both ways round, for each w in pos.  The values at pos are
    sorted once, and each unordered pair is summed once and bisected into
    them: the bad w for the pair are those ranked past its sum."""
    ranked = sorted(pos, key=vals.__getitem__)
    ascending = [vals[w] for w in ranked]
    bad = [[] for _ in vals]
    for i, u in enumerate(pos):
        for v in pos[i:]:
            for w in ranked[bisect.bisect_right(ascending, vals[u] + vals[v]):]:
                bad[w].append((u, v))
                if u != v:
                    bad[w].append((v, u))
    return bad


def copies_of(c: Space, a: Space) -> list[tuple[int, ...]]:
    """All point subsets of c inducing a substructure isomorphic to a, as
    sorted tuples in itertools.combinations order.

    When c and a are both ordered, an embedding is an injective_maps
    run: c's points are picked in increasing rank, the r-th standing for
    a.order[r].  The candidates for a pick are one int from c's masks:
    the points ranked above the last pick that leave room for the picks
    after it, ANDed with the mask of the wanted distance from the last
    pick.  A candidate's distances to the picks before the last are
    compared on c's value ids in one list compare, so each is consistent.
    Each of a's distinct values is looked up in c's index once.
    Otherwise every subset is tested with `isomorphic`."""
    if c.order is None or a.order is None:
        return [s for s in itertools.combinations(range(c.n), a.n) if isomorphic(c.induced(s), a) is not None]
    k, n, order, ranks = a.n, c.n, c.order, c.ranks
    if k > n:  # no room, and room[r] below would count from the end
        return []
    index, ids = c.value_ids
    a_index, a_ids = a.value_ids
    to_c = [index.get(v, -1) for v in a_index]  # c's id of each of a's values, -1 if c lacks it
    # want[r][t]: c's id of the distance between a's r-th and t-th points
    want = [[to_c[a_ids[p][q]] for q in a.order[:r]] for r, p in enumerate(a.order)]
    if any(-1 in row for row in want):  # a has a distance that c lacks
        return []
    masks = c.masks if k > 1 else None  # a one-point a reads no mask
    # prefix[j]: the points ranked below j; room[r]: those ranked low
    # enough to leave room for the picks after the r-th
    prefix = [0]
    for p in order:
        prefix.append(prefix[-1] | 1 << p)
    room = prefix[n - k + 1:]

    def candidates(pts, r):  # the points ranked above the last pick at the wanted distances from every pick
        if not r:
            return order[:n - k + 1]
        last = pts[r - 1]
        # room[r] holds every point ranked up to the last pick, so ^ removes them
        cand = (room[r] ^ prefix[ranks[last] + 1]) & masks[last][want[r][-1]]
        head, w = pts[:r - 1], want[r][:-1]  # the picks before the last, compared on c's ids
        out = []
        while cand:
            low = cand & -cand
            q = low.bit_length() - 1
            if [ids[q][s] for s in head] == w:
                out.append(q)
            cand ^= low
        return out

    return sorted(tuple(sorted(picks)) for picks in injective_maps(k, candidates, lambda pts, r: True))


def _profile(x: Space, i: int):
    row = sorted(str(x.dist[i][j]) for j in range(x.n) if j != i)
    return tuple(row)


def isomorphisms(x: Space, y: Space):
    """Every distance-preserving (and order-preserving, when both
    ordered) bijection, as a tuple m with m[i] in y for point i of x, in
    lexicographic order.

    Ordered spaces admit a single candidate: match by order rank.
    Unordered spaces are searched by backtracking with distance-profile
    pruning.
    """
    if x.n != y.n or (x.order is None) != (y.order is None):
        return
    if x.order is not None:
        m = [0] * x.n
        for r in range(x.n):
            m[x.order[r]] = y.order[r]
        for i, j in itertools.combinations(range(x.n), 2):  # valid spaces are symmetric
            if x.dist[i][j] != y.dist[m[i]][m[j]]:
                return
        yield tuple(m)
        return
    # unordered: backtracking with per-point distance multiset pruning
    px = [_profile(x, i) for i in range(x.n)]
    py = [_profile(y, i) for i in range(y.n)]
    if sorted(px) != sorted(py):
        return
    n = x.n

    def candidates(_m, i):
        return (j for j in range(n) if px[i] == py[j])

    def consistent(m, i):
        j = m[i]
        return all(x.dist[i][k] == y.dist[j][m[k]] for k in range(i))

    yield from injective_maps(n, candidates, consistent)


def isomorphic(x: Space, y: Space) -> Optional[tuple[int, ...]]:
    """The first isomorphism from x onto y, or None."""
    return next(isomorphisms(x, y), None)


@dataclass(frozen=True)
class PartialIsometry:
    space: Space
    pairs: tuple[tuple[int, int], ...]  # (source point, target point)

    def __post_init__(self):
        dom = [p for p, _ in self.pairs]
        rng = [q for _, q in self.pairs]
        if len(set(dom)) != len(dom) or len(set(rng)) != len(rng):
            raise SpaceError("partial map must be injective")

    def is_isometry(self) -> bool:
        for (p1, q1), (p2, q2) in itertools.combinations(self.pairs, 2):
            if self.space.dist[p1][p2] != self.space.dist[q1][q2]:
                return False
        return True

    @functools.cached_property
    def order_preserving(self) -> bool:
        """Derived from the pairs; False on an unordered space."""
        if self.space.order is None:
            return False
        for (p1, q1), (p2, q2) in itertools.combinations(self.pairs, 2):
            if self.space.before(p1, p2) != self.space.before(q1, q2):
                return False
        return True

    def inverse(self) -> "PartialIsometry":
        return PartialIsometry(self.space, tuple((q, p) for p, q in self.pairs))
