"""Finite approximations of the ordered homogeneous limit.

Everything here works on a concrete finite ordered space M over a closed
distance fragment D: enumerating one-point extensions, saturating M so
that every small substructure has all its one-point extensions realized,
extending partial isometries one point at a time (a single back-and-forth
step), and the order-preserving perturbation of a partial isometry.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .amalgam import adjoin, column, fresh_label
from .dvs import DistanceSet, validate_closure
from .exact import ExactReal, ValueTable
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


class Extension(NamedTuple):
    """A one-point extension of the substructure on `subset`: the new
    point sits at dists[i] from subset[i] and at order position `slot`
    among the subset's points (0 = before all of them)."""

    subset: tuple[int, ...]
    dists: tuple[ExactReal, ...]
    slot: int


def _vector_index(vec, base: int) -> int:
    """The index of the id vector vec in itertools.product(range(base),
    repeat=len(vec)) order."""
    v = 0
    for t in vec:
        v = v * base + t
    return v


@functools.lru_cache(maxsize=1 << 12)
def _decode(base: int, size: int, code: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(vec, slots) of the code of an id vector over base values for a
    size-point subset (see ExtensionReport).  Cached for the process, not
    per report: a run meets few distinct codes, but each run makes a new
    report, so a cache per report misses on nearly every saturate code."""
    v, vec = code >> size + 1, []
    for _ in range(size):
        v, t = divmod(v, base)
        vec.append(t)
    return tuple(reversed(vec)), tuple([j for j in range(size + 1) if code >> j & 1])


@dataclass
class ExtensionReport:
    """checked counts the (subset, extension) pairs examined.  groups
    holds the unrealized ones, one (subset, codes) per subset with a
    missing slot, in check order.  Each code is one int per id vector
    with a missing slot, v << (size + 1) | key: v is the vector's index
    in itertools.product(range(len(values)), repeat=size) order, size the
    subset's, and bit j of key is set when order slot j is missing.
    Codes come in vector order; decode turns one into (vec, slots)."""

    values: tuple[ExactReal, ...]
    checked: int = 0
    groups: list[tuple[tuple[int, ...], list[int]]] = field(default_factory=list)

    def decode(self, size: int, code: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(vec, slots) of a code of a size-point subset: the id vector,
        indexing values, and the missing order slots, increasing."""
        return _decode(len(self.values), size, code)

    @property
    def unrealized(self) -> list[Extension]:
        """The unrealized extensions, one per missing slot, in check order."""
        values, base = self.values, len(self.values)
        return [Extension(subset, tuple([values[t] for t in vec]), slot)
                for subset, codes in self.groups for code in codes
                for vec, slots in [_decode(base, len(subset), code)] for slot in slots]

    @property
    def empty(self) -> bool:
        return not self.groups


def _subset_vectors(m: Space, d: DistanceSet, k: int, pool: int, table: ValueTable):
    """Each <= k-subset of the first pool points of m, with the id vectors
    (indices into d.values) of the distance vectors over d that satisfy
    the triangle inequality against the subset's distances, in
    itertools.product order.  A vector list depends only on the ids of
    the subset's pair distances, so it is computed once per distinct
    tuple of them.  For x and y in d, |x - y| <= d(i, j) <= x + y is
    three id comparisons in table, whose add must hold the sums of d's
    values and m's distances with one another."""
    values = d.values
    index, ids = m.value_ids
    vals = list(index)
    xs, add = table.ids(values), table.add
    admissible = {}  # id of d(i, j) -> the id pairs (a, b) with |x - y| <= d(i, j) <= x + y

    def pairs_for(u: int) -> frozenset:
        ok = admissible.get(u)
        if ok is None:
            (w,) = table.ids([vals[u]])
            ok = admissible[u] = frozenset((a, b) for a, x in enumerate(xs) for b, y in enumerate(xs)
                                           if w <= add[x][y] and x <= add[w][y] and y <= add[w][x])
        return ok

    for size in range(min(k, pool) + 1):
        pairs = list(itertools.combinations(range(size), 2))
        memo = {}  # the ids of the subset's pair distances -> its vectors
        for subset in itertools.combinations(range(pool), size):
            key = tuple([ids[subset[i]][subset[j]] for i, j in pairs])
            vectors = memo.get(key)
            if vectors is None:
                checks = [(i, j, pairs_for(u)) for (i, j), u in zip(pairs, key)]
                vectors = memo[key] = [vec for vec in itertools.product(range(len(values)), repeat=size)
                                       if all((vec[i], vec[j]) in ok for i, j, ok in checks)]
            yield subset, vectors


def _halves(m: Space, values, points) -> tuple[list[list[int]], list[list[int]]]:
    """(lo, hi): lo[i][t] and hi[i][t] are the bitmasks of the points of
    m at distance values[t] from points[i] that rank strictly below and
    strictly above it, so neither holds points[i] itself (0 for a value
    m does not have)."""
    index, ranks, below = m.value_ids[0], m.ranks, [0]  # below[r]: the points of rank < r
    for p in m.order:
        below.append(below[-1] | 1 << p)
    cols = [index.get(v) for v in values]
    lo, hi = [], []
    for s in points:
        masks, under, over = m.masks[s], below[ranks[s]], ~below[ranks[s] + 1]
        row = [0 if u is None else masks[u] for u in cols]
        lo.append([mask & under for mask in row])
        hi.append([mask & over for mask in row])
    return lo, hi


def _slot_realizers(los, his, every: int) -> list[int]:
    """The realizers of each order slot of one distance vector, given its
    lo and hi rows in the subset's rank order: slot j is the AND of the
    hi rows of the first j points and the lo rows of the rest, and every,
    the mask of all points, for the empty subset."""
    out = list(itertools.accumulate(his, operator.and_, initial=every))
    suffix = every
    for j in range(len(los) - 1, -1, -1):
        suffix &= los[j]
        out[j] &= suffix
    return out


def _missing_slots(lo, hi, ranks, subset, vectors, every: int) -> list[int]:
    """The code (see ExtensionReport) of each id vector of subset with an
    order slot that no point realizes, in vector order.  lo[s] and hi[s]
    are _halves rows of each subset point s, ranks[s] its rank, and every
    the mask of all points.  Subsets of 1 and 2 points make the key of
    each vector from its rows directly; other sizes go through
    _slot_realizers."""
    size = len(subset)
    if size == 1:
        (s,) = subset
        lo_s, hi_s = lo[s], hi[s]
        return [t << 2 | key for (t,) in vectors if (key := (not lo_s[t]) | (not hi_s[t]) << 1)]
    if size == 2:  # vec is (t, u): t the id of a's distance, u of b's
        a, b = subset
        lo_a, hi_a, lo_b, hi_b = lo[a], hi[a], lo[b], hi[b]
        base = len(lo_a)
        if ranks[a] < ranks[b]:  # slots: below a, between a and b, above b
            return [(t * base + u) << 3 | key for t, u in vectors
                    if (key := (not lo_a[t] & (lb := lo_b[u]))
                        | (not (h := hi_a[t]) & lb) << 1 | (not h & hi_b[u]) << 2)]
        return [(t * base + u) << 3 | key for t, u in vectors  # below b, between, above a
                if (key := (not lo_b[u] & (la := lo_a[t]))
                    | (not (h := hi_b[u]) & la) << 1 | (not h & hi_a[t]) << 2)]
    by_rank = sorted(range(size), key=lambda i: ranks[subset[i]])
    los = [lo[subset[i]] for i in by_rank]
    his = [hi[subset[i]] for i in by_rank]
    base = len(los[0]) if size else 0
    out = []
    for vec in vectors:
        ts = [vec[i] for i in by_rank]
        slots = _slot_realizers(list(map(operator.getitem, los, ts)), list(map(operator.getitem, his, ts)), every)
        key = sum([1 << j for j, mask in enumerate(slots) if not mask])
        if key:
            out.append(_vector_index(vec, base) << size + 1 | key)
    return out


def _check_ordered(m: Space) -> None:
    """Reject an unordered m: the constructions place points by rank."""
    if m.order is None:
        raise BuilderError("space must be ordered")


def _check_extension(m: Space, ext: Extension) -> None:
    """Reject an extension that does not fit m: a subset index repeated
    or outside 0..m.n-1, a distance count other than the subset's size,
    or a slot outside 0..len(subset)."""
    sub = ext.subset
    if (len(set(sub)) != len(sub) or not all(0 <= s < m.n for s in sub)
            or len(ext.dists) != len(sub) or not 0 <= ext.slot <= len(sub)):
        raise BuilderError(f"extension does not fit {m.n} points: subset {sub}, "
                           f"{len(ext.dists)} distances, slot {ext.slot}")


def find_realizer(m: Space, ext: Extension) -> Optional[int]:
    """The lowest-index point of m realizing ext, or None: the lowest set
    bit of the realizers of ext's slot, by _slot_realizers."""
    _check_ordered(m)
    _check_extension(m, ext)
    # the value ids index ext.dists itself, so subset point i's row is t = i
    lo, hi = _halves(m, ext.dists, ext.subset)
    by_rank = sorted(range(len(ext.subset)), key=lambda i: m.ranks[ext.subset[i]])
    mask = _slot_realizers([lo[i][i] for i in by_rank], [hi[i][i] for i in by_rank], (1 << m.n) - 1)[ext.slot]
    return (mask & -mask).bit_length() - 1 if mask else None


def _pool(m: Space, k: int, source_n: Optional[int]) -> int:
    """How many leading points of m the subsets are drawn from."""
    _check_ordered(m)
    if k < 0:
        raise BuilderError(f"k must be non-negative, not {k}")
    if source_n is None:
        return m.n
    if not 0 <= source_n <= m.n:
        raise BuilderError(f"source_n must be in 0..{m.n}, not {source_n}")
    return source_n


def extension_property_check(
    m: Space, d: DistanceSet, k: int, max_pairs: int = 1000000,
    source_n: Optional[int] = None,
) -> ExtensionReport:
    """For every <= k-subset of m (or of its first source_n points) and
    every one-point extension over d, look for a realizing point in m:
    each pool point's neighbourhood rows are split by rank once, and
    _missing_slots ANDs them per distance vector and order slot."""
    pool = _pool(m, k, source_n)
    report = ExtensionReport(d.values)
    lo, hi = _halves(m, d.values, range(pool))
    ranks, every, groups = m.ranks, (1 << m.n) - 1, report.groups
    both = list(itertools.chain(d.values, m.value_ids[0]))
    for subset, vectors in _subset_vectors(m, d, k, pool, ValueTable([(both, both)], None)):
        report.checked += len(vectors) * (len(subset) + 1)
        if report.checked > max_pairs:
            raise BudgetExceeded(f"more than {max_pairs} (subset, extension) pairs")
        codes = _missing_slots(lo, hi, ranks, subset, vectors, every)
        if codes:
            groups.append((subset, codes))
    return report


def _insert_rank(ranks, subset, slot: int, n: int) -> int:
    """The rank a new point takes directly below the subset point at
    position slot in rank order, or n, on top of n points, when slot is
    past the last one.  ranks[p] is point p's rank."""
    return sorted(map(ranks.__getitem__, subset))[slot] if slot < len(subset) else n


_ZERO = ExactReal(0)  # the new points' diagonal: immutable, so one object serves them all


def realize(m: Space, ext: Extension, d: DistanceSet) -> Space:
    """Adjoin a point realizing ext to m: free amalgam of m with the
    extension over the subset, capped at the fragment's cap, by `adjoin`:
    the point z in an empty m, else z*.  It goes directly below the
    subset point of rank ext.slot, or on top when the slot is past the
    last one.  Precondition: m is a valid ordered space over d; ext and
    the new point are checked."""
    _check_ordered(m)
    _check_extension(m, ext)
    if not ext.subset and m.n > 0:
        raise BuilderError("empty-subset extension is realized by any point")
    at = _insert_rank(m.ranks, ext.subset, ext.slot, m.n)
    order = m.order[:at] + (m.n,) + m.order[at:]
    out = Space(*adjoin(m, ext.subset, [ext.dists], [[_ZERO]], ["z*" if m.n else "z"], d.cap), order, d)
    verdict = validate(out, since=m.n)
    if verdict != OK:
        raise BuilderError(f"realized space invalid: {verdict}")
    return out


def saturate(
    m: Space, d: DistanceSet, k: int, max_points: int = 64, max_pairs: int = 1000000,
    source_n: Optional[int] = None,
) -> tuple[Space, ExtensionReport]:
    """Realize every one-point extension of every <= k-subset of the
    ORIGINAL m.  Existing points are reused before new ones are added, so
    re-saturation at the same k adds nothing.  When the point budget runs
    out, the partial result is returned with the skipped extensions
    listed in the report.  Each subset's extensions are looked up by
    _missing_slots on the pool points' rank-split neighbourhood rows,
    kept up to date as points are added: a new point's bit goes into the
    hi row of each pool point ranked below it and the lo row of the rest.
    Precondition: m is a valid ordered space over d.  d must be bounded,
    else FragmentUnbounded: an unbounded fragment is closed only up to
    its largest value, and a new distance past it would fail the final
    check.  d must be closed, else FragmentNotClosed, since the new
    distances are truncated sums.

    The result so far is kept as lists: one row of table ids per point,
    each new point's column built by amalgam.column and appended to
    every row, the labels with the set of those taken, and the order
    with the ranks, updated on each insert.  When points were added, the
    result is built once, with Space.from_ids, and m itself otherwise.
    The new points are built unchecked and checked once, at the end;
    their vectors are admissible, so a failure there is an internal
    error (AssertionError)."""
    if not d.bounded:
        raise FragmentUnbounded()
    if not d.closed:
        raise FragmentNotClosed(validate_closure(d))
    pool = _pool(m, k, source_n)
    report = ExtensionReport(d.values)
    # m's distances and the new ones are 0 or lie in d, which is closed
    # and bounded, so this table holds every sum column and
    # _subset_vectors read: 0 (id 0), d's values (d.values[t] with id
    # t + 1), then the sums past the cap; no entry gets an id past the
    # cap's, table.top
    table = ValueTable([((_ZERO,) + d.values, d.values)], d.cap)
    lo, hi = _halves(m, d.values, range(pool))
    index, m_ids = m.value_ids
    to_table = table.ids(index).__getitem__
    ids = [list(map(to_table, row)) for row in m_ids]  # ids[p][q]: the id of d(p, q)
    # an empty m gets one point, z; other new points are z*, z*', ...
    labels, taken, fresh = list(m.labels), set(m.labels), "z*" if m.n else "z"
    order, ranks = list(m.order), list(m.ranks)
    base = len(d.values)
    for subset, vectors in _subset_vectors(m, d, k, pool, table):
        # The pairs past max_pairs are skipped, realized or not: the first
        # `full` vectors are checked whole, then `part` slots of the next.
        size = len(subset)
        width = size + 1
        full, part = divmod(max(max_pairs - report.checked, 0), width)
        report.checked += width * len(vectors)
        # Each (vec, slot) comes once per subset, so the masks made at the
        # subset's turn need no point realized for the same subset.  Each
        # batch is (limit, codes): the slots below limit of each code are
        # realized while points last, and the rest stay missing.
        every, slot_bits = (1 << len(ids)) - 1, (1 << width) - 1
        batches = [(width, _missing_slots(lo, hi, ranks, subset, vectors[:full], every))]
        if full < len(vectors):  # the pair budget runs out in this subset
            split = _missing_slots(lo, hi, ranks, subset, vectors[full:full + 1], every)
            batches.append((part, [_vector_index(vectors[full], base) << width
                                   | (split[0] if split else 0) | slot_bits >> part << part]))
            batches.append((0, [_vector_index(vec, base) << width | slot_bits for vec in vectors[full + 1:]]))
        near = [ids[s] for s in subset]  # the lists in ids, so they grow with it
        codes = []
        for limit, todo in batches:
            for code in todo:
                vec, slots = _decode(base, size, code)
                for slot in slots:
                    if slot >= limit:
                        break
                    if len(ids) + 1 > max_points:
                        continue
                    z = len(ids)
                    col = column(table, z, near, subset, [t + 1 for t in vec])
                    for row, u in zip(ids, col):
                        row.append(u)
                    at = _insert_rank(ranks, subset, slot, z)
                    for lo_s, hi_s, r, u in zip(lo, hi, ranks, col):  # the pool points' rows
                        (hi_s if r < at else lo_s)[u - 1] |= 1 << z
                    col.append(0)  # the column, with its diagonal, is z's row
                    ids.append(col)
                    fresh = fresh_label(fresh, taken)  # every label from z* to fresh is taken
                    labels.append(fresh)
                    order.insert(at, z)
                    ranks.append(at)
                    for r in range(at + 1, z + 1):
                        ranks[order[r]] = r
                    code ^= 1 << slot  # realized
                if code & slot_bits:
                    codes.append(code)
        if codes:
            report.groups.append((subset, codes))
    cur = m
    if len(ids) > m.n:
        cur = Space.from_ids(labels, table.values[:table.top + 1], ids, order, d)
    verdict = validate(cur, since=m.n)
    if verdict != OK:
        raise AssertionError(f"saturated space invalid: {verdict}")
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
    _check_ordered(m)
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
    if not p2.is_isometry() or not p2.order_preserving:
        raise AssertionError("extension broke the isometry or the order")
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
    copies z_i with d(y_i, z_j) = delta + d(y_i, y_j), glues the z's to
    m over the y's, on top of m's order in the source order, and returns
    the new space with the indices of the perturbed images.  With no
    pairs there is nothing to move: (m, []).  Precondition: m is a valid
    ordered space over d.  Only the new points are checked, which covers
    each triangle of the double space that touches a z; the rest are m's.
    """
    _check_ordered(m)
    pairs = list(pairs)
    if not pairs:
        return m, []
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

    among = [[m.dist[y][b] for b in ys] for y in ys]  # d(z_i, z_j) = d(y_i, y_j)
    to_ys = [[min(delta + v, d.cap) if d.bounded else delta + v for v in row] for row in among]
    for v in itertools.chain.from_iterable(to_ys):
        if v not in d:
            raise ZNotInDelta(v)
    if m.n + n > max_points:
        raise BudgetExceeded("point budget")
    order = m.order + tuple(m.n + i for i in sorted(range(n), key=lambda i: m.rank(xs[i])))
    out = Space(*adjoin(m, ys, to_ys, among, [f"z{i}" for i in range(n)], d.cap), order, d)
    verdict = validate(out, since=m.n)
    if verdict != OK:
        raise BuilderError(f"perturbed space invalid: {verdict}")
    return out, list(range(m.n, m.n + n))
