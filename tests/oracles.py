"""Slow reference implementations that the property tests compare against.

Every slow path lives here, each simple enough to check by reading:
the predecessors of library fast paths (validate's full check, its
triple-by-triple exact test, the mask test's bad-pair table that
compared every sum with every value, the Fraction-pair arithmetic,
check_theory_T before the bitmasks, model_encode's addition-table scan
and per-cell rq tables, default_sample_q on a set of ratios with
rational_between's bisection through the public constructor, the
sample tables over every position pair, the n^3 triangle-structure
scan, the dict-and-dumps extension report, the copies_of subset scan,
validate_code, sim_check and the bijection check with their value
scans),
brute-force enumerations that use no search code, a recursive
injective_maps that counts its nodes, an arrow search that
keeps no incremental state, the subset scan that re-checked a bad
coloring before the pruned search, gl2_search, an exhaustive matrix search,
the realizer scan that the profile index replaced, the profile index
that the neighbourhood masks replaced, and the whole-matrix free
amalgam and cap that amalgam.adjoin replaced, with the realize and
density_perturb built on them.  No library code calls them.
"""

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from deltaspace import space
from deltaspace.amalgam import AmalgamError, DegenerateAmalgam, OverlapNotIsometric
from deltaspace.coding import (NOT_FALSIFIABLE, SATISFIED, SMALL_RATIONALS, VIOLATED, ClauseStatus,
                               EncodedModel)
from deltaspace.dvs import delta_triangle
from deltaspace.equiv import NotABijection, PoleAtAlpha, RatMatrix, gl2_apply
from deltaspace.exact import DivisionByZero, ExactReal, MixedRadicands
from deltaspace.limitbuilder import BuilderError, Extension, NoSmallEnoughDelta, ZNotInDelta
from deltaspace.search import BudgetExceeded
from deltaspace.space import OK, PartialIsometry, Space, Violation

# -- space --------------------------------------------------------------------


def validate(x):
    """The full check over every ordered triple, kinds in validate's order
    of precedence; it shares no code with validate."""
    n = x.n
    for i in range(n):
        if not x.dist[i][i].is_zero():
            return Violation("Diagonal", (i,))
    for i in range(n):
        for j in range(i + 1, n):
            if x.dist[i][j] != x.dist[j][i]:
                return Violation("Symmetry", (i, j))
            if x.dist[i][j].sign() <= 0:
                return Violation("Positivity", (i, j))
    for i, j, k in itertools.permutations(range(n), 3):
        if x.dist[i][k] > x.dist[i][j] + x.dist[j][k]:
            return Violation("Triangle", (i, j, k))
    if x.delta is not None:
        for i in range(n):
            for j in range(i + 1, n):
                if x.dist[i][j] not in x.delta:
                    return Violation("NotInDelta", (i, j, x.dist[i][j]))
    if x.order is not None and sorted(x.order) != list(range(n)):
        return Violation("BadOrder", tuple(x.order))
    return OK


def validate_by_triple(x, since=0):
    """validate before its triangle memo: one exact sum and comparison
    per triple, in the same loop order, so the same witness."""
    n, dist = x.n, x.dist
    for i in range(since, n):
        if not dist[i][i].is_zero():
            return Violation("Diagonal", (i,))
    pairs = [(i, j) for i in range(n) for j in range(max(i + 1, since), n)]
    for i, j in pairs:
        if dist[i][j] != dist[j][i]:
            return Violation("Symmetry", (i, j))
        if dist[i][j].sign() <= 0:
            return Violation("Positivity", (i, j))
    for k in range(max(since, 2), n):
        for i, j in itertools.combinations(range(k), 2):
            for a, b, c in ((i, j, k), (j, i, k), (i, k, j)):  # each point as the middle one
                if dist[a][c] > dist[a][b] + dist[b][c]:
                    return Violation("Triangle", (a, b, c))
    if x.delta is not None:
        for i, j in pairs:
            if dist[i][j] not in x.delta:
                return Violation("NotInDelta", (i, j, dist[i][j]))
    if x.order is not None and sorted(x.order) != list(range(n)):
        return Violation("BadOrder", tuple(x.order))
    return OK


def no_broken_triangle(x, vals, since):
    """space._no_broken_triangle before its bad-pair table was sorted:
    each pair's sum compared with every value."""
    n, size = x.n, len(vals)
    if size ** 3 > n * (n - 1) * (n - 2) or len({v.d for v in vals if v.d}) > 1:
        return False
    masks, ids = x.masks, x.value_ids[1]
    pos = [u for u in range(size) if not vals[u].is_zero()]  # b = a or b = c breaks none
    if any(masks[a][u] != 1 << a for u in range(size) if u not in pos for a in range(since)):
        return False
    bad = bad_pairs(vals, pos)
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


def bad_pairs(vals, pos):
    """bad[w]: the id pairs (u, v) of pos with vals[w] > vals[u] + vals[v]."""
    bad = [[] for _ in range(len(vals))]
    for u, v in itertools.combinations_with_replacement(pos, 2):
        total = vals[u] + vals[v]
        for w in pos:
            if vals[w] > total:
                bad[w].append((u, v))
                if u != v:
                    bad[w].append((v, u))
    return bad


def copies_of(c, a):
    """copies_of before the rank-order search: every subset of c, in
    itertools.combinations order, tested with isomorphic."""
    return [s for s in itertools.combinations(range(c.n), a.n) if space.isomorphic(c.induced(s), a) is not None]


def preserves_distances(x, y, p):
    return all(x.dist[i][j] == y.dist[p[i]][p[j]] for i in range(x.n) for j in range(x.n))


def preserves_order(x, p):
    rank = {q: r for r, q in enumerate(x.order)}
    return all((rank[i] < rank[j]) == (rank[p[i]] < rank[p[j]]) for i in range(x.n) for j in range(x.n))


def first_bad_coloring(copies_a, copies_b, k):
    """The first k-coloring of copies_a, copy 0 pinned to color 0, in
    which no copy of b is monochromatic, or None."""
    members = [[ai for ai, t in enumerate(copies_a) if set(t) <= set(bc)] for bc in copies_b]
    for rest in itertools.product(range(k), repeat=len(copies_a) - 1):
        colors = (0,) + rest
        if all(len({colors[ai] for ai in ms}) > 1 for ms in members):
            return colors
    return None


class OverBudget(Exception):
    """arrow_search tried more than budget candidates; nodes is the count."""

    def __init__(self, nodes):
        super().__init__(nodes)
        self.nodes = nodes


def arrow_search(copies_a, copies_b, k, budget=None):
    """(first bad coloring or None, nodes) for k >= 2 and copies_a nonempty:
    a recursive search in the order of ramsey.arrow, copy 0 pinned to color
    0, one node per candidate counted before the budget check.  Each node
    re-derives from the partial coloring whether some copy of b is fully
    colored with one color; raises OverBudget past budget nodes."""
    members = [[ai for ai, t in enumerate(copies_a) if set(t) <= set(bc)] for bc in copies_b]
    colors, nodes = [], 0

    def monochromatic():
        return any(all(ai < len(colors) for ai in ms) and len({colors[ai] for ai in ms}) == 1
                   for ms in members)

    def search(i):
        nonlocal nodes
        for col in range(k if i else 1):
            nodes += 1
            if budget is not None and nodes > budget:
                raise OverBudget(nodes)
            colors.append(col)
            if not monochromatic() and (len(colors) == len(copies_a) or search(i + 1)):
                return True
            colors.pop()
        return False

    return (tuple(colors) if search(0) else None), nodes


def injective_maps(n, candidates, consistent):
    """(maps, nodes): the injective maps on 0..n-1 that a recursive search
    yields, in its order, and its node count: one per image tried that no
    position before it holds.  candidates(m, i) and consistent(m, i) see
    the partial map m as a tuple of the images of 0..i-1, and of 0..i."""
    maps, m, nodes = [], [], 0

    def search(i):
        nonlocal nodes
        if i == n:
            maps.append(tuple(m))
            return
        for j in candidates(tuple(m), i):
            if j not in m:
                nodes += 1
                m.append(j)
                if consistent(tuple(m), i):
                    search(i + 1)
                m.pop()

    search(0)
    return maps, nodes


def verify_bad_coloring(c, b, a, coloring):
    """ramsey.verify_bad_coloring before the pruned search: every subset
    of c tested with isomorphic, and each copy of b must hold two colors
    among the keys inside it."""
    copies_a = list(coloring)
    for bc in itertools.combinations(range(c.n), b.n):
        if space.isomorphic(c.induced(bc), b) is None:
            continue
        bset = set(bc)
        cols = {coloring[t] for t in copies_a if set(t) <= bset}
        if len(cols) <= 1:
            return False
    return True


# -- amalgam: the whole-matrix constructions --------------------------------------
#
# Before amalgam.adjoin, every construction copied all n^2 entries into a
# free amalgam and compared all of them with the cap.


def free_amalgam(b, c, overlap):
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
        if b.n and c.n and cross_default.is_zero():
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


def cap_distances(x, cap):
    """Replace every distance by min(d, cap)."""
    if cap.sign() <= 0:
        raise AmalgamError("cap must be positive")
    dist = tuple(
        tuple(v if (i == j or v <= cap) else cap for j, v in enumerate(row))
        for i, row in enumerate(x.dist)
    )
    return Space(x.labels, dist, x.order, x.delta)


def _adjoin(m, block, overlap, order, d, what):
    amal = free_amalgam(m, block, overlap)
    if d.bounded:
        amal = cap_distances(amal, d.cap)
    out = Space(amal.labels, amal.dist, order, d)
    verdict = space.validate(out, since=m.n)
    if verdict != OK:
        raise BuilderError(f"{what} space invalid: {verdict}")
    return out


def realize(m, ext, d):
    """The free amalgam of m with the extension space on subset + z*."""
    if not ext.subset and m.n > 0:
        raise BuilderError("empty-subset extension is realized by any point")
    if m.n == 0:
        return Space(("z",), ((ExactReal(0),),), (0,), d)
    sub = m.induced(ext.subset)
    dist = [list(row) + [ext.dists[i]] for i, row in enumerate(sub.dist)]
    dist.append(list(ext.dists) + [ExactReal(0)])
    ext_space = Space(sub.labels + ("z*",), tuple(tuple(r) for r in dist))
    overlap = [(s, i) for i, s in enumerate(ext.subset)]
    by_rank = sorted(ext.subset, key=m.rank)
    at = m.rank(by_rank[ext.slot]) if ext.slot < len(by_rank) else m.n
    order = m.order[:at] + (m.n,) + m.order[at:]
    return _adjoin(m, ext_space, overlap, order, d, "realized")


def density_perturb(m, pairs, eps, d, max_points=64):
    """The double space on the y's and z's, amalgamated with m over the y's."""
    pairs = list(pairs)
    if not PartialIsometry(m, tuple(pairs)).is_isometry():
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
    y_by_rank = sorted(range(n), key=lambda i: m.rank(ys[i]))
    z_by_rank = sorted(range(n), key=lambda i: m.rank(xs[i]))
    order = tuple(y_by_rank) + tuple(n + i for i in z_by_rank)
    z_space = Space(labels, tuple(tuple(r) for r in dist), order, d)
    verdict = space.validate(z_space)
    if verdict != OK:
        raise BuilderError(f"perturbation space invalid: {verdict}")
    if m.n + n > max_points:
        raise BudgetExceeded("point budget")
    order = m.order + tuple(m.n + i for i in z_by_rank)
    out = _adjoin(m, z_space, [(ys[i], i) for i in range(n)], order, d, "perturbed")
    return out, list(range(m.n, m.n + n))


# -- limitbuilder: the realizer scan --------------------------------------------


def distance_vectors(x, d):
    """All vectors (d(z, p))_p over d.values satisfying the triangle
    inequality against x's distances, one exact test per pair and vector."""
    for vec in itertools.product(d.values, repeat=x.n):
        if all(abs(vec[i] - vec[j]) <= x.dist[i][j] <= vec[i] + vec[j]
               for i, j in itertools.combinations(range(x.n), 2)):
            yield vec


def subset_extensions(m, d, k, source_n=None):
    pool = range(m.n if source_n is None else source_n)
    for size in range(k + 1):
        for subset in itertools.combinations(pool, size):
            for vec in distance_vectors(m.induced(subset), d):
                for slot in range(size + 1):
                    yield Extension(subset, vec, slot)


def realizes(m, ext, p):
    """p sits outside ext.subset, at ext.dists from it, in slot ext.slot."""
    if p in ext.subset or any(m.dist[p][s] != v for s, v in zip(ext.subset, ext.dists)):
        return False
    return sum(1 for s in ext.subset if m.order.index(s) < m.order.index(p)) == ext.slot


def find_realizer(m, ext):
    """The first point of m that realizes ext, trying every point."""
    return next((p for p in range(m.n) if realizes(m, ext, p)), None)


@dataclass
class ScanReport:
    """A report as the flat list that ExtensionReport.unrealized derives."""

    checked: int = 0
    unrealized: list = field(default_factory=list)


def extension_property_check(m, d, k, source_n=None):
    report = ScanReport()
    for ext in subset_extensions(m, d, k, source_n):
        report.checked += 1
        if find_realizer(m, ext) is None:
            report.unrealized.append(ext)
    return report


def saturate(m, d, k, max_points=64, max_pairs=1000000, source_n=None):
    """The scan loop: reuse the first realizer of m so far, else realize."""
    report = ScanReport()
    cur = m
    for ext in subset_extensions(m, d, k, source_n):
        report.checked += 1
        if report.checked > max_pairs:
            report.unrealized.append(ext)
        elif find_realizer(cur, ext) is None:
            if cur.n + 1 > max_points:
                report.unrealized.append(ext)
            else:
                cur = realize(cur, ext, d)
    return cur, report


# -- limitbuilder: the profile index --------------------------------------------
#
# The check before the neighbourhood masks: fast enough for spaces of a
# hundred points, where the scan is not.

_OFF = -1  # the id of a distance outside the value list: no extension vector has it


def id_columns(m, ids, subset):
    """cols[s][p]: the id of d(s, p), for each s in subset and each point p."""
    return {s: [ids.get(v, _OFF) for v in m.dist[s]] for s in subset}


def profile_index(cols, ranks, subset):
    """The profile index of a subset.  A point's profile is the ids of its
    distances to the subset's points and its rank slot among them; each
    profile of a point outside the subset maps to the lowest-index point
    with it, which realizes the extension with those ids and that slot."""
    n = len(ranks)
    if not subset:
        return {((), 0): 0} if n else {}
    keys = list(zip(zip(*[cols[s] for s in subset]),
                    map(sum, zip(*[map(ranks[s].__lt__, ranks) for s in subset]))))
    for s in subset:
        keys[s] = None
    index = dict(zip(reversed(keys), range(n - 1, -1, -1)))  # the lowest index is written last
    index.pop(None, None)
    return index


def profile_extension_property_check(m, d, k, source_n=None):
    """One profile index per subset, one lookup per extension."""
    ids = {v: i for i, v in enumerate(d.values)}
    pool = m.n if source_n is None else source_n
    cols = id_columns(m, ids, range(pool))
    report = ScanReport()
    for size in range(k + 1):
        for subset in itertools.combinations(range(pool), size):
            index = profile_index(cols, m.ranks, subset)
            for vec in distance_vectors(m.induced(subset), d):
                key = tuple(ids[v] for v in vec)
                for slot in range(size + 1):
                    report.checked += 1
                    if (key, slot) not in index:
                        report.unrealized.append(Extension(subset, vec, slot))
    return report


# -- cli: the extension report ---------------------------------------------------

def extension_report_json(report):
    """check-extension's stdout line, built as a dict and dumped."""
    return json.dumps(
        {
            "checked": report.checked,
            "unrealized": [
                {"subset": list(e.subset), "dists": [str(v) for v in e.dists], "slot": e.slot}
                for e in report.unrealized
            ],
        },
        sort_keys=True,
    )


# -- exact: the Fraction-pair formulas of the earlier representation -----------
#
# A number is the triple (a, b, d) for a + b*sqrt(d), normalised as the
# Fraction-based constructor did; ExactReal must agree with it exactly.

def squarefree_split(n):
    """(s, m) with n = s*s*m and m squarefree, by trial division with
    every d from 2 while d*d is at most what is left of n: d*d is taken
    out while it divides, then d once if it still divides.  What is left
    at the end has no factor up to its square root, so it is 1 or a
    prime."""
    s, m, d = 1, 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            s *= d
        if n % d == 0:
            n //= d
            m *= d
        d += 1
    return s, m * n


def old(a, b=0, d=0):
    a, b = Fraction(a), Fraction(b)
    if b == 0:
        return a, Fraction(0), 0
    s, m = squarefree_split(d)
    if m == 1:
        return a + b * s, Fraction(0), 0
    return a, b * s, m


def old_radicand(x, y):
    if x[2] and y[2] and x[2] != y[2]:
        raise MixedRadicands
    return x[2] or y[2]


def old_add(x, y):
    return old(x[0] + y[0], x[1] + y[1], old_radicand(x, y))


def old_neg(x):
    return old(-x[0], -x[1], x[2])


def old_mul(x, y):
    d = old_radicand(x, y)
    return old(x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0], d)


def old_inverse(x):
    a, b, d = x
    if b == 0:
        return old(1 / a)
    norm = a * a - b * b * d
    return old(a / norm, -b / norm, d)


def old_sign(x):
    a, b, d = x
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    lhs, rhs = a * a, b * b * d
    if a > 0:
        return (lhs > rhs) - (lhs < rhs)
    return (rhs > lhs) - (rhs < lhs)


def old_compare(x, y):
    return old_sign(old_add(x, old_neg(y)))


def rational_between(lo, hi):
    """rational_between's dyadic bisection with each midpoint built by the
    public ExactReal constructor."""
    if not lo < hi:
        raise ValueError("need lo < hi")
    a, b = Fraction(lo.floor()), Fraction(hi.floor() + 1)
    while True:
        mid = (a + b) / 2
        m = ExactReal(mid)
        if lo < m < hi:
            return mid
        if m <= lo:
            a = mid
        else:
            b = mid


# -- equiv ----------------------------------------------------------------------

def identity_matrix():
    return RatMatrix(Fraction(1), Fraction(0), Fraction(0), Fraction(1))


def matrix_inverse(m):
    # GL2 acts projectively, so the unnormalized adjugate suffices
    return RatMatrix(m.d, -m.b, -m.c, m.a)


def matrix_product(m, n):
    return RatMatrix(
        m.a * n.a + m.b * n.c,
        m.a * n.b + m.b * n.d,
        m.c * n.a + m.d * n.c,
        m.c * n.b + m.d * n.d,
    )


def gl2_search(alpha, beta, height):
    """Exhaustive search of all matrices with integer entries of absolute
    value <= height mapping alpha to beta.

    For each bottom row (c, d) the top row is forced: a*alpha + b must
    equal beta*(c*alpha + d), which pins (a, b) when beta lies in the
    field of alpha and has no solution at all otherwise (beta*w stays
    outside Q(sqrt(D)) for every nonzero w in the field).
    """
    for c in range(-height, height + 1):
        for d in range(-height, height + 1):
            if c == 0 and d == 0:
                continue
            den = alpha * c + d
            if den.is_zero():
                continue
            if alpha.d != beta.d:
                continue  # beta*(c*alpha+d) cannot lie in Q(sqrt(D))
            rhs = beta * den  # A + B*sqrt(D)
            a = rhs.b / alpha.b
            b = rhs.a - a * alpha.a
            if a.denominator != 1 or b.denominator != 1:
                continue
            if abs(a) > height or abs(b) > height:
                continue
            if a * Fraction(d) - b * Fraction(c) == 0:
                continue
            m = RatMatrix(a, b, Fraction(c), Fraction(d))
            try:
                if gl2_apply(m, alpha) == beta:
                    return m
            except (PoleAtAlpha, DivisionByZero):
                continue
    return None


def check_bijection(d1, d2, pairs):
    """The pair check before the set of targets: each target compared
    with every target seen so far."""
    fmap = {}
    seen_targets = []
    for x, y in pairs:
        if x not in d1 or y not in d2:
            raise NotABijection("pair outside the fragments")
        if x in fmap or any(y == t for t in seen_targets):
            raise NotABijection("repeated source or target")
        fmap[x] = y
        seen_targets.append(y)
    if len(fmap) != len(d1.values) or len(seen_targets) != len(d2.values):
        raise NotABijection("map is not total or not onto")
    return fmap


# -- coding -------------------------------------------------------------------


def validate_code(code):
    """validate_code as it was, clause (d) comparing each sum below the
    sup with every positive value."""
    report = {"a": ClauseStatus(NOT_FALSIFIABLE)}
    b_status = ClauseStatus(SATISFIED)
    pos = [(i, v) for i, v in enumerate(code.prefix) if v.sign() > 0]
    for (i, x), (j, y) in itertools.combinations(pos, 2):
        if x == y:
            b_status = ClauseStatus(VIOLATED, (i, j))
            break
    report["b"] = b_status
    if code.bounded and pos:
        report["c"] = ClauseStatus(SATISFIED, (max(range(len(code.prefix)), key=lambda i: code.prefix[i]),))
    else:
        report["c"] = ClauseStatus(NOT_FALSIFIABLE)
    d_status = ClauseStatus(SATISFIED)
    values = [v for _, v in pos]
    sup = max(values) if values else None
    horizon_hit = False
    for x, y in itertools.combinations_with_replacement(values, 2):
        s = x + y
        if sup is not None and s < sup:
            if not any(s == v for v in values):
                d_status = ClauseStatus(VIOLATED, (x, y))
                break
        else:
            horizon_hit = True
    if d_status.status == SATISFIED and (horizon_hit and not code.bounded):
        d_status = ClauseStatus(NOT_FALSIFIABLE)
    report["d"] = d_status
    return report


def sim_check(c, d):
    """sim_check as it was: each target found by a scan of d's positive
    entries, the first match taken."""
    if len(c.prefix) != len(d.prefix):
        return None
    cz, dz = c.zero_indices(), d.zero_indices()
    if len(cz) != len(dz):
        return None
    cp = [(i, v) for i, v in enumerate(c.prefix) if v.sign() > 0]
    dp = [(i, v) for i, v in enumerate(d.prefix) if v.sign() > 0]
    if not cp:
        return tuple(range(len(c.prefix))), ExactReal(1)
    g = [-1] * len(c.prefix)
    for i, j in zip(cz, dz):
        g[i] = j
    try:
        r = min(v for _, v in dp) / min(v for _, v in cp)
        for i, v in cp:
            target = v * r
            matches = [j for j, w in dp if w == target]
            if not matches:
                return None
            g[i] = matches[0]
    except MixedRadicands:
        return None
    if sorted(g) != list(range(len(c.prefix))):
        return None
    return tuple(g), r


def addition_table(universe):
    """model_encode's partial addition table by the n^3 scan: (i, j) -> k
    for nonzero indices i, j with universe[i] + universe[j] == universe[k]."""
    plus = {}
    for i, x in enumerate(universe):
        for j, y in enumerate(universe):
            if i and j:
                for k, z in enumerate(universe):
                    if z == x + y:
                        plus[(i, j)] = k
    return plus


def rq_table(universe, sample):
    """model_encode's rq tables by the per-cell scan: for each q of the
    sample, the nonzero index pairs (i, j) with universe[i] > universe[j] * q."""
    nz = range(1, len(universe))
    return {q: frozenset((i, j) for i in nz for j in nz if universe[i] > universe[j] * q) for q in sample}


def default_sample_q(d):
    """default_sample_q on a set of ratios: SMALL_RATIONALS, the rational
    pair ratios, a rational between each two adjacent distinct ratios,
    and an integer above the largest ratio when it is irrational."""
    qs = set(SMALL_RATIONALS)
    ratios = set()
    for x in d.values:
        for y in d.values:
            r = x / y
            ratios.add(r)
            if r.is_rational:
                qs.add(Fraction(r.a))
    ordered = sorted(ratios)
    for lo, hi in zip(ordered, ordered[1:]):
        qs.add(rational_between(lo, hi))
    if ordered and not ordered[-1].is_rational:
        qs.add(Fraction(ordered[-1].floor() + 1))
    return sorted(qs)


def sample_tables(qs):
    """check_theory_T's position tables over every ordered pair (a, b),
    each sum or product reduced by gcd and looked up in a dict: the
    triples (a, b, c) with qs[a] * qs[b] == qs[c], and for each t the
    splits (a, b) with qs[a] + qs[b] == qs[t] and a < t."""
    frac = [(q.numerator, q.denominator) for q in qs]
    where = {f: t for t, f in enumerate(frac)}
    triples = []
    splits = [[] for _ in frac]
    for (a, (na, da)), (b, (nb, db)) in itertools.product(enumerate(frac), repeat=2):
        num, den = na * nb, da * db
        g = math.gcd(num, den)
        c = where.get((num // g, den // g))
        if c is not None:
            triples.append((a, b, c))
        num, den = na * db + nb * da, da * db
        g = math.gcd(num, den)
        t = where.get((num // g, den // g))
        if t is not None and a < t:
            splits[t].append((a, b))
    return triples, splits


def triangle_relation(d):
    """triangle_structure's relation by the n^3 delta_triangle scan."""
    vals = d.values
    return frozenset((i, j, k) for i, j, k in itertools.product(range(len(vals)), repeat=3)
                     if delta_triangle(vals[i], vals[j], vals[k], d))


def _triangle(a, b, c):
    return abs(b - c) <= a <= b + c


def approx_check(c1, c2):
    """The first permutation, in index order over the positives, that keeps
    zeros on zeros (in order) and the triangle pattern of every triple."""
    u, w = c1.prefix, c2.prefix
    if len(u) != len(w):
        return None
    uz, wz = [i for i, v in enumerate(u) if v.is_zero()], [i for i, v in enumerate(w) if v.is_zero()]
    up, wp = [i for i, v in enumerate(u) if v.sign() > 0], [i for i, v in enumerate(w) if v.sign() > 0]
    if len(uz) != len(wz):
        return None
    for images in itertools.permutations(wp):
        g = dict(zip(uz, wz))
        g.update(zip(up, images))
        if all(_triangle(u[a], u[b], u[c]) == _triangle(w[g[a]], w[g[b]], w[g[c]])
               for a, b, c in itertools.product(up, repeat=3)):
            return tuple(g[i] for i in range(len(u)))
    return None


def ts_isomorphic(s, t):
    """The first permutation, in lexicographic order, that maps s's
    relation exactly onto t's, or None.  Both relations hold one sorted
    triple per multiset, so every ordered triple is sorted to look it up."""
    n = len(s.universe)
    if n != len(t.universe):
        return None
    for p in itertools.permutations(range(n)):
        if all((tuple(sorted((a, b, c))) in s.relation) == (tuple(sorted((p[a], p[b], p[c]))) in t.relation)
               for a, b, c in itertools.product(range(n), repeat=3)):
            return p
    return None


def check_theory_T(model: EncodedModel) -> dict[str, ClauseStatus]:
    """Clause-by-clause validation of the model against the finite sample.

    Clauses (1)-(6) are checked exhaustively over universe x sample;
    clause (6) reports a violation only when one is provable from the
    finite tables.  Clause (7) asks, for every q, for x and y with
    x/y <= q.  It is Satisfied, with the witness for the smallest q, when
    every sample q has one; otherwise its witnesses lie past the finite
    horizon, so it is reported as not falsifiable.
    """
    report = {}
    qs = sorted(model.rq)
    nz = model.nonzero()
    u = model.universe

    # (1) nothing relates to 0
    status = ClauseStatus(SATISFIED)
    for q in qs:
        for i, j in model.rq[q]:
            if i == 0 or j == 0:
                status = ClauseStatus(VIOLATED, (q, i, j))
    report["1"] = status

    # (2) cuts are downward closed within the sample; the cut at (x, x) is
    # exactly {q < 1}
    status = ClauseStatus(SATISFIED)
    for i in nz:
        for j in nz:
            cut = [q for q in qs if (i, j) in model.rq[q]]
            for q1 in qs:
                if cut and q1 < max(cut) and (i, j) not in model.rq[q1]:
                    status = ClauseStatus(VIOLATED, (q1, i, j))
            if len(cut) == len(qs):
                status = ClauseStatus(VIOLATED, ("full cut", i, j))
        for q in qs:
            if ((i, i) in model.rq[q]) != (q < 1):
                status = ClauseStatus(VIOLATED, ("unit cut", q, i))
    report["2"] = status

    # (3) distinct elements give distinct cuts against every y
    status = ClauseStatus(SATISFIED)
    for i, i2 in itertools.combinations(nz, 2):
        for j in nz:
            if all(((i, j) in model.rq[q]) == ((i2, j) in model.rq[q]) for q in qs):
                status = ClauseStatus(VIOLATED, (i, i2, j))
    report["3"] = status

    # (4) multiplicativity along sample products
    status = ClauseStatus(SATISFIED)
    products = [(p, q) for p in qs for q in qs if p * q in model.rq]
    for p, q in products:
        pq = p * q
        for i in nz:
            for j in nz:
                for k in nz:
                    rp, rq_ = (i, j) in model.rq[p], (j, k) in model.rq[q]
                    rpq = (i, k) in model.rq[pq]
                    if rp and rq_ and not rpq:
                        status = ClauseStatus(VIOLATED, (p, q, i, j, k))
                    if not rp and not rq_ and rpq:
                        status = ClauseStatus(VIOLATED, (p, q, i, j, k))
    report["4"] = status

    # (5) the order is linear with 0 least and agrees with R_1
    status = ClauseStatus(SATISFIED)
    one = Fraction(1)
    if one in model.rq:
        for i in nz:
            for j in nz:
                le = u[i] <= u[j]
                via_r = (i == j) or (j, i) in model.rq[one]
                if le != via_r:
                    status = ClauseStatus(VIOLATED, (i, j))
    else:
        status = ClauseStatus(NOT_FALSIFIABLE)
    report["5"] = status

    # (6) additivity of cuts: only provable violations are reported
    status = ClauseStatus(SATISFIED)
    for (i, i2), k in model.plus.items():
        for j in nz:
            for q in qs:
                # any sample split q = q1 + q2 with both parts in the cuts
                # forces R_q(x+x', y)
                forced = any(
                    (i, j) in model.rq[q1] and (q - q1) in model.rq and (i2, j) in model.rq[q - q1]
                    for q1 in qs
                    if q1 < q
                )
                if forced and (k, j) not in model.rq[q]:
                    status = ClauseStatus(VIOLATED, (q, i, i2, j))
    report["6"] = status

    # (7) arbitrarily small elements exist: every sample q has x, y with
    # x/y <= q.  The witness is the one for the smallest q.
    witnesses = [
        next(((q, x, i) for i in nz for x in nz if (x, i) not in model.rq[q]), None) for q in qs
    ]
    if witnesses and None not in witnesses:
        report["7"] = ClauseStatus(SATISFIED, witnesses[0])
    else:
        report["7"] = ClauseStatus(NOT_FALSIFIABLE)
    return report
