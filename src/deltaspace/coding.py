"""Sequence and model codings of distance fragments, at prefix scale.

The existential quantifiers of the sequence relations range over
permutations of the prefix index set only; every report from this module
carries that "prefix semantics" caveat.  Clauses that quantify past the
prefix horizon (infinitude of zeros, existence of far-away sums) are
reported as not falsifiable rather than silently asserted.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Optional

from .dvs import DistanceSet
from .exact import ExactReal, MixedRadicands, parse, rational_between
from .search import BudgetExceeded, injective_maps


class CodingError(Exception):
    pass


SATISFIED = "Satisfied"
VIOLATED = "Violated"
NOT_FALSIFIABLE = "NotFalsifiable"

PREFIX_SEMANTICS = "prefix semantics: quantifiers restricted to the prefix index set"


@dataclass(frozen=True)
class ClauseStatus:
    status: str
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class DvsCode:
    prefix: tuple[ExactReal, ...]
    bounded: bool = False

    def __post_init__(self):
        for v in self.prefix:
            if v.sign() < 0:
                raise CodingError("entries must be >= 0")

    def zero_indices(self) -> list[int]:
        return [i for i, v in enumerate(self.prefix) if v.is_zero()]

    def to_json(self) -> dict:
        return {"prefix": [str(v) for v in self.prefix], "bounded": self.bounded}

    @staticmethod
    def from_json(obj: dict) -> "DvsCode":
        """Parse a code: a prefix list of number strings, all in one field,
        and an optional boolean `bounded`."""
        if "prefix" not in obj:
            raise CodingError("a code needs a prefix, a list of number strings")
        prefix, bounded = obj["prefix"], obj.get("bounded", False)
        if not isinstance(prefix, list):
            raise CodingError(f"prefix must be a list of number strings, not {prefix!r}")
        if not isinstance(bounded, bool):
            raise CodingError(f"bounded must be true or false, not {bounded!r}")
        values = tuple(parse(v) for v in prefix)
        radicands = sorted({v.d for v in values if v.d})
        if len(radicands) > 1:
            raise CodingError(f"prefix mixes sqrt({radicands[0]}) and sqrt({radicands[1]}); "
                              "a code's entries lie in one field")
        return DvsCode(values, bounded)


def validate_code(code: DvsCode) -> dict[str, ClauseStatus]:
    """Clause-by-clause report: (a) infinitely many zeros, (b) positive
    entries pairwise distinct, (c) bounded sup attained, (d) sums below
    the sup appear."""
    report = {}
    # (a) infinitude is never falsifiable on a finite prefix
    report["a"] = ClauseStatus(NOT_FALSIFIABLE)
    # (b) the witness is the first equal pair in combinations order: the
    # least (first, later) position pair of a repeated value
    pos = [(i, v) for i, v in enumerate(code.prefix) if v.sign() > 0]
    first = {}  # each positive value -> its first position
    pairs = [(j, i) for i, v in pos if (j := first.setdefault(v, i)) != i]
    report["b"] = ClauseStatus(VIOLATED, min(pairs)) if pairs else ClauseStatus(SATISFIED)
    # (c) a finite prefix always attains its max; the claim about the
    # full sequence is only testable when the code is flagged bounded
    if code.bounded and pos:
        report["c"] = ClauseStatus(SATISFIED, (max(range(len(code.prefix)), key=lambda i: code.prefix[i]),))
    else:
        report["c"] = ClauseStatus(NOT_FALSIFIABLE)
    # (d)
    d_status = ClauseStatus(SATISFIED)
    values = [v for _, v in pos]
    present = set(values)
    sup = max(values) if values else None
    horizon_hit = False
    for x, y in itertools.combinations_with_replacement(values, 2):
        s = x + y
        if sup is not None and s < sup:
            if s not in present:
                d_status = ClauseStatus(VIOLATED, (x, y))
                break
        else:
            horizon_hit = True
    if d_status.status == SATISFIED and (horizon_hit and not code.bounded):
        d_status = ClauseStatus(NOT_FALSIFIABLE)
    report["d"] = d_status
    return report


def encode_dvs(d: DistanceSet) -> DvsCode:
    """Zero-interleaved enumeration: a zero placeholder before each value,
    values in sorted order."""
    prefix = []
    for v in d.values:
        prefix.append(ExactReal(0))
        prefix.append(v)
    return DvsCode(tuple(prefix), d.bounded)


def sim_check(c: DvsCode, d: DvsCode) -> Optional[tuple[tuple[int, ...], ExactReal]]:
    """A prefix permutation g and ratio r with d[g(i)] = r * c[i], or None.

    The candidate ratio is forced (min positive to min positive); the
    permutation on positive entries is then forced by value matching, and
    zeros map to zeros in index order.
    """
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
    first = {w: j for j, w in reversed(dp)}  # each positive value of d -> its first index
    try:
        r = min(v for _, v in dp) / min(v for _, v in cp)
        for i, v in cp:
            j = first.get(v * r)
            if j is None:
                return None
            g[i] = j
    except MixedRadicands:
        return None  # ratio not representable in one quadratic field
    if sorted(g) != list(range(len(c.prefix))):
        return None
    return tuple(g), r


# The node budget of ts_isomorphic, the one triangle-pattern search.
SEARCH_NODES = 2 * 10 ** 6


def approx_check(c: DvsCode, d: DvsCode) -> Optional[tuple[int, ...]]:
    """A prefix permutation preserving the zero pattern and the triangle
    pattern in both directions, or None: zeros to zeros in index order,
    and the positives by ts_isomorphic on their positional structures."""
    n = len(c.prefix)
    if n != len(d.prefix):
        return None
    cz, dz = c.zero_indices(), d.zero_indices()
    if len(cz) != len(dz):
        return None
    cp = [i for i in range(n) if c.prefix[i].sign() > 0]
    dp = [i for i in range(n) if d.prefix[i].sign() > 0]
    s, t = (_positional(tuple(code.prefix[i] for i in pos)) for code, pos in ((c, cp), (d, dp)))
    assign = ts_isomorphic(s, t)
    if assign is None:
        return None
    g = [-1] * n
    for i, j in zip(cz, dz):
        g[i] = j
    for i, j in zip(cp, assign):
        g[i] = dp[j]
    return tuple(g)


@dataclass(frozen=True)
class TriangleStructure:
    universe: tuple[ExactReal, ...]
    relation: frozenset  # one sorted index triple (i, j, k), i <= j <= k, per multiset

    def incidence(self) -> list[int]:
        """Per position, the ordered triples that hold it: a stored triple counts its 1, 3 or 6 orderings."""
        counts = [0] * len(self.universe)
        for t in self.relation:
            held = set(t)
            for p in held:
                counts[p] += (1, 3, 6)[len(held) - 1]
        return counts

    def ordered_triples(self) -> list[tuple[int, int, int]]:
        """The relation on ordered triples: every ordering of every stored triple, sorted."""
        return sorted({p for t in self.relation for p in itertools.permutations(t)})


def _positional(vals: tuple[ExactReal, ...]) -> TriangleStructure:
    """The ternary structure on the positions of vals: one sorted triple per
    multiset whose values x, y, z have |x - y| <= z <= x + y, a symmetric
    test.  With the positions sorted by value, x <= y <= z fails only by
    z > x + y, so for each pair of ranks the third runs from the second up
    to a bisection at x + y: about n^2 / 2 exact sums and bisections."""
    order = sorted(range(len(vals)), key=vals.__getitem__)
    ranked = [vals[p] for p in order]
    return TriangleStructure(vals, frozenset(
        tuple(sorted((i, j, k)))
        for a, (i, x) in enumerate(zip(order, ranked))
        for b, (j, y) in enumerate(zip(order[a:], ranked[a:]), a)
        for k in order[b:bisect_right(ranked, x + y)]))


def triangle_structure(d: DistanceSet) -> TriangleStructure:
    """The triangle structure of the fragment's sorted values: as every
    value lies in d, its relation is delta_triangle's test."""
    return _positional(d.values)


def ts_isomorphic(s: TriangleStructure, t: TriangleStructure) -> Optional[tuple[int, ...]]:
    """A relation-preserving bijection, by backtracking with
    triple-incidence pruning.  Both relations must hold one sorted triple
    per multiset, as _positional builds them: asymmetric ones are not supported."""
    n = len(s.universe)
    if n != len(t.universe):
        return None
    inc_s, inc_t = s.incidence(), t.incidence()
    if sorted(inc_s) != sorted(inc_t):
        return None

    def candidates(_m, i):
        return (j for j in range(n) if inc_s[i] == inc_t[j])

    def consistent(m, i):
        # each multiset {a, b, i} over positions 0..i that holds i, once
        return all(((a, b, i) in s.relation) == (tuple(sorted((m[a], m[b], m[i]))) in t.relation)
                   for b in range(i + 1) for a in range(b + 1))

    return next(injective_maps(n, candidates, consistent, SEARCH_NODES), None)


# ---------------------------------------------------------------------------
# model coding

# The default limit, in table steps, of model_encode and check_theory_T.
THEORY_BUDGET = 10 ** 7


def _charge(spent: int, steps: int, budget: Optional[int]) -> int:
    """spent + steps, or BudgetExceeded if that passes the budget."""
    spent += steps
    if budget is not None and spent > budget:
        raise BudgetExceeded(f"the theory tables need more than {budget} steps")
    return spent


@dataclass
class EncodedModel:
    universe: tuple[ExactReal, ...]  # 0 first, then the fragment sorted
    c: ExactReal  # the sup constant; 0 when unbounded
    plus: dict = field(default_factory=dict)  # (i, j) -> k for genuine sums
    rq: dict = field(default_factory=dict)  # Fraction q -> frozenset of (i, j)

    def nonzero(self) -> list[int]:
        return list(range(1, len(self.universe)))

    def to_json(self) -> dict:
        return {
            "universe": [str(v) for v in self.universe],
            "c": str(self.c),
            "plus": {f"{i},{j}": k for (i, j), k in sorted(self.plus.items())},
            "rq": {
                f"{q.numerator}/{q.denominator}": sorted(list(pairs))
                for q, pairs in sorted(self.rq.items())
            },
        }


# The fixed part of every default sample: p/q for 1 <= p, q <= 8, sorted.
SMALL_RATIONALS = tuple(sorted({Fraction(p, q) for p in range(1, 9) for q in range(1, 9)}))


def _pair_ratios(values) -> list[tuple[ExactReal, tuple[int, int]]]:
    """The |values|^2 pair ratios values[i] / values[j], each with its
    index pair (i, j), sorted exactly by ratio; equal ratios keep (i, j)
    order."""
    n = len(values)
    ratios = [(values[i] / values[j], (i, j)) for i in range(n) for j in range(n)]
    ratios.sort(key=itemgetter(0))
    return ratios


def default_sample_q(ratios) -> list[Fraction]:
    """The default sample of a fragment whose pair ratios, sorted as
    _pair_ratios sorts them, are ratios: SMALL_RATIONALS plus every
    rational pairwise ratio, plus a rational separator between each pair
    of adjacent distinct ratios (so that irrational cuts are still told
    apart), plus an integer above the largest ratio when it is
    irrational, sorted.  The ratios are read once, in order, so the
    separators and rational ratios come out ascending and are merged
    into SMALL_RATIONALS without a sort."""
    found = []
    last = None
    for r, _ in ratios:
        if r == last:
            continue
        if last is not None:
            found.append(rational_between(last, r))
        if r.is_rational:
            found.append(Fraction(r.a))
        last = r
    if last is not None and not last.is_rational:
        found.append(Fraction(last.floor() + 1))  # a sample above every ratio
    qs = []
    for q in heapq.merge(SMALL_RATIONALS, found):
        if not qs or q != qs[-1]:
            qs.append(q)
    return qs


def model_encode(d: DistanceSet, sample_q=None, budget: Optional[int] = THEORY_BUDGET) -> EncodedModel:
    """The fragment as a first-order structure: 0, the sup constant, a
    partial addition table, and for each sample rational q the exact
    table of pairs with q < x/y.  The sample must be nonempty and
    positive.  Without one, the default sample's |d|^2 pair ratios are
    charged against budget before they are computed; the |sample| * n^2
    cells of the tables are charged before any is built.

    The tables come from the sorted pair ratios of _pair_ratios: along
    the sorted sample one pointer passes the ratios at most q, and
    rq[q] is the set of the pairs after it, so a ratio equal to q stays
    out.  That is |d|^2 divisions and about |sample| + |d|^2 exact
    comparisons, not one product and comparison per cell.  The default
    sample is read from the same sorted ratios and comes sorted and
    distinct; only a user sample is sorted here."""
    spent = 0
    if sample_q is None:
        spent = _charge(spent, len(d.values) ** 2, budget)
        ratios = _pair_ratios(d.values)
        sample_q = default_sample_q(ratios)  # already sorted and distinct
    else:
        ratios = None
        sample_q = sorted(set(Fraction(q) for q in sample_q))
    if not sample_q:
        raise CodingError("sample_q must be nonempty")
    if sample_q[0] <= 0:
        raise CodingError(f"sample rationals must be positive, not {sample_q[0]}")
    universe = (ExactReal(0),) + d.values
    _charge(spent, len(sample_q) * len(universe) ** 2, budget)
    c = d.cap if d.bounded else ExactReal(0)
    model = EncodedModel(universe, c)
    index = {z: k for k, z in enumerate(universe)}  # the values are distinct
    for i in model.nonzero():
        for j in model.nonzero():
            k = index.get(universe[i] + universe[j])
            if k is not None:
                model.plus[(i, j)] = k
    if ratios is None:
        ratios = _pair_ratios(d.values)
    pairs = [(i + 1, j + 1) for _, (i, j) in ratios]  # universe indices
    p = 0
    for q in sample_q:
        while p < len(ratios) and ratios[p][0] <= q:
            p += 1
        model.rq[q] = frozenset(pairs[p:])
    return model


def _sample_triples(qs, sums: bool, skip=()) -> list[tuple[int, int, int]]:
    """The position triples (a, b, c) of the nonempty sorted sample with
    qs[a] * qs[b] == qs[c], or with qs[a] + qs[b] == qs[c] and a < c
    when sums, sorted, but for those whose three positions all lie in
    the set skip.

    The sample is scaled to ints keys[t] = qs[t] * L, L the lcm of its
    denominators, so a product is keys[a] * keys[b] == keys[c] * L and a
    sum keys[a] + keys[b] == keys[c]: one int operation and one dict
    lookup per pair, exact at any L.  Along a row the sums grow, and so
    do the products when qs[a] > 0, so a row ends at the last b whose
    result is at most qs[-1], found by bisection in keys.  Both operations
    are symmetric, so only b >= a is computed and (b, a) goes to row b,
    after the triples of the rows before a; each row comes out in order,
    with no sort."""
    n, scale = len(qs), lcm(*(q.denominator for q in qs))
    keys = [q.numerator * (scale // q.denominator) for q in qs]
    top = keys[-1] if sums else keys[-1] * scale
    ends = [bisect_right(keys, top - x if sums else top // x, a) if sums or x > 0 else n
            for a, x in enumerate(keys)]
    where = {x if sums else x * scale: t for t, x in enumerate(keys)}
    rows = [[] for _ in range(n)]
    for a, row in enumerate(rows):
        x, inside = keys[a], a in skip
        for b, c in enumerate(map(where.get, map(x.__add__ if sums else x.__mul__, keys[a:ends[a]])), a):
            if c is not None and not (inside and b in skip and c in skip):
                if not sums or a < c:
                    row.append((a, b, c))
                if a != b and (not sums or b < c):
                    rows[b].append((b, a, c))
    return list(itertools.chain.from_iterable(rows))


def _role_prefixes(triples, width) -> list[list[int]]:
    """For each role r of the sorted triples (a, b, c), the prefix table
    pre[t], t = 0..width: the mask (bit k = triple k) of the triples whose
    role-r position is below t.  The a positions are contiguous in the
    sorted list, so that table is counts alone."""
    tables = [[(1 << bisect_left(triples, (t,))) - 1 for t in range(width + 1)]]
    for r in (1, 2):
        at = [0] * width
        for k, triple in enumerate(triples):
            at[triple[r]] |= 1 << k
        pre = [0]
        for m in at:
            pre.append(pre[-1] | m)
        tables.append(pre)
    return tables


@functools.cache
def _small_products():
    """The sorted product triples of SMALL_RATIONALS, by position in it,
    with for each role the prefix table of _role_prefixes over those
    positions, for each small rational the mask of the triples that hold
    it, and its (numerator, denominator) key.  Built once per process, on
    first use: 685 triples, under 1 ms and about 70 KB."""
    triples = _sample_triples(SMALL_RATIONALS, sums=False)
    pre = a, b, c = _role_prefixes(triples, len(SMALL_RATIONALS))
    # a prefix table's step at s is the triples with s in that role
    holds = [a[s + 1] ^ a[s] | b[s + 1] ^ b[s] | c[s + 1] ^ c[s] for s in range(len(SMALL_RATIONALS))]
    keys = [(s.numerator, s.denominator) for s in SMALL_RATIONALS]
    return triples, pre, holds, keys


def _product_triples(qs):
    """The product triples of the sorted sample qs, in two blocks:
    (small, keep, listed, below).  small[s] is the sample position of
    SMALL_RATIONALS[s], None where qs lacks it.  The small block is the
    triples of _small_products that keep masks: those whose small
    rationals qs all holds.  The listed block is the sorted triples of qs
    with a position outside the small rationals, from _sample_triples.
    Each product triple of qs is in exactly one block.  below[t], for
    t = 0..|qs|, is where a small prefix table is read for sample
    position t: one past the last small rational of qs below t."""
    triples, _, holds, keys = _small_products()
    at = {(q.numerator, q.denominator): t for t, q in enumerate(qs)}
    small = list(map(at.get, keys))
    keep = (1 << len(triples)) - 1
    below = [0] * (len(qs) + 1)
    for s, t in enumerate(small):
        if t is None:
            keep &= ~holds[s]
        else:
            below[t + 1] = s + 1
    listed = _sample_triples(qs, sums=False, skip=set(small) - {None}) if qs else []
    return small, keep, listed, list(itertools.accumulate(below, max))


def _product_prefixes(keep, listed, below, width) -> list[list[int]]:
    """For each role, the prefix table of _role_prefixes over the two
    blocks of _product_triples as one mask: the kept small triples in the
    low bits, read at below[t], and the listed block above them."""
    triples, pre, _, _ = _small_products()
    shift = len(triples)
    return [[(sp[k] & keep) | lp << shift for k, lp in zip(below, lpre)]
            for sp, lpre in zip(pre, _role_prefixes(listed, width))]


def _lift(row, nz, pre) -> list[int]:
    """Each cut row[y], y in nz, of one row of cuts lifted to the mask of
    the triples whose position in one role it holds: a run [s, e) of set
    bits selects pre[e] ^ pre[s]."""
    lifted = [0] * len(row)
    for y in nz:
        m = row[y]
        out = 0
        while m:
            low = m & -m
            carry = m + low  # clears the lowest run, sets the bit above it
            out |= pre[(carry & -carry).bit_length() - 1] ^ pre[low.bit_length() - 1]
            m &= carry
        lifted[y] = out
    return lifted


def check_theory_T(model: EncodedModel, budget: Optional[int] = THEORY_BUDGET) -> dict[str, ClauseStatus]:
    """Clause-by-clause validation of the model against the finite sample.

    Clauses (1)-(6) are checked exhaustively over universe x sample;
    clause (6) reports a violation only when one is provable from the
    finite tables.  Clause (7) asks, for every q, for x and y with
    x/y <= q.  It is Satisfied, with the witness for the smallest q, when
    every sample q has one; otherwise its witnesses lie past the finite
    horizon, so it is reported as not falsifiable.  Each clause reports
    its last violation in loop order.

    The clauses run on int bitmasks that are derived from model.rq on
    every call, in one pass over it, so rq stays the one table: for qs
    the sorted sample, M[i][j] has bit t set iff (i, j) is in rq[qs[t]].
    Clauses (4) and (6) lift cuts onto the sample's product or split
    triples, once per role, and then take one mask step per (x, y, z) or
    per sum and y; the split triples are built only when the model has
    sums.  The product triples come in two blocks (_product_triples):
    the triples of SMALL_RATIONALS, built once per process, less those
    that hold a small rational the sample lacks, and the triples listed
    on each call, those with a member outside the small rationals.
    Clause (4)'s witness is the larger of the two blocks' largest
    violating triples, then the last (x, y, z) that violates it.  Before
    each block its steps (one per table cell read, or per row of cells
    read as one mask, and one per product triple of both blocks and
    pair) are charged against budget, None for no limit, whether or not
    a table is built; BudgetExceeded when the total passes it.
    """
    report = {}
    by_q = sorted(model.rq.items(), key=itemgetter(0))
    qs = [q for q, _ in by_q]
    nz = model.nonzero()
    u = model.universe
    n, width = len(u), len(qs)
    spent = _charge(0, width * n * n, budget)

    # the masks, and (1) nothing relates to 0, in one pass over rq; pairs
    # outside the universe get no mask bit (a negative index would alias
    # a slot)
    M = [[0] * n for _ in range(n)]
    status = ClauseStatus(SATISFIED)
    for t, (q, pairs) in enumerate(by_q):
        bit = 1 << t
        for i, j in pairs:
            if 0 <= i < n and 0 <= j < n:
                M[i][j] |= bit
            if i == 0 or j == 0:
                status = ClauseStatus(VIOLATED, (q, i, j))
    report["1"] = status
    full = (1 << width) - 1
    unit = bisect_left(qs, 1)  # the sample rationals below 1 are qs[:unit]

    # (2) cuts are downward closed within the sample; the cut at (x, x) is
    # exactly {q < 1}
    status = ClauseStatus(SATISFIED)
    below1 = (1 << unit) - 1
    for i in nz:
        Mi = M[i]
        for j in nz:
            m = Mi[j]
            holes = ~m & ((1 << (m.bit_length() - 1)) - 1) if m else 0
            if holes:
                status = ClauseStatus(VIOLATED, (qs[holes.bit_length() - 1], i, j))
            if m == full:
                status = ClauseStatus(VIOLATED, ("full cut", i, j))
        wrong = Mi[i] ^ below1
        if wrong:
            status = ClauseStatus(VIOLATED, ("unit cut", qs[wrong.bit_length() - 1], i))
    report["2"] = status

    # (3) distinct elements give distinct cuts against every y
    spent = _charge(spent, n * n * n, budget)
    status = ClauseStatus(SATISFIED)
    for i, i2 in itertools.combinations(nz, 2):
        Mi, Mi2 = M[i], M[i2]
        for j in nz:
            if Mi[j] == Mi2[j]:
                status = ClauseStatus(VIOLATED, (i, i2, j))
    report["3"] = status

    # (4) multiplicativity along sample products: R_p(x, y) and R_q(y, z)
    # force R_pq(x, z), and their absence forbids it.  Lifted by role, the
    # cuts M[x][y], M[y][z] and M[x][z] give the triples whose p, q and pq
    # hold there, so for each x, y and z the violating triples are one
    # mask over the two blocks of _product_triples.  The last violation
    # is at the largest triple, then (x, y, z): each product triple has
    # one bit, so one max over the violating bits finds it, and only
    # when there is a violation are x, y and z walked again for it.
    spent = _charge(spent, width * width, budget)
    small, keep, listed, below = _product_triples(qs)
    spent = _charge(spent, (keep.bit_count() + len(listed)) * n * n, budget)
    lift_a, lift_b, lift_c = ([_lift(row, nz, pre) for row in M]
                              for pre in _product_prefixes(keep, listed, below, width))
    seen = 0
    for x in nz:
        row_a, row_c = lift_a[x], lift_c[x]
        for y in nz:
            A, row_b = row_a[y], lift_b[y]
            for z in nz:
                B, C = row_b[z], row_c[z]
                seen |= (A & B & ~C) | (C & ~(A | B))
    status = ClauseStatus(SATISFIED)
    if seen:
        smalls = _small_products()[0]
        shift = len(smalls)
        # a bit below shift is a small triple, mapped to sample positions
        # through small, and one at or above it is listed[k - shift]
        (a, b, _), k = max((tuple(small[s] for s in smalls[k]) if k < shift else listed[k - shift], k)
                           for k in range(seen.bit_length()) if seen >> k & 1)
        # the last (x, y, z) where triple k has p and q agree, and pq not
        last = next((x, y, z) for x in reversed(nz) for y in reversed(nz) for z in reversed(nz)
                    if lift_a[x][y] >> k & 1 == lift_b[y][z] >> k & 1 != lift_c[x][z] >> k & 1)
        status = ClauseStatus(VIOLATED, (qs[a], qs[b]) + last)
    report["4"] = status

    # (5) the order is linear with 0 least and agrees with R_1
    status = ClauseStatus(SATISFIED)
    if unit < width and qs[unit] == 1:
        for i in nz:
            for j in nz:
                le = u[i] <= u[j]
                via_r = (i == j) or bool(M[j][i] >> unit & 1)
                if le != via_r:
                    status = ClauseStatus(VIOLATED, (i, j))
    else:
        status = ClauseStatus(NOT_FALSIFIABLE)
    report["5"] = status

    # (6) additivity of cuts: only provable violations are reported.  A
    # sample split q = q1 + q2 with R_q1(x, y) and R_q2(x', y) forces
    # R_q(x+x', y).  Lifted by role as in (4), the cuts of x, x' and x+x'
    # give the splits whose q1, q2 and q hold at y, so the violating
    # splits at y are one mask.  The last violation is at the largest y,
    # then the largest q among its splits.
    splits = _sample_triples(qs, sums=True) if qs and model.plus else []
    spent = _charge(spent, len(model.plus) * (n * width + len(splits)), budget)
    roles = _role_prefixes(splits, width) if model.plus else []
    status = ClauseStatus(SATISFIED)

    def cuts(i):  # an index outside the universe has no row in M
        if 0 <= i < n:
            return M[i]
        return [sum(1 << t for t, (_, pairs) in enumerate(by_q) if (i, j) in pairs) for j in range(n)]

    for (i, i2), k in model.plus.items():
        A, B, C = (_lift(cuts(x), nz, pre) for x, pre in zip((i, i2, k), roles))
        for y in reversed(nz):
            bad = A[y] & B[y] & ~C[y]
            if bad:
                t = max(splits[e][2] for e in range(bad.bit_length()) if bad >> e & 1)
                status = ClauseStatus(VIOLATED, (qs[t], i, i2, y))
                break
    report["6"] = status

    # (7) arbitrarily small elements exist: every sample q has x, y with
    # x/y <= q.  The witness is the one for the smallest q.
    common = full
    for x in nz:
        for i in nz:
            common &= M[x][i]
    if qs and not common:
        witness = next((qs[0], x, i) for i in nz for x in nz if not M[x][i] & 1)
        report["7"] = ClauseStatus(SATISFIED, witness)
    else:
        report["7"] = ClauseStatus(NOT_FALSIFIABLE)
    return report
