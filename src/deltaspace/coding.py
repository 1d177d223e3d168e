"""Sequence and model codings of distance fragments, at prefix scale.

The existential quantifiers of the sequence relations range over
permutations of the prefix index set only; every report from this module
carries that "prefix semantics" caveat.  Clauses that quantify past the
prefix horizon (infinitude of zeros, existence of far-away sums) are
reported as not falsifiable rather than silently asserted.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
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
        """Parse a code: a prefix list of number strings and an optional
        boolean `bounded`."""
        prefix, bounded = obj["prefix"], obj.get("bounded", False)
        if not isinstance(prefix, list):
            raise CodingError(f"prefix must be a list of number strings, not {prefix!r}")
        if not isinstance(bounded, bool):
            raise CodingError(f"bounded must be true or false, not {bounded!r}")
        return DvsCode(tuple(parse(v) for v in prefix), bounded)


def validate_code(code: DvsCode) -> dict[str, ClauseStatus]:
    """Clause-by-clause report: (a) infinitely many zeros, (b) positive
    entries pairwise distinct, (c) bounded sup attained, (d) sums below
    the sup appear."""
    report = {}
    # (a) infinitude is never falsifiable on a finite prefix
    report["a"] = ClauseStatus(NOT_FALSIFIABLE)
    # (b)
    b_status = ClauseStatus(SATISFIED)
    pos = [(i, v) for i, v in enumerate(code.prefix) if v.sign() > 0]
    for (i, x), (j, y) in itertools.combinations(pos, 2):
        if x == y:
            b_status = ClauseStatus(VIOLATED, (i, j))
            break
    report["b"] = b_status
    # (c) a finite prefix always attains its max; the claim about the
    # full sequence is only testable when the code is flagged bounded
    if code.bounded and pos:
        report["c"] = ClauseStatus(SATISFIED, (max(range(len(code.prefix)), key=lambda i: code.prefix[i]),))
    else:
        report["c"] = ClauseStatus(NOT_FALSIFIABLE)
    # (d)
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
    try:
        r = min(v for _, v in dp) / min(v for _, v in cp)
        for i, v in cp:
            target = v * r
            matches = [j for j, w in dp if w == target]
            if not matches:
                return None
            g[i] = matches[0]
    except MixedRadicands:
        return None  # ratio not representable in one quadratic field
    if sorted(g) != list(range(len(c.prefix))):
        return None
    return tuple(g), r


# The node budget of the approx_check and ts_isomorphic searches.
SEARCH_NODES = 2 * 10 ** 6


def _triple_ok(a: ExactReal, b: ExactReal, c: ExactReal) -> bool:
    return abs(b - c) <= a <= b + c


def approx_check(c: DvsCode, d: DvsCode) -> Optional[tuple[int, ...]]:
    """A prefix permutation preserving the zero pattern and the triangle
    pattern in both directions, or None."""
    n = len(c.prefix)
    if n != len(d.prefix):
        return None
    cz, dz = c.zero_indices(), d.zero_indices()
    if len(cz) != len(dz):
        return None
    cp = [i for i in range(n) if c.prefix[i].sign() > 0]
    dp = [i for i in range(n) if d.prefix[i].sign() > 0]
    cv = [c.prefix[i] for i in cp]

    def consistent(m, pos):
        # each multiset of positions through the new one, which may repeat
        # it, once: _triple_ok is symmetric in its arguments
        for j, k in itertools.combinations_with_replacement(range(pos + 1), 2):
            left = _triple_ok(cv[pos], cv[j], cv[k])
            right = _triple_ok(d.prefix[m[pos]], d.prefix[m[j]], d.prefix[m[k]])
            if left != right:
                return False
        return True

    assign = next(iter(injective_maps(len(cp), lambda pos: dp, consistent, SEARCH_NODES)), None)
    if assign is None:
        return None
    g = [-1] * n
    for i, j in zip(cz, dz):
        g[i] = j
    for i, j in zip(cp, assign):
        g[i] = j
    return tuple(g)


@dataclass(frozen=True)
class TriangleStructure:
    universe: tuple[ExactReal, ...]
    relation: frozenset  # ordered index triples (i, j, k)

    def incidence(self, i: int) -> int:
        return sum(1 for t in self.relation if i in t)


def triangle_structure(d: DistanceSet) -> TriangleStructure:
    """The ternary structure whose relation holds exactly on the triangle
    triples of the fragment: (i, j, k) with |x - y| <= z <= x + y for
    x, y, z the values at i, j, k.  Every value lies in d, so this is
    delta_triangle's test.  The values are sorted, so for each pair
    i <= j the k form one run, found by bisection between y - x and
    x + y: about n^2 exact sums and n^2 log n comparisons."""
    vals = d.values
    rel = set()
    for i, x in enumerate(vals):
        for j in range(i, len(vals)):
            y = vals[j]
            ks = range(bisect_left(vals, y - x), bisect_right(vals, x + y))
            rel.update((i, j, k) for k in ks)
            rel.update((j, i, k) for k in ks)
    return TriangleStructure(vals, frozenset(rel))


def ts_isomorphic(s: TriangleStructure, t: TriangleStructure) -> Optional[tuple[int, ...]]:
    """A relation-preserving bijection, by backtracking with
    triple-incidence pruning."""
    n = len(s.universe)
    if n != len(t.universe):
        return None
    inc_s = [s.incidence(i) for i in range(n)]
    inc_t = [t.incidence(i) for i in range(n)]
    if sorted(inc_s) != sorted(inc_t):
        return None

    def candidates(i):
        return (j for j in range(n) if inc_s[i] == inc_t[j])

    def consistent(m, i):
        idx = range(i + 1)
        for a, b, c in itertools.product(idx, repeat=3):
            if i not in (a, b, c):
                continue
            if ((a, b, c) in s.relation) != ((m[a], m[b], m[c]) in t.relation):
                return False
        return True

    return next(iter(injective_maps(n, candidates, consistent, SEARCH_NODES)), None)


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


# The fixed part of every default sample: p/q for 1 <= p, q <= 8.
SMALL_RATIONALS = frozenset(Fraction(p, q) for p in range(1, 9) for q in range(1, 9))


def _pair_ratios(values) -> list[tuple[ExactReal, tuple[int, int]]]:
    """The |values|^2 pair ratios values[i] / values[j], each with its
    index pair (i, j), sorted exactly by ratio; equal ratios keep (i, j)
    order."""
    n = len(values)
    ratios = [(values[i] / values[j], (i, j)) for i in range(n) for j in range(n)]
    ratios.sort(key=itemgetter(0))
    return ratios


def default_sample_q(d: DistanceSet) -> list[Fraction]:
    """SMALL_RATIONALS plus every rational pairwise ratio of the fragment,
    plus a rational separator between each pair of adjacent distinct
    ratios (so that irrational cuts are still told apart), plus an integer
    above the largest ratio when it is irrational.  The ratios are read
    once, in the sorted order of _pair_ratios."""
    qs = set(SMALL_RATIONALS)
    last = None
    for r, _ in _pair_ratios(d.values):
        if r == last:
            continue
        if r.is_rational:
            qs.add(Fraction(r.a))
        if last is not None:
            qs.add(rational_between(last, r))
        last = r
    if last is not None and not last.is_rational:
        qs.add(Fraction(last.floor() + 1))  # a sample above every ratio
    return sorted(qs)


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
    comparisons, not one product and comparison per cell."""
    spent = 0
    if sample_q is None:
        spent = _charge(spent, len(d.values) ** 2, budget)
        sample_q = default_sample_q(d)
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
    ratios = _pair_ratios(d.values)
    pairs = [(i + 1, j + 1) for _, (i, j) in ratios]  # universe indices
    p = 0
    for q in sample_q:
        while p < len(ratios) and ratios[p][0] <= q:
            p += 1
        model.rq[q] = frozenset(pairs[p:])
    return model


def _sample_tables(qs) -> tuple[list[tuple[int, int, int]], list[list[tuple[int, int]]]]:
    """Position tables of the sorted sample: the triples (a, b, c) with
    qs[a] * qs[b] == qs[c], in (a, b) order, and for each position t the
    splits (t1, t2) with qs[t1] + qs[t2] == qs[t] and t1 < t, in (t1, t2)
    order.  Built on reduced (numerator, denominator) pairs, so no
    Fraction is hashed.  Products and sums are symmetric, so only b >= a
    is computed, (b, a) is added beside (a, b), and the lists are then
    sorted into that order."""
    frac = [(q.numerator, q.denominator) for q in qs]
    where = {f: t for t, f in enumerate(frac)}
    top_n, top_d = frac[-1]
    triples = []
    splits = [[] for _ in frac]
    for a, (na, da) in enumerate(frac):
        for b, (nb, db) in enumerate(frac[a:], a):
            num, den = na * nb, da * db
            if na > 0 and num * top_d > top_n * den:
                break  # the products only grow along the row
            g = gcd(num, den)
            c = where.get((num // g, den // g))
            if c is not None:
                triples.append((a, b, c))
                if a != b:
                    triples.append((b, a, c))
        for b, (nb, db) in enumerate(frac[a:], a):
            num, den = na * db + nb * da, da * db
            if num * top_d > top_n * den:
                break
            g = gcd(num, den)
            t = where.get((num // g, den // g))
            if t is not None:
                if a < t:
                    splits[t].append((a, b))
                if a != b and b < t:
                    splits[t].append((b, a))
    triples.sort()
    for split in splits:
        split.sort()
    return triples, splits


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
    every call, so rq stays the one table: for qs the sorted sample,
    M[i][j] has bit t set iff (i, j) is in rq[qs[t]], and rows[i][t] has
    bit j set on the same condition.  Before each block its steps (one
    per table cell read, or per row of cells read as one mask) are
    charged against budget, None for no limit; BudgetExceeded when the
    total passes it.
    """
    report = {}
    qs = sorted(model.rq)
    nz = model.nonzero()
    u = model.universe
    n, width = len(u), len(qs)
    spent = _charge(0, width * n * n, budget)

    # the masks; pairs outside the universe get none (a negative index
    # would alias a slot)
    M = [[0] * n for _ in range(n)]
    rows = [[0] * width for _ in range(n)]
    for t, q in enumerate(qs):
        bit = 1 << t
        for i, j in model.rq[q]:
            if 0 <= i < n and 0 <= j < n:
                M[i][j] |= bit
                rows[i][t] |= 1 << j
    full = (1 << width) - 1
    nz_bits = ((1 << n) - 1) & ~1

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
    below1 = sum(1 << t for t, q in enumerate(qs) if q < 1)
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
    # force R_pq(x, z), and their absence forbids it.  For each x and y
    # the violating z are one mask.
    spent = _charge(spent, width * width, budget)
    triples, splits = _sample_tables(qs) if qs else ([], [])
    spent = _charge(spent, len(triples) * n * n, budget)
    status = ClauseStatus(SATISFIED)
    for a, b, c in triples:
        for i in nz:
            row_p, row_pq = rows[i][a], rows[i][c]
            for j in nz:
                if row_p >> j & 1:
                    bad = rows[j][b] & ~row_pq & nz_bits
                else:
                    bad = row_pq & ~rows[j][b] & nz_bits
                if bad:
                    status = ClauseStatus(VIOLATED, (qs[a], qs[b], i, j, bad.bit_length() - 1))
    report["4"] = status

    # (5) the order is linear with 0 least and agrees with R_1
    status = ClauseStatus(SATISFIED)
    one = Fraction(1)
    if one in model.rq:
        t1 = qs.index(one)
        for i in nz:
            for j in nz:
                le = u[i] <= u[j]
                via_r = (i == j) or bool(M[j][i] >> t1 & 1)
                if le != via_r:
                    status = ClauseStatus(VIOLATED, (i, j))
    else:
        status = ClauseStatus(NOT_FALSIFIABLE)
    report["5"] = status

    # (6) additivity of cuts: only provable violations are reported.  A
    # sample split q = q1 + q2 with R_q1(x, y) and R_q2(x', y) forces
    # R_q(x+x', y); for each q the y it is forced but missing at are one
    # mask, and the last violation is at the largest y, then q.
    ways = [(t, split) for t, split in enumerate(splits) if split]
    spent = _charge(spent, len(model.plus) * (n * width + sum(len(s) for _, s in ways)), budget)
    status = ClauseStatus(SATISFIED)

    def rows_of(i):
        if 0 <= i < n:
            return rows[i]
        return [sum(1 << j for j in range(n) if (i, j) in model.rq[q]) for q in qs]

    for (i, i2), k in model.plus.items():
        left, right, total = rows_of(i), rows_of(i2), rows_of(k)
        last = None
        for t, split in ways:
            forced = 0
            for t1, t2 in split:
                forced |= left[t1] & right[t2]
            bad = forced & ~total[t] & nz_bits
            if bad and (last is None or bad.bit_length() - 1 >= last[0]):
                last = (bad.bit_length() - 1, t)
        if last is not None:
            status = ClauseStatus(VIOLATED, (qs[last[1]], i, i2, last[0]))
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
