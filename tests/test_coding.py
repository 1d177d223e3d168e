import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaspace.coding import (
    NOT_FALSIFIABLE,
    PREFIX_SEMANTICS,
    SATISFIED,
    VIOLATED,
    ClauseStatus,
    CodingError,
    DvsCode,
    SMALL_RATIONALS,
    _pair_ratios,
    _product_prefixes,
    _product_triples,
    _sample_triples,
    _small_products,
    approx_check,
    check_theory_T,
    default_sample_q,
    encode_dvs,
    model_encode,
    sim_check,
    triangle_structure,
    ts_isomorphic,
    validate_code,
)
from deltaspace.dvs import gen_delta_alpha, make_set, scale
from deltaspace.exact import ExactReal
from deltaspace.search import BudgetExceeded

import oracles

SQRT2 = ExactReal.sqrt(2)
SQRT3 = ExactReal.sqrt(3)


def nums(*values):
    return [ExactReal(Fraction(v)) for v in values]


def code(*values, bounded=False):
    return DvsCode(tuple(ExactReal(Fraction(v)) for v in values), bounded)


def test_validate_code_bounded_ok():
    report = validate_code(code(0, 1, 0, 2, 0, 0, bounded=True))
    assert report["a"].status == NOT_FALSIFIABLE
    assert report["b"].status == SATISFIED
    assert report["c"].status == SATISFIED
    assert report["d"].status == SATISFIED  # 1+1 capped at the attained sup


def test_validate_code_duplicate_positive():
    report = validate_code(code(0, 1, 0, 1))
    assert report["b"].status == VIOLATED
    assert report["b"].witness == (1, 3)
    # the first equal pair in combinations order; a single pass meets (1, 2) first
    assert validate_code(code(1, 2, 2, 1))["b"].witness == (0, 3)


def test_validate_code_all_zero():
    report = validate_code(code(0, 0, 0))
    assert all(st.status in (SATISFIED, NOT_FALSIFIABLE) for st in report.values())


def test_validate_code_rejects_negative():
    with pytest.raises(CodingError):
        code(0, -1)


def test_encode_dvs_interleaves_zeros():
    c = encode_dvs(make_set(nums(1, 2)))
    assert [str(v) for v in c.prefix] == ["0/1", "1/1", "0/1", "2/1"]
    assert encode_dvs(make_set([])).prefix == ()
    d = gen_delta_alpha(SQRT2, 1, ExactReal(2))
    c = encode_dvs(d)
    assert list(c.prefix) == [ExactReal(0), SQRT2 - 1, ExactReal(0), ExactReal(1), ExactReal(0), SQRT2]


def test_encode_decode_round_trip():
    d = make_set(nums(Fraction(1, 2), 1, 3), cap=ExactReal(3))
    c = encode_dvs(d)
    assert c.prefix[1::2] == d.values and all(v.is_zero() for v in c.prefix[::2])
    assert c.bounded


def test_sim_check_identity_scaling():
    g, r = sim_check(code(0, 1, 2), code(0, 2, 4))
    assert g == (0, 1, 2)
    assert r == ExactReal(2)


def test_sim_check_swap():
    g, r = sim_check(code(1, 2), code(4, 2))
    assert g == (1, 0)
    assert r == ExactReal(2)


def test_sim_check_zero_count_mismatch():
    assert sim_check(code(0, 1), code(1, 2)) is None


def test_sim_check_cross_field_is_none():
    c = encode_dvs(gen_delta_alpha(SQRT2, 1, ExactReal(2)))
    d = DvsCode(tuple(v * SQRT3 if v.sign() > 0 else v for v in code(0, 1, 0, 2, 0, 3).prefix))
    c3 = DvsCode(c.prefix[:6])
    assert len(c3.prefix) == len(d.prefix)
    assert sim_check(c3, d) is None


# entries of one field with sums among them; lists drawn from them repeat values
CODE_VALUES = [ExactReal(0), *nums(Fraction(1, 2), 1, Fraction(3, 2), 2, 3), SQRT2, 2 * SQRT2, 1 + SQRT2]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(CODE_VALUES), max_size=9), st.booleans())
def test_validate_code_matches_the_scan(values, bounded):
    c = DvsCode(tuple(values), bounded)
    assert validate_code(c) == oracles.validate_code(c)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(CODE_VALUES), max_size=8),
       st.sampled_from([ExactReal(1), ExactReal(2), ExactReal(Fraction(1, 2)), SQRT2]), st.data())
def test_sim_check_matches_the_scan(values, r, data):
    # d is c scaled by r and permuted, maybe with one entry replaced; a
    # repeated value has several matches, and the first is taken
    d = list(data.draw(st.permutations([v * r for v in values])))
    if d and data.draw(st.booleans()):
        d[data.draw(st.integers(0, len(d) - 1))] = data.draw(st.sampled_from(CODE_VALUES))
    c, d = DvsCode(tuple(values)), DvsCode(tuple(d))
    assert sim_check(c, d) == oracles.sim_check(c, d)


def test_code_checks_look_values_up_by_hash(monkeypatch):
    # at 200 values, clause (b) finds repeats by hash, clause (d) compares
    # a sum with the one value of equal hash, not with every value, and
    # sim_check finds each target likewise
    d = make_set(nums(*range(1, 201)))
    c1, c2 = encode_dvs(d), encode_dvs(scale(d, ExactReal(3)))
    eqs = []
    real = ExactReal.__eq__
    monkeypatch.setattr(ExactReal, "__eq__", lambda x, y: eqs.append(1) or real(x, y))
    report = validate_code(c1)
    checks = len(eqs)
    g, r = sim_check(c1, c2)
    monkeypatch.undo()
    assert report["b"].status == SATISFIED and report["d"].status == NOT_FALSIFIABLE
    # at most one compare per sum; a scan of every value makes 1,338,250,
    # and clause (b) comparing every pair of values adds 19,900
    assert checks <= 200 * 201 // 2
    assert g == tuple(range(400)) and r == ExactReal(3)
    assert len(eqs) - checks <= 200  # a scan of d per target makes 40,000


def test_approx_check_identity():
    c = code(0, 1, 2, 3)
    assert approx_check(c, c) is not None


def test_sim_implies_approx():
    rng = random.Random(71)
    for _ in range(20):
        vals = sorted({Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(4)})
        d = make_set([ExactReal(v) for v in vals])
        r = ExactReal(Fraction(rng.randint(1, 6), rng.randint(1, 6)))
        c1, c2 = encode_dvs(d), encode_dvs(scale(d, r))
        sim = sim_check(c1, c2)
        assert sim is not None
        assert approx_check(c1, c2) is not None


def test_approx_check_distinguishes_patterns():
    # (0,1,4) vs (0,1,2): the triple (4,1,1) violates the triangle bound
    # on one side only, under every zero-preserving permutation
    assert approx_check(code(0, 1, 4), code(0, 1, 2)) is None


def test_triangle_structure_scaling_isomorphism():
    d = make_set(nums(1, 2, 3), cap=ExactReal(3))
    for r in (ExactReal(2), SQRT2):
        t = scale(d, r)
        m = ts_isomorphic(triangle_structure(d), triangle_structure(t))
        assert m == (0, 1, 2)


def test_triangle_structure_size_mismatch():
    s = triangle_structure(make_set(nums(1, 2)))
    t = triangle_structure(make_set(nums(1, 2, 3)))
    assert ts_isomorphic(s, t) is None


def test_triangle_structure_incidence_mismatch():
    s = triangle_structure(make_set(nums(1, 2, 3)))
    t = triangle_structure(make_set(nums(1, 2, 4)))
    assert ts_isomorphic(s, t) is None


def test_model_rq_is_strict():
    m = model_encode(make_set(nums(1, 2)), [Fraction(1, 2), Fraction(1), Fraction(2)])
    # universe: 0, 1, 2 at indices 0, 1, 2
    assert (1, 2) not in m.rq[Fraction(1, 2)]  # 1/2 < 1/2 fails
    assert (2, 1) in m.rq[Fraction(1, 2)]  # 1/2 < 2
    assert (2, 1) not in m.rq[Fraction(2)]  # 2 < 2 fails


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 6), st.integers(0, 3)).filter(lambda pq: pq[0] + 1.5 * pq[1] > 0),
                min_size=1, max_size=8, unique=True))
def test_model_addition_table_matches_the_scan(pqs):
    # values p + q*sqrt(2): rational sums, surd sums and sums out of the fragment
    d = make_set([ExactReal(p, q, 2) for p, q in pqs])
    m = model_encode(d, [Fraction(1)])
    assert m.plus == oracles.addition_table(m.universe)


# Values c * base for c on a grid and base 1 or 1 + sqrt(D): values on one
# base have rational ratios, often one of the grid, across bases irrational.
GRID = [Fraction(p, q) for p in range(1, 7) for q in (1, 2, 3)]


@st.composite
def fragments(draw):
    radicand = draw(st.sampled_from((0, 2, 1000003)))
    bases = [ExactReal(1)] + ([ExactReal(1, 1, radicand)] if radicand else [])
    values = draw(st.lists(st.builds(lambda c, base: base * ExactReal(c), st.sampled_from(GRID),
                                     st.sampled_from(bases)), min_size=1, max_size=5))
    return make_set(values, cap=max(values) if draw(st.booleans()) else None)


@st.composite
def fragments_and_samples(draw):
    """A fragment and None (the default sample), or a user sample of grid
    rationals, half of the time with some of the fragment's rational pair
    ratios added, at which the strict q < x/y has to leave the pair out."""
    d = draw(fragments())
    kind = draw(st.sampled_from(("default", "ratios", "grid")))
    if kind == "default":
        return d, None
    extra = [Fraction(1, 7), Fraction(9)]
    sample = draw(st.lists(st.sampled_from(GRID + extra), min_size=1 if kind == "grid" else 0))
    if kind == "ratios":
        ratios = sorted({Fraction((x / y).a) for x in d.values for y in d.values if (x / y).is_rational})
        sample += draw(st.lists(st.sampled_from(ratios), min_size=1))
    return d, sample


@settings(max_examples=200, deadline=None)
@given(fragments_and_samples())
def test_model_rq_matches_the_scan(d_sample):
    d, sample = d_sample
    m = model_encode(d, sample)
    qs = oracles.default_sample_q(d) if sample is None else sorted(set(sample))
    assert sorted(m.rq) == qs
    assert m.rq == oracles.rq_table(m.universe, qs)


# Primes above 1000: each has more than 9 bits, so 57 distinct ones
# multiply to an lcm of more than 512 bits, past every benchmark sample.
PRIMES = [p for p in range(1001, 2000) if all(p % k for k in range(2, 45))]
PAST_SCALE = 57


@st.composite
def samples_past_the_scale(draw):
    """Grid rationals, whose products and sums often land in the sample,
    and fractions over distinct primes above 1000, whose denominators
    take the lcm past 512 bits; a numerator that is also a prime
    denominator makes p/p2 * p2/p3 = p/p3 a possible product."""
    dens = draw(st.lists(st.sampled_from(PRIMES), min_size=PAST_SCALE, max_size=PAST_SCALE + 8, unique=True))
    numerators = draw(st.lists(st.sampled_from(PRIMES + [1, 2, 3]), min_size=len(dens), max_size=len(dens)))
    grid = draw(st.lists(st.sampled_from(GRID), min_size=1))
    return sorted(set(grid) | {Fraction(1 if p == q else p, q) for p, q in zip(numerators, dens)})


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    fragments_and_samples().map(lambda d_sample: sorted(model_encode(*d_sample).rq)),
    # zero and negative entries too, which no model_encode sample holds
    st.lists(st.fractions(-3, 9, max_denominator=6), min_size=1, unique=True).map(sorted),
    samples_past_the_scale(),
))
def test_sample_tables_match_the_scan(qs):
    triples, splits = oracles.sample_tables(qs)
    assert _sample_triples(qs, sums=False) == triples
    assert _sample_triples(qs, sums=True) == sorted((a, b, t) for t, split in enumerate(splits) for a, b in split)


# Rationals outside SMALL_RATIONALS that are products of two of them
# (9 = 3 * 3, 9/10 = 3/2 * 3/5, 1/16 = 1/2 * 1/8, 21/40 = 3/5 * 7/8) or
# factors of one (1/16 * 8 = 1/2, 16/9 * 3/8 = 2/3)
OUTSIDE = [Fraction(9), Fraction(9, 10), Fraction(1, 16), Fraction(21, 40), Fraction(16, 9), Fraction(64),
           Fraction(11, 9), Fraction(10, 3)]


@st.composite
def samples_short_of_the_small_rationals(draw):
    """Some of SMALL_RATIONALS, never all of them, and some of OUTSIDE."""
    small = draw(st.lists(st.sampled_from(SMALL_RATIONALS), max_size=len(SMALL_RATIONALS) - 1, unique=True))
    outside = draw(st.lists(st.sampled_from(OUTSIDE), min_size=0 if small else 1, unique=True))
    return sorted(small + outside)


def test_product_tables_match_the_scan():
    # the product triples of each sample, the kept small triples and the
    # listed ones in mask-bit order, and their prefix tables, against the
    # gcd-and-dict tables over every position pair
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        fragments().map(lambda d: sorted(model_encode(d).rq)),
        samples_short_of_the_small_rationals(),
        samples_past_the_scale(),
    ))
    def check(qs):
        small, keep, listed, below = _product_triples(qs)
        triples = _small_products()[0]
        by_bit = {k: tuple(small[s] for s in t) for k, t in enumerate(triples) if keep >> k & 1}
        kept = list(by_bit.values())
        by_bit.update((len(triples) + k, t) for k, t in enumerate(listed))
        # each product triple of qs is in one block, once, and each block
        # is sorted, so its top bit is its largest triple
        assert sorted(by_bit.values()) == oracles.sample_tables(qs)[0]
        assert kept == sorted(kept) and listed == sorted(listed)
        tables = _product_prefixes(keep, listed, below, len(qs))
        for r, pre in enumerate(tables):
            assert pre == [sum(1 << k for k, t in by_bit.items() if t[r] < w) for w in range(len(qs) + 1)]

    check()


def test_small_block_is_the_whole_table_of_the_small_rationals():
    small, keep, listed, _ = _product_triples(list(SMALL_RATIONALS))
    assert small == list(range(len(SMALL_RATIONALS))) and listed == []
    assert keep == (1 << len(_small_products()[0])) - 1 and len(_small_products()[0]) == 685


@settings(max_examples=200, deadline=None)
@given(fragments())
def test_triangle_structure_matches_the_scan(d):
    assert triangle_structure(d).relation == oracles.triangle_relation(d)


def test_model_unit_cut():
    m = model_encode(make_set(nums(1, 2, 3)))
    for i in m.nonzero():
        for q in m.rq:
            assert ((i, i) in m.rq[q]) == (q < 1)


def test_model_sample_must_be_positive():
    d = make_set(nums(1, 2))
    for sample in ([Fraction(0), Fraction(1)], [Fraction(-1, 2)], []):
        with pytest.raises(CodingError):
            model_encode(d, sample)
    assert sorted(model_encode(d, [Fraction(1)]).rq) == [Fraction(1)]


def test_theory_T_satisfied_on_clean_models():
    for d in (
        make_set(nums(1, 2, 3), cap=ExactReal(3)),
        make_set(nums(Fraction(1, 2), 1, Fraction(3, 2))),
        gen_delta_alpha(SQRT2, 1, ExactReal(2)),
    ):
        report = check_theory_T(model_encode(d))
        for key in ("1", "2", "3", "4", "5", "6"):
            assert report[key].status == SATISFIED, (key, report[key])
        assert report["7"].status in (SATISFIED, NOT_FALSIFIABLE)


def test_theory_T_clause_7_needs_a_witness_for_every_sample():
    # the sample reaches down to 1/8, but no ratio of {1, 2, 3} is below 1/3
    report = check_theory_T(model_encode(make_set(nums(1, 2, 3), cap=ExactReal(3))))
    assert report["7"] == ClauseStatus(NOT_FALSIFIABLE)
    # 1/8 over 1 is at most the smallest sample q, 1/8; universe 0, 1/8, 1
    report = check_theory_T(model_encode(make_set(nums(Fraction(1, 8), 1), cap=ExactReal(1))))
    assert report["7"] == ClauseStatus(SATISFIED, (Fraction(1, 8), 1, 2))


def test_theory_T_detects_corruption():
    d = make_set(nums(1, 2, 3), cap=ExactReal(3))
    m = model_encode(d)
    # remove a non-maximal element of one cut: downward closure breaks
    target = None
    for q in sorted(m.rq):
        for pair in m.rq[q]:
            bigger = [p for p in m.rq if p > q and pair in m.rq[p]]
            if bigger:
                target = (q, pair)
                break
        if target:
            break
    assert target is not None
    q, pair = target
    m.rq[q] = frozenset(m.rq[q] - {pair})
    report = check_theory_T(m)
    assert report["2"].status == VIOLATED or report["4"].status == VIOLATED


def test_theory_budget_counts_table_steps():
    d = make_set(nums(1, 2, 3), cap=ExactReal(3))
    m = model_encode(d)
    assert check_theory_T(m, budget=None) == check_theory_T(m)
    # |d|^2 pair ratios for the default sample, then |sample| * n^2 cells, n = 4
    with pytest.raises(BudgetExceeded):
        model_encode(d, budget=9 + len(m.rq) * 16 - 1)
    assert model_encode(d, budget=9 + len(m.rq) * 16) == m
    with pytest.raises(BudgetExceeded):
        model_encode(d, budget=8)  # before the default sample is computed
    assert model_encode(d, sorted(m.rq), budget=len(m.rq) * 16) == m
    with pytest.raises(BudgetExceeded):
        check_theory_T(m, budget=len(m.rq) * 16)  # the masks alone take that much


def test_theory_budget_pins_the_clause_4_charge():
    # every block's charge, as check_theory_T's docstring lists them, with
    # the product and split triples counted by the oracle's tables: the
    # check passes at exactly that budget and not one step below it, so a
    # product triple lost from either block moves the limit
    m = model_encode(make_set(nums(1, 2, 3), cap=ExactReal(3)))
    qs = sorted(m.rq)
    n, width = len(m.universe), len(qs)
    triples, splits = oracles.sample_tables(qs)
    assert m.plus and len(triples) == 685  # the default sample of {1, 2, 3} adds no product
    charge = (width * n * n  # the masks
              + n ** 3  # clause (3)
              + width * width + len(triples) * n * n  # clause (4)
              + len(m.plus) * (n * width + sum(map(len, splits))))  # clause (6)
    assert check_theory_T(m, budget=charge) == check_theory_T(m, budget=None)
    with pytest.raises(BudgetExceeded):
        check_theory_T(m, budget=charge - 1)


def test_default_sample_separates_surd_ratios():
    d = gen_delta_alpha(SQRT2, 1, ExactReal(2))
    qs = default_sample_q(_pair_ratios(d.values))
    # between any two distinct pairwise ratios there is a sample rational
    ratios = sorted({x / y for x in d.values for y in d.values})
    for lo, hi in zip(ratios, ratios[1:]):
        assert any(lo < ExactReal(q) < hi for q in qs)


@pytest.mark.parametrize("values", [
    [ExactReal(1), 9 + SQRT2],  # max/min = 9+sqrt2
    [ExactReal(Fraction(1, 2)), SQRT2, 3 * SQRT2],  # max/min = 6*sqrt2
])
def test_theory_T_has_a_sample_above_an_irrational_ratio_past_8(values):
    d = make_set(values)
    top = d.max() / d.values[0]
    assert any(ExactReal(q) > top for q in default_sample_q(_pair_ratios(d.values)))
    report = check_theory_T(model_encode(d))
    assert all(st.status != VIOLATED for st in report.values())


def test_json_round_trip():
    c = encode_dvs(gen_delta_alpha(SQRT2, 1, ExactReal(2)))
    assert DvsCode.from_json(c.to_json()) == c


def test_prefix_semantics_string_present():
    assert "prefix" in PREFIX_SEMANTICS
