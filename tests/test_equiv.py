import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltaspace.dvs import gen_delta_alpha, make_set, scale
from deltaspace.equiv import (
    EQUIVALENT,
    INEQUIVALENT,
    EquivError,
    NotABijection,
    PoleAtAlpha,
    RatMatrix,
    _check_bijection,
    gl2_apply,
    gl2_equivalent,
    linearity_check,
    scaling_witness,
    triangle_bijection_check,
)
from deltaspace.exact import ExactReal
from oracles import check_bijection, gl2_search, identity_matrix, matrix_inverse, matrix_product

SQRT2 = ExactReal.sqrt(2)
SQRT3 = ExactReal.sqrt(3)


def nums(*values):
    return [ExactReal(Fraction(v)) for v in values]


def pairs_of(d1, d2):
    return list(zip(d1.values, d2.values))


def test_bijection_identity():
    d = make_set(nums(1, 2, 3))
    assert triangle_bijection_check(d, d, pairs_of(d, d))


def test_bijection_scaling():
    d = make_set(nums(1, 2, 3))
    for r in (ExactReal(2), ExactReal(Fraction(1, 5)), SQRT2):
        e = scale(d, r)
        assert triangle_bijection_check(d, e, pairs_of(d, e))


def test_bijection_swap_fails():
    d = make_set(nums(1, 2, 3))
    swap = [(ExactReal(1), ExactReal(1)), (ExactReal(2), ExactReal(3)), (ExactReal(3), ExactReal(2))]
    # witness triple (1,1,2): the image (1,1,3) has 3 > 1+1
    assert not triangle_bijection_check(d, d, swap)


def test_bijection_validation():
    d = make_set(nums(1, 2, 3))
    with pytest.raises(NotABijection):
        triangle_bijection_check(d, d, [(ExactReal(1), ExactReal(1))])
    with pytest.raises(NotABijection):
        triangle_bijection_check(d, d, pairs_of(d, d) + [(ExactReal(1), ExactReal(2))])


def _bijection_outcome(check, d1, d2, pairs):
    try:
        return check(d1, d2, pairs)
    except NotABijection as e:
        return str(e)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(nums(1, 2, 3, 4)), st.sampled_from(nums(1, 2, 3, 5))), max_size=6))
def test_bijection_check_matches_the_scan(pairs):
    # pairs drawn with repeats: a repeated target must be caught as before
    d, e = make_set(nums(1, 2, 3)), make_set(nums(2, 3, 5))
    assert _bijection_outcome(_check_bijection, d, e, pairs) == _bijection_outcome(check_bijection, d, e, pairs)


def test_bijection_check_keeps_a_set_of_targets(monkeypatch):
    d = make_set(nums(*range(1, 201)))
    e = scale(d, ExactReal(3))
    eqs = []
    real = ExactReal.__eq__
    monkeypatch.setattr(ExactReal, "__eq__", lambda x, y: eqs.append(1) or real(x, y))
    fmap = _check_bijection(d, e, pairs_of(d, e))
    monkeypatch.undo()
    assert len(fmap) == 200
    assert len(eqs) < 200  # a scan of the targets seen makes 19,900


def test_scaling_witness_found():
    w = scaling_witness(make_set(nums(1, 2)), make_set(nums(3, 6)))
    assert w is not None and w.ratio == ExactReal(3)


def test_scaling_witness_absent():
    assert scaling_witness(make_set(nums(1, 2)), make_set(nums(1, 3))) is None
    assert scaling_witness(make_set(nums(1, 2)), make_set(nums(1))) is None


def test_scaling_witness_absent_past_the_first_values():
    # the min and the next value match the ratio 2, the last does not
    assert scaling_witness(make_set(nums(1, 2, 3)), make_set(nums(2, 4, 7))) is None
    # every value matches, the caps do not
    assert scaling_witness(make_set(nums(1, 2), cap=ExactReal(3)), make_set(nums(2, 4), cap=ExactReal(5))) is None


def test_scaling_witness_surd_ratio():
    d = gen_delta_alpha(SQRT2, 1, ExactReal(2))
    w = scaling_witness(d, scale(d, SQRT2))
    assert w is not None and w.ratio == SQRT2


def test_scaling_witness_cross_field_is_none():
    d1 = gen_delta_alpha(SQRT2, 2, ExactReal(3))
    d2 = gen_delta_alpha(SQRT3, 2, ExactReal(3))
    assert scaling_witness(d1, d2) is None


def test_scaling_witness_boundedness_mismatch():
    assert scaling_witness(make_set(nums(1, 2), cap=ExactReal(2)), make_set(nums(1, 2))) is None
    assert scaling_witness(make_set([], cap=ExactReal(2)), make_set([])) is None


def test_scaling_witness_of_empty_fragments():
    assert scaling_witness(make_set([]), make_set([])).ratio == ExactReal(1)
    assert scaling_witness(make_set([], cap=ExactReal(2)), make_set([], cap=ExactReal(3))).ratio == ExactReal(Fraction(3, 2))
    assert scaling_witness(make_set([]), make_set(nums(1))) is None


def test_witness_implies_triangle_bijection():
    rng = random.Random(3)
    for _ in range(20):
        seed = sorted({Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(4)})
        d = make_set([ExactReal(v) for v in seed])
        r = ExactReal(Fraction(rng.randint(1, 5), rng.randint(1, 5)))
        e = scale(d, r)
        w = scaling_witness(d, e)
        assert w is not None
        assert triangle_bijection_check(d, e, w.pairs())


def test_linearity_check():
    d = make_set(nums(1, 2, 3))
    double = [(v, v * 2) for v in d.values]
    assert linearity_check(double, d)
    square = [(v, v * v) for v in d.values]
    assert not linearity_check(square, d)
    w = scaling_witness(d, scale(d, ExactReal(Fraction(7, 2))))
    assert linearity_check(w.pairs(), d)


def test_gl2_apply_examples():
    m = RatMatrix(Fraction(1), Fraction(1), Fraction(0), Fraction(1))
    assert gl2_apply(m, SQRT2) == ExactReal(1) + SQRT2
    inv = RatMatrix(Fraction(0), Fraction(1), Fraction(1), Fraction(0))
    assert gl2_apply(inv, SQRT2) == ExactReal(0, Fraction(1, 2), 2)
    assert gl2_apply(identity_matrix(), SQRT2) == SQRT2


def test_gl2_apply_pole():
    m = RatMatrix(Fraction(1), Fraction(0), Fraction(1), Fraction(-1))
    with pytest.raises(PoleAtAlpha):
        gl2_apply(m, ExactReal(1))


def test_rat_matrix_requires_invertibility():
    with pytest.raises(EquivError):
        RatMatrix(Fraction(1), Fraction(2), Fraction(2), Fraction(4))


def test_gl2_equivalent_explicit_matrix():
    v = gl2_equivalent(SQRT2, ExactReal(1) + 3 * SQRT2)
    assert v.status == EQUIVALENT
    assert (v.matrix.a, v.matrix.b, v.matrix.c, v.matrix.d) == (3, 1, 0, 1)
    assert gl2_apply(v.matrix, SQRT2) == ExactReal(1) + 3 * SQRT2


def test_gl2_equivalent_cross_field():
    assert gl2_equivalent(SQRT2, SQRT3).status == INEQUIVALENT
    assert gl2_search(SQRT2, SQRT3, 10) is None


def test_gl2_equivalent_reflexive():
    v = gl2_equivalent(SQRT2, SQRT2)
    assert v.status == EQUIVALENT
    assert v.matrix == identity_matrix()


def test_gl2_search_confirms_same_field_criterion():
    # the bounded search oracle finds a transform for same-field pairs
    # with small witnesses, confirming the field criterion empirically
    cases = [
        (SQRT2, ExactReal(1) + 3 * SQRT2),
        (SQRT2, ExactReal(0, Fraction(1, 2), 2)),
        (SQRT3, ExactReal(2) + SQRT3),
        (ExactReal(1) + SQRT2, ExactReal(-1) + 2 * SQRT2),
    ]
    for alpha, beta in cases:
        m = gl2_search(alpha, beta, 10)
        assert m is not None
        assert gl2_apply(m, alpha) == beta


def test_gl2_group_laws():
    rng = random.Random(17)
    for _ in range(100):
        d = rng.choice([2, 3, 5])
        alpha = ExactReal(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                          Fraction(rng.randint(1, 5), rng.randint(1, 4)), d)
        while True:
            entries = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
            if entries[0] * entries[3] - entries[1] * entries[2] != 0:
                break
        m = RatMatrix(*entries)
        assert matrix_product(identity_matrix(), m) == m == matrix_product(m, identity_matrix())
        den = alpha * m.c + m.d
        if den.is_zero():
            continue
        image = gl2_apply(m, alpha)
        # inverse round trip
        assert gl2_apply(matrix_inverse(m), image) == alpha
        # composition agrees with the matrix product
        m2 = RatMatrix(Fraction(2), Fraction(1), Fraction(0), Fraction(1))
        assert gl2_apply(m2, image) == gl2_apply(matrix_product(m2, m), alpha)


def test_gl2_symmetry_and_transitivity_via_matrices():
    a, b, c = SQRT2, ExactReal(1) + SQRT2, ExactReal(Fraction(1, 2)) + 2 * SQRT2
    mab = gl2_equivalent(a, b).matrix
    mbc = gl2_equivalent(b, c).matrix
    assert gl2_apply(matrix_inverse(mab), b) == a
    assert gl2_apply(matrix_product(mbc, mab), a) == c
