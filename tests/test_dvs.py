import itertools
import random
from fractions import Fraction

import pytest

from deltaspace.dvs import (
    CLOSED,
    DistanceSet,
    DvsError,
    FirstViolation,
    close,
    delta_triangle,
    gen_delta_alpha,
    make_set,
    scale,
    validate_closure,
)
from deltaspace.exact import ExactReal

SQRT2 = ExactReal.sqrt(2)


def nums(*values):
    return [ExactReal(Fraction(v)) for v in values]


def test_closure_cap_absorbs_sums():
    s = make_set(nums(1, 2), cap=ExactReal(2))
    assert validate_closure(s) == CLOSED


def test_closure_first_violation():
    s = make_set(nums(1, 3), cap=ExactReal(3))
    assert validate_closure(s) == FirstViolation(ExactReal(1), ExactReal(1))


def test_closure_horizon_rule():
    # unbounded fragment {sqrt2-1, 1, sqrt2}: 1+1 = 2 > sqrt2 = max, so the
    # missing sum is beyond the horizon; the earlier sums are all present
    # or likewise out of range except (sqrt2-1) + (sqrt2-1) = 2*sqrt2-2,
    # which IS below sqrt2 and absent, so the fragment is not closed
    s = make_set([SQRT2 - 1, ExactReal(1), SQRT2])
    assert validate_closure(s) == FirstViolation(SQRT2 - 1, SQRT2 - 1)


def test_closure_horizon_rule_when_sums_leave_range():
    # {1/2, 1}: 1/2+1/2 is present, every other sum exceeds the largest
    # value, so the horizon rule reports the fragment closed
    s = make_set(nums(Fraction(1, 2), 1))
    assert validate_closure(s) == CLOSED


def test_close_fills_gap():
    out = close(make_set(nums(1, 3), cap=ExactReal(3)), ExactReal(3))
    assert [str(v) for v in out.values] == ["1/1", "2/1", "3/1"]
    assert out.closed


def test_close_singleton_at_cap():
    out = close(make_set(nums(1), cap=ExactReal(1)), ExactReal(1))
    assert [str(v) for v in out.values] == ["1/1"]


def test_close_unbounded_with_horizon():
    out = close(make_set(nums(Fraction(1, 2))), ExactReal(2))
    assert [str(v) for v in out.values] == ["1/2", "1/1", "3/2", "2/1"]


def test_close_idempotent():
    rng = random.Random(5)
    for _ in range(30):
        seed = {Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(3)}
        bound = ExactReal(max(seed) * 2)
        s = make_set([ExactReal(v) for v in seed])
        once = close(s, bound)
        twice = close(once, bound)
        assert once.values == twice.values


def test_delta_triangle_examples():
    s12 = make_set(nums(1, 2))
    assert delta_triangle(ExactReal(1), ExactReal(1), ExactReal(2), s12)
    s = make_set(nums(Fraction(1, 4), 1))
    assert not delta_triangle(ExactReal(Fraction(1, 4)), ExactReal(Fraction(1, 4)), ExactReal(1), s)
    s123 = make_set(nums(1, 2, 3))
    assert delta_triangle(ExactReal(1), ExactReal(2), ExactReal(3), s123)
    # membership matters, not just the inequality
    assert not delta_triangle(ExactReal(1), ExactReal(1), ExactReal(Fraction(3, 2)), s12)


def test_delta_triangle_permutation_symmetry():
    # the predicate is symmetric: each value is at most the sum of the
    # other two; all six argument orders must agree
    rng = random.Random(11)
    s = make_set(nums(1, 2, 3, 4), cap=ExactReal(4))
    for _ in range(100):
        triple = [rng.choice(s.values) for _ in range(3)]
        results = {delta_triangle(x, y, z, s) for x, y, z in itertools.permutations(triple)}
        assert len(results) == 1


def test_delta_triangle_scaling_homogeneity():
    rng = random.Random(12)
    s = make_set(nums(1, Fraction(3, 2), 2, 3), cap=ExactReal(3))
    for r in (ExactReal(2), ExactReal(Fraction(1, 3)), SQRT2):
        t = scale(s, r)
        for _ in range(60):
            x, y, z = (rng.choice(s.values) for _ in range(3))
            assert delta_triangle(x, y, z, s) == delta_triangle(x * r, y * r, z * r, t)


def test_gen_delta_alpha_height_one():
    d = gen_delta_alpha(SQRT2, 1, ExactReal(2))
    assert list(d.values) == [SQRT2 - 1, ExactReal(1), SQRT2]
    assert d.cap == ExactReal(2)
    assert not d.closed


def test_gen_delta_alpha_height_zero():
    assert gen_delta_alpha(SQRT2, 0, ExactReal(2)).values == ()


def test_gen_delta_alpha_closure_violation():
    d = gen_delta_alpha(SQRT2, 1, ExactReal(2))
    v = validate_closure(d)
    # the first missing truncated sum in sorted-pair order
    assert v == FirstViolation(SQRT2 - 1, SQRT2 - 1)


def test_gen_delta_alpha_rejects_rational_alpha():
    with pytest.raises(DvsError):
        gen_delta_alpha(ExactReal(2), 1, ExactReal(2))


def test_scale_examples():
    s = make_set(nums(1, 2))
    assert [str(v) for v in scale(s, ExactReal(3)).values] == ["3/1", "6/1"]
    assert scale(s, ExactReal(1)).values == s.values
    d = make_set([SQRT2 - 1, ExactReal(1), SQRT2])
    out = scale(d, SQRT2)
    assert list(out.values) == [ExactReal(2) - SQRT2, SQRT2, ExactReal(2)]


def test_scale_preserves_closure_flag():
    s = close(make_set(nums(1), cap=ExactReal(3)), ExactReal(3))
    assert s.closed
    t = scale(s, SQRT2)
    assert t.closed
    assert validate_closure(t) == CLOSED


def test_closed_is_derived_not_read_from_json():
    d = DistanceSet.from_json({"values": ["1/1", "3/1"], "cap": "3/1", "closed": True})
    assert not d.closed
    assert d.to_json()["closed"] is False
    assert DistanceSet.from_json({"values": ["1/1", "2/1"], "cap": "2/1", "closed": False}).closed


def test_membership_coerces_rationals_and_separates_radicands():
    d = make_set(nums(1, "1/2", 2) + [SQRT2, SQRT2 + 1, ExactReal(1)], cap=ExactReal(3))
    assert len(d.values) == 5  # the repeated 1 is dropped
    assert 1 in d and Fraction(1, 2) in d and ExactReal(2) in d
    assert 3 not in d and Fraction(1, 3) not in d
    assert SQRT2 in d and ExactReal(1, 1, 2) in d and ExactReal(0, Fraction(1, 2), 8) in d
    assert ExactReal.sqrt(3) not in d and ExactReal(1, 1, 3) not in d


def test_well_formedness():
    with pytest.raises(DvsError):
        DistanceSet((ExactReal(0),))
    with pytest.raises(DvsError):
        DistanceSet((ExactReal(2), ExactReal(1)))
    with pytest.raises(DvsError):
        DistanceSet((ExactReal(3),), cap=ExactReal(2))


def test_json_round_trip():
    d = gen_delta_alpha(SQRT2, 2, ExactReal(3))
    assert DistanceSet.from_json(d.to_json()) == d
    u = make_set(nums(1, 2))
    assert DistanceSet.from_json(u.to_json()) == u
