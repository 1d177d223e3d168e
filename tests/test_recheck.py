"""The re-checks' own failure branches: a wrong witness must fail on the
branch meant for it, with its message."""

from fractions import Fraction

import pytest

from deltaspace.exact import ExactReal
from deltaspace.recheck import check_product_cut, check_similarity


def test_product_cut_recheck_refuses_a_product_with_no_cut_table():
    # the cut tables hold 2 but not 4 = 2 * 2, so no witness at p = q = 2
    # can be a violation
    with pytest.raises(AssertionError, match="p = 2, q = 2, .* but p, q or pq has no cut table$"):
        check_product_cut({Fraction(2): {(1, 1)}}, (Fraction(2), Fraction(2), 1, 1, 1))


def test_similarity_recheck_refuses_a_ratio_that_mixes_radicands():
    # r = sqrt(3) times c[1] = sqrt(2) is no value of Q(sqrt 2) or Q(sqrt 3)
    r2, r3 = ExactReal(0, 1, 2), ExactReal(0, 1, 3)
    with pytest.raises(AssertionError, match=r"but r \* c\[1\] = 1/1\*sqrt\(3\) \* 1/1\*sqrt\(2\) mixes radicands$"):
        check_similarity([ExactReal(0), r2], [ExactReal(0), r2], (0, 1), r3)
