"""Equivalence of distance value sets.

Three levels of evidence, from weakest to strongest:
  * triangle_bijection_check: a bijection between two fragments preserving
    the triangle pattern in both directions ("fragment-consistent" only);
  * scaling_witness: an exact multiplicative witness between fragments;
  * gl2_equivalent: the fractional-linear orbit relation on positive
    quadratic irrationals, with an explicit verified matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .dvs import DistanceSet, delta_triangle
from .exact import ExactReal, MixedRadicands


class EquivError(Exception):
    pass


class NotABijection(EquivError):
    pass


class PoleAtAlpha(EquivError):
    pass


@dataclass(frozen=True)
class ScalingWitness:
    ratio: ExactReal
    domain: DistanceSet
    codomain: DistanceSet

    def __post_init__(self):
        if self.ratio.sign() <= 0:
            raise EquivError("ratio must be positive")
        for u, v in zip(self.domain.values, self.codomain.values):
            if v != u * self.ratio:
                raise EquivError("witness does not scale domain onto codomain")

    def pairs(self) -> list[tuple[ExactReal, ExactReal]]:
        return list(zip(self.domain.values, self.codomain.values))


@dataclass(frozen=True)
class RatMatrix:
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        if self.a * self.d - self.b * self.c == 0:
            raise EquivError("matrix must be invertible")

    def to_json(self) -> list[str]:
        return [str(v) for v in (self.a, self.b, self.c, self.d)]


def _check_bijection(d1: DistanceSet, d2: DistanceSet, pairs) -> dict:
    fmap = {}
    seen_targets = set()
    for x, y in pairs:
        if x not in d1 or y not in d2:
            raise NotABijection("pair outside the fragments")
        if x in fmap or y in seen_targets:
            raise NotABijection("repeated source or target")
        fmap[x] = y
        seen_targets.add(y)
    if len(fmap) != len(d1.values) or len(seen_targets) != len(d2.values):
        raise NotABijection("map is not total or not onto")
    return fmap


def triangle_bijection_check(d1: DistanceSet, d2: DistanceSet, pairs) -> bool:
    """Exhaustive O(n^3) check that the bijection preserves the triangle
    pattern in both directions.  Fragment-consistent evidence only: it
    does not certify equivalence of the underlying infinite sets."""
    fmap = _check_bijection(d1, d2, pairs)
    for x, y, z in itertools.combinations_with_replacement(d1.values, 3):
        left = delta_triangle(x, y, z, d1)
        right = delta_triangle(fmap[x], fmap[y], fmap[z], d2)
        if left != right:
            return False
    return True


def scaling_witness(d1: DistanceSet, d2: DistanceSet) -> Optional[ScalingWitness]:
    """The unique candidate ratio min(d2)/min(d1), verified elementwise
    by ScalingWitness itself.

    An order-preserving scaling must map min to min, so no search is
    needed.  Caps must match when both sets are bounded; a boundedness
    mismatch cannot be explained by scaling.  Two empty sets are scaled
    by cap(d2)/cap(d1) when bounded, and by 1 when not.
    """
    if len(d1.values) != len(d2.values) or d1.bounded != d2.bounded:
        return None
    try:
        if d1.values:
            r = d2.values[0] / d1.values[0]
        else:
            r = d2.cap / d1.cap if d1.bounded else ExactReal(1)
        if d1.bounded and d2.cap != d1.cap * r:
            return None
        return ScalingWitness(r, d1, d2)
    except (MixedRadicands, EquivError):
        # the ratio is not representable in either quadratic field, or
        # some value is not r times its partner: no exact scaling witness
        return None


def linearity_check(pairs, d: DistanceSet) -> bool:
    """True iff the map is additive on sums present in the fragment and
    has a constant ratio f(x)/x."""
    fmap = {}
    for x, y in pairs:
        fmap[x] = y
    if any(v not in fmap for v in d.values):
        raise EquivError("map must be total on the fragment")
    ratio = None
    for v in d.values:
        q = fmap[v] / v
        if ratio is None:
            ratio = q
        elif q != ratio:
            return False
    for x, y in itertools.combinations_with_replacement(d.values, 2):
        s = x + y
        if s in d and fmap[s] != fmap[x] + fmap[y]:
            return False
    return True


def gl2_apply(m: RatMatrix, alpha: ExactReal) -> ExactReal:
    """(a*alpha + b) / (c*alpha + d), exactly."""
    den = alpha * m.c + m.d
    if den.is_zero():
        raise PoleAtAlpha(f"c*alpha+d = 0 for {m}")
    return (alpha * m.a + m.b) / den


EQUIVALENT = "Equivalent"
INEQUIVALENT = "Inequivalent"


@dataclass(frozen=True)
class Gl2Verdict:
    status: str
    matrix: Optional[RatMatrix] = None


def gl2_equivalent(alpha: ExactReal, beta: ExactReal) -> Gl2Verdict:
    """Decide orbit equivalence of two positive quadratic irrationals.

    Distinct squarefree radicands put the numbers in different quadratic
    fields, which fractional-linear maps preserve: Inequivalent.  Equal
    radicands admit an explicit upper-triangular witness, verified by
    applying it.
    """
    for x in (alpha, beta):
        if x.is_rational or x.sign() <= 0:
            raise EquivError("arguments must be positive irrational surds")
    if alpha.d != beta.d:
        return Gl2Verdict(INEQUIVALENT)
    # alpha = s + t*sqrt(D), beta = u + v*sqrt(D):  beta = (v/t)*alpha + (u - v*s/t)
    s, t, u, v = alpha.a, alpha.b, beta.a, beta.b
    m = RatMatrix(v / t, u - v * s / t, Fraction(0), Fraction(1))
    if gl2_apply(m, alpha) != beta:
        raise AssertionError("constructed witness failed verification")
    return Gl2Verdict(EQUIVALENT, m)

