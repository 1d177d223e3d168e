"""Finite fragments of distance value sets.

A DistanceSet is a sorted finite fragment of a (possibly infinite) set of
positive reals closed under the truncated sum min(x+y, cap).  Unbounded
fragments use the horizon rule: a sum beyond the largest stored value is
not a closure violation, because the fragment cannot see that far.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import ExactReal, parse
from .search import BudgetExceeded


class DvsError(Exception):
    pass


@dataclass(frozen=True)
class FirstViolation:
    x: ExactReal
    y: ExactReal


CLOSED = "closed"


@dataclass(frozen=True)
class DistanceSet:
    values: tuple[ExactReal, ...]
    cap: Optional[ExactReal] = None  # None means unbounded

    def __post_init__(self):
        for v in self.values:
            if not v.sign() > 0:
                raise DvsError(f"non-positive distance value {v}")
        for u, v in zip(self.values, self.values[1:]):
            if not u < v:
                raise DvsError("values must be strictly increasing")
        if self.cap is not None:
            if self.cap.sign() <= 0:
                raise DvsError("cap must be positive")
            if self.values and self.values[-1] > self.cap:
                raise DvsError("values exceed cap")

    @property
    def bounded(self) -> bool:
        return self.cap is not None

    @functools.cached_property
    def closed(self) -> bool:
        """Closed under the truncated sum, derived from the values."""
        return validate_closure(self) == CLOSED

    @functools.cached_property
    def _members(self) -> frozenset:
        return frozenset(self.values)

    def __contains__(self, x) -> bool:
        if isinstance(x, (int, Fraction)):
            x = ExactReal(x)
        return x in self._members

    def max(self) -> ExactReal:
        return self.values[-1]

    def to_json(self) -> dict:
        return {
            "values": [str(v) for v in self.values],
            "cap": str(self.cap) if self.bounded else "unbounded",
            "closed": self.closed,
        }

    @staticmethod
    def from_json(obj: dict) -> "DistanceSet":
        """Parse a set: an object whose values are a list of number strings
        and whose cap is a number string or "unbounded"."""
        if not isinstance(obj, dict):
            raise DvsError(f"a distance set is a JSON object, not {obj!r}")
        for key in ("values", "cap"):
            if key not in obj:
                raise DvsError(f"a distance set needs {key}")
        values = obj["values"]
        if not isinstance(values, list):
            raise DvsError(f"values must be a list of number strings, not {values!r}")
        cap = None if obj["cap"] == "unbounded" else parse(obj["cap"])
        return DistanceSet(tuple(parse(v) for v in values), cap)


def make_set(values, cap=None) -> DistanceSet:
    """Build a DistanceSet from an unsorted iterable, deduplicating."""
    return DistanceSet(tuple(sorted(set(values))), cap)


def validate_closure(s: DistanceSet):
    """CLOSED, or the first (x, y) pair whose truncated sum is missing.

    Bounded: min(x+y, cap) must be present for every pair.  Unbounded:
    only sums at or below the fragment's largest value are demanded.
    """
    values = s.values
    for i, x in enumerate(values):
        for y in values[i:]:
            t = x + y
            if s.bounded and t > s.cap:
                t = s.cap
            if not s.bounded and values and t > values[-1]:
                continue  # beyond the fragment horizon
            if t not in s:
                return FirstViolation(x, y)
    return CLOSED


def close(s: DistanceSet, bound: ExactReal, max_size: int = 4096) -> DistanceSet:
    """Least superset of s closed under the truncated sum, within (0, bound]."""
    if s.values and bound < s.max():
        raise DvsError("bound below the largest value")
    if s.bounded and s.cap != bound:
        raise DvsError("bound must equal the cap of a bounded set")
    vals = set(s.values)
    frontier = set(s.values)
    while frontier:
        new = set()
        for x, y in itertools.product(frontier, vals | frontier):
            t = x + y
            if s.bounded and t > s.cap:
                t = s.cap
            if t <= bound and t not in vals and t not in frontier and t not in new:
                new.add(t)
        vals |= frontier
        frontier = new
        if len(vals) + len(new) > max_size:
            raise BudgetExceeded(f"closure exceeds {max_size} values")
    return make_set(vals, s.cap)


def delta_triangle(x: ExactReal, y: ExactReal, z: ExactReal, s: DistanceSet) -> bool:
    """True iff x, y, z all lie in s and |x-y| <= z <= x+y."""
    if x not in s or y not in s or z not in s:
        return False
    return abs(x - y) <= z and z <= x + y


def _fractions_of_height(h: int):
    """All reduced fractions p/q with |p| <= h, 1 <= q <= h, in
    lexicographic (denominator, numerator) order."""
    for q in range(1, h + 1):
        for p in range(-h, h + 1):
            f = Fraction(p, q)
            if f.denominator == q and abs(f.numerator) == abs(p):
                yield f


def gen_delta_alpha(alpha: ExactReal, height: int, bound: ExactReal) -> DistanceSet:
    """The fragment of {p*alpha + q : p, q rational} in (0, bound] with
    numerators and denominators of p, q bounded by height."""
    if alpha.is_rational or alpha.sign() <= 0:
        raise DvsError("alpha must be a positive irrational surd")
    if bound.sign() <= 0:
        raise DvsError("bound must be positive")
    seen: dict[ExactReal, tuple[Fraction, Fraction]] = {}
    for p in _fractions_of_height(height):
        for q in _fractions_of_height(height):
            v = alpha * p + q
            if v.sign() > 0 and v <= bound:
                if v in seen and seen[v] != (p, q):
                    # p*alpha+q determines (p, q) for irrational alpha
                    raise AssertionError(f"duplicate representation of {v}")
                seen[v] = (p, q)
    return make_set(seen.keys(), cap=bound)


def scale(s: DistanceSet, r: ExactReal) -> DistanceSet:
    """Multiply every value (and the cap) by r > 0; closure is preserved."""
    if r.sign() <= 0:
        raise DvsError("scale factor must be positive")
    return DistanceSet(tuple(v * r for v in s.values), s.cap * r if s.bounded else None)
