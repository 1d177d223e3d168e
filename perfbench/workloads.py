"""Seeded inputs and output checks for the four benchmark workloads.

Every job is a list of `deltaspace` CLI calls (argv lists) on JSON files
written here, plus a check of what those calls printed.  The inputs are
built with this file's own exact arithmetic, never with the library, so
set-up cost does not move when the library does, and the checks are
independent of the code they check wherever that is cheap.

A check returns None when the output is right, or (kind, reason) with
kind FAIL or KNOWN_DEFECT.  KNOWN_DEFECT is the one recorded library
defect (see KNOWN_DEFECT_CAUSE); it is counted as a failed job but does
not make the run incorrect, so a later fix shows up as fewer failures.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

FAIL = "fail"
KNOWN_DEFECT = "known-defect"
KNOWN_DEFECT_CAUSE = (
    "check-theory reports clause 2 Violated ('full cut', i, 1) on a genuine "
    "Q(sqrt D) fragment whose max/min ratio is irrational and above 8: "
    "default_sample_q has no sample above that ratio"
)

# Each call result is (exit code, stdout text, stderr text).
Result = tuple[int, str, str]


@dataclass
class Job:
    calls: list[list[str]]
    check: Callable[[list[Result]], Optional[tuple[str, str]]]


# --------------------------------------------------------------------------
# exact numbers a + b*sqrt(d), as plain tuples, in the library's text grammar


def num(a, b=0, d=0):
    a, b = Fraction(a), Fraction(b)
    return (a, b, d if b else 0)


def fmt(x) -> str:
    a, b, d = x
    if not b:
        return f"{a.numerator}/{a.denominator}"
    surd = f"{b.numerator}/{b.denominator}*sqrt({d})"
    return surd if a == 0 else f"{a.numerator}/{a.denominator}+{surd}"


def sign(x) -> int:
    a, b, d = x
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sb == 0 or sa == sb:
        return sa or sb
    if sa == 0:
        return sb
    lhs, rhs = a * a, b * b * d
    return sa * ((lhs > rhs) - (lhs < rhs))


def sub(x, y):
    return num(x[0] - y[0], x[1] - y[1], x[2] or y[2])


def scale(x, r: Fraction):
    return num(x[0] * r, x[1] * r, x[2])


# Exact sort key for numbers of one field.
exact_key = functools.cmp_to_key(lambda x, y: sign(sub(x, y)))


# --------------------------------------------------------------------------
# fragments and spaces

# The three closed saturation fragments.  Each is a positive multiple of a
# fragment of rationals (`units`), which is how the checks compare sums.
FRAGMENTS = {
    "int": ([1, 2, 3], 1),
    "half": ([Fraction(1, 2), 1, Fraction(3, 2), 2], 1),
    "surd": ([1, 2, 3], 2),  # {sqrt2, 2 sqrt2, 3 sqrt2}, cap 3 sqrt2
}


def frag_value(name: str, unit: Fraction) -> str:
    _, root = FRAGMENTS[name]
    return fmt(num(0, unit, root) if root > 1 else num(unit))


def frag_json(name: str) -> dict:
    units, _ = FRAGMENTS[name]
    vals = [frag_value(name, Fraction(u)) for u in units]
    return {"values": vals, "cap": vals[-1], "closed": True}


def random_units_space(rng, name: str, n: int) -> list[list[Fraction]]:
    """An n-point metric over the fragment's units: random edge weights,
    shortest paths, then truncation at the cap (both keep the triangle
    inequality, and sums of units truncated at the cap stay in the
    fragment because it is closed)."""
    units = [Fraction(u) for u in FRAGMENTS[name][0]]
    cap = units[-1]
    w = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        w[i][j] = w[j][i] = rng.choice(units + units[-2:])
    for k in range(n):
        wk = w[k]
        for i in range(n):
            wi, wik = w[i], w[i][k]
            for j in range(n):
                if wik + wk[j] < wi[j]:
                    wi[j] = wik + wk[j]
    return [[min(v, cap) for v in row] for row in w]


def space_json(name: str, units: list[list[Fraction]], order: list[int]) -> dict:
    n = len(units)
    return {
        "labels": [f"p{i}" for i in range(n)],
        "dist": [[fmt(num(0)) if i == j else frag_value(name, units[i][j]) for j in range(n)] for i in range(n)],
        "order": order,
    }


def shuffled(rng, n: int) -> list[int]:
    order = list(range(n))
    rng.shuffle(order)
    return order


class Writer:
    """Writes a job's JSON inputs into the work directory."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def __call__(self, obj) -> str:
        path = os.path.join(self.workdir, f"in{self.count:04d}.json")
        self.count += 1
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path


def _fail(reason: str):
    return (FAIL, reason)


def _parse_out(res: Result):
    try:
        return json.loads(res[1])
    except json.JSONDecodeError:
        return None


# --------------------------------------------------------------------------
# saturate: the write path

SATURATE_POINTS = (10, 12, 14)


def _unit_lookup(name: str) -> dict[str, Fraction]:
    return {frag_value(name, Fraction(u)): Fraction(u) for u in FRAGMENTS[name][0]}


def check_space_extends(name: str, src: dict, out: dict) -> Optional[str]:
    """The saturated space is an ordered metric space over the fragment
    that keeps the input as its first points, in the same relative order.
    The same axioms as space.validate, checked here on the units."""
    lookup = _unit_lookup(name)
    n0, labels, dist, order = len(src["labels"]), out["labels"], out["dist"], out["order"]
    n = len(labels)
    if labels[:n0] != src["labels"] or sorted(order) != list(range(n)):
        return "input points or order not kept"
    if [row[:n0] for row in dist[:n0]] != src["dist"]:
        return "input distances changed"
    if [p for p in order if p < n0] != src["order"]:
        return "input order changed"
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        if len(dist[i]) != n or dist[i][i] != "0/1":
            return f"bad row or diagonal at {i}"
        for j in range(i + 1, n):
            if dist[i][j] != dist[j][i]:
                return f"asymmetric at {i},{j}"
            if dist[i][j] not in lookup:
                return f"distance {dist[i][j]} not in the fragment"
            u[i][j] = u[j][i] = lookup[dist[i][j]]
    for i, j, k in itertools.permutations(range(n), 3):
        if u[i][k] > u[i][j] + u[j][k]:
            return f"triangle violated at {i},{j},{k}"
    return None


def build_saturate(rng, write: Writer, lib) -> list[Job]:
    """Per fragment and start size (2 or 3 points), one job from a seeded
    start space, with the point budgets taken in turn so that each budget
    appears twice.  The budget binds: every job realizes points until it
    reaches it."""
    jobs = []
    for f, name in enumerate(FRAGMENTS):
        frag = write(frag_json(name))
        for s, start in enumerate((2, 3)):
            max_points = SATURATE_POINTS[(2 * f + s) % len(SATURATE_POINTS)]
            src = space_json(name, random_units_space(rng, name, start), shuffled(rng, start))
            argv = ["saturate", "--space", write(src), "--delta", frag, "-k", "2",
                    "--max-points", str(max_points)]
            jobs.append(Job([argv], _saturate_check(name, src, max_points, lib)))
    return jobs


def _saturate_check(name, src, max_points, lib):
    def check(results):
        rc, _, err = results[0]
        out = _parse_out(results[0])
        if out is None:
            return _fail(f"saturate exit {rc}, no JSON output: {err.strip()}")
        sp = out["space"]
        if rc != (0 if out["skipped"] == 0 else 2):
            return _fail(f"saturate exit {rc} with {out['skipped']} skipped")
        if len(sp["labels"]) > max_points:
            return _fail("point budget exceeded")
        bad = check_space_extends(name, src, sp)
        if bad:
            return _fail(f"saturate result: {bad}")
        if rc == 0:
            m = lib.space.Space.from_json(sp)
            d = lib.dvs.DistanceSet.from_json(frag_json(name))
            rep = lib.limitbuilder.extension_property_check(m, d, 2, source_n=len(src["labels"]))
            if not rep.empty:
                return _fail("exit 0 but extensions of the input are missing")
        return None

    return check


# --------------------------------------------------------------------------
# extcheck: the read path over the same layers

EXTCHECK_POINTS = (16, 20, 24)
EXTCHECK_SAMPLE = 12


def _ext_counts(units_frag: list[Fraction], u: list[list[Fraction]]) -> int:
    """Number of (subset, extension) pairs check-extension -k 2 examines."""
    n, vals = len(u), units_frag
    total = 1 + n * len(vals) * 2
    for i, j in itertools.combinations(range(n), 2):
        dij = u[i][j]
        ok = sum(1 for x in vals for y in vals if abs(x - y) <= dij <= x + y)
        total += ok * 3
    return total


def _has_realizer(u, order, lookup, ext) -> bool:
    rank = {p: r for r, p in enumerate(order)}
    subset, dists, slot = ext["subset"], [lookup[v] for v in ext["dists"]], ext["slot"]
    for p in range(len(u)):
        if p in subset:
            continue
        if all(u[p][s] == dv for s, dv in zip(subset, dists)):
            if sum(1 for s in subset if rank[s] < rank[p]) == slot:
                return True
    return False


def build_extcheck(rng, write: Writer, lib) -> list[Job]:
    """Per fragment and size, one seeded ordered space built here (not by
    saturate), checked for the 2-point extension property."""
    jobs = []
    for name in FRAGMENTS:
        frag = write(frag_json(name))
        for n in EXTCHECK_POINTS:
            u = random_units_space(rng, name, n)
            order = shuffled(rng, n)
            argv = ["check-extension", "--space", write(space_json(name, u, order)), "--delta", frag, "-k", "2"]
            sample_seed = rng.randrange(1 << 30)
            jobs.append(Job([argv], _extcheck_check(name, u, order, sample_seed)))
    return jobs


def _extcheck_check(name, u, order, sample_seed):
    def check(results):
        rc, _, err = results[0]
        out = _parse_out(results[0])
        if out is None:
            return _fail(f"check-extension exit {rc}, no JSON output: {err.strip()}")
        unrealized = out["unrealized"]
        if rc != (0 if not unrealized else 1):
            return _fail(f"check-extension exit {rc} with {len(unrealized)} unrealized")
        units = [Fraction(x) for x in FRAGMENTS[name][0]]
        if out["checked"] != _ext_counts(units, u):
            return _fail(f"checked {out['checked']} extensions, expected {_ext_counts(units, u)}")
        lookup = _unit_lookup(name)
        sample = random.Random(sample_seed).sample(unrealized, min(EXTCHECK_SAMPLE, len(unrealized)))
        for ext in sample:
            if _has_realizer(u, order, lookup, ext):
                return _fail(f"reported unrealized extension has a realizer: {ext}")
        return None

    return check


# --------------------------------------------------------------------------
# arrow: the ramsey search

# (n, m, k, a points, holds): K_n -> (K_m) with k colours on the copies
# of K_{a points}, and the known answer.
CLASSICAL = [(6, 3, 2, 2, True), (5, 3, 2, 2, False), (8, 4, 2, 2, False), (9, 4, 2, 2, False)]
PIGEONHOLE = [(n, m, k, 1, n >= k * (m - 1) + 1) for n, m, k in
              ((7, 4, 2), (6, 4, 2), (10, 4, 3), (11, 4, 3), (9, 5, 2), (8, 5, 2))]
# (c points, b points, a points).  With these the job list has an odd
# length, so the median job latency falls inside one job's samples.
RANDOM_ARROW = [(6, 3, 2), (7, 3, 2), (8, 3, 2), (7, 3, 1), (8, 3, 1)]


def _uniform_json(rng, n: int) -> dict:
    one = fmt(num(1))
    return {"labels": [f"p{i}" for i in range(n)],
            "dist": [["0/1" if i == j else one for j in range(n)] for i in range(n)],
            "order": shuffled(rng, n)}


def _induced_json(sp: dict, pts: list[int]) -> dict:
    pts = sorted(pts)
    rank = {p: r for r, p in enumerate(sp["order"])}
    by_rank = sorted(pts, key=rank.__getitem__)
    return {"labels": [sp["labels"][i] for i in pts],
            "dist": [[sp["dist"][i][j] for j in pts] for i in pts],
            "order": [pts.index(i) for i in by_rank]}


def _copies(c: dict, x: dict) -> list[tuple[int, ...]]:
    """Subsets of c whose induced ordered space equals x's, matched by rank."""
    x_by_rank = list(x["order"])
    rank = {p: r for r, p in enumerate(c["order"])}
    out = []
    for subset in itertools.combinations(range(len(c["labels"])), len(x["labels"])):
        s_by_rank = sorted(subset, key=rank.__getitem__)
        if all(c["dist"][s_by_rank[r]][s_by_rank[t]] == x["dist"][x_by_rank[r]][x_by_rank[t]]
               for r in range(len(subset)) for t in range(len(subset))):
            out.append(subset)
    return out


def bad_coloring_ok(c: dict, b: dict, a: dict, k: int, coloring: dict) -> Optional[str]:
    copies_a = _copies(c, a)
    col = {tuple(int(t) for t in key.split(",")): v for key, v in coloring.items()}
    if set(col) != set(copies_a):
        return "coloring does not cover exactly the copies of a"
    if any(v not in range(k) for v in col.values()):
        return "color out of range"
    for bc in _copies(c, b):
        if len({v for t, v in col.items() if set(t) <= set(bc)}) <= 1:
            return f"copy {bc} of b is monochromatic"
    return None


def build_arrow(rng, write: Writer, lib) -> list[Job]:
    """Classical edge 2-colourings and pigeonhole vertex colourings with
    known answers, plus seeded ordered spaces over {1, 2}."""
    jobs = []
    for n, m, k, ap, holds in CLASSICAL + PIGEONHOLE:
        c, b, a = _uniform_json(rng, n), _uniform_json(rng, m), _uniform_json(rng, ap)
        jobs.append(_arrow_job(write, c, b, a, k, holds))
    for n, m, ap in RANDOM_ARROW:
        vals = [fmt(num(1)), fmt(num(2))]
        dist = [["0/1"] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            dist[i][j] = dist[j][i] = rng.choice(vals)
        c = {"labels": [f"p{i}" for i in range(n)], "dist": dist, "order": shuffled(rng, n)}
        bpts = rng.sample(range(n), m)
        b = _induced_json(c, bpts)
        a = _induced_json(b, rng.sample(range(m), ap))
        jobs.append(_arrow_job(write, c, b, a, 2, None))
    return jobs


def _arrow_job(write, c, b, a, k, holds):
    argv = ["check-arrow", "--c", write(c), "--b", write(b), "--a", write(a), "-k", str(k)]

    def check(results):
        rc, _, err = results[0]
        out = _parse_out(results[0])
        if out is None:
            return _fail(f"check-arrow exit {rc}, no JSON output: {err.strip()}")
        status = out["status"]
        if (status, rc) not in (("Holds", 0), ("Fails", 1)):
            return _fail(f"check-arrow {status} with exit {rc}")
        if holds is not None and (status == "Holds") != holds:
            return _fail(f"check-arrow {status}, known answer {'Holds' if holds else 'Fails'}")
        if status == "Fails":
            bad = bad_coloring_ok(c, b, a, k, out["bad_coloring"])
            if bad:
                return _fail(f"bad coloring does not verify: {bad}")
        return None

    return Job([argv], check)


# --------------------------------------------------------------------------
# theory: the coding tables

THEORY_RADICANDS = (2, 3, 5, 1000003)
# Cost grows steeply with size.  Half of each half has size 4, so that the
# median job falls inside one size class rather than between two.
THEORY_SIZES = (3, 3, 4, 4, 4, 4, 5, 6)
THEORY_MAX = num(4)
# Values lie on a fine grid, so that sums and ratios of different values
# rarely coincide.  Coincidences change a fragment's sample size and its
# addition table, and with them the cost of a job: on a grid of 1/8 the
# cost of a round varied about twice as much from seed to seed.
THEORY_GRID = 97
# Which genuine fragments of a round are wide (max/min irrational and
# above 8), aligned with THEORY_SIZES.  Every wide fragment measured
# showed the recorded defect and no other fragment did, so fixing the
# count makes the failures of a round the same on every seed.  Left to chance, a round of
# 8 held 0 to 6 wide fragments, 2.5 on average over 400 seeds; 3 of 8 is
# also the share of the defect first measured (11 of 30).
THEORY_WIDE = (False, False, False, False, True, False, True, True)


def _random_value(rng, d: int):
    """A positive value at most 4 (when the caller's check passes): a
    rational on the grid of 1/THEORY_GRID, or a + b*sqrt(d) with a small
    rational b and a on that grid, chosen to land near a random target."""
    target = Fraction(rng.randrange(1, 4 * THEORY_GRID + 1), THEORY_GRID)
    if d == 0:
        return num(target)
    b = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
    a = Fraction(round((target - b * Fraction(int(d ** 0.5 * 10 ** 6), 10 ** 6)) * THEORY_GRID), THEORY_GRID)
    return num(a, b, d)


def random_fragment(rng, d: int, size: int, wide: Optional[bool] = None) -> list:
    """`size` distinct values in (0, 4], sorted exactly; for d > 0 at least
    one value is irrational.  Unless `wide` is None, max/min is irrational
    and above 8 exactly when `wide` is true."""
    while True:
        vals = {}
        while len(vals) < size:
            x = _random_value(rng, d if rng.random() < 0.75 else 0)
            if sign(x) > 0 and sign(sub(THEORY_MAX, x)) >= 0:
                vals[fmt(x)] = x
        out = sorted(vals.values(), key=exact_key)
        if d == 0 or any(x[1] for x in out):
            if wide is None or wide == irrational_ratio_above(out[-1], out[0], 8):
                return out


def _set_json(vals, cap) -> dict:
    return {"values": [fmt(v) for v in vals], "cap": fmt(cap), "closed": False}


def irrational_ratio_above(x, y, bound: int) -> bool:
    """x/y is irrational and greater than bound (y > 0)."""
    irrational = x[0] * y[1] != x[1] * y[0]
    return irrational and sign(sub(x, scale(y, Fraction(bound)))) > 0


def build_theory(rng, write: Writer, lib) -> list[Job]:
    """Eight rational fragments and two genuine Q(sqrt D) fragments per
    radicand, each half with the sizes in THEORY_SIZES; THEORY_WIDE of the
    genuine ones are wide.  Each job is
    check-theory on the fragment plus check-equiv and triangle-structure
    against a seeded rational rescaling of it."""
    kinds = [(0, size, False) for size in THEORY_SIZES]
    kinds += list(zip(THEORY_RADICANDS * 2, THEORY_SIZES, THEORY_WIDE))
    jobs = []
    for radicand, size, wide in kinds:
        vals = random_fragment(rng, radicand, size, wide)
        r = Fraction(rng.randrange(1, 10), rng.randrange(1, 10))
        d1 = write(_set_json(vals, vals[-1]))
        scaled = [scale(v, r) for v in vals]
        d2 = write(_set_json(scaled, scaled[-1]))
        calls = [["check-theory", "--set", d1],
                 ["check-equiv", "--d1", d1, "--d2", d2],
                 ["triangle-structure", "--set", d1, "--other", d2]]
        jobs.append(Job(calls, _theory_check(vals, r)))
    return jobs


def _theory_check(vals, r):
    genuine = any(v[1] for v in vals)
    known = genuine and irrational_ratio_above(vals[-1], vals[0], 8)

    def check(results):
        outs = [_parse_out(res) for res in results]
        for res, out in zip(results, outs):
            if out is None:
                return _fail(f"exit {res[0]}, no JSON output: {res[2].strip()}")
        (rc_t, _, _), (rc_e, _, _), (rc_s, _, _) = results
        clauses = outs[0]["clauses"]
        violated = sorted(c for c, st in clauses.items() if st["status"] == "Violated")
        if rc_t != (1 if violated else 0):
            return _fail(f"check-theory exit {rc_t} with violated clauses {violated}")
        if rc_e != 0 or outs[1]["witness"] != {"r": fmt(num(r))}:
            return _fail(f"check-equiv exit {rc_e}: {outs[1]}, expected ratio {fmt(num(r))}")
        iso = outs[2]["isomorphism"]
        if rc_s != 0 or iso is None or sorted(iso) != list(range(len(vals))):
            return _fail(f"triangle-structure exit {rc_s}: {iso}")
        if violated:
            w = clauses["2"].get("witness", [])
            if known and violated == ["2"] and w[:1] == ["full cut"] and w[2:] == ["1"]:
                return (KNOWN_DEFECT, f"clause 2 {w} on {[fmt(v) for v in vals]}")
            return _fail(f"clauses {violated} Violated on {[fmt(v) for v in vals]}")
        return None

    return check


JOB_LISTS = {
    "saturate": build_saturate,
    "extcheck": build_extcheck,
    "arrow": build_arrow,
    "theory": build_theory,
}
