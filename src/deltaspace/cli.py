"""Command-line front end.

Every verb reads JSON (files or "-" for stdin), writes one deterministic
JSON document to stdout, and exits 0 on a definitive affirmative verdict,
1 on a definitive negative, 2 on Unknown or a blown budget, 3 on bad
input or usage, and 4 on an internal error, so a crash never reads as a
verdict.  All numbers use the bit-exact text grammar of the exact module.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import amalgam, coding, dvs, equiv, limitbuilder, ramsey, space
from .exact import ExactError, parse
from .search import BudgetExceeded

EXIT_YES, EXIT_NO, EXIT_UNKNOWN, EXIT_INPUT, EXIT_INTERNAL = 0, 1, 2, 3, 4


def _read_json(path: str, kind=dict):
    """A JSON file, or stdin for "-", whose top level is an object (a
    set, space or code) or, for kind=list, a list."""
    if path == "-":
        obj = json.load(sys.stdin)
    else:
        try:
            with open(path) as fh:
                obj = json.load(fh)
        except OSError as exc:  # missing, a directory or unreadable: bad input, not a crash
            raise ValueError(f"{path}: {exc.strerror}") from None
    if not isinstance(obj, kind):
        raise ValueError(f"{path}: expected a JSON {'object' if kind is dict else 'list'}")
    return obj


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _load_set(path: str) -> dvs.DistanceSet:
    return dvs.DistanceSet.from_json(_read_json(path))


def _load_valid_space(path: str, delta=None) -> space.Space:
    """An input space, validated over delta, else over its own fragment."""
    x = space.Space.from_json(_read_json(path))
    verdict = space.validate(x if delta is None else x.with_delta(delta))
    if verdict != space.OK:
        raise space.SpaceError(f"{path}: not a valid space: {verdict}")
    return x


def _load_ordered_space(path: str, delta=None) -> space.Space:
    """A valid input space for the constructions, which need an order."""
    x = _load_valid_space(path, delta)
    if x.order is None:
        raise space.SpaceError(f"{path}: the space must be ordered")
    return x


def _load_code(path: str) -> coding.DvsCode:
    return coding.DvsCode.from_json(_read_json(path))


def _load_bijection(path: str) -> list:
    """The value pairs of a bijection file: a JSON list of [x, y] lists."""
    pairs = _read_json(path, list)
    if not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise ValueError(f"{path}: a bijection is a JSON list of [x, y] pairs")
    return [(parse(a), parse(b)) for a, b in pairs]


def _index(i: int, n: int) -> int:
    """i, if it names one of n points."""
    if not 0 <= i < n:
        raise ValueError(f"point index {i} out of range for {n} points")
    return i


def _non_negative(text: str) -> int:
    """A count, size or budget flag: a non-negative int.  A negative one
    is a usage error, not a check of nothing or an exhausted budget."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, not {value}")
    return value


def _parse_pairs(text: str, left: int, right: int) -> list[tuple[int, int]]:
    """i:j pairs with 0 <= i < left and 0 <= j < right."""
    out = []
    for part in text.split(","):
        i, j = part.split(":")
        out.append((_index(int(i), left), _index(int(j), right)))
    return out


def _clause_json(report: dict) -> dict:
    out = {}
    for key, st in report.items():
        entry = {"status": st.status}
        if st.witness is not None:
            entry["witness"] = [str(w) for w in st.witness]
        out[key] = entry
    return out


def cmd_gen_dvs(args) -> int:
    d = dvs.gen_delta_alpha(parse(args.alpha), args.height, parse(args.bound))
    _emit(d.to_json())
    return EXIT_YES


def cmd_close(args) -> int:
    d = dvs.close(_load_set(args.set), parse(args.bound), args.budget)
    _emit(d.to_json())
    return EXIT_YES


def cmd_check_triangle(args) -> int:
    d = _load_set(args.delta)
    x, y, z = (parse(t) for t in args.triple.split(","))
    ok = dvs.delta_triangle(x, y, z, d)
    _emit({"triangle": ok})
    return EXIT_YES if ok else EXIT_NO


def cmd_check_equiv(args) -> int:
    d1, d2 = _load_set(args.d1), _load_set(args.d2)
    if args.bijection:
        ok = equiv.triangle_bijection_check(d1, d2, _load_bijection(args.bijection))
        _emit({"fragment_consistent": ok})
        return EXIT_YES if ok else EXIT_NO
    w = equiv.scaling_witness(d1, d2)
    if w is None:
        _emit({"witness": None})
        return EXIT_NO
    _emit({"witness": {"r": str(w.ratio)}})
    return EXIT_YES


def cmd_gl2(args) -> int:
    verdict = equiv.gl2_equivalent(parse(args.alpha), parse(args.beta))
    out = {"status": verdict.status}
    if verdict.matrix is not None:
        out["matrix"] = verdict.matrix.to_json()
    _emit(out)
    return EXIT_YES if verdict.status == equiv.EQUIVALENT else EXIT_NO


def cmd_amalgamate(args) -> int:
    b, c = _load_valid_space(args.b), _load_valid_space(args.c)
    overlap = _parse_pairs(args.overlap, b.n, c.n) if args.overlap else []
    out = amalgam.free_amalgam(b, c, overlap)
    _emit(out.to_json())
    return EXIT_YES


def cmd_saturate(args) -> int:
    d = _load_set(args.delta)
    m = _load_ordered_space(args.space, d)
    result, report = limitbuilder.saturate(m, d, args.k, args.max_points, args.max_pairs)
    _emit(
        {
            "space": result.to_json(),
            "checked": report.checked,
            "skipped": sum(len(slots) for _, _, slots in report.groups),
        }
    )
    return EXIT_YES if report.empty else EXIT_UNKNOWN


def cmd_check_extension(args) -> int:
    d = _load_set(args.delta)
    m = _load_ordered_space(args.space, d)
    report = limitbuilder.extension_property_check(m, d, args.k, args.max_pairs)
    print(_extension_report_json(report))
    return EXIT_YES if report.empty else EXIT_NO


def _extension_report_json(report: limitbuilder.ExtensionReport) -> str:
    """json.dumps(..., sort_keys=True) of {"checked": .., "unrealized":
    [{"dists": [..], "slot": .., "subset": [..]}, ..]}, assembled from
    text fragments: the heads of a group's entries, each up to its slot,
    made once per distinct (id vector, slots), and an entry's tail once
    per subset.  A group's text is one join of its heads with the tail
    between them."""
    text = [json.dumps(str(v)) for v in report.values]
    heads, groups, last = {}, [], None
    for subset, vec, slots in report.groups:
        if subset is not last:  # a subset's groups are consecutive
            last = subset
            tail = f', "subset": [{", ".join(map(str, subset))}]}}'
            sep = f"{tail}, "
        key = (vec, slots)
        head = heads.get(key)
        if head is None:
            dists = f'{{"dists": [{", ".join([text[t] for t in vec])}], "slot": '
            head = heads[key] = [f"{dists}{slot}" for slot in slots]
        groups.append(f"{sep.join(head)}{tail}")
    return f'{{"checked": {report.checked}, "unrealized": [{", ".join(groups)}]}}'


def cmd_perturb(args) -> int:
    d = _load_set(args.delta)
    m = _load_ordered_space(args.space, d)
    pairs = _parse_pairs(args.pairs, m.n, m.n)
    out, images = limitbuilder.density_perturb(m, pairs, parse(args.eps), d, args.max_points)
    _emit({"space": out.to_json(), "images": images})
    return EXIT_YES


def cmd_extend_isometry(args) -> int:
    m = _load_ordered_space(args.space)
    p = space.PartialIsometry(m, tuple(_parse_pairs(args.pairs, m.n, m.n)))
    out, p2 = limitbuilder.extend_partial_isometry(m, p, _index(args.point, m.n), args.max_points)
    _emit({"space": out.to_json(), "pairs": [list(t) for t in p2.pairs]})
    return EXIT_YES


def cmd_check_arrow(args) -> int:
    c, b, a = _load_valid_space(args.c), _load_valid_space(args.b), _load_valid_space(args.a)
    verdict = ramsey.arrow(c, b, a, args.k, args.budget)
    out = {
        "status": verdict.status,
        "copies_a": verdict.copies_a,
        "copies_b": verdict.copies_b,
        "nodes": verdict.nodes,
    }
    if verdict.bad_coloring is not None:
        out["bad_coloring"] = {",".join(map(str, t)): col for t, col in sorted(verdict.bad_coloring.items())}
    _emit(out)
    if verdict.status == ramsey.HOLDS:
        return EXIT_YES
    if verdict.status == ramsey.FAILS:
        return EXIT_NO
    return EXIT_UNKNOWN


def cmd_check_rigid(args) -> int:
    x = _load_valid_space(args.space)
    rigid = ramsey.is_rigid(x)
    _emit({"rigid": rigid})
    return EXIT_YES if rigid else EXIT_NO


def cmd_encode_code(args) -> int:
    d = _load_set(args.set)
    _emit(coding.encode_dvs(d).to_json())
    return EXIT_YES


def cmd_check_code(args) -> int:
    report = coding.validate_code(_load_code(args.code))
    _emit({"clauses": _clause_json(report), "note": coding.PREFIX_SEMANTICS})
    bad = any(st.status == coding.VIOLATED for st in report.values())
    return EXIT_NO if bad else EXIT_YES


def cmd_check_sim(args) -> int:
    res = coding.sim_check(_load_code(args.c1), _load_code(args.c2))
    if res is None:
        _emit({"sim": None, "note": coding.PREFIX_SEMANTICS})
        return EXIT_NO
    g, r = res
    _emit({"sim": {"permutation": list(g), "r": str(r)}, "note": coding.PREFIX_SEMANTICS})
    return EXIT_YES


def cmd_check_approx(args) -> int:
    g = coding.approx_check(_load_code(args.c1), _load_code(args.c2))
    if g is None:
        _emit({"approx": None, "note": coding.PREFIX_SEMANTICS})
        return EXIT_NO
    _emit({"approx": {"permutation": list(g)}, "note": coding.PREFIX_SEMANTICS})
    return EXIT_YES


def cmd_triangle_structure(args) -> int:
    s = coding.triangle_structure(_load_set(args.set))
    if args.other:
        t = coding.triangle_structure(_load_set(args.other))
        m = coding.ts_isomorphic(s, t)
        _emit({"isomorphism": list(m) if m is not None else None})
        return EXIT_YES if m is not None else EXIT_NO
    _emit(
        {
            "universe": [str(v) for v in s.universe],
            "relation": sorted(list(t) for t in s.relation),
        }
    )
    return EXIT_YES


def _sample_from_arg(text):
    if text is None:
        return None
    sample = []
    for term in text.split(","):
        try:
            sample.append(Fraction(term))
        except ZeroDivisionError:
            raise ValueError(f"--sample: {term!r} has a zero denominator") from None
    return sample


def cmd_encode_model(args) -> int:
    m = coding.model_encode(_load_set(args.set), _sample_from_arg(args.sample))
    _emit(m.to_json())
    return EXIT_YES


def cmd_check_theory(args) -> int:
    m = coding.model_encode(_load_set(args.set), _sample_from_arg(args.sample), args.budget)
    report = coding.check_theory_T(m, args.budget)
    _emit({"clauses": _clause_json(report)})
    bad = any(st.status == coding.VIOLATED for st in report.values())
    return EXIT_NO if bad else EXIT_YES


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs
    about forty times as much as one parse."""
    ap = argparse.ArgumentParser(prog="deltaspace")
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen-dvs", help="generate a surd-shift fragment")
    p.add_argument("--alpha", required=True)
    p.add_argument("--height", type=_non_negative, required=True)
    p.add_argument("--bound", required=True)
    p.set_defaults(fn=cmd_gen_dvs)

    p = sub.add_parser("close", help="close a fragment under truncated sums")
    p.add_argument("--set", required=True)
    p.add_argument("--bound", required=True)
    p.add_argument("--budget", type=_non_negative, default=4096)
    p.set_defaults(fn=cmd_close)

    p = sub.add_parser("check-triangle")
    p.add_argument("--delta", required=True)
    p.add_argument("--triple", required=True, help="x,y,z in exact grammar")
    p.set_defaults(fn=cmd_check_triangle)

    p = sub.add_parser("check-equiv")
    p.add_argument("--d1", required=True)
    p.add_argument("--d2", required=True)
    p.add_argument("--bijection", help="JSON list of [x, y] value pairs")
    p.set_defaults(fn=cmd_check_equiv)

    p = sub.add_parser("gl2")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.set_defaults(fn=cmd_gl2)

    p = sub.add_parser("amalgamate")
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--overlap", default="", help="i:j pairs, comma separated")
    p.set_defaults(fn=cmd_amalgamate)

    p = sub.add_parser("saturate")
    p.add_argument("--space", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("-k", type=_non_negative, required=True)
    p.add_argument("--max-points", type=_non_negative, default=64)
    p.add_argument("--max-pairs", type=_non_negative, default=1000000)
    p.set_defaults(fn=cmd_saturate)

    p = sub.add_parser("check-extension")
    p.add_argument("--space", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("-k", type=_non_negative, required=True)
    p.add_argument("--max-pairs", type=_non_negative, default=1000000)
    p.set_defaults(fn=cmd_check_extension)

    p = sub.add_parser("perturb")
    p.add_argument("--space", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--pairs", required=True, help="source:image index pairs")
    p.add_argument("--eps", required=True)
    p.add_argument("--max-points", type=_non_negative, default=64)
    p.set_defaults(fn=cmd_perturb)

    p = sub.add_parser("extend-isometry")
    p.add_argument("--space", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--point", type=int, required=True)
    p.add_argument("--max-points", type=_non_negative, default=64)
    p.set_defaults(fn=cmd_extend_isometry)

    p = sub.add_parser("check-arrow")
    p.add_argument("--c", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("-k", type=_non_negative, required=True)
    p.add_argument("--budget", type=_non_negative, default=10 ** 7)
    p.set_defaults(fn=cmd_check_arrow)

    p = sub.add_parser("check-rigid")
    p.add_argument("--space", required=True)
    p.set_defaults(fn=cmd_check_rigid)

    p = sub.add_parser("encode-code")
    p.add_argument("--set", required=True)
    p.set_defaults(fn=cmd_encode_code)

    p = sub.add_parser("check-code")
    p.add_argument("--code", required=True)
    p.set_defaults(fn=cmd_check_code)

    p = sub.add_parser("check-sim")
    p.add_argument("--c1", required=True)
    p.add_argument("--c2", required=True)
    p.set_defaults(fn=cmd_check_sim)

    p = sub.add_parser("check-approx")
    p.add_argument("--c1", required=True)
    p.add_argument("--c2", required=True)
    p.set_defaults(fn=cmd_check_approx)

    p = sub.add_parser("triangle-structure")
    p.add_argument("--set", required=True)
    p.add_argument("--other", help="second fragment: check isomorphism instead")
    p.set_defaults(fn=cmd_triangle_structure)

    p = sub.add_parser("encode-model")
    p.add_argument("--set", required=True)
    p.add_argument("--sample", help="comma-separated positive rationals")
    p.set_defaults(fn=cmd_encode_model)

    p = sub.add_parser("check-theory")
    p.add_argument("--set", required=True)
    p.add_argument("--sample", help="comma-separated positive rationals")
    p.add_argument("--budget", type=_non_negative, default=coding.THEORY_BUDGET,
                   help="table steps, for the encoding and again for the check")
    p.set_defaults(fn=cmd_check_theory)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help
            raise
        return EXIT_INPUT  # argparse has printed the usage error
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except (ExactError, dvs.DvsError, space.SpaceError, amalgam.AmalgamError,
            equiv.EquivError, ramsey.RamseyError, coding.CodingError,
            limitbuilder.BuilderError,
            json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
