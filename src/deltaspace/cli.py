"""Command-line front end.

Every verb reads JSON (files or "-" for stdin) and returns a document
and a verdict.  `main` alone prints the document, one deterministic JSON
document on stdout, and maps the verdict True, False or None to exit 0,
1 or 2; any other verdict is exit 4.  Exit 2 is also a blown budget, 3
bad input or usage, and 4 an internal error, so a crash never reads as
a verdict.  All numbers use the bit-exact text grammar of the exact module.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction

from . import amalgam, coding, dvs, equiv, limitbuilder, ramsey, recheck, space
from .exact import ExactError, parse
from .search import BudgetExceeded

EXIT_YES, EXIT_NO, EXIT_UNKNOWN, EXIT_INPUT, EXIT_INTERNAL = 0, 1, 2, 3, 4
_EXIT = {True: EXIT_YES, False: EXIT_NO, None: EXIT_UNKNOWN}  # a verdict's exit code


class InputError(Exception):
    """Bad input, named with the file or flag it came from."""


# What main reports as bad input (exit 3): InputError and the library's
# named errors.  Anything else a verb raises is a bug (exit 4).
INPUT_ERRORS = (InputError, ExactError, dvs.DvsError, space.SpaceError, amalgam.AmalgamError,
                equiv.EquivError, ramsey.RamseyError, coding.CodingError, limitbuilder.BuilderError)


def _load(path: str, from_json, kind=dict):
    """from_json of a JSON file, or of stdin for "-", whose top level is
    an object (a set, space or code) or, for kind=list, a list.  A file
    that cannot be read or decoded, a top level of another type and a
    named error while loading are bad input, named with the path."""
    try:
        if path == "-":
            obj = json.load(sys.stdin)
        else:
            with open(path) as fh:
                obj = json.load(fh)
    except OSError as exc:  # missing, a directory or unreadable
        raise InputError(f"{path}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
        raise InputError(f"{path}: {exc}") from None
    if not isinstance(obj, kind):
        raise InputError(f"{path}: expected a JSON {'object' if kind is dict else 'list'}")
    try:
        return from_json(obj)
    except INPUT_ERRORS as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_set(path: str) -> dvs.DistanceSet:
    return _load(path, dvs.DistanceSet.from_json)


def _load_valid_space(path: str, delta=None) -> space.Space:
    """An input space bound to delta, if given, and valid over its
    fragment: the object validate ran on, with the value ids it built."""
    x = _load(path, space.Space.from_json)
    x = x if delta is None else x.with_delta(delta)
    verdict = space.validate(x)
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
    return _load(path, coding.DvsCode.from_json)


def _bijection(pairs: list) -> list:
    """The value pairs of a bijection file: a JSON list of [x, y] lists."""
    if not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise InputError("a bijection is a JSON list of [x, y] pairs")
    return [(parse(a), parse(b)) for a, b in pairs]


def _number(flag: str, text: str):
    """A number flag's value, in the exact grammar."""
    try:
        return parse(text)
    except ExactError as exc:
        raise InputError(f"{flag}: {exc}") from None


def _index(flag: str, i: int, n: int) -> int:
    """i, if it names one of n points."""
    if not 0 <= i < n:
        raise InputError(f"{flag}: point index {i} out of range for {n} points")
    return i


def _non_negative(text: str) -> int:
    """A count, size or budget flag: a non-negative int.  A negative one
    is a usage error, not a check of nothing or an exhausted budget."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, not {value}")
    return value


def _parse_pairs(flag: str, text: str, left: int, right: int) -> list[tuple[int, int]]:
    """i:j pairs with 0 <= i < left and 0 <= j < right."""
    out = []
    for part in text.split(","):
        try:
            i, j = map(int, part.split(":"))
        except ValueError:
            raise InputError(f"{flag}: expected i:j pairs of point indices, not {part!r}") from None
        out.append((_index(flag, i, left), _index(flag, j, right)))
    return out


def _clauses(report: dict, **extra) -> tuple[dict, bool]:
    """The {"clauses": ..} document of a clause report, with extra keys,
    and its verdict: no clause is Violated."""
    clauses = {}
    for key, st in report.items():
        clauses[key] = {"status": st.status}
        if st.witness is not None:
            clauses[key]["witness"] = [str(w) for w in st.witness]
    return {"clauses": clauses, **extra}, all(st.status != coding.VIOLATED for st in report.values())


def cmd_gen_dvs(args):
    d = dvs.gen_delta_alpha(_number("--alpha", args.alpha), args.height, _number("--bound", args.bound))
    return d.to_json(), True


def cmd_close(args):
    return dvs.close(_load_set(args.set), _number("--bound", args.bound), args.budget).to_json(), True


def cmd_check_triangle(args):
    d = _load_set(args.delta)
    terms = args.triple.split(",")
    if len(terms) != 3:
        raise InputError(f"--triple: expected three numbers x,y,z, not {args.triple!r}")
    ok = dvs.delta_triangle(*(_number("--triple", t) for t in terms), d)
    return {"triangle": ok}, ok


def cmd_check_equiv(args):
    d1, d2 = _load_set(args.d1), _load_set(args.d2)
    if args.bijection:
        ok = equiv.triangle_bijection_check(d1, d2, _load(args.bijection, _bijection, list))
        return {"fragment_consistent": ok}, ok
    w = equiv.scaling_witness(d1, d2)
    return {"witness": None if w is None else {"r": str(w.ratio)}}, w is not None


def cmd_gl2(args):
    verdict = equiv.gl2_equivalent(_number("--alpha", args.alpha), _number("--beta", args.beta))
    out = {"status": verdict.status}
    if verdict.matrix is not None:
        out["matrix"] = verdict.matrix.to_json()
    return out, verdict.status == equiv.EQUIVALENT


def cmd_amalgamate(args):
    b, c = _load_valid_space(args.b), _load_valid_space(args.c)
    overlap = _parse_pairs("--overlap", args.overlap, b.n, c.n) if args.overlap else []
    return amalgam.free_amalgam(b, c, overlap).to_json(), True


def cmd_saturate(args):
    d = _load_set(args.delta)
    m = _load_ordered_space(args.space, d)
    result, report = limitbuilder.saturate(m, d, args.k, args.max_points, args.max_pairs)
    return {
        "space": result.to_json(),
        "checked": report.checked,
        "skipped": report.missing,
    }, True if report.empty else None


def cmd_check_extension(args):
    d = _load_set(args.delta)
    m = _load_ordered_space(args.space, d)
    report = limitbuilder.extension_property_check(m, d, args.k, args.max_pairs)
    if report.groups:  # exit 1: the first unrealized extension, re-checked by a scan of m
        subset, codes = report.groups[0]
        vec, slots = report.decode(len(subset), codes[0])
        recheck.check_unrealized(m, subset, [report.values[t] for t in vec], slots[0])
    return _extension_report_json(report), report.empty


def _extension_report_json(report: limitbuilder.ExtensionReport) -> str:
    """json.dumps(..., sort_keys=True) of {"checked": .., "unrealized":
    [{"dists": [..], "slot": .., "subset": [..]}, ..]}, assembled from
    text fragments: the heads of a code's entries, each up to its slot,
    made once per distinct (subset size, code), and an entry's tail once
    per subset.  A subset's text is one join of its codes' heads with
    the tail between them."""
    text = [json.dumps(str(v)) for v in report.values]
    by_size, out = {}, []  # by_size[size][code]: the heads of the code's entries
    for subset, codes in report.groups:
        size = len(subset)
        known, heads = by_size.setdefault(size, {}), []
        for code in codes:
            head = known.get(code)
            if head is None:
                vec, slots = report.decode(size, code)
                dists = f'{{"dists": [{", ".join([text[t] for t in vec])}], "slot": '
                head = known[code] = [f"{dists}{slot}" for slot in slots]
            heads += head
        tail = f', "subset": [{", ".join(map(str, subset))}]}}'
        out.append(f"{f'{tail}, '.join(heads)}{tail}")
    return f'{{"checked": {report.checked}, "unrealized": [{", ".join(out)}]}}'


def cmd_perturb(args):
    d = _load_set(args.delta)
    m = _load_ordered_space(args.space, d)
    pairs = _parse_pairs("--pairs", args.pairs, m.n, m.n)
    out, images = limitbuilder.density_perturb(m, pairs, _number("--eps", args.eps), d, args.max_points)
    return {"space": out.to_json(), "images": images}, True


def cmd_extend_isometry(args):
    m = _load_ordered_space(args.space)
    p = space.PartialIsometry(m, tuple(_parse_pairs("--pairs", args.pairs, m.n, m.n)))
    out, p2 = limitbuilder.extend_partial_isometry(m, p, _index("--point", args.point, m.n), args.max_points)
    return {"space": out.to_json(), "pairs": [list(t) for t in p2.pairs]}, True


def cmd_check_arrow(args):
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
    return out, {ramsey.HOLDS: True, ramsey.FAILS: False}.get(verdict.status)  # else Unknown


def cmd_check_rigid(args):
    rigid = ramsey.is_rigid(_load_valid_space(args.space))
    return {"rigid": rigid}, rigid


def cmd_encode_code(args):
    return coding.encode_dvs(_load_set(args.set)).to_json(), True


def cmd_check_code(args):
    return _clauses(coding.validate_code(_load_code(args.code)), note=coding.PREFIX_SEMANTICS)


def cmd_check_sim(args):
    c1, c2 = _load_code(args.c1), _load_code(args.c2)
    res = coding.sim_check(c1, c2)
    if res is not None:  # re-checked on the two prefixes alone
        recheck.check_similarity(c1.prefix, c2.prefix, *res)
    sim = None if res is None else {"permutation": list(res[0]), "r": str(res[1])}
    return {"sim": sim, "note": coding.PREFIX_SEMANTICS}, res is not None


def cmd_check_approx(args):
    g = coding.approx_check(_load_code(args.c1), _load_code(args.c2))
    approx = None if g is None else {"permutation": list(g)}
    return {"approx": approx, "note": coding.PREFIX_SEMANTICS}, g is not None


def cmd_triangle_structure(args):
    s = coding.triangle_structure(_load_set(args.set))
    if args.other:
        m = coding.ts_isomorphic(s, coding.triangle_structure(_load_set(args.other)))
        return {"isomorphism": list(m) if m is not None else None}, m is not None
    return {
        "universe": [str(v) for v in s.universe],
        "relation": [list(t) for t in s.ordered_triples()],
    }, True


# The exponent of a decimal term such as "1e5000", as Fraction reads it.
_EXPONENT = re.compile(r"[eE][-+]?([0-9_]+)\s*$")


def _exponent_past_limit(term: str) -> bool:
    """True when term's exponent alone puts its value past the str()
    digit limit (Python 3.11+).  Fraction(term) builds 10 ** exponent
    first, which takes time and memory that grow faster than the
    exponent, and the str() check after it would refuse the result.
    The rest of the term has at most len(term) digits, and cancels at
    most that many from the power's, so past limit + 2 * len(term) the
    numerator or the denominator is too long to print; a zero value is
    refused as non-positive anyway."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    m = _EXPONENT.search(term)
    if not limit or m is None:
        return False
    digits = m[1].replace("_", "").lstrip("0")
    bound = limit + 2 * len(term)
    return len(digits) > len(str(bound)) or int(digits or 0) > bound


def _sample_from_arg(text):
    if text is None:
        return None
    sample = []
    for term in text.split(","):
        if _exponent_past_limit(term):
            raise InputError(f"--sample: Exceeds the limit ({sys.get_int_max_str_digits()} digits) "
                             f"for integer string conversion: the exponent of {term!r}")
        try:
            sample.append(Fraction(term))
            str(sample[-1])  # a witness prints it: "1e5000" has more digits than str() gives on 3.11+
        except ZeroDivisionError:
            raise InputError(f"--sample: {term!r} has a zero denominator") from None
        except ValueError as exc:
            raise InputError(f"--sample: {exc}") from None
    return sample


def cmd_encode_model(args):
    return coding.model_encode(_load_set(args.set), _sample_from_arg(args.sample)).to_json(), True


def cmd_check_theory(args):
    m = coding.model_encode(_load_set(args.set), _sample_from_arg(args.sample), args.budget)
    report = coding.check_theory_T(m, args.budget)
    if report["4"].status == coding.VIOLATED:  # re-checked on the cut tables alone
        recheck.check_product_cut(m.rq, report["4"].witness)
    if report["7"].status == coding.SATISFIED:
        recheck.check_small_ratio(m.universe, m.rq, report["7"].witness)
    return _clauses(report)


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


def _past_digit_limit(exc: Exception) -> bool:
    """True for the ValueError Python 3.11+ raises on an int past its
    str() digit limit.  Input numbers are held below it where they are
    parsed, but an answer can hold a sum or product of them: too long to
    print, which is a blown budget, not a fault."""
    limit = getattr(sys, "get_int_max_str_digits", None)
    return (limit is not None and isinstance(exc, ValueError)
            and str(exc).startswith(f"Exceeds the limit ({limit()} digits)"))


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # --help
            raise
        return EXIT_INPUT  # argparse has printed the usage error
    try:
        document, verdict = args.fn(args)
        if verdict is not None and type(verdict) is not bool:  # 1 == True, and 1 would read as a verdict
            raise AssertionError(f"{args.verb}: verdict {verdict!r} is not True, False or None")
        # a str is JSON text that the verb assembled itself (check-extension)
        print(document if isinstance(document, str) else json.dumps(document, sort_keys=True))
        return _EXIT[verdict]
    except BudgetExceeded as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        if _past_digit_limit(exc):
            print(f"budget: {exc}", file=sys.stderr)
            return EXIT_UNKNOWN
        print(f"internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
