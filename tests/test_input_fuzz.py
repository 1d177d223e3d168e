"""Mutated input for every verb.  Each call starts from one valid input
set per verb and makes one mutation: in one JSON file (drop a key, put a
value of another JSON type or a junk number string in a value's place,
drop or append a list item, or cut the file short), or in one flag value.
Bad input must exit 3 with one named error line and empty stdout; it
never exits 4, which is kept for bugs.

`mutated_call(draw, tmpdir)` makes one such call from a `draw(sequence)`
that picks one element, so the same cases can also be drawn with a
seeded `random.Random(seed).choice`, to count outcomes over thousands
of calls."""

import contextlib
import copy
import io
import json
import re
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from deltaspace.cli import main
from deltaspace.coding import DvsCode
from deltaspace.dvs import DistanceSet
from deltaspace.exact import parse
from deltaspace.space import Space


def _space(n, delta=None):
    """n points pairwise at distance 1, in index order."""
    out = {"labels": [f"p{i}" for i in range(n)],
           "dist": [["0/1" if i == j else "1/1" for j in range(n)] for i in range(n)],
           "order": list(range(n))}
    if delta is not None:
        out["delta"] = delta
    return out


D12 = {"values": ["1/1", "2/1"], "cap": "2/1", "closed": True}
D36 = {"values": ["3/1", "6/1"], "cap": "6/1", "closed": True}
S13 = {"values": ["1/1", "3/1"], "cap": "3/1", "closed": False}
QUARTERS = {"values": [f"{i}/4" for i in range(1, 17)], "cap": "4/1", "closed": True}
CODE = {"prefix": ["0/1", "1/1", "0/1", "2/1"], "bounded": False}
CODE2 = {"prefix": ["0/1", "2/1", "0/1", "4/1"], "bounded": False}

# What each file placeholder holds, and how the CLI loads it.
FILES = {
    "d": ("set", D12), "d2": ("set", D36), "s": ("set", S13), "q": ("set", QUARTERS),
    "m": ("space", _space(2, D12)), "mq": ("space", _space(2, QUARTERS)),
    "a": ("space", _space(2)), "b": ("space", _space(3)), "c": ("space", _space(5)),
    "c1": ("code", CODE), "c2": ("code", CODE2),
    "bij": ("bijection", [["1/1", "3/1"], ["2/1", "6/1"]]),
}

# One valid call per verb: "{x}" is the file x of FILES.
VERBS = {
    "gen-dvs": ["--alpha", "1/1*sqrt(2)", "--height", "1", "--bound", "2/1"],
    "close": ["--set", "{s}", "--bound", "3/1", "--budget", "64"],
    "check-triangle": ["--delta", "{d}", "--triple", "1/1,1/1,2/1"],
    "check-equiv": ["--d1", "{d}", "--d2", "{d2}", "--bijection", "{bij}"],
    "gl2": ["--alpha", "1/1*sqrt(2)", "--beta", "1/1+3/1*sqrt(2)"],
    "amalgamate": ["--b", "{a}", "--c", "{b}", "--overlap", "0:0"],
    "saturate": ["--space", "{m}", "--delta", "{d}", "-k", "1", "--max-points", "8", "--max-pairs", "1000"],
    "check-extension": ["--space", "{m}", "--delta", "{d}", "-k", "1", "--max-pairs", "1000"],
    "perturb": ["--space", "{mq}", "--delta", "{q}", "--pairs", "0:1", "--eps", "1/2", "--max-points", "8"],
    "extend-isometry": ["--space", "{m}", "--pairs", "0:1", "--point", "1", "--max-points", "8"],
    "check-arrow": ["--c", "{c}", "--b", "{b}", "--a", "{a}", "-k", "2", "--budget", "1000"],
    "check-rigid": ["--space", "{m}"],
    "encode-code": ["--set", "{d}"],
    "check-code": ["--code", "{c1}"],
    "check-sim": ["--c1", "{c1}", "--c2", "{c2}"],
    "check-approx": ["--c1", "{c1}", "--c2", "{c2}"],
    "triangle-structure": ["--set", "{d}", "--other", "{d2}"],
    "encode-model": ["--set", "{d}", "--sample", "1/2,1,2"],
    "check-theory": ["--set", "{d}", "--sample", "1/2,1,2", "--budget", "100000"],
}

JUNK_NUMBERS = ["", "x", "1/0", "1/00*sqrt(2)", "1.5", "-1/1", "0/1", "3/1", "1/1*sqrt(3)",
                "1/1*sqrt(4)", "1/1*sqrt(0)", "9" * 25 + "/1", "1/1*sqrt(" + "7" * 30 + ")"]
JUNK_VALUES = [5, 1.5, True, None, [], {}, "junk"] + JUNK_NUMBERS

# Junk for each flag, by what the flag holds; counts stay small, since
# a large count is expensive input rather than bad input.
COUNTS = ["-1", "x", "", "0", "1", "2", "3"]
FLAG_JUNK = {
    "number": JUNK_NUMBERS,
    "triple": ["1/1,1/1", "1/1,1/1,2/1,3/1", "a,b,c", "1/1,1/0,2/1", "", "1/1,1/1,9/1",
               "1/1,1/1,1/1*sqrt(2)"],
    "sample": ["", "0", "1,,2", "1/0", "x", "-1/2", "1.5", "1/2,1/2", "9" * 25, "1e5000"],
    "pairs": ["0:9", "0-1", "0:1:2", "", "a:b", "0:0,0:1", "1:0", "-1:0", "0:1,1:0", "1:1", "0:"],
    "point": ["-1", "5", "x", "", "0", "1"],
    "count": COUNTS,
}
FLAG_KIND = {
    "--alpha": "number", "--beta": "number", "--bound": "number", "--eps": "number",
    "--triple": "triple", "--sample": "sample", "--pairs": "pairs", "--overlap": "pairs",
    "--point": "point",
    "--height": "count", "--budget": "count", "-k": "count", "--max-points": "count", "--max-pairs": "count",
}
# The files whose points a pair or point flag indexes, per verb.
INDEXED = {("amalgamate", "--overlap"): ("a", "b"), ("perturb", "--pairs"): ("mq", "mq"),
           ("extend-isometry", "--pairs"): ("m", "m"), ("extend-isometry", "--point"): ("m",)}

# Messages that are only the text of a builtin exception.
BUILTIN_TEXT = re.compile(
    r"'[^']*'$|(not enough|too many) values to unpack|invalid literal for int|Invalid literal for"
    r"|list index out of range|'\w+' object |unhashable type|unsupported operand|division by zero"
    r"|Fraction\(|Expecting |Extra data|Unterminated string|Invalid control character|\[Errno")


def _sites(node):
    """Every (container, key) of a JSON tree, parents first."""
    keys = node.keys() if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        yield node, key
        yield from _sites(node[key])


def _mutate_file(draw, obj):
    """obj with one mutation, as the text to write."""
    obj = copy.deepcopy(obj)
    holder = {"root": obj}
    container, key = draw([(holder, "root"), *_sites(obj)])
    op = draw(["drop", "replace", "append", "cut"])
    if op == "cut":
        text = json.dumps(obj)
        return text[:len(text) // 2]
    if op == "drop" and container is not holder:
        del container[key]
    elif op == "append" and isinstance(container[key], list):
        items = container[key]
        items.append(draw(JUNK_VALUES + items))
    else:
        container[key] = draw(JUNK_VALUES)
    return json.dumps(holder["root"])


def _loads_cleanly(kind, text) -> bool:
    """Whether the CLI's loader should accept the file's text."""
    try:
        obj = json.loads(text)
        if kind == "bijection":
            assert isinstance(obj, list) and all(isinstance(p, list) and len(p) == 2 for p in obj)
            [parse(x) for p in obj for x in p]
        else:
            assert isinstance(obj, dict)
            {"set": DistanceSet.from_json, "space": Space.from_json, "code": DvsCode.from_json}[kind](obj)
    except Exception:
        return False
    return True


def _parses_cleanly(verb, flag, value) -> bool:
    """Whether the flag's own parser should accept value."""
    kind = FLAG_KIND[flag]
    try:
        if kind == "number":
            parse(value)
        elif kind == "triple":
            terms = value.split(",")
            assert len(terms) == 3
            [parse(t) for t in terms]
        elif kind == "sample":
            [str(Fraction(t)) for t in value.split(",")]
        elif kind == "count":
            assert int(value) >= 0
        elif value or flag != "--overlap":  # no --overlap is the empty overlap
            sizes = [len(FILES[f][1]["labels"]) for f in INDEXED[verb, flag]]
            for part in value.split(","):
                ints = list(map(int, part.split(":")))
                assert len(ints) == len(sizes) and all(0 <= i < n for i, n in zip(ints, sizes))
    except Exception:
        return False
    return True


def mutated_call(draw, tmpdir):
    """Write the inputs of one verb with one mutation into tmpdir.
    Returns (argv, target, clean): target is the mutated path or flag,
    and clean tells whether its loader or parser accepts it."""
    verb = draw(sorted(VERBS))
    template = VERBS[verb]
    texts = {t[1:-1]: json.dumps(FILES[t[1:-1]][1]) for t in template if t.startswith("{")}
    flags = [t for t in template if t in FLAG_KIND]
    flag = value = None
    if draw(["file"] * bool(texts) + ["flag"] * bool(flags)) == "file":
        name = draw(sorted(texts))
        texts[name] = _mutate_file(draw, FILES[name][1])
        target = str(tmpdir / f"{name}.json")
        clean = _loads_cleanly(FILES[name][0], texts[name])
    else:
        flag = target = draw(flags)
        value = draw(FLAG_JUNK[FLAG_KIND[flag]])
        clean = _parses_cleanly(verb, flag, value)
    for name, text in texts.items():
        (tmpdir / f"{name}.json").write_text(text)
    argv = [verb]
    for i, t in enumerate(template):
        if t.startswith("{"):
            argv.append(str(tmpdir / f"{t[1:-1]}.json"))
        else:
            argv.append(value if i and template[i - 1] == flag else t)
    return argv, target, clean


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_outcome(argv, target, clean, code, out, err):
    """The claims of the exit codes on one mutated call."""
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code != 3:
        assert clean, (argv, code, "input its loader or parser rejects must exit 3")
        return
    assert out == "", argv
    lines = err.splitlines()
    usage = re.match(r"deltaspace [\w-]+: error: (argument .*)", lines[-1])
    if usage and target in FLAG_KIND:
        message = usage[1]  # argparse rejected the flag's value
    else:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
        message = lines[0][len("error: "):]
    assert not BUILTIN_TEXT.match(message), (argv, message)
    if not clean:
        assert target in message, (argv, target, message)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_mutated_input_never_exits_4(tmp_path_factory, data):
    argv, target, clean = mutated_call(lambda seq: data.draw(st.sampled_from(list(seq))),
                                       tmp_path_factory.mktemp("fuzz"))
    check_outcome(argv, target, clean, *run_main(argv))


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_every_verb_has_a_valid_base_call(tmp_path, verb):
    argv = [verb] + [str(tmp_path / f"{t[1:-1]}.json") if t.startswith("{") else t for t in VERBS[verb]]
    for t in VERBS[verb]:
        if t.startswith("{"):
            (tmp_path / f"{t[1:-1]}.json").write_text(json.dumps(FILES[t[1:-1]][1]))
    code, out, err = run_main(argv)
    assert code in (0, 1, 2) and out and err == "", (argv, code, err)
