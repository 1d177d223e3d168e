import contextlib
import hashlib
import io
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltaspace import coding
from deltaspace.cli import build_parser, main
from deltaspace.dvs import DistanceSet, make_set
from deltaspace.exact import ExactReal
from deltaspace.limitbuilder import extension_property_check
from deltaspace.space import Space, make_space, uniform_space
import oracles
from util import closed_fragment, doubled_space, extend_with_random_points, random_space


def n1(v):
    return ExactReal(Fraction(v))


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_gen_dvs(capsys):
    code, out = run(capsys, ["gen-dvs", "--alpha", "1/1*sqrt(2)", "--height", "1", "--bound", "2/1"])
    assert code == 0
    assert out["values"] == ["-1/1+1/1*sqrt(2)", "1/1", "1/1*sqrt(2)"]
    assert out["cap"] == "2/1"


def test_close(tmp_path, capsys):
    d = write_json(tmp_path, "d.json", make_set([n1(1), n1(3)], cap=n1(3)).to_json())
    code, out = run(capsys, ["close", "--set", d, "--bound", "3/1"])
    assert code == 0
    assert out["values"] == ["1/1", "2/1", "3/1"]
    assert out["closed"] is True


def test_check_triangle(tmp_path, capsys):
    d = write_json(tmp_path, "d.json", make_set([n1(1), n1(2)]).to_json())
    code, out = run(capsys, ["check-triangle", "--delta", d, "--triple", "1/1,1/1,2/1"])
    assert code == 0 and out == {"triangle": True}
    code, out = run(capsys, ["check-triangle", "--delta", d, "--triple", "1/1,1/1,3/1"])
    assert code == 1 and out == {"triangle": False}


def test_check_equiv(tmp_path, capsys):
    d1 = write_json(tmp_path, "d1.json", make_set([n1(1), n1(2)]).to_json())
    d2 = write_json(tmp_path, "d2.json", make_set([n1(3), n1(6)]).to_json())
    code, out = run(capsys, ["check-equiv", "--d1", d1, "--d2", d2])
    assert code == 0 and out == {"witness": {"r": "3/1"}}
    d3 = write_json(tmp_path, "d3.json", make_set([n1(1), n1(3)]).to_json())
    code, out = run(capsys, ["check-equiv", "--d1", d1, "--d2", d3])
    assert code == 1 and out == {"witness": None}


def test_gl2(capsys):
    code, out = run(capsys, ["gl2", "--alpha", "1/1*sqrt(2)", "--beta", "1/1+3/1*sqrt(2)"])
    assert code == 0
    assert out == {"status": "Equivalent", "matrix": ["3", "1", "0", "1"]}
    code, out = run(capsys, ["gl2", "--alpha", "1/1*sqrt(2)", "--beta", "1/1*sqrt(3)"])
    assert code == 1
    assert out == {"status": "Inequivalent"}


def test_amalgamate(tmp_path, capsys):
    b = write_json(tmp_path, "b.json", Space(("a", "b"), ((n1(0), n1(1)), (n1(1), n1(0)))).to_json())
    c = write_json(tmp_path, "c.json", Space(("a", "c"), ((n1(0), n1(2)), (n1(2), n1(0)))).to_json())
    code, out = run(capsys, ["amalgamate", "--b", b, "--c", c, "--overlap", "0:0"])
    assert code == 0
    assert out["labels"] == ["a", "b", "c"]
    assert out["dist"][1][2] == "3/1"


def test_saturate_and_check_extension(tmp_path, capsys):
    delta = make_set([n1(1), n1(2)], cap=n1(2))
    m = write_json(tmp_path, "m.json", uniform_space(1, n1(1), delta=delta).to_json())
    d = write_json(tmp_path, "d.json", delta.to_json())
    code, out = run(capsys, ["saturate", "--space", m, "--delta", d, "-k", "1"])
    assert code == 0
    assert out["skipped"] == 0
    sat = write_json(tmp_path, "sat.json", out["space"])
    code, out = run(capsys, ["check-extension", "--space", m, "--delta", d, "-k", "1"])
    assert code == 1  # unrealized extensions exist before saturation
    assert out["unrealized"]


def test_building_verbs_validate_their_input_spaces(tmp_path, capsys):
    delta = make_set([n1(1), n1(2), n1(3)], cap=n1(3))
    d = write_json(tmp_path, "d.json", delta.to_json())
    good = write_json(tmp_path, "good.json", uniform_space(2, n1(1)).to_json())
    # d(0,1) = d(1,2) = 1 and d(0,2) = 3: not a metric
    bad = write_json(tmp_path, "bad.json", make_space(
        "abc", {(0, 1): n1(1), (1, 2): n1(1), (0, 2): n1(3)}, order=(0, 1, 2)).to_json())
    for argv in (
        ["amalgamate", "--b", bad, "--c", good, "--overlap", "0:0"],
        ["amalgamate", "--b", good, "--c", bad, "--overlap", "0:0"],
        ["saturate", "--space", bad, "--delta", d, "-k", "1"],
        ["perturb", "--space", bad, "--delta", d, "--pairs", "0:1", "--eps", "2/1"],
        ["extend-isometry", "--space", bad, "--pairs", "0:0", "--point", "1"],
    ):
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not a valid space" in captured.err and "Triangle" in captured.err
    # saturate and perturb validate the space over the given fragment
    far = write_json(tmp_path, "far.json", uniform_space(2, n1(5)).to_json())
    for argv in (
        ["saturate", "--space", far, "--delta", d, "-k", "1"],
        ["perturb", "--space", far, "--delta", d, "--pairs", "0:1", "--eps", "2/1"],
    ):
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "NotInDelta" in captured.err


def write_non_metric(tmp_path):
    """d(0,1) = d(1,2) = 1 and d(0,2) = 3: violates the triangle inequality."""
    return write_json(tmp_path, "bad.json", make_space(
        "abc", {(0, 1): n1(1), (1, 2): n1(1), (0, 2): n1(3)}, order=(0, 1, 2)).to_json())


def assert_rejected(capsys, argv, kind):
    assert main(argv) == 3, argv
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not a valid space" in captured.err and kind in captured.err


def test_check_extension_validates_its_space(tmp_path, capsys):
    d = write_json(tmp_path, "d.json", make_set([n1(1), n1(2), n1(3)], cap=n1(3)).to_json())
    bad = write_non_metric(tmp_path)
    assert_rejected(capsys, ["check-extension", "--space", bad, "--delta", d, "-k", "1"], "Triangle")
    far = write_json(tmp_path, "far.json", uniform_space(2, n1(5)).to_json())
    assert_rejected(capsys, ["check-extension", "--space", far, "--delta", d, "-k", "1"], "NotInDelta")


def test_check_arrow_validates_its_spaces(tmp_path, capsys):
    good = write_json(tmp_path, "good.json", uniform_space(2, n1(1)).to_json())
    bad = write_non_metric(tmp_path)
    for c, b, a in ((bad, good, good), (good, bad, good), (good, good, bad)):
        assert_rejected(capsys, ["check-arrow", "--c", c, "--b", b, "--a", a, "-k", "2"], "Triangle")


def test_check_rigid_validates_its_space(tmp_path, capsys):
    assert_rejected(capsys, ["check-rigid", "--space", write_non_metric(tmp_path)], "Triangle")


def assert_input_error(capsys, argv, text):
    assert main(argv) == 3, argv
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and text in captured.err, captured.err


def test_space_with_more_distances_than_labels_is_rejected(tmp_path, capsys):
    # one label and a 2 x 2 matrix: validate sees one point and says OK
    x = write_json(tmp_path, "x.json", {"labels": ["a"], "dist": [["0/1", "1/1"], ["1/1", "0/1"]]})
    assert_input_error(capsys, ["check-rigid", "--space", x], "one row and one column per label (1)")


@pytest.mark.parametrize("change, text", [
    pytest.param({"dist": [["0/1", "1/1"], ["1/1"]]}, "one row and one column per label (2)", id="ragged-row"),
    pytest.param({"dist": [["0/1", "1/1"]]}, "one row and one column per label (2)", id="missing-row"),
    pytest.param({"order": [0, "b"]}, "order entries", id="string-in-order"),
    pytest.param({"order": [0, 1.0]}, "order entries", id="float-in-order"),
    pytest.param({"labels": ["a", 2]}, "labels must be strings", id="number-label"),
    pytest.param({"dist": [[0, 1], [1, 0]]}, "number string", id="number-distance"),
    # after a repeated text, so past the loader's parse cache
    pytest.param({"dist": [["0/1", "1/1"], ["1/1", [1]]]}, "expected a number string", id="list-distance"),
    pytest.param({"dist": [["0/1", "1/1"], ["1/1", 5]]}, "expected a number string", id="int-distance"),
    pytest.param({"dist": [["0/1", "1/1"], ["1/1", None]]}, "expected a number string", id="null-distance"),
])
def test_malformed_space_is_rejected(tmp_path, capsys, change, text):
    obj = {**uniform_space(2, n1(1)).to_json(), **change}
    x = write_json(tmp_path, "x.json", obj)
    assert_input_error(capsys, ["check-rigid", "--space", x], text)


@pytest.mark.parametrize("space, text", [
    pytest.param({"labels": 5, "dist": []}, "labels must be a list", id="number-labels"),
    pytest.param({"labels": "ab", "dist": [["0/1", "1/1"], ["1/1", "0/1"]]}, "labels must be a list",
                 id="string-labels"),
    pytest.param({"labels": ["a"], "dist": 5}, "dist must be a list", id="number-dist"),
    pytest.param({"labels": ["a"], "dist": [5]}, "dist must be a list", id="number-row"),
    pytest.param({"labels": ["a"], "dist": [["0/1"]], "order": 0}, "order entries", id="number-order"),
    pytest.param({"labels": ["a"], "dist": [["0/1"]], "delta": 5}, "a distance set is a JSON object",
                 id="number-delta"),
])
def test_space_fields_of_the_wrong_type_are_rejected(tmp_path, capsys, space, text):
    x = write_json(tmp_path, "x.json", space)
    assert_input_error(capsys, ["check-rigid", "--space", x], text)


@pytest.mark.parametrize("fragment, text", [
    pytest.param({"values": 5, "cap": "2/1"}, "values must be a list", id="number-values"),
    pytest.param({"values": "1/1", "cap": "2/1"}, "values must be a list", id="string-values"),
    pytest.param({"values": ["1/1"], "cap": 2}, "number string", id="number-cap"),
])
def test_set_fields_of_the_wrong_type_are_rejected(tmp_path, capsys, fragment, text):
    d = write_json(tmp_path, "d.json", fragment)
    assert_input_error(capsys, ["encode-code", "--set", d], text)


@pytest.mark.parametrize("code, text", [
    pytest.param({"prefix": 5}, "prefix must be a list", id="number-prefix"),
    pytest.param({"prefix": "01"}, "prefix must be a list", id="string-prefix"),
    pytest.param({"prefix": ["0/1"], "bounded": "yes"}, "bounded must be true or false", id="string-bounded"),
])
def test_code_fields_of_the_wrong_type_are_rejected(tmp_path, capsys, code, text):
    c = write_json(tmp_path, "c.json", code)
    assert_input_error(capsys, ["check-code", "--code", c], text)


def test_constructions_reject_an_unordered_space(tmp_path, capsys):
    delta = make_set([n1(1), n1(2)], cap=n1(2))
    d = write_json(tmp_path, "d.json", delta.to_json())
    m = write_json(tmp_path, "m.json", uniform_space(2, n1(1), ordered=False, delta=delta).to_json())
    for argv in (
        ["saturate", "--space", m, "--delta", d, "-k", "1"],
        ["check-extension", "--space", m, "--delta", d, "-k", "1"],
        ["perturb", "--space", m, "--delta", d, "--pairs", "0:1", "--eps", "2/1"],
        ["extend-isometry", "--space", m, "--pairs", "0:1", "--point", "1"],
    ):
        assert_input_error(capsys, argv, "the space must be ordered")


def write_two_points(tmp_path):
    delta = closed_fragment([n1(Fraction(1, 4))], n1(4))
    d = write_json(tmp_path, "d.json", delta.to_json())
    return write_json(tmp_path, "m.json", uniform_space(2, n1(1), delta=delta).to_json()), d


def test_extend_isometry_point_out_of_range(tmp_path, capsys):
    m, _ = write_two_points(tmp_path)
    for point in ("7", "-1"):
        argv = ["extend-isometry", "--space", m, "--pairs", "0:1", "--point", point]
        assert_input_error(capsys, argv, "out of range for 2 points")


def test_perturb_pairs_out_of_range(tmp_path, capsys):
    m, d = write_two_points(tmp_path)
    for pairs in ("0:9", "9:0", "0:-2"):
        argv = ["perturb", "--space", m, "--delta", d, "--pairs", pairs, "--eps", "1/2"]
        assert_input_error(capsys, argv, "out of range for 2 points")


def test_amalgamate_overlap_out_of_range(tmp_path, capsys):
    b = write_json(tmp_path, "b.json", uniform_space(2, n1(1)).to_json())
    c = write_json(tmp_path, "c.json", uniform_space(3, n1(1)).to_json())
    assert_input_error(capsys, ["amalgamate", "--b", b, "--c", c, "--overlap", "0:9"], "out of range for 3 points")
    assert_input_error(capsys, ["amalgamate", "--b", b, "--c", c, "--overlap", "2:0"], "out of range for 2 points")


def test_saturate_rejects_a_non_closed_fragment(tmp_path, capsys):
    code, out = run(capsys, ["gen-dvs", "--alpha", "1/1*sqrt(2)", "--height", "2", "--bound", "3/1"])
    assert code == 0 and out["closed"] is False
    d = write_json(tmp_path, "d.json", out)
    m = write_json(tmp_path, "m.json", Space(("a",), ((n1(0),),), (0,)).to_json())
    assert_input_error(capsys, ["saturate", "--space", m, "--delta", d, "-k", "1"], "fragment not closed")


def test_saturate_rejects_an_unbounded_fragment(tmp_path, capsys):
    d = write_json(tmp_path, "d.json", make_set([n1(1), n1(2)]).to_json())
    m = write_json(tmp_path, "m.json", uniform_space(2, n1(1)).to_json())
    assert_input_error(capsys, ["saturate", "--space", m, "--delta", d, "-k", "1"], "fragment unbounded")


def write_surd_closure(tmp_path, capsys):
    """The closure of a Q(sqrt 2) fragment: 87 values and 4982 sample
    rationals, tables far past the default budget."""
    code, out = run(capsys, ["gen-dvs", "--alpha", "1/1*sqrt(2)", "--height", "2", "--bound", "3/1"])
    code, out = run(capsys, ["close", "--set", write_json(tmp_path, "s.json", out), "--bound", "3/1"])
    assert len(out["values"]) == 87
    return write_json(tmp_path, "d.json", out)


def test_check_theory_budget(tmp_path, capsys):
    d = write_surd_closure(tmp_path, capsys)
    start = time.perf_counter()
    code, out = run(capsys, ["check-theory", "--set", d])
    assert code == 2 and out is None
    assert time.perf_counter() - start < 20
    small = write_json(tmp_path, "small.json", make_set([n1(1), n1(2), n1(3)], cap=n1(3)).to_json())
    code, out = run(capsys, ["check-theory", "--set", small, "--budget", "100"])
    assert code == 2 and out is None


def test_check_theory_budget_stops_before_the_default_sample(tmp_path, capsys, monkeypatch):
    d = write_surd_closure(tmp_path, capsys)

    def unreachable(*args):
        raise RuntimeError("default_sample_q was called")

    monkeypatch.setattr(coding, "default_sample_q", unreachable)
    code, out = run(capsys, ["check-theory", "--set", d, "--budget", "1000"])
    assert code == 2 and out is None  # 87^2 pair ratios exceed 1000 steps


def test_check_theory_rejects_a_non_positive_sample(tmp_path, capsys):
    d = write_json(tmp_path, "d.json", make_set([n1(1), n1(2)], cap=n1(2)).to_json())
    for sample in ("0,1", "-1/2", "1,-3"):
        assert_input_error(capsys, ["check-theory", "--set", d, f"--sample={sample}"], "must be positive")
    # Fraction("2/0") raised ZeroDivisionError, which exited 4 as a crash
    for verb in ("check-theory", "encode-model"):
        assert_input_error(capsys, [verb, "--set", d, "--sample=1,2/0"], "'2/0' has a zero denominator")
    # a lone 1 is a legitimate sample: every cut at (x, x) is full
    code, out = run(capsys, ["check-theory", "--set", d, "--sample=1"])
    assert code == 1 and out["clauses"]["2"]["status"] == "Violated"


@pytest.mark.parametrize("verb", ["check-theory", "encode-model"])
def test_empty_sample_is_rejected(tmp_path, capsys, verb):
    # an empty --sample once gave the default sample's answer, exit 0
    d = write_json(tmp_path, "d.json", make_set([n1(1), n1(2)], cap=n1(2)).to_json())
    assert_input_error(capsys, [verb, "--set", d, "--sample", ""], "Invalid literal for Fraction: ''")

@pytest.mark.parametrize("top", [[], ["1/1"], "1/1", 3, None], ids=repr)
def test_non_object_json_is_rejected(tmp_path, capsys, top):
    bad = write_json(tmp_path, "bad.json", top)
    d = write_json(tmp_path, "d.json", make_set([n1(1), n1(2)]).to_json())
    c = write_json(tmp_path, "c.json", {"prefix": ["0/1", "1/1"]})
    for argv in (
        ["encode-code", "--set", bad],
        ["check-rigid", "--space", bad],
        ["check-code", "--code", bad],
        ["check-sim", "--c1", bad, "--c2", c],
        ["check-sim", "--c1", c, "--c2", bad],
        ["check-approx", "--c1", c, "--c2", bad],
        ["check-equiv", "--d1", d, "--d2", bad],
    ):
        assert_input_error(capsys, argv, "expected a JSON object")


@pytest.mark.parametrize("pairs, text", [
    ([1], "list of [x, y] pairs"),
    ([["1/1"]], "list of [x, y] pairs"),
    ([["1/1", "2/1", "3/1"]], "list of [x, y] pairs"),
    ("ab", "expected a JSON list"),
    ({"1/1": "2/1"}, "expected a JSON list"),
], ids=repr)
def test_malformed_bijection_is_rejected(tmp_path, capsys, pairs, text):
    d = write_json(tmp_path, "d.json", make_set([n1(1), n1(2)]).to_json())
    b = write_json(tmp_path, "b.json", pairs)
    assert_input_error(capsys, ["check-equiv", "--d1", d, "--d2", d, "--bijection", b], text)


def test_check_arrow_exit_codes(tmp_path, capsys):
    c6 = write_json(tmp_path, "c6.json", uniform_space(6, n1(1)).to_json())
    c5 = write_json(tmp_path, "c5.json", uniform_space(5, n1(1)).to_json())
    b3 = write_json(tmp_path, "b3.json", uniform_space(3, n1(1)).to_json())
    a2 = write_json(tmp_path, "a2.json", uniform_space(2, n1(1)).to_json())
    code, out = run(capsys, ["check-arrow", "--c", c6, "--b", b3, "--a", a2, "-k", "2"])
    assert code == 0 and out["status"] == "Holds"
    code, out = run(capsys, ["check-arrow", "--c", c5, "--b", b3, "--a", a2, "-k", "2"])
    assert code == 1 and out["status"] == "Fails"
    assert out["bad_coloring"]
    code, out = run(capsys, ["check-arrow", "--c", c6, "--b", b3, "--a", a2, "-k", "2", "--budget", "5"])
    assert code == 2 and out["status"] == "Unknown"


def test_check_rigid(tmp_path, capsys):
    ordered = write_json(tmp_path, "x.json", uniform_space(3, n1(1)).to_json())
    unordered = write_json(tmp_path, "y.json", uniform_space(3, n1(1), ordered=False).to_json())
    code, out = run(capsys, ["check-rigid", "--space", ordered])
    assert code == 0 and out == {"rigid": True}
    code, out = run(capsys, ["check-rigid", "--space", unordered])
    assert code == 1 and out == {"rigid": False}


def test_code_verbs(tmp_path, capsys):
    d = write_json(tmp_path, "d.json", make_set([n1(1), n1(2)]).to_json())
    code, out = run(capsys, ["encode-code", "--set", d])
    assert code == 0
    assert out["prefix"] == ["0/1", "1/1", "0/1", "2/1"]
    c1 = write_json(tmp_path, "c1.json", out)
    code, out = run(capsys, ["check-code", "--code", c1])
    assert code == 0
    d2 = write_json(tmp_path, "d2.json", make_set([n1(2), n1(4)]).to_json())
    code, out = run(capsys, ["encode-code", "--set", d2])
    c2 = write_json(tmp_path, "c2.json", out)
    code, out = run(capsys, ["check-sim", "--c1", c1, "--c2", c2])
    assert code == 0
    assert out["sim"]["r"] == "2/1"
    code, out = run(capsys, ["check-approx", "--c1", c1, "--c2", c2])
    assert code == 0


def test_theory_verbs(tmp_path, capsys):
    d = write_json(tmp_path, "d.json", make_set([n1(1), n1(2), n1(3)], cap=n1(3)).to_json())
    code, out = run(capsys, ["check-theory", "--set", d])
    assert code == 0
    for key in ("1", "2", "3", "4", "5", "6"):
        assert out["clauses"][key]["status"] == "Satisfied"
    code, out = run(capsys, ["triangle-structure", "--set", d])
    assert code == 0
    assert out["universe"] == ["1/1", "2/1", "3/1"]


def test_perturb_verb(tmp_path, capsys):
    delta = closed_fragment([ExactReal(Fraction(1, 4))], n1(4))
    m = write_json(tmp_path, "m.json", uniform_space(2, n1(1), delta=delta).to_json())
    d = write_json(tmp_path, "d.json", delta.to_json())
    code, out = run(capsys, ["perturb", "--space", m, "--delta", d, "--pairs", "0:1", "--eps", "1/2"])
    assert code == 0
    assert out["images"]


def test_input_error_exit_code(capsys, tmp_path):
    code, _ = run(capsys, ["check-rigid", "--space", str(tmp_path / "missing.json")])
    assert code == 3
    # open() on a directory raised IsADirectoryError, which exited 4
    assert_input_error(capsys, ["encode-model", "--set", str(tmp_path)], "Is a directory")
    code, _ = run(capsys, ["gen-dvs", "--alpha", "2/1", "--height", "1", "--bound", "2/1"])
    assert code == 3


def test_usage_error_exit_code(capsys):
    # argparse's own exit 2 would read as Unknown
    assert main(["check-arrow", "--c", "x"]) == 3
    assert main(["check-arrow", "--c", "x", "--b", "x", "--a", "x", "-k", "two"]) == 3
    assert main(["no-such-verb"]) == 3
    # removed flags are usage errors now
    assert main(["gl2", "--alpha", "1/1*sqrt(2)", "--beta", "1/1*sqrt(2)", "--height", "3"]) == 3
    assert main(["check-arrow", "--c", "x", "--b", "x", "--a", "x", "-k", "2", "--jobs", "2"]) == 3
    assert capsys.readouterr().out == ""
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_the_parser_is_built_once_and_survives_a_usage_error(tmp_path, capsys):
    assert build_parser() is build_parser()
    assert main(["check-rigid"]) == 3  # --space is missing
    assert capsys.readouterr().out == ""
    x = write_json(tmp_path, "x.json", uniform_space(2, n1(1)).to_json())
    code, out = run(capsys, ["check-rigid", "--space", x])
    assert code == 0 and out == {"rigid": True}  # an ordered space is rigid
    with pytest.raises(SystemExit) as exc:
        main(["check-rigid", "--help"])
    assert exc.value.code == 0
    assert main(["check-rigid", "--space", x, "--extra"]) == 3


def test_budget_exit_code(tmp_path, capsys):
    s = write_json(tmp_path, "s.json", make_set([n1(1), n1(3)], cap=n1(3)).to_json())
    code, out = run(capsys, ["close", "--set", s, "--bound", "3/1", "--budget", "2"])
    assert code == 2 and out is None


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    from deltaspace import ramsey

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(ramsey, "arrow", broken)
    a = write_json(tmp_path, "a.json", uniform_space(1, n1(1)).to_json())
    assert main(["check-arrow", "--c", a, "--b", a, "--a", a, "-k", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal: RuntimeError: boom\n"


def test_a_failed_final_check_of_saturate_is_internal(tmp_path, capsys, monkeypatch):
    # the input is valid and the vectors admissible, so a realized point
    # that breaks the space is a bug in the library, not bad input
    from deltaspace import limitbuilder

    real = limitbuilder.adjoin

    def one_wrong_entry(*args):  # the new point's distance to point 0, in its own row only
        labels, rows = real(*args)
        last = rows[-1]
        return labels, rows[:-1] + ((last[0] + n1(1),) + last[1:],)

    monkeypatch.setattr(limitbuilder, "adjoin", one_wrong_entry)
    delta = make_set([n1(1), n1(2), n1(3)], cap=n1(3))
    m = uniform_space(3, n1(1), delta=delta)
    with pytest.raises(AssertionError, match=r"saturated space invalid: .*Symmetry.*\(0, 3\)"):
        limitbuilder.saturate(m, delta, 1)
    d = write_json(tmp_path, "d.json", delta.to_json())
    s = write_json(tmp_path, "m.json", m.to_json())
    assert main(["saturate", "--space", s, "--delta", d, "-k", "1"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal: AssertionError: saturated space invalid:")


def test_determinism(tmp_path, capsys):
    d = write_json(tmp_path, "d.json", make_set([n1(1), n1(2), n1(3)], cap=n1(3)).to_json())
    main(["check-theory", "--set", d])
    first = capsys.readouterr().out
    main(["check-theory", "--set", d])
    second = capsys.readouterr().out
    assert first == second


def test_round_trip_of_emitted_space(tmp_path, capsys):
    b = write_json(tmp_path, "b.json", Space(("a", "b"), ((n1(0), n1(1)), (n1(1), n1(0)))).to_json())
    c = write_json(tmp_path, "c.json", Space(("a", "c"), ((n1(0), n1(2)), (n1(2), n1(0)))).to_json())
    code, out = run(capsys, ["amalgamate", "--b", b, "--c", c, "--overlap", "0:0"])
    sp = Space.from_json(out)
    assert sp.to_json() == out


def test_extension_stdout_bytes_are_pinned(tmp_path, capsys):
    # sha256 of the stdout of check-extension -k 2 and saturate -k 2 on
    # one seeded 12-point space over {1, 3/2, 2, 5/2, 3}; saturate stops
    # at its point budget, so it reports both reused and skipped points
    d = closed_fragment([n1(1), n1(Fraction(3, 2))], n1(3))
    m = write_json(tmp_path, "m.json", random_space(random.Random(12), 12, d).to_json())
    dp = write_json(tmp_path, "d.json", d.to_json())
    pins = [
        (["check-extension", "--space", m, "--delta", dp, "-k", "2"], 1,
         "c99ad52d742f53a1a22f19ca65e2c3d23aeadd6e3364fc283b6aaca64067320e"),
        (["saturate", "--space", m, "--delta", dp, "-k", "2", "--max-points", "32"], 2,
         "311f6d620db488cdafbfa87701b834262a483d86a36311ebb0fec1963f813d24"),
    ]
    for argv, code, digest in pins:
        assert main(argv) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, argv[0]


def test_construction_stdout_bytes_are_pinned(tmp_path, capsys):
    # sha256 of the stdout of the other constructions on seeded inputs:
    # perturb on a doubled 3-point space over {1/4, ..., 2} (the new rows
    # reach the cap), extend-isometry that must grow a point, and
    # amalgamate with a 2-point overlap and with none (primed labels)
    d = closed_fragment([n1(1), n1(Fraction(3, 2))], n1(3))
    quarter = closed_fragment([n1(Fraction(1, 4))], n1(2))
    doubled, pairs = doubled_space(random.Random(5), 3, quarter)
    rng = random.Random(7)
    a = random_space(rng, 2, d, ordered=False)
    b, c = extend_with_random_points(rng, a, 3, d), extend_with_random_points(rng, a, 3, d)
    files = {name: write_json(tmp_path, f"{name}.json", x.to_json()) for name, x in {
        "m": random_space(random.Random(2), 6, d), "doubled": doubled, "quarter": quarter, "b": b, "c": c}.items()}
    pins = [
        (["perturb", "--space", files["doubled"], "--delta", files["quarter"],
          "--pairs", ",".join(f"{x}:{y}" for x, y in pairs), "--eps", "1/2"],
         "59cd2f2142f3dbe8804a9bcf8775ee2cdd7aa0f17032b46d4e02bf286fd28ac5"),
        (["extend-isometry", "--space", files["m"], "--pairs", "0:1,2:3", "--point", "4"],
         "e4a3823873ed57f0c676b94d35fd999a9a14a09ae23436d5980e6dcbf8bda7c2"),
        (["amalgamate", "--b", files["b"], "--c", files["c"], "--overlap", "0:0,1:1"],
         "61157bfbf75484164e7f09ebcc92a213223aa1b9940fddac476d395683c1fd86"),
        (["amalgamate", "--b", files["b"], "--c", files["c"]],
         "98cde6ec36cab381fd7b29cbb6f53b5b5912c5416bd2d14be25fa20b18d2c767"),
    ]
    for argv, digest in pins:
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, argv[:2]


def test_arrow_stdout_bytes_are_pinned(tmp_path, capsys):
    # sha256 of the stdout of check-arrow -k 2 on one seeded 9-point space
    # over {1, 2}: a Fails with its bad coloring, a Holds, and the same
    # Holds instance cut short by --budget; each prints its node count
    c = random_space(random.Random(2), 9, closed_fragment([n1(1)], n1(2)))
    files = {name: write_json(tmp_path, f"{name}.json", x.to_json()) for name, x in {
        "c": c, "b_fails": c.induced([0, 2, 3]), "a_fails": c.induced([0, 2]),
        "b_holds": c.induced([0, 1, 5]), "a_holds": c.induced([0, 5])}.items()}
    pins = [
        ("fails", [], 1, "61b4e28bfbfff80c16e9cd7571f46bec85ba277caf2939143ff942f734ff5699"),
        ("holds", [], 0, "be07fd073c028beae60a22eafa16782c2711c63cced1f9707ab8f6dca0bbad78"),
        ("holds", ["--budget", "500"], 2, "9ba0ed36c4751f602ee62b446825a4708be733f4129c376db64bafed2863023d"),
    ]
    for case, extra, code, digest in pins:
        argv = ["check-arrow", "--c", files["c"], "--b", files[f"b_{case}"], "--a", files[f"a_{case}"], "-k", "2"]
        assert main(argv + extra) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, (case, extra)



def _seeded_fragment(rng, radicand, size):
    """`size` distinct positive values: a on a grid of 1/6, or for about
    half of them over Q(sqrt D) a + b*(sqrt(D) - isqrt(D)) with b in
    {1/3, 1/2}; capped at the largest."""
    vals = set()
    while len(vals) < size:
        a = Fraction(rng.randrange(1, 24), 6)
        b = Fraction(1, rng.choice((2, 3))) if radicand and rng.random() < 0.5 else 0
        vals.add(ExactReal(a - b * math.isqrt(radicand), b, radicand))
    return make_set(vals, cap=max(vals))


def test_theory_stdout_bytes_are_pinned(tmp_path, capsys):
    # sha256 of the stdout of encode-model, check-theory and
    # triangle-structure (alone and against a rescaling by 3/2) on seeded
    # fragments: rational, over Q(sqrt 2), over Q(sqrt 1000003), and one
    # whose max/min is irrational and above 8; then encode-model and
    # check-theory on the rational one with a user sample holding its
    # exact pair ratios 2/1 and 3/2 (so a ratio equals a sample rational)
    sets = {
        "rational": make_set([n1(1), n1(Fraction(3, 2)), n1(2), n1(3)], cap=n1(3)),
        "sqrt2": _seeded_fragment(random.Random(3), 2, 4),
        "sqrt1000003": _seeded_fragment(random.Random(3), 1000003, 4),
        "wide": _seeded_fragment(random.Random(4), 2, 5),
    }
    wide = sets["wide"].values
    ratio = wide[-1] / wide[0]
    assert not ratio.is_rational and ratio > n1(8)
    files = {}
    for name, d in sets.items():
        files[name] = write_json(tmp_path, f"{name}.json", d.to_json())
        scaled = make_set([v * n1(Fraction(3, 2)) for v in d.values], cap=d.cap * n1(Fraction(3, 2)))
        files[f"{name}*3/2"] = write_json(tmp_path, f"{name}_scaled.json", scaled.to_json())
    theory = [["encode-model"], ["check-theory"], ["triangle-structure"]]
    pins = {
        "rational": ("9c479d4735220ee42907d1779c5007e8491547c10b74ffa26f32ec5948264bb7",
                     "e34d08390751eb9d5930b4a8da72d9db6391b2e6e24eb3d1dd3ebedf7523a2e8",
                     "e9ab3a5da5a01dcd1fd3740c42d763e747e7518cf7693866d3d735d7adf6cecb",
                     "b9c6c7f7ec59d787a965cfadd41b82c915d6c275a0cbc845496103dacd72e770"),
        "sqrt2": ("83968151db9c17096b1e7ceedd6a821f66b5ee17c217f1219cb5d9c9dd7ce770",
                  "e34d08390751eb9d5930b4a8da72d9db6391b2e6e24eb3d1dd3ebedf7523a2e8",
                  "9fd08d64ff21a015015cc5d07a6310325f5b1260812ffa9dc30285834314b63f",
                  "b9c6c7f7ec59d787a965cfadd41b82c915d6c275a0cbc845496103dacd72e770"),
        "sqrt1000003": ("e46b378256401c33abc3fb5d1e34390f4e7ea9bb76e995bc630cbc7c99eacc2a",
                        "e34d08390751eb9d5930b4a8da72d9db6391b2e6e24eb3d1dd3ebedf7523a2e8",
                        "e50a93ce3d10c2646c574fbdbfbd1b1fb82491972906484a55d8fdfca41b40eb",
                        "b9c6c7f7ec59d787a965cfadd41b82c915d6c275a0cbc845496103dacd72e770"),
        "wide": ("e3ace6b6fa5868163603765d7dddb1be35d430bf735bf3af2976186b1e22a7bf",
                 "5e6708a0b6575ab6f481033b3a263fcc49cb81089775c8ea3d342640892bd750",
                 "4bae75baf569653e31a05c04959581a5b8beb3052ae47478a13f4d10b56271f9",
                 "53bf44bbb84c14ce3cd93f81943e1ba68d49bccacd4ff1022bfa5d9197ecb415"),
    }
    calls = []
    for name, digests in pins.items():
        extras = theory + [["triangle-structure", "--other", files[f"{name}*3/2"]]]
        calls += [(name, extra, 0, digest) for extra, digest in zip(extras, digests)]
    sample = ["--sample", "1/2,1,4/3,3/2,2,5/2"]
    calls += [("rational", ["encode-model"] + sample, 0,
               "5b05056194b5d04a2c71ce075f28ae34336a6da66aad2c9c28ca337e506ab545"),
              ("rational", ["check-theory"] + sample, 1,
               "eb0805e69297dc145d1d1348fa8443fc1e5bd2159dee48275db33b14d679e486")]
    for name, extra, code, digest in calls:
        assert main(extra[:1] + ["--set", files[name]] + extra[1:]) == code, (name, extra)
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, (name, extra)


def write_count_inputs(tmp_path):
    """Valid inputs for every verb with a count flag: with any
    non-negative count each call gives a verdict (exit 0, 1 or 2)."""
    delta = closed_fragment([n1(Fraction(1, 4))], n1(4))
    return {
        "m": write_json(tmp_path, "m.json", uniform_space(2, n1(1), delta=delta).to_json()),
        "d": write_json(tmp_path, "d.json", delta.to_json()),
        "s": write_json(tmp_path, "s.json", make_set([n1(1), n1(3)], cap=n1(3)).to_json()),
        "a": write_json(tmp_path, "a.json", uniform_space(2, n1(1)).to_json()),
    }


NEGATIVE_COUNTS = [
    ("check-extension", [["--space", "{m}", "--delta", "{d}", "-k", "-1"],
                         ["--space", "{m}", "--delta", "{d}", "-k", "1", "--max-pairs", "-1"]]),
    ("saturate", [["--space", "{m}", "--delta", "{d}", "-k", "-1"],
                  ["--space", "{m}", "--delta", "{d}", "-k", "1", "--max-points", "-1"],
                  ["--space", "{m}", "--delta", "{d}", "-k", "1", "--max-pairs", "-1"]]),
    ("extend-isometry", [["--space", "{m}", "--pairs", "0:0", "--point", "1", "--max-points", "-1"]]),
    ("perturb", [["--space", "{m}", "--delta", "{d}", "--pairs", "0:1", "--eps", "1/2", "--max-points", "-1"]]),
    ("close", [["--set", "{s}", "--bound", "3/1", "--budget", "-1"]]),
    ("check-arrow", [["--c", "{a}", "--b", "{a}", "--a", "{a}", "-k", "-1"],
                     ["--c", "{a}", "--b", "{a}", "--a", "{a}", "-k", "2", "--budget", "-1"]]),
    ("check-theory", [["--set", "{s}", "--budget", "-1"]]),
    ("gen-dvs", [["--alpha", "1/1*sqrt(2)", "--height", "-1", "--bound", "2/1"]]),
]


@pytest.mark.parametrize("verb, calls", NEGATIVE_COUNTS, ids=[verb for verb, _ in NEGATIVE_COUNTS])
def test_negative_counts_are_usage_errors(tmp_path, capsys, verb, calls):
    # a negative -k checked nothing and exited 0, and a negative budget
    # read as a blown one (exit 2)
    files = write_count_inputs(tmp_path)
    for flags in calls:
        argv = [verb] + [f.format(**files) for f in flags]
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "must be non-negative, not -1" in captured.err, argv


def test_zero_counts_keep_their_verdicts(tmp_path, capsys):
    files = write_count_inputs(tmp_path)
    code, out = run(capsys, ["check-extension", "--space", files["m"], "--delta", files["d"], "-k", "0"])
    assert code == 0 and out == {"checked": 1, "unrealized": []}
    a = files["a"]
    assert main(["check-arrow", "--c", a, "--b", a, "--a", a, "-k", "0"]) == 3
    assert capsys.readouterr().out == ""
    code, out = run(capsys, ["gen-dvs", "--alpha", "1/1*sqrt(2)", "--height", "0", "--bound", "2/1"])
    assert code == 0 and out == {"cap": "2/1", "closed": True, "values": []}


REPORT_FRAGMENTS = [
    closed_fragment([n1(1), n1(Fraction(3, 2))], n1(3)),
    # sqrt(2) - 1 and its truncated sums: texts with "+" and "*sqrt("
    closed_fragment([ExactReal(-1, 1, 2)], n1(1)),
    closed_fragment([ExactReal.sqrt(2), n1(1)], n1(2)),
]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(0, 7), k=st.integers(0, 2),
       frag=st.sampled_from(range(len(REPORT_FRAGMENTS))))
@example(seed=0, n=0, k=0, frag=0)  # one unrealized extension, of the empty subset
@example(seed=0, n=3, k=0, frag=1)  # an empty report
@example(seed=5, n=7, k=2, frag=1)
def test_extension_report_bytes_match_the_dict_writer(tmp_path_factory, seed, n, k, frag):
    d = REPORT_FRAGMENTS[frag]
    m = random_space(random.Random(seed), n, d)
    tmp = tmp_path_factory.mktemp("report")
    argv = ["check-extension", "--space", write_json(tmp, "m.json", m.to_json()),
            "--delta", write_json(tmp, "d.json", d.to_json()), "-k", str(k)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    report = extension_property_check(m, d, k)
    assert code == (0 if report.empty else 1)
    assert out.getvalue() == oracles.extension_report_json(report) + "\n"
