import contextlib
import hashlib
import io
import json
import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from deltaspace import coding, limitbuilder
from deltaspace.cli import build_parser, main
from deltaspace.dvs import make_set
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


def test_check_equiv_on_empty_fragments(tmp_path, capsys):
    # r = 1 scales the empty set onto itself, and r = cap2/cap1 scales one
    # bounded empty fragment onto another; emptiness or boundedness on one
    # side only has no witness
    sets = {"e": make_set([]), "e2": make_set([], cap=n1(2)), "e3": make_set([], cap=n1(3)),
            "d": make_set([n1(1)])}
    path = {name: write_json(tmp_path, f"{name}.json", d.to_json()) for name, d in sets.items()}
    for d1, d2, want in (("e", "e", {"r": "1/1"}), ("e2", "e3", {"r": "3/2"}), ("e", "d", None),
                         ("d", "e", None), ("e", "e2", None), ("e3", "e", None)):
        code, out = run(capsys, ["check-equiv", "--d1", path[d1], "--d2", path[d2]])
        assert (code, out) == (0 if want else 1, {"witness": want}), (d1, d2)


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


def test_check_extension_rechecks_the_extension_behind_exit_1(tmp_path, capsys, monkeypatch):
    # m is one point saturated at k = 1, so every extension of {0} is
    # realized, and some of the new points' are not.  A kernel that
    # reports a realized slot of {0} as missing puts it first in the
    # report; the scan of m before exit 1 finds its realizer, so the run
    # is exit 4, not exit 1 with a false report
    delta = make_set([n1(1), n1(2)], cap=n1(2))
    sat, _ = limitbuilder.saturate(uniform_space(1, n1(1), delta=delta), delta, 1)
    m = write_json(tmp_path, "m.json", sat.to_json())
    d = write_json(tmp_path, "d.json", delta.to_json())
    argv = ["check-extension", "--space", m, "--delta", d, "-k", "1"]
    code, out = run(capsys, argv)
    assert code == 1 and out["unrealized"][0]["subset"] != [0]
    kernel = limitbuilder._missing_slots

    def slot_0_missing(lo, hi, ranks, subset, vectors, every):
        # each 1-point subset's first vector loses slot 0: key 1 in its code
        return [t << 2 | 1 for (t,) in vectors[:1]] if len(subset) == 1 else kernel(lo, hi, ranks, subset, vectors, every)

    monkeypatch.setattr(limitbuilder, "_missing_slots", slot_0_missing)
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "reported unrealized, but point" in captured.err


@pytest.mark.parametrize("verb", ["check-extension", "saturate"])
def test_k_past_the_point_count_answers_as_k_equal_to_it(tmp_path, capsys, verb):
    # no subset of 3 points has more than 3, so -k 10**9 is -k 3; the
    # subset loop ran over every size up to k, which took minutes
    d = make_set([n1(1), n1(2)], cap=n1(2))
    m = write_json(tmp_path, "m.json", random_space(random.Random(1), 3, d).to_json())
    dp = write_json(tmp_path, "d.json", d.to_json())
    outs = []
    for k in (3, 10 ** 9):
        code = main([verb, "--space", m, "--delta", dp, "-k", str(k)])
        outs.append((code, capsys.readouterr().out))
    assert outs[0][1] and outs[1] == outs[0]


# (max points, max pairs, the index of the first pair past the budget, or
# None): a point budget that runs out; a pair budget that runs out at
# slot 2 of a 2-point subset's vector, and at slot 1 of a 3-point one's
SATURATE_BUDGETS = [(6, 10 ** 6, None), (64, 40, (2, 2)), (64, 102, (3, 1))]


@pytest.mark.parametrize("max_points, max_pairs, split", SATURATE_BUDGETS)
def test_saturate_skipped_counts_the_unrealized_extensions(tmp_path, capsys, max_points, max_pairs, split):
    # skipped is the number of missing-slot bits in the report's codes
    d = make_set([n1(1), n1(2)], cap=n1(2))
    m = random_space(random.Random(4), 4, d)
    if split is not None:
        ext = list(oracles.subset_extensions(m, d, 3))[max_pairs]
        assert (len(ext.subset), ext.slot) == split
    fast, report = limitbuilder.saturate(m, d, 3, max_points, max_pairs)
    slow, scan = oracles.saturate(m, d, 3, max_points, max_pairs)
    assert fast == slow and (report.checked, report.unrealized) == (scan.checked, scan.unrealized)
    argv = ["saturate", "--space", write_json(tmp_path, "m.json", m.to_json()),
            "--delta", write_json(tmp_path, "d.json", d.to_json()), "-k", "3",
            "--max-points", str(max_points), "--max-pairs", str(max_pairs)]
    code, out = run(capsys, argv)
    assert code == 2 and out["skipped"] == len(report.unrealized) > 0


def test_extend_isometry_rechecks_the_order(tmp_path, capsys, monkeypatch):
    # the slot = 0 mutant looks up the realizer of the lowest order slot,
    # not x's.  On the uniform chain 0 < 1 < 2 it maps 2 to 0, below the
    # image of 1: an isometry that breaks the order, so exit 4
    m = write_json(tmp_path, "m.json", uniform_space(3, n1(1)).to_json())
    argv = ["extend-isometry", "--space", m, "--pairs", "1:1", "--point", "2"]
    code, out = run(capsys, argv)
    assert code == 0 and out["pairs"] == [[1, 1], [2, 2]]
    find = limitbuilder.find_realizer
    monkeypatch.setattr(limitbuilder, "find_realizer", lambda m, ext: find(m, ext._replace(slot=0)))
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "broke the isometry or the order" in captured.err


def test_check_extension_runs_on_the_space_it_validated(tmp_path, capsys, monkeypatch):
    # the loader binds --delta before it validates and returns that same
    # object, so a check-extension run builds m's value ids once, for
    # validate, and saturate's output needs no binding of its own
    from deltaspace import space
    d = make_set([n1(1), n1(2)], cap=n1(2))
    m = write_json(tmp_path, "m.json", random_space(random.Random(2), 6, d, delta_bound=False).to_json())
    dp = write_json(tmp_path, "d.json", d.to_json())
    calls, entry_objects, with_delta = [], space._entry_objects, Space.with_delta
    monkeypatch.setattr(space, "_entry_objects", lambda dist: calls.append("ids") or entry_objects(dist))
    monkeypatch.setattr(Space, "with_delta", lambda x, delta: calls.append("bind") or with_delta(x, delta))
    code, _ = run(capsys, ["check-extension", "--space", m, "--delta", dp, "-k", "2"])
    assert code == 1 and calls == ["bind", "ids"]
    calls.clear()
    code, out = run(capsys, ["saturate", "--space", m, "--delta", dp, "-k", "1"])
    assert code == 0 and calls.count("bind") == 1 and out["space"]["delta"] == d.to_json()


def test_saturate_prints_the_delta_it_ran_over(tmp_path, capsys):
    # the input space carries no delta; with -k 0 no point is added, with
    # -k 1 some are, and both outputs are bound to --delta
    delta = make_set([n1(1), n1(2)], cap=n1(2))
    m = write_json(tmp_path, "m.json", uniform_space(1, n1(1)).to_json())
    d = write_json(tmp_path, "d.json", delta.to_json())
    for k, grows in (("0", False), ("1", True)):
        code, out = run(capsys, ["saturate", "--space", m, "--delta", d, "-k", k])
        assert code == 0
        assert (len(out["space"]["labels"]) > 1) == grows
        assert out["space"]["delta"] == delta.to_json()


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
    # a missing field was a bare KeyError, printed as error: 'labels'
    pytest.param({"dist": [["0/1"]]}, "a space needs labels", id="no-labels"),
    pytest.param({"labels": ["a"]}, "a space needs dist", id="no-dist"),
    pytest.param({"labels": ["a"], "dist": [["0/1"]], "delta": {"values": ["1/1"]}}, "a distance set needs cap",
                 id="no-cap-in-delta"),
])
def test_space_fields_of_the_wrong_type_are_rejected(tmp_path, capsys, space, text):
    x = write_json(tmp_path, "x.json", space)
    assert_input_error(capsys, ["check-rigid", "--space", x], text)


@pytest.mark.parametrize("fragment, text", [
    pytest.param({"values": 5, "cap": "2/1"}, "values must be a list", id="number-values"),
    pytest.param({"values": "1/1", "cap": "2/1"}, "values must be a list", id="string-values"),
    pytest.param({"values": ["1/1"], "cap": 2}, "number string", id="number-cap"),
    pytest.param({"cap": "2/1"}, "a distance set needs values", id="no-values"),
    pytest.param({"values": ["1/1"]}, "a distance set needs cap", id="no-cap"),
])
def test_set_fields_of_the_wrong_type_are_rejected(tmp_path, capsys, fragment, text):
    d = write_json(tmp_path, "d.json", fragment)
    assert_input_error(capsys, ["encode-code", "--set", d], text)


@pytest.mark.parametrize("code, text", [
    pytest.param({"prefix": 5}, "prefix must be a list", id="number-prefix"),
    pytest.param({"prefix": "01"}, "prefix must be a list", id="string-prefix"),
    pytest.param({"prefix": ["0/1"], "bounded": "yes"}, "bounded must be true or false", id="string-bounded"),
    # named at load, not deep inside check-code as a KeyError or a comparison
    pytest.param({"bounded": True}, "a code needs a prefix", id="no-prefix"),
    pytest.param({"prefix": ["0/1", "1/1*sqrt(2)", "1/1+1/1*sqrt(3)"]}, "prefix mixes sqrt(2) and sqrt(3)",
                 id="mixed-radicands"),
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


def test_amalgamate_with_an_empty_side_is_the_other_space(tmp_path, capsys):
    # no cross pairs, so no cross distance: only two singletons with an
    # empty overlap have a zero one to refuse
    one = write_json(tmp_path, "one.json", uniform_space(1, n1(1), ordered=False).to_json())
    empty = write_json(tmp_path, "empty.json", Space((), ()).to_json())
    for b, c, labels in ((one, empty, ["p0"]), (empty, one, ["p0"]), (empty, empty, [])):
        code, out = run(capsys, ["amalgamate", "--b", b, "--c", c])
        assert code == 0 and out == {"labels": labels, "dist": [["0/1"]] * len(labels), "order": None}
    assert_input_error(capsys, ["amalgamate", "--b", one, "--c", one], "two singletons with empty overlap")


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


def test_check_theory_rechecks_the_clause_4_witness(tmp_path, capsys, monkeypatch):
    # the witness that clause (4) printed on {1, ..., 6} with ~C dropped
    # from its mask formula: R_11/2(6, 1), R_1/2(1, 1) and R_11/4(6, 1) all
    # hold, which is no violation, so the run is exit 4, not exit 1
    d = write_json(tmp_path, "d.json", make_set([n1(v) for v in range(1, 7)], cap=n1(6)).to_json())
    argv = ["check-theory", "--set", d]
    assert run(capsys, argv)[0] == 0
    check = coding.check_theory_T

    def wrong_witness(model, budget):
        report = check(model, budget)
        report["4"] = coding.ClauseStatus(coding.VIOLATED, (Fraction(11, 2), Fraction(1, 2), 6, 1, 1))
        return report

    monkeypatch.setattr(coding, "check_theory_T", wrong_witness)
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "clause (4) was reported violated at p = 11/2" in captured.err


def test_check_theory_rechecks_the_clause_7_witness(tmp_path, capsys, monkeypatch):
    # on {1, 2, 3} with the sample {1, 2, 3}, clause (7) is Satisfied with
    # the witness (1, 1, 1): 1 <= 1 * 1 (clause (3) fails, so exit 1).  A
    # witness 3 <= 1 * 1, one at q = 2, which is not the least sample
    # rational, or one at the index of 0 is exit 4
    d = write_json(tmp_path, "d.json", make_set([n1(1), n1(2), n1(3)], cap=n1(3)).to_json())
    argv = ["check-theory", "--set", d, "--sample", "1,2,3"]
    code, out = run(capsys, argv)
    assert code == 1 and out["clauses"]["7"] == {"status": "Satisfied", "witness": ["1", "1", "1"]}
    check = coding.check_theory_T
    for witness, text in (((Fraction(1), 3, 1), "but 3/1 > 1 * 1/1"),
                          ((Fraction(2), 1, 1), "but the least sample rational is 1"),
                          ((Fraction(1), 0, 1), "nonzero indices")):
        def wrong_witness(model, budget, witness=witness):
            report = check(model, budget)
            report["7"] = coding.ClauseStatus(coding.SATISFIED, witness)
            return report

        monkeypatch.setattr(coding, "check_theory_T", wrong_witness)
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "clause (7) was reported satisfied" in captured.err
        assert text in captured.err, captured.err


def test_check_theory_exit_1_on_clause_4_passes_the_recheck(tmp_path, capsys, monkeypatch):
    # a cut that loses (3, 1) at q = 2 breaks clause (4) for real: the
    # witness passes the re-check and the run is exit 1
    d = write_json(tmp_path, "d.json", make_set([n1(1), n1(2), n1(3)], cap=n1(3)).to_json())
    encode = coding.model_encode

    def one_pair_lost(*args):
        m = encode(*args)
        m.rq[Fraction(2)] -= {(3, 1)}
        return m

    monkeypatch.setattr(coding, "model_encode", one_pair_lost)
    code, out = run(capsys, ["check-theory", "--set", d])
    assert code == 1 and out["clauses"]["4"] == {"status": "Violated", "witness": ["8/3", "3/4", "3", "1", "1"]}


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


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5001,
                    reason="str() of a 5001-digit int is refused only under Python 3.11+'s digit limit")
@pytest.mark.parametrize("verb", ["check-theory", "encode-model"])
def test_a_sample_too_long_to_print_is_rejected(tmp_path, capsys, verb):
    # its witness text failed at output, after the check, with a ValueError
    d = write_json(tmp_path, "d.json", make_set([n1(1), n1(2)], cap=n1(2)).to_json())
    assert_input_error(capsys, [verb, "--set", d, "--sample", "1/2,1e5000"], "--sample: Exceeds the limit")


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5001,
                    reason="the exponent check applies only under Python 3.11+'s digit limit")
def test_a_sample_exponent_past_the_digit_limit_is_rejected_before_fraction_runs(tmp_path, capsys, monkeypatch):
    # Fraction("1e1000000") built a million-digit integer, in about 0.2 s,
    # before the digit limit refused it; the exponent is now refused first
    from deltaspace import cli

    real = cli.Fraction

    def no_huge_power(x, *args):
        if x == "1e1000000":
            raise AssertionError("Fraction ran on the huge term")
        return real(x, *args)

    monkeypatch.setattr(cli, "Fraction", no_huge_power)
    d = write_json(tmp_path, "d.json", make_set([n1(1), n1(2)], cap=n1(2)).to_json())
    for verb in ("check-theory", "encode-model"):
        assert_input_error(capsys, [verb, "--set", d, "--sample", "1/2,1e1000000"], "--sample: Exceeds the limit")
    # an exponent the rest of the term brings back under the limit still parses
    code, out = run(capsys, ["encode-model", "--set", d, "--sample", f"1,0.{'0' * 99}1e4390"])  # 10 ** 4290
    assert code == 0


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 8000,
                    reason="an answer is too long to print only under Python 3.11+'s digit limit")
def test_an_answer_past_the_digit_limit_is_a_blown_budget(tmp_path, capsys):
    # each input number has 4,000 digits and parses, but the answer holds
    # N^2 (the scaling ratio) or a Fraction of it (a GL2 matrix entry)
    big = "9" * 4000
    d1 = write_json(tmp_path, "d1.json", {"values": [f"1/{big}"], "cap": "unbounded", "closed": True})
    d2 = write_json(tmp_path, "d2.json", {"values": [f"{big}/1"], "cap": "unbounded", "closed": True})
    limit = f"budget: Exceeds the limit ({sys.get_int_max_str_digits()} digits)"
    for argv in (["check-equiv", "--d1", d1, "--d2", d2],
                 ["gl2", "--alpha", f"1/{big}*sqrt(2)", "--beta", f"{big}/1*sqrt(2)"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(limit)


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


def test_check_arrow_refuses_mixed_ordered_and_unordered_inputs(tmp_path, capsys):
    # an unordered 3-point uniform b does embed into the 6-point uniform
    # c as a metric space; with c ordered and b not, arrow names the
    # mismatch rather than report that b does not embed, and the same
    # for an unordered a under ordered c and b
    c6 = write_json(tmp_path, "c6.json", uniform_space(6, n1(1)).to_json())
    b3 = write_json(tmp_path, "b3.json", uniform_space(3, n1(1)).to_json())
    a2 = write_json(tmp_path, "a2.json", uniform_space(2, n1(1)).to_json())
    b3u = write_json(tmp_path, "b3u.json", uniform_space(3, n1(1), ordered=False).to_json())
    a2u = write_json(tmp_path, "a2u.json", uniform_space(2, n1(1), ordered=False).to_json())
    for b, a in ((b3u, a2), (b3u, a2u), (b3, a2u)):
        assert_input_error(capsys, ["check-arrow", "--c", c6, "--b", b, "--a", a, "-k", "2"],
                           "c, b and a must all be ordered or all unordered")


def test_a_fails_on_extra_copies_of_a_is_internal(tmp_path, capsys, monkeypatch):
    # with every pair of c reported as a copy of a, the search finds a bad
    # coloring that the re-check of b's copies accepts; only the check that
    # each key induces a copy of a stops it
    from deltaspace import ramsey
    rng = random.Random(104)
    c = make_space([f"p{i}" for i in range(8)], {(i, j): rng.choice((n1(1), n1(2)))
                                                for i in range(8) for j in range(i + 1, 8)},
                   tuple(rng.sample(range(8), 8)))
    b = make_space("xyz", {(0, 1): n1(2), (0, 2): n1(1), (1, 2): n1(1)}, (0, 1, 2))
    a = make_space("uv", {(0, 1): n1(1)}, (0, 1))
    argv = ["check-arrow", "-k", "2"]
    for name, x in (("c", c), ("b", b), ("a", a)):
        argv += [f"--{name}", write_json(tmp_path, f"{name}.json", x.to_json())]
    code, out = run(capsys, argv)
    assert code == 0 and out["status"] == "Holds" and out["nodes"] == 191
    copies_of = ramsey.copies_of

    def every_pair(x, y):
        return [(i, j) for i in range(x.n) for j in range(i + 1, x.n)] if y.n == 2 else copies_of(x, y)

    monkeypatch.setattr(ramsey, "copies_of", every_pair)
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal: AssertionError: a key of the bad coloring is not a copy of a\n"


def test_unordered_fails_recheck_does_not_share_isomorphic(tmp_path, capsys, monkeypatch):
    # K6 -> (K3) on edges with 2 colors holds.  With isomorphisms patched
    # never to match two of the triangles, the unordered copies_of misses
    # them and the search finds a bad coloring; the re-check finds every
    # triangle itself, so the run is an internal error, never a Fails
    from deltaspace import space
    argv = ["check-arrow", "-k", "2"]
    for name, n in (("c", 6), ("b", 3), ("a", 2)):
        argv += [f"--{name}", write_json(tmp_path, f"{name}.json", uniform_space(n, n1(1), ordered=False).to_json())]
    code, out = run(capsys, argv)
    assert code == 0 and out["status"] == "Holds" and out["copies_b"] == 20
    isomorphisms = space.isomorphisms

    def blind(x, y):
        return iter(()) if x.labels in (("p0", "p1", "p2"), ("p0", "p1", "p3")) else isomorphisms(x, y)

    monkeypatch.setattr(space, "isomorphisms", blind)
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal: AssertionError: bad coloring failed re-verification\n"


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


def test_check_sim_rechecks_its_witness(tmp_path, capsys, monkeypatch):
    # {1, 2} and {2, 4} are similar at r = 2 under the identity; a
    # permutation that sends 1 to the place of 4, or that is no
    # permutation, is exit 4, not exit 0 with a false witness
    c1 = write_json(tmp_path, "c1.json", coding.encode_dvs(make_set([n1(1), n1(2)])).to_json())
    c2 = write_json(tmp_path, "c2.json", coding.encode_dvs(make_set([n1(2), n1(4)])).to_json())
    argv = ["check-sim", "--c1", c1, "--c2", c2]
    code, out = run(capsys, argv)
    assert code == 0 and out["sim"] == {"permutation": [0, 1, 2, 3], "r": "2/1"}
    for g, text in (((0, 3, 2, 1), "d[3] = 4/1 is not r * c[1] = 2/1"), ((0, 1, 1, 3), "no permutation")):
        monkeypatch.setattr(coding, "sim_check", lambda c, d, g=g: (g, n1(2)))
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "check-sim reported the permutation" in captured.err
        assert text in captured.err, captured.err


def test_theory_verbs(tmp_path, capsys):
    d = write_json(tmp_path, "d.json", make_set([n1(1), n1(2), n1(3)], cap=n1(3)).to_json())
    code, out = run(capsys, ["check-theory", "--set", d])
    assert code == 0
    for key in ("1", "2", "3", "4", "5", "6"):
        assert out["clauses"][key]["status"] == "Satisfied"
    code, out = run(capsys, ["triangle-structure", "--set", d])
    assert code == 0
    assert out["universe"] == ["1/1", "2/1", "3/1"]


def test_extend_isometry_refusals(tmp_path, capsys):
    # on the path 0 - 1 - 2 (distances 1, 1 and 2), 0 -> 0 and 1 -> 2 is
    # no isometry.  0 -> 1 with 2 added needs a point at 2 above 1, which
    # the path lacks: a new point past --max-points 3 is a blown budget,
    # and one with no fragment to grow over is bad input
    m = write_json(tmp_path, "m.json", make_space(
        "abc", {(0, 1): n1(1), (1, 2): n1(1), (0, 2): n1(2)}, order=(0, 1, 2)).to_json())
    assert_input_error(capsys, ["extend-isometry", "--space", m, "--pairs", "0:0,1:2", "--point", "2"],
                       "p must be an order-preserving partial isometry")
    grow = ["extend-isometry", "--space", m, "--pairs", "0:1", "--point", "2"]
    assert main(grow + ["--max-points", "3"]) == 2
    assert capsys.readouterr() == ("", "budget: point budget\n")
    assert_input_error(capsys, grow, "space must carry a fragment binding to grow")


def test_input_from_stdin(tmp_path, capsys, monkeypatch):
    # "-" reads stdin as a file would be read, and names it in an error
    text = json.dumps(make_set([n1(1), n1(2)]).to_json())
    code, out = run(capsys, ["encode-code", "--set", write_json(tmp_path, "s.json", json.loads(text))])
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert run(capsys, ["encode-code", "--set", "-"]) == (0, out)
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"values": ['))
    assert_input_error(capsys, ["encode-code", "--set", "-"], "error: -: ")


def test_perturb_verb(tmp_path, capsys):
    delta = closed_fragment([ExactReal(Fraction(1, 4))], n1(4))
    m = write_json(tmp_path, "m.json", uniform_space(2, n1(1), delta=delta).to_json())
    d = write_json(tmp_path, "d.json", delta.to_json())
    code, out = run(capsys, ["perturb", "--space", m, "--delta", d, "--pairs", "0:1", "--eps", "1/2"])
    assert code == 0
    assert out["images"]
    # over the unbounded {1/4, 1}, the copies of 0 and 1 moved by 1/4
    # are 1/4 + 1 = 5/4 from the other's image, which is not in it
    d = write_json(tmp_path, "d.json", make_set([n1(Fraction(1, 4)), n1(1)]).to_json())
    assert_input_error(capsys, ["perturb", "--space", m, "--delta", d, "--pairs", "0:0,1:1", "--eps", "1/2"],
                       "perturbation distance 5/4 is not in the fragment")


def test_input_error_exit_code(capsys, tmp_path):
    code, _ = run(capsys, ["check-rigid", "--space", str(tmp_path / "missing.json")])
    assert code == 3
    # open() on a directory raised IsADirectoryError, which exited 4
    assert_input_error(capsys, ["encode-model", "--set", str(tmp_path)], "Is a directory")
    code, _ = run(capsys, ["gen-dvs", "--alpha", "2/1", "--height", "1", "--bound", "2/1"])
    assert code == 3
    assert_input_error(capsys, ["gen-dvs", "--alpha", "1/1*sqrt(2)", "--height", "1", "--bound", "0/1"],
                       "bound must be positive")
    s = write_json(tmp_path, "s.json", make_set([n1(1), n1(3)]).to_json())
    assert_input_error(capsys, ["close", "--set", s, "--bound", "2/1"], "bound below the largest value")
    s = write_json(tmp_path, "s.json", make_set([n1(1), n1(3)], cap=n1(3)).to_json())
    assert_input_error(capsys, ["close", "--set", s, "--bound", "4/1"], "bound must equal the cap of a bounded set")


@pytest.mark.parametrize("text", ['{"values": [', "\udcff", "[" * 100000 + "]" * 100000],
                         ids=["cut-short", "not-utf8", "nested-too-deep"])
def test_a_file_that_is_not_json_is_named(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text.encode("utf-8", "surrogateescape"))
    assert_input_error(capsys, ["encode-code", "--set", str(bad)], f"{bad}: ")


FLAG_ERRORS = [
    (["gen-dvs", "--alpha", "x", "--height", "1", "--bound", "2/1"], "--alpha: cannot parse 'x'"),
    (["gen-dvs", "--alpha", "1/1*sqrt(2)", "--height", "1", "--bound", "1/0"], "--bound: zero denominator"),
    (["gl2", "--alpha", "1/1*sqrt(2)", "--beta", "1/1*sqrt(4)"], "--beta: radicand 4 is not squarefree"),
    (["check-triangle", "--delta", "{d}", "--triple", "1/1,1/1"], "--triple: expected three numbers"),
    (["check-triangle", "--delta", "{d}", "--triple", "1/1,x,1/1"], "--triple: cannot parse 'x'"),
    (["perturb", "--space", "{m}", "--delta", "{d}", "--pairs", "0-1", "--eps", "1/2"],
     "--pairs: expected i:j pairs of point indices, not '0-1'"),
    (["perturb", "--space", "{m}", "--delta", "{d}", "--pairs", "0:1", "--eps", "1/2+"], "--eps: cannot parse"),
    (["amalgamate", "--b", "{m}", "--c", "{m}", "--overlap", "0:1:1"], "--overlap: expected i:j pairs"),
    (["extend-isometry", "--space", "{m}", "--pairs", "0:1", "--point", "2"],
     "--point: point index 2 out of range for 2 points"),
]


@pytest.mark.parametrize("argv, text", FLAG_ERRORS, ids=[f"{a[0]}-{text.split(':')[0]}" for a, text in FLAG_ERRORS])
def test_a_flag_that_does_not_parse_is_named(tmp_path, capsys, argv, text):
    m, d = write_two_points(tmp_path)
    assert_input_error(capsys, [a.format(m=m, d=d) for a in argv], text)


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


@pytest.mark.parametrize("exc", [KeyError("values"), ValueError("not enough values to unpack")], ids=repr)
def test_a_library_key_or_value_error_is_internal(tmp_path, capsys, monkeypatch, exc):
    # main catches only named input errors, so a bare KeyError or
    # ValueError from the library is a bug, not bad input
    from deltaspace import ramsey

    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(ramsey, "is_rigid", broken)
    x = write_json(tmp_path, "x.json", uniform_space(2, n1(1)).to_json())
    assert main(["check-rigid", "--space", x]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal: {type(exc).__name__}: {exc}\n"


def test_a_verdict_that_is_not_a_bool_is_internal(tmp_path, capsys, monkeypatch):
    # 1 == True and 0 == False, so a result or an old-style exit code
    # taken as a verdict would exit 0 or 1 on a wrong answer
    from deltaspace import cli

    x = write_json(tmp_path, "x.json", uniform_space(2, n1(1)).to_json())
    d = write_json(tmp_path, "d.json", make_set([n1(1), n1(2)]).to_json())
    cases = [
        (cli.ramsey, "is_rigid", lambda *args: 1, ["check-rigid", "--space", x]),
        (cli.dvs, "delta_triangle", lambda *args: 0, ["check-triangle", "--delta", d, "--triple", "1/1,1/1,2/1"]),
        # the parser binds each verb when it is built, so build one that reads the patched verb
        (cli, "cmd_check_rigid", lambda args: ({"rigid": True}, 1), ["check-rigid", "--space", x]),
    ]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    for owner, name, patched, argv in cases:
        with monkeypatch.context() as m:
            m.setattr(owner, name, patched)
            assert main(argv) == 4, name
        captured = capsys.readouterr()
        assert captured.out == "", name
        assert captured.err.startswith("internal: AssertionError: "), name
    assert run(capsys, ["check-rigid", "--space", x]) == (0, {"rigid": True})


def test_a_failed_final_check_of_saturate_is_internal(tmp_path, capsys, monkeypatch):
    # the input is valid and the vectors admissible, so a realized point
    # that breaks the space is a bug in the library, not bad input
    from deltaspace import limitbuilder

    real = limitbuilder.column

    class OneWrongEntry(list):
        wrong = False

        def append(self, u):
            if not self.wrong:  # the diagonal, which makes this column the new point's row
                self.wrong = True
                self[0] -= 1  # the new point's distance to point 0, in its own row only
            super().append(u)

    monkeypatch.setattr(limitbuilder, "column", lambda *args: OneWrongEntry(real(*args)))
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


def test_saturate_stdout_bytes_are_pinned_at_scale(tmp_path, capsys):
    # sha256 of the stdout of saturate -k 2 from a uniform 8-point start
    # over {1, 2, 3}, cap 3: 106 points, so the realizer masks and the
    # rows built over the value table span more than one machine word
    d = make_set([n1(1), n1(2), n1(3)], cap=n1(3))
    m = write_json(tmp_path, "m.json", uniform_space(8, n1(1), delta=d).to_json())
    dp = write_json(tmp_path, "d.json", d.to_json())
    assert main(["saturate", "--space", m, "--delta", dp, "-k", "2", "--max-points", "128"]) == 0
    out = capsys.readouterr().out
    assert len(json.loads(out)["space"]["labels"]) == 106
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "d95e9b6618b59dabfee5e5c9981ecbf08223d28991e06258506f27480ebed343"


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


def test_check_approx_stdout_bytes_are_pinned(tmp_path, capsys):
    # sha256 of the stdout of check-approx on: a rational code with zeros
    # and repeated values against a seeded shuffle of it; the code of a
    # seeded Q(sqrt 2) fragment against a seeded shuffle of it rescaled
    # by 3/2; and (0, 1, 4) against (0, 1, 2), which has no answer
    rational = [n1(v) for v in (0, 1, Fraction(3, 2), 0, 1, 2, 0, Fraction(3, 2), 3)]
    sqrt2 = list(coding.encode_dvs(_seeded_fragment(random.Random(3), 2, 5)).prefix)
    shuffled, rescaled = list(rational), [v * n1(Fraction(3, 2)) for v in sqrt2]
    random.Random(6).shuffle(shuffled)
    random.Random(8).shuffle(rescaled)
    pins = [
        (rational, shuffled, 0, "319fc4bb8aa14a754314d10b85041a39f648332ba1abe79db9ada19782e73fa4"),
        (sqrt2, rescaled, 0, "4354c5fbdbecc654a547bb04a2d33efa0ecfeb3ae9b9f7135a1439907739c162"),
        ([n1(0), n1(1), n1(4)], [n1(0), n1(1), n1(2)], 1,
         "ccd39e4c628338bb7686b63987055ee53aca416cd2d9b4a3ff9421eea682dac0"),
    ]
    for k, (c1, c2, code, digest) in enumerate(pins):
        files = [write_json(tmp_path, f"{k}{side}.json", coding.DvsCode(tuple(c)).to_json())
                 for side, c in (("a", c1), ("b", c2))]
        assert main(["check-approx", "--c1", files[0], "--c2", files[1]]) == code, k
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, k


def test_check_approx_prunes_by_incidence_within_its_node_budget(tmp_path, capsys, monkeypatch):
    # {1, ..., 8} against its reversed code: one isomorphism, the value
    # map.  Pruned by triple incidence it is found in 10 nodes; a search
    # that tries every image consistent with the triples so far needs 334
    code = coding.encode_dvs(make_set([n1(v) for v in range(1, 9)]))
    c1 = write_json(tmp_path, "c1.json", code.to_json())
    c2 = write_json(tmp_path, "c2.json", coding.DvsCode(code.prefix[::-1]).to_json())
    monkeypatch.setattr(coding, "SEARCH_NODES", 100)
    assert main(["check-approx", "--c1", c1, "--c2", c2]) == 0
    assert json.loads(capsys.readouterr().out)["approx"]["permutation"] == \
        [1, 14, 3, 12, 5, 10, 7, 8, 9, 6, 11, 4, 13, 2, 15, 0]


def test_theory_stdout_bytes_are_pinned_on_many_sums(tmp_path, capsys):
    # sha256 of the stdout of encode-model and check-theory on {1, ..., 6},
    # cap 6: 15 sums, so clause (6) reads a split table on every one; on
    # the default sample (60 rationals) and on the sample {1, ..., 6}
    d = write_json(tmp_path, "d.json", make_set([n1(v) for v in range(1, 7)], cap=n1(6)).to_json())
    pins = [
        (["encode-model"], 0, "f5856d9f67fc5a064c4e413a1cb7c471a11cd8fc89fc42b35d96da172d14ecec"),
        (["check-theory"], 0, "e34d08390751eb9d5930b4a8da72d9db6391b2e6e24eb3d1dd3ebedf7523a2e8"),
        (["check-theory", "--sample", "1,2,3,4,5,6"], 1,
         "2815767dff755633d64b48919c10eb9df0226c3cdcd0aa31ce4a542897ae83de"),
    ]
    for argv, code, digest in pins:
        assert main(argv[:1] + ["--set", d] + argv[1:]) == code, argv
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, argv


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


# A broken writer took minutes to report.  Each failing run of a writer
# test made pytest diff two report texts of one long line each with
# difflib, and shrinking made more failing runs, each writing two files
# and running cli.main.  So the writer tests do not shrink, and compare
# the texts through first_difference, whose failure pytest need not diff.
NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


def first_difference(got: str, want: str):
    """None when the texts are equal, else the first index where they
    differ and up to 40 characters of each on either side of it."""
    if got == want:
        return None
    i = next((j for j, (x, y) in enumerate(zip(got, want)) if x != y), min(len(got), len(want)))
    return i, got[max(0, i - 40):i + 40], want[max(0, i - 40):i + 40]


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
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
    assert first_difference(out.getvalue(), oracles.extension_report_json(report) + "\n") is None


@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
@given(seed=st.integers(0, 10 ** 6), n=st.integers(0, 6), frag=st.sampled_from(range(len(REPORT_FRAGMENTS))))
@example(seed=5, n=6, frag=0)
def test_extension_report_bytes_match_the_dict_writer_at_k3(tmp_path_factory, seed, n, frag):
    # 3-point subsets: the kernel's general path and its codes, through
    # the writer, against the report built as a dict and dumped
    d = REPORT_FRAGMENTS[frag]
    m = random_space(random.Random(seed), n, d)
    tmp = tmp_path_factory.mktemp("report")
    argv = ["check-extension", "--space", write_json(tmp, "m.json", m.to_json()),
            "--delta", write_json(tmp, "d.json", d.to_json()), "-k", "3"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    report = extension_property_check(m, d, 3)
    assert code == (0 if report.empty else 1)
    assert first_difference(out.getvalue(), oracles.extension_report_json(report) + "\n") is None
