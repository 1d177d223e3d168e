"""The benchmark's tracer against the library it wraps.

perfbench/tracer.py wraps library functions and methods by name, and its
install() raises KeyError when one of them is gone.  Installing it around
one CLI call here means that a rename or deletion that would break
`perfbench/run.py --trace 1` fails the test suite as well.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _library_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "deltaspace" or name.startswith("deltaspace.")}


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's run and tracer modules.  run.load_library() imports
    deltaspace afresh, so the modules the other tests imported are put
    back afterwards; monkeypatch restores sys.path."""
    saved = _library_modules()
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import tracer

    yield run, tracer
    for name in [*_library_modules(), "run", "tracer", "workloads"]:
        sys.modules.pop(name, None)
    sys.modules.update(saved)


def test_tracer_installs_around_a_cli_call(perfbench, capsys):
    run, tracer = perfbench
    lib = run.load_library()
    t = tracer.Tracer(lib)
    t.install()
    try:
        code = lib.cli.main(["gen-dvs", "--alpha", "1/1*sqrt(2)", "--height", "1", "--bound", "2/1"])
    finally:
        t.uninstall()
    assert code == 0
    assert t.calls["cli"] == 1 and t.calls["dvs.gen_delta_alpha"] == 1
    assert t.calls["exact.construct"] > 0
    assert capsys.readouterr().out.startswith("{")
