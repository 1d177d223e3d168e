import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import deltaspace


def test_every_exported_name_resolves():
    # a stale __all__ entry breaks only `from deltaspace import *`
    assert [name for name in deltaspace.__all__ if not hasattr(deltaspace, name)] == []
    namespace = {}
    exec("from deltaspace import *", namespace)
    assert set(deltaspace.__all__) <= set(namespace)


def _unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, a name listed in its
    __all__ counting as read; __future__ imports are directives."""
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_unused_import_guard_sees_an_unused_name():
    assert _unused_imports("import os\nfrom a import b, c\nb()\n") == ["os (line 1)", "c (line 2)"]
    assert _unused_imports("from __future__ import annotations\nfrom a import b\n__all__ = ['b']\n") == []


def test_no_module_imports_a_name_it_never_reads():
    src = pathlib.Path(deltaspace.__file__).parent
    unused = {path.name: names for path in sorted(src.glob("*.py")) if (names := _unused_imports(path.read_text()))}
    assert unused == {}


def _unread_parameters(source: str) -> list[str]:
    """The parameters that a def declares and never reads, a read by a
    def nested in it counting.  A name that starts with _ is declared
    unread on purpose, and a method's receiver (self or cls) is declared
    by the method protocol, so neither is listed."""
    tree = ast.parse(source)
    methods = {fn for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for fn in cls.body
               if isinstance(fn, ast.FunctionDef) and not any(getattr(d, "id", None) == "staticmethod"
                                                              for d in fn.decorator_list)}
    unread = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = fn.args
            params = [p.arg for p in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if p]
            read = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            if fn in methods:
                params = params[1:]
            unread += [f"{fn.name}: {p} (line {fn.lineno})" for p in params if p not in read and not p.startswith("_")]
    return unread


def test_unread_parameter_guard_sees_an_unread_name():
    assert _unread_parameters("def f(a, b, _c, *args, d, **kw):\n    return a + d\n") == \
        ["f: b (line 1)", "f: args (line 1)", "f: kw (line 1)"]
    assert _unread_parameters("class K:\n    def m(self, x):\n        return 1\n"
                              "    @staticmethod\n    def s(y):\n        pass\n") == ["m: x (line 2)", "s: y (line 5)"]
    assert _unread_parameters("def outer(z):\n    def inner():\n        return z\n    return inner\n") == []


def test_no_function_declares_a_parameter_it_never_reads():
    # a parameter that does nothing is deleted, or named _x where a
    # caller passes it by position (injective_maps' candidates(m, i))
    src = pathlib.Path(deltaspace.__file__).parent
    unread = {path.name: names for path in sorted(src.glob("*.py")) if (names := _unread_parameters(path.read_text()))}
    assert unread == {}


def _glance_rows():
    """(module, the backticked spans of its contents cell) for each row
    of README's "Library at a glance" table."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Library at a glance", 1)[1].split("\n## ", 1)[0]
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and re.fullmatch(r"`deltaspace\.\w+`", cells[0]):
            yield cells[0].strip("`"), re.findall(r"`([^`]+)`", cells[1])


def test_readme_module_table_names_resolve():
    # each name resolves on its row's module, on the package when its
    # first part is a module, or on a class named before it in the cell
    modules = {path.stem for path in pathlib.Path(deltaspace.__file__).parent.glob("*.py")}
    rows = list(_glance_rows())
    assert [module for module, _ in rows][:2] == ["deltaspace.exact", "deltaspace.dvs"]
    missing = []
    for module_name, names in rows:
        module, cls = importlib.import_module(module_name), None
        for name in names:
            if name == "deltaspace" or not re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", name):
                continue  # the command, or text such as `p.inverse()`
            head, *parts = name.split(".")
            obj = importlib.import_module(f"deltaspace.{head}") if head in modules else getattr(module, head, None)
            if obj is None and cls is not None:
                obj = getattr(cls, head, None)
            for part in parts:
                obj = getattr(obj, part, None)
            if obj is None:
                missing.append(f"{module_name}: {name}")
            elif isinstance(obj, type):
                cls = obj
    assert missing == []


def _exit_sites(source: str) -> tuple[list[str], list[str]]:
    """The top-level function (or <module>) around each print to stdout,
    one without file=, and each return of a cmd_* function whose verdict,
    the last item of a returned tuple or else the whole value, holds an
    EXIT_* name or an int literal: an exit code where a verdict belongs."""
    prints, returns = [], []
    for top in ast.parse(source).body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
                    and not any(kw.arg == "file" for kw in node.keywords)):
                prints.append((node.lineno, name))
            elif isinstance(node, ast.Return) and name.startswith("cmd_") and node.value is not None:
                verdict = node.value.elts[-1] if isinstance(node.value, ast.Tuple) else node.value
                if any((isinstance(e, ast.Name) and e.id.startswith("EXIT_"))
                       or (isinstance(e, ast.Constant) and type(e.value) is int) for e in ast.walk(verdict)):
                    returns.append((node.lineno, f"{name} (line {node.lineno})"))
    return [name for _, name in sorted(prints)], [name for _, name in sorted(returns)]


def test_exit_site_guard_sees_a_breach():
    source = ("def cmd_a(args):\n    print(1)\n    return EXIT_YES\n"
              "def cmd_b(args):\n    return {}, 1\n"
              "def cmd_c(args):\n    return {0: 1}, True if args else None\n"
              "def cmd_d(args):\n    return {}, EXIT_YES if args else EXIT_NO\n"
              "def main():\n    print(2)\n    print(3, file=err)\n"
              "print(4)\n")
    assert _exit_sites(source) == (["cmd_a", "main", "<module>"],
                                   ["cmd_a (line 3)", "cmd_b (line 5)", "cmd_d (line 9)"])


def test_cli_has_one_exit_site():
    # main alone prints to stdout, and no verb returns an exit code: each
    # returns a verdict, which main alone turns into one
    source = (pathlib.Path(deltaspace.__file__).parent / "cli.py").read_text()
    assert _exit_sites(source) == (["main"], [])


def _callers(source: str, callee: str) -> list[str]:
    """The top-level function (or <module>) around each call of callee
    by name, or as an attribute (`search.injective_maps(...)`), in source order."""
    callers = []
    for top in ast.parse(source).body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        callers += [name for node in ast.walk(top)
                    if isinstance(node, ast.Call) and callee in (getattr(node.func, "id", None),
                                                                 getattr(node.func, "attr", None))]
    return callers


def test_coding_has_one_triangle_pattern_search():
    # approx_check and triangle-structure --other share ts_isomorphic's
    # search, so a second injective_maps call in coding is a second search
    assert _callers("def f():\n    g(h(1))\ng()\n", "g") == ["f", "<module>"]
    source = (pathlib.Path(deltaspace.__file__).parent / "coding.py").read_text()
    assert _callers(source, "injective_maps") == ["ts_isomorphic"]


def _reads_attribute(source: str, attr: str) -> bool:
    return any(isinstance(node, ast.Attribute) and node.attr == attr and isinstance(node.ctx, ast.Load)
               for node in ast.walk(ast.parse(source)))


def test_only_coding_reads_the_triangle_relation():
    # TriangleStructure.relation keeps one sorted triple per multiset; the
    # other modules read its orderings through ordered_triples()
    assert _reads_attribute("s.relation[0]\n", "relation")
    assert not _reads_attribute("relation = 1\ns.relation = 2\n", "relation")
    src = pathlib.Path(deltaspace.__file__).parent
    assert [path.name for path in sorted(src.glob("*.py")) if _reads_attribute(path.read_text(), "relation")] == \
        ["coding.py"]


def test_search_engine_has_two_callers():
    # the engine's callers are two modules: the ordered copies_of and the
    # bijection searches run on injective_maps; arrow's coloring loop is
    # its own (ramsey._color), so a further search on the engine, arrow
    # back on it, or an engine class beside it is an edit here
    assert _callers("def f():\n    search.injective_maps(1)\n", "injective_maps") == ["f"]
    src = pathlib.Path(deltaspace.__file__).parent
    sites = [f"{path.stem}.{name}" for path in sorted(src.glob("*.py"))
             for name in _callers(path.read_text(), "injective_maps")]
    assert sites == ["coding.ts_isomorphic", "space.copies_of", "space.isomorphisms"]
    assert "injective_maps" not in _imported_modules((src / "ramsey.py").read_text())
    tree = ast.parse((src / "search.py").read_text())
    assert [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)] == ["BudgetExceeded"]


ENGINES = {"limitbuilder", "ramsey", "coding", "search", "amalgam"}


def _imported_modules(source: str) -> set[str]:
    """Every module name a source imports, each part of a dotted name and
    each name imported from a package counted on its own."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            names.update(alias.name for alias in node.names)
    return names


def test_engine_import_guard_sees_an_engine():
    assert _imported_modules("from . import ramsey\n") & ENGINES == {"ramsey"}
    assert _imported_modules("from .search import injective_maps\n") & ENGINES == {"search"}
    assert _imported_modules("import deltaspace.coding as c\n") & ENGINES == {"coding"}
    assert _imported_modules("from __future__ import annotations\n") & ENGINES == set()


def test_recheck_imports_no_engine():
    # the re-checks share nothing with the engines whose witnesses they
    # check, nor with space's copies_of and isomorphic, which the engines
    # use: a re-check reads a space's attributes only
    source = (pathlib.Path(deltaspace.__file__).parent / "recheck.py").read_text()
    assert _imported_modules(source) & (ENGINES | {"space"}) == set()


def test_ramsey_is_the_arrow_search_alone():
    # a re-check defined in ramsey would share the module it checks
    source = (pathlib.Path(deltaspace.__file__).parent / "ramsey.py").read_text()
    functions = [node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)]
    assert functions == ["arrow", "_color", "is_rigid"]


def test_import_builds_no_theory_table():
    # the product triples of SMALL_RATIONALS are built on first use; built
    # at import, they would be set-up work of every verb, theory or not
    src = pathlib.Path(deltaspace.__file__).parent.parent
    code = ("import deltaspace, deltaspace.cli\n"
            "from deltaspace import coding\n"
            "assert coding._small_products.cache_info().currsize == 0\n"
            "coding._small_products()\n"
            "assert coding._small_products.cache_info().currsize == 1\n")
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
