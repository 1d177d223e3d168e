import ast
import pathlib

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
