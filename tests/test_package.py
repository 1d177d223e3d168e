import deltaspace


def test_every_exported_name_resolves():
    # a stale __all__ entry breaks only `from deltaspace import *`
    assert [name for name in deltaspace.__all__ if not hasattr(deltaspace, name)] == []
    namespace = {}
    exec("from deltaspace import *", namespace)
    assert set(deltaspace.__all__) <= set(namespace)
