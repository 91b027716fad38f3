import lagstate


def test_every_exported_name_resolves_once():
    names = lagstate.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(lagstate, name)]
    assert missing == []


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from lagstate import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(lagstate.__all__)
