"""The package's export list: every name resolves, none repeats, and ``import *`` binds them."""

import gnncert


def test_every_exported_name_resolves_once():
    names = gnncert.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(gnncert, name)] == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from gnncert import *", namespace)
    assert all(namespace[name] is getattr(gnncert, name) for name in gnncert.__all__)
