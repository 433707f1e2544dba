"""The package namespace: every exported name resolves."""

import critsense


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from critsense import *", namespace)
    missing = [n for n in critsense.__all__ if n not in namespace]
    assert not missing
    assert len(set(critsense.__all__)) == len(critsense.__all__)
    for name in critsense.__all__:
        assert getattr(critsense, name) is namespace[name]
