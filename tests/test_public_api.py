import pafg


def test_every_exported_name_imports():
    namespace = {}
    exec("from pafg import *", namespace)  # a stale name in __all__ raises AttributeError
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(pafg.__all__)
