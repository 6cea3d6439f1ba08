import nilgeom


def test_public_names_resolve():
    missing = [name for name in nilgeom.__all__ if not hasattr(nilgeom, name)]
    assert not missing
    namespace: dict = {}
    exec("from nilgeom import *", namespace)
    assert set(nilgeom.__all__) <= set(namespace)
