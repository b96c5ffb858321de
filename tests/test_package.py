"""The package's public surface, declared once in ``geopolsar.__all__``."""

import types

import geopolsar


def test_all_lists_exactly_the_names_the_package_binds():
    # the import block of __init__ and its __all__ cannot drift apart: every
    # listed name resolves, once, and every public non-module name is listed
    assert all(hasattr(geopolsar, name) for name in geopolsar.__all__)
    assert len(set(geopolsar.__all__)) == len(geopolsar.__all__)
    bound = {
        name
        for name, value in vars(geopolsar).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(geopolsar.__all__) == bound | {"__version__"}
