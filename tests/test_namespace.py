"""The package namespace: every public name resolves, eagerly or on first use."""

import pytest
from mpmath import mp, mpf

import hyperchrom


def test_all_names_resolve():
    for name in hyperchrom.__all__:
        assert getattr(hyperchrom, name) is not None, name


def test_star_import_binds_all():
    scope: dict = {}
    exec("from hyperchrom import *", scope)
    missing = [name for name in hyperchrom.__all__ if name not in scope]
    assert not missing
    assert scope["verify_grids"] is hyperchrom.closed_forms.verify_grids
    assert scope["get_backend"]() == "numpy"


def test_dir_lists_all():
    assert set(hyperchrom.__all__) <= set(dir(hyperchrom))


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        hyperchrom.no_such_name
    assert not hasattr(hyperchrom, "_no_such_private")


def test_c_thm3_to_40_digits():
    with mp.workdps(60):
        want = (1 + (9 / mp.e) ** (mpf(1) / 3)) / 3
        assert abs(hyperchrom.C_THM3 - want) < mpf(10) ** -40
    assert mp.nstr(hyperchrom.C_THM3, 40) == mp.nstr(want, 40)
