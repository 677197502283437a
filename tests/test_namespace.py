"""The package namespace: every public name resolves on first use, through one table."""

import ast
from pathlib import Path

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


def _defined_names(module):
    """The names a submodule binds at top level by def, class or assignment, not by import."""
    tree = ast.parse((Path(hyperchrom.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_lazy_table_names_each_defining_module():
    # one table serves every public name: no stale key, none missing
    assert set(hyperchrom._LAZY) == set(hyperchrom.__all__)
    defined = {module: _defined_names(module) for module in set(hyperchrom._LAZY.values())}
    wrong = {name: module for name, module in hyperchrom._LAZY.items() if name not in defined[module]}
    assert not wrong


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
