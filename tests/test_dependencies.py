"""Every third-party module the package imports is a declared dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parent.parent


def _imported_top_levels():
    names = set()
    for path in (ROOT / "src" / "groundflow").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group().lower()
                for d in project["dependencies"]}
    third_party = _imported_top_levels() - set(sys.stdlib_module_names)
    assert third_party <= declared, third_party - declared


def test_lapack_exports_the_tridiagonal_ritz_calls():
    # schrodinger._top_ritz calls these two wrappers directly, positionally,
    # with the signatures scipy>=1.10 (the declared floor) generates
    from scipy.linalg import lapack

    signatures = {
        "dstebz": "m,w,iblock,isplit,info = dstebz(d,e,range,vl,vu,il,iu,tol,order)",
        "dstein": "z,info = dstein(d,e,w,iblock,isplit)",
    }
    for name, signature in signatures.items():
        assert hasattr(lapack, name), name
        assert getattr(lapack, name).__doc__.splitlines()[0] == signature
