"""The ``test`` extra of ``pyproject.toml`` installs what the suites import.

A fresh ``pip install .[test]`` must collect every test file under
``tests/`` and ``perfbench/``, so each third-party module imported there
(outside the standard library, the lab and the suites' own modules) is
named by ``dependencies`` or by the ``test`` extra. A module's import
name is taken as its distribution's name, as it is for every dependency
the lab has.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent
SUITE_FILES = sorted(path for suite in ("tests", "perfbench")
                     for path in (ROOT / suite).glob("*.py"))


def normalized(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def third_party_imports(sources: list[str], local: set[str]) -> set[str]:
    """Top-level names of the absolute imports in ``sources`` that are
    neither in the standard library nor in ``local``."""
    names = set()
    for node in (node for source in sources for node in ast.walk(ast.parse(source))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names - set(sys.stdlib_module_names) - local


def undeclared(imported: set[str], pyproject: dict) -> set[str]:
    """The ``imported`` names that no requirement of ``dependencies`` or of
    the ``test`` extra names."""
    project = pyproject["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {normalized(re.match(r"[A-Za-z0-9._-]+", req).group())
                for req in requirements}
    return {name for name in imported if normalized(name) not in declared}


def test_every_suite_import_is_declared():
    local = {path.stem for path in SUITE_FILES} | {"madelung_lab"}
    imported = third_party_imports([path.read_text() for path in SUITE_FILES], local)
    assert {"numpy", "pytest", "hypothesis"} <= imported
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert undeclared(imported, pyproject) == set()


def test_an_undeclared_import_is_caught():
    source = ("import json\nimport numpy as np\nfrom hypothesis import given\n"
              "from . import helpers\nimport controls\n\n"
              "def oracle():\n    from scipy.integrate import quad\n    return quad\n")
    imported = third_party_imports([source], {"controls"})
    assert imported == {"numpy", "hypothesis", "scipy"}
    pyproject = {"project": {"dependencies": ["numpy>=1.24"],
                             "optional-dependencies": {"test": ["SciPy >= 1.10"]}}}
    assert undeclared(imported, pyproject) == {"hypothesis"}
