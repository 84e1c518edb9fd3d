"""Source rules the library keeps, checked on its syntax tree.

* No ``assert`` statements: checks that guard physics or numerics must
  raise a typed error, because ``python -O`` strips asserts.
* No bare ``except:`` and no ``except Exception``/``BaseException``
  handlers: a blanket handler turns a code bug into a verdict.
* No imports inside functions: every dependency is stated at the top
  of its module.
"""

import ast
from pathlib import Path

import pytest

import madelung_lab

PACKAGE = Path(madelung_lab.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))
BLANKET = {"Exception", "BaseException"}


def _caught_names(handler: ast.ExceptHandler) -> list[str]:
    caught = handler.type
    if caught is None:
        return ["<bare>"]
    items = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return [item.id for item in items if isinstance(item, ast.Name)]


def violations(source: str) -> list[str]:
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append(f"line {node.lineno}: assert statement")
        elif isinstance(node, ast.ExceptHandler):
            for name in _caught_names(node):
                if name == "<bare>" or name in BLANKET:
                    found.append(f"line {node.lineno}: except {name}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.append(f"line {inner.lineno}: import inside "
                                 f"{getattr(node, 'name', 'lambda')}")
    return found


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_is_clean(path):
    assert violations(path.read_text()) == []


@pytest.mark.parametrize("snippet", [
    pytest.param("def f(x):\n    assert x > 0\n", id="assert"),
    pytest.param("try:\n    pass\nexcept:\n    pass\n", id="bare-except"),
    pytest.param("try:\n    pass\nexcept Exception:\n    pass\n",
                 id="except-exception"),
    pytest.param("try:\n    pass\nexcept (ValueError, Exception) as exc:\n"
                 "    pass\n", id="except-tuple-with-exception"),
    pytest.param("def f():\n    import json\n", id="import-in-function"),
    pytest.param("class A:\n    def m(self):\n        from os import path\n",
                 id="import-in-method"),
])
def test_rules_catch_violations(snippet):
    assert violations(snippet)


def test_narrow_handlers_pass():
    snippet = ("import json\n\ndef f():\n    try:\n        pass\n"
               "    except (ValueError, KeyError):\n        pass\n")
    assert violations(snippet) == []
