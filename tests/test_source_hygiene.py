"""Source rules the library keeps, checked on its syntax tree.

* No ``assert`` statements: checks that guard physics or numerics must
  raise a typed error, because ``python -O`` strips asserts.
* No bare ``except:`` and no ``except Exception``/``BaseException``
  handlers: a blanket handler turns a code bug into a verdict.
* No imports inside functions: every dependency is stated at the top
  of its module.
* Every name the package exports is used by another library module:
  surface that only tests call is deleted, not maintained.
* Every key of the CLI's ``KEYS`` table is read as ``cfg["key"]``: a
  config key no experiment reads is not kept as a dead knob.
"""

import ast
from pathlib import Path

import pytest

import madelung_lab

PACKAGE = Path(madelung_lab.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))
BLANKET = {"Exception", "BaseException"}
# Synthetic couples with closed-form actions: exported as test controls
# and negative controls, so no library module needs to build them.
TEST_CONTROLS = {"plateau_couple", "translating_gaussian_couple"}


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


def _exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _library_references() -> set[str]:
    found = set()
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                found.update(alias.name for alias in node.names)
    return found


def test_every_export_is_used_by_the_library():
    exported = _exported_names()
    assert TEST_CONTROLS <= exported
    assert sorted(exported - _library_references() - TEST_CONTROLS) == []


def unread_keys(source: str) -> list[str]:
    """Keys of the module's ``KEYS`` table that no ``cfg["key"]`` reads."""
    tree = ast.parse(source)
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "KEYS" for t in node.targets))
    read = {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "cfg" and isinstance(node.slice, ast.Constant)}
    return sorted(key.value for key in table.keys if key.value not in read)


def test_every_config_key_is_read():
    assert unread_keys((PACKAGE / "cli.py").read_text()) == []


def test_unread_config_key_is_caught():
    snippet = ('KEYS = {"a": (int, 1, None), "b": (int, 2, None)}\n\n'
               'def f(cfg, KEYS):\n    return cfg["a"] + KEYS["b"][1]\n')
    assert unread_keys(snippet) == ["b"]
