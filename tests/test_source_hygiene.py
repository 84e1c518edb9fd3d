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
* ``np.interp`` is called only by ``sample_initial``, whose inverse-CDF
  knots are not uniform: every lookup on the uniform grid goes through
  ``ScalarField.at``, so no second lookup kernel creeps back in.
* ``np.savetxt`` is not used at all: every CSV goes through the one
  writer in ``io_formats``, so no second CSV kernel creeps back in.
* ``fd_dx`` and ``spectral_dx`` take an ``np.log(...)`` argument, or a
  local name bound to one in the same function, only in ``decompose``
  and ``plateau_couple``, the constructors that attach a couple's log
  density gradient that way, and in ``madelung_residuals``, the
  independent check of the energy equation: every other reader takes
  the attached field, so no log-gradient fallback creeps back in.
* ``Philox`` appears only in ``sample_initial`` and ``_noise``, and
  ``normal`` only in ``_noise``: the trajectory noise has one draw site,
  the one that runs a job ahead of the stepping, so no second,
  unpipelined draw path creeps back in.
* ``SPACE_SUPPORT``, ``TIME_WINDOW``, ``AMPLITUDE`` and ``MODES``, the
  constants of the perturbation recipe, are named only in
  ``competitors``: no other module imports, reads or redefines them, so
  no second copy of the recipe creeps back in.
* Every parameter with a default in a library ``def`` is set, by
  keyword, by position or through ``*args`` or ``**kwargs``, by some
  call in the library or in ``perfbench/`` to a function of that name:
  a setting no caller uses is a constant, not a parameter. The kept
  exceptions are the ``node_floor`` of the propagation and decomposition
  route, which the wide-packet test lowers until that route stops
  decomposing FFT roundoff in the tails, and the knob of each test
  control that its tests vary.
"""

import ast
from pathlib import Path

import pytest

import madelung_lab

PACKAGE = Path(madelung_lab.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))
PERFBENCH = sorted((Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"))
BLANKET = {"Exception", "BaseException"}
# Synthetic couples with closed-form actions: exported as test controls
# and negative controls, so no library module needs to build them.
TEST_CONTROLS = {"plateau_couple", "translating_gaussian_couple"}
INTERP_ALLOWED = {"sample_initial"}
LOG_GRADIENT_ALLOWED = {"decompose", "plateau_couple", "madelung_residuals"}
DRAW_ALLOWED = {"Philox": {"sample_initial", "_noise"}, "normal": {"_noise"}}
RECIPE = ("SPACE_SUPPORT", "TIME_WINDOW", "AMPLITUDE", "MODES")
UNSET_DEFAULTS_ALLOWED = {("decompose", "node_floor"), ("free_propagate", "node_floor"),
                          ("gaussian_packet", "node_floor"), ("plateau_couple", "speed"),
                          ("translating_gaussian_couple", "variance")}


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


def owned_nodes(source: str):
    """Every node of the source with the name of its enclosing function."""

    def visit(node: ast.AST, owner: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            yield child, owner
            yield from visit(child, owner)

    return visit(ast.parse(source), "<module>")


def name_sites(source: str, name: str) -> list[tuple[int, str]]:
    """(line, enclosing function) of every ``name`` attribute or import."""
    return [(node.lineno, owner) for node, owner in owned_nodes(source)
            if (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.alias) and node.name == name)]


def stray_interp(source: str) -> list[tuple[int, str]]:
    return [site for site in name_sites(source, "interp")
            if site[1] not in INTERP_ALLOWED]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_interp_only_in_the_inverse_cdf(path):
    assert stray_interp(path.read_text()) == []


@pytest.mark.parametrize("snippet", [
    pytest.param("import numpy as np\n\nclass F:\n    def at(self, x):\n"
                 "        return np.interp(x, self.x, self.v)\n", id="method"),
    pytest.param("from numpy import interp\n", id="import"),
    pytest.param("import numpy\n\nLOOKUP = numpy.interp\n", id="module-level"),
])
def test_interp_sites_are_found(snippet):
    assert stray_interp(snippet)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_savetxt(path):
    assert name_sites(path.read_text(), "savetxt") == []


@pytest.mark.parametrize("snippet", [
    pytest.param("import numpy as np\n\ndef write(path, table):\n"
                 "    np.savetxt(path, table, fmt=\"%.17g\")\n", id="call"),
    pytest.param("from numpy import savetxt\n", id="import"),
    pytest.param("import numpy\n\nWRITE = numpy.savetxt\n", id="module-level"),
])
def test_savetxt_sites_are_found(snippet):
    assert name_sites(snippet, "savetxt")


def _calls(node: ast.AST, names: set[str]) -> bool:
    """Whether ``node`` calls one of ``names``, bare or as an attribute."""
    if not isinstance(node, ast.Call):
        return False
    return getattr(node.func, "id", getattr(node.func, "attr", None)) in names


def stray_log_gradient(source: str) -> list[tuple[int, str]]:
    """(line, enclosing function) of every x-derivative of an ``np.log``
    call, or of a name the same function bound to one, outside the
    functions allowed to take a log gradient."""
    nodes = list(owned_nodes(source))
    log_names = {(owner, target.id) for node, owner in nodes
                 if isinstance(node, ast.Assign) and _calls(node.value, {"log"})
                 for target in node.targets if isinstance(target, ast.Name)}

    def of_log(arg: ast.AST, owner: str) -> bool:
        return _calls(arg, {"log"}) or (isinstance(arg, ast.Name)
                                         and (owner, arg.id) in log_names)

    return [(node.lineno, owner) for node, owner in nodes
            if _calls(node, {"fd_dx", "spectral_dx"}) and node.args
            and of_log(node.args[0], owner) and owner not in LOG_GRADIENT_ALLOWED]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_log_gradient_only_in_its_constructors(path):
    assert stray_log_gradient(path.read_text()) == []


@pytest.mark.parametrize("snippet", [
    pytest.param("import numpy as np\n\nclass C:\n    def grad(self):\n"
                 "        return fd_dx(np.log(self.rho), self.grid)\n", id="method"),
    pytest.param("import numpy\n\ndef u(rho, grid):\n"
                 "    return spectral_dx(numpy.log(rho), grid, 'log')\n", id="spectral"),
    pytest.param("from numpy import log\n\nLG = grid_fields.fd_dx(log(RHO), GRID)\n",
                 id="module-level"),
    pytest.param("import numpy as np\n\ndef u(rho, grid):\n"
                 "    log_rho = np.log(rho.values)\n"
                 "    return fd_dx(log_rho, grid)\n", id="temporary-name"),
])
def test_log_gradient_sites_are_found(snippet):
    assert stray_log_gradient(snippet)


def test_log_gradient_allowed_sites_pass():
    snippet = ("import numpy as np\n\ndef decompose(psi, grid):\n"
               "    return fd_dx(np.log(psi), grid)\n\n"
               "def madelung_residuals(rho, grid):\n"
               "    log_rho = np.log(rho)\n"
               "    return fd_dx(log_rho, grid)\n\n"
               "def bump(ratio, grid):\n"
               "    return spectral_dx(np.log1p(ratio), grid, 'bump')\n\n"
               "def slope(log_rho, grid):\n"
               "    return fd_dx(log_rho, grid)\n")
    assert stray_log_gradient(snippet) == []


def stray_draws(source: str) -> list[tuple[int, str]]:
    """(line, enclosing function) of every ``Philox`` or ``normal`` site
    outside the functions allowed to draw it."""
    return [site for name, allowed in DRAW_ALLOWED.items()
            for site in name_sites(source, name) if site[1] not in allowed]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_noise_has_one_draw_site(path):
    assert stray_draws(path.read_text()) == []


@pytest.mark.parametrize("snippet", [
    pytest.param("import numpy as np\n\nclass E:\n    def step(self, rng, h):\n"
                 "        return rng.normal(0.0, h, self.width)\n", id="method"),
    pytest.param("from numpy.random import Philox\n", id="import"),
    pytest.param("import numpy\n\nDRAW = numpy.random.default_rng(0).normal\n",
                 id="module-level"),
    pytest.param("import numpy as np\n\ndef _noise(seed):\n"
                 "    return np.random.Generator(np.random.Philox(seed)).normal\n\n"
                 "def mixture_ensemble(seed):\n"
                 "    return np.random.Philox(key=[seed, 2])\n", id="second-site"),
])
def test_draw_sites_are_found(snippet):
    assert stray_draws(snippet)


def recipe_sites(source: str) -> list[tuple[int, str]]:
    """(line, enclosing function) of every name, attribute or import of a
    recipe constant."""
    bare = [(node.lineno, owner) for node, owner in owned_nodes(source)
            if isinstance(node, ast.Name) and node.id in RECIPE]
    return bare + [site for name in RECIPE for site in name_sites(source, name)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_recipe_named_only_in_competitors(path):
    sites = recipe_sites(path.read_text())
    if path.name == "competitors.py":
        assert sites
    else:
        assert sites == []


@pytest.mark.parametrize("snippet", [
    pytest.param("from .competitors import AMPLITUDE\n", id="import"),
    pytest.param("from . import competitors\n\n"
                 "BOX = competitors.SPACE_SUPPORT\n", id="module-level"),
    pytest.param("def window(t):\n    t0, t1 = TIME_WINDOW\n    return t0\n",
                 id="function"),
    pytest.param("MODES = 3\n", id="second-copy"),
])
def test_recipe_sites_are_found(snippet):
    assert recipe_sites(snippet)


def defaulted_parameters(source: str) -> list[tuple[str, str, int | None]]:
    """(function, parameter, call position) of every parameter with a
    default; the position counts the arguments a call passes (a method's
    first parameter is not passed), and is None for a keyword-only one."""
    tree = ast.parse(source)
    methods = {item for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body if isinstance(item, ast.FunctionDef)
               and not any(getattr(d, "id", None) == "staticmethod"
                           for d in item.decorator_list)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        skip = 1 if node in methods else 0
        found += [(node.name, arg.arg, i - skip) for i, arg in enumerate(positional)
                  if i >= first]
        found += [(node.name, arg.arg, None)
                  for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                  if default is not None]
    return found


def _sets(call: ast.Call, parameter: str, position: int | None) -> bool:
    if any(keyword.arg in (parameter, None) for keyword in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(
        isinstance(arg, ast.Starred) for arg in call.args[:position + 1])


def unset_defaults(sources: list[str], callers: list[str]) -> list[tuple[str, str]]:
    """(function, parameter) of every defaulted parameter in ``sources``
    that no call in ``callers`` to a function of that name sets."""
    calls = [node for source in callers for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call)]
    return sorted((name, parameter) for source in sources
                  for name, parameter, position in defaulted_parameters(source)
                  if not any(_calls(call, {name}) and _sets(call, parameter, position)
                             for call in calls))


def test_every_default_has_a_caller():
    sources = [path.read_text() for path in SOURCES]
    unset = unset_defaults(sources, sources + [path.read_text() for path in PERFBENCH])
    assert unset == sorted(UNSET_DEFAULTS_ALLOWED)


SPANS = ("def span(start, stop=1.0, step=0.1):\n    return start\n\n"
         "class Box:\n    def span(self, start, stop=1.0, step=0.1):\n"
         "        return start\n")


@pytest.mark.parametrize("caller", [
    pytest.param("", id="no-call"),
    pytest.param("span(1.0)\n", id="default-left"),
    pytest.param("span(1.0, stop=2.0)\n", id="other-keyword"),
    pytest.param("Box().span(1.0, 2.0)\n", id="positional-short-of-it"),
])
def test_unset_default_is_caught(caller):
    assert ("span", "step") in unset_defaults([SPANS], [caller])


@pytest.mark.parametrize("caller", [
    pytest.param("span(0.0, step=0.5, stop=2.0)\n", id="keyword"),
    pytest.param("span(0.0, 2.0, 0.5)\n", id="positional"),
    pytest.param("Box().span(0.0, 2.0, 0.5)\n", id="method-positional"),
    pytest.param("span(*bounds)\n", id="through-args"),
    pytest.param("grid.span(0.0, **options)\n", id="through-kwargs"),
])
def test_set_default_passes(caller):
    assert unset_defaults([SPANS], [caller]) == []
