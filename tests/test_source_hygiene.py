"""Source rules the library keeps, checked on its syntax tree.

* No ``assert`` statements: checks that guard physics or numerics must
  raise a typed error, because ``python -O`` strips asserts.
* No bare ``except:`` and no ``except Exception``/``BaseException``
  handlers: a blanket handler turns a code bug into a verdict.
* No imports inside functions: every dependency is stated at the top
  of its module.
* Every name the package exports is used by another library module or
  by ``perfbench/``, with no exemption: surface that only tests call is
  deleted, not maintained, and the controls and oracles that tests
  compare against live in ``tests/controls.py``.
* Every module-level ``def`` or ``class`` of the library is named by
  library code outside its own body (the package ``__init__`` aside)
  or by ``perfbench/``: a function only tests call is test code.
* Every method of a library class, dunders aside, is read as an
  attribute by library code outside its own body or by ``perfbench/``:
  a method only tests call is test code too. Matching is by name, so
  the rule guards new methods, not names that collide with another
  attribute that is read.
* Every key of the CLI's ``KEYS`` table is read as ``cfg["key"]``: a
  config key no experiment reads is not kept as a dead knob.
* ``np.interp`` is called only by ``sample_initial``, whose inverse-CDF
  knots are not uniform: every lookup on the uniform grid goes through
  ``ScalarField.at``, so no second lookup kernel creeps back in.
* ``np.savetxt`` is not used at all: every CSV goes through the one
  writer in ``io_formats``, so no second CSV kernel creeps back in.
* ``fd_dx`` and ``spectral_dx`` take an ``np.log(...)`` argument, or a
  local name bound to one in the same function, only in ``decompose``,
  the constructor that attaches a couple's log density gradient that
  way, and in ``madelung_residuals``, the independent check of the
  energy equation: every other reader takes the attached field, so no
  log-gradient fallback creeps back in.
* ``SFC64`` appears only in ``_stream``, the one helper that keys every
  random stream, ``Philox`` nowhere, ``standard_normal`` only in
  ``_scaled_normals``, which ``_noise`` runs a job ahead of the
  stepping, and ``normal`` nowhere: every stream has one generator and
  one keying, and the trajectory noise has one draw site, so no second
  generator and no second, unpipelined draw path creeps back in.
* Each name of a row of ``owned_by`` below is named only in that row's
  owner module: no other module imports, reads, calls or redefines it,
  so no second copy of what it stands for creeps back in. The rows are
  the perturbation recipe in ``competitors`` (its constants
  ``SPACE_SUPPORT``, ``TIME_WINDOW``, ``AMPLITUDE`` and ``MODES`` and its
  unfitted builder ``raw_perturbation``; every other module builds a
  perturbation with ``make_perturbation``), ``MASS_TOL`` in
  ``grid_fields`` (every other module checks a mass with
  ``ensure_normalized``), ``NODE_FLOOR`` in ``schrodinger`` (every
  ``WaveField`` holds min |psi|^2 at or above it, and every other module
  checks a wave density with ``ensure_wave_density`` or trusts the
  field, so no settable floor creeps back in either),
  ``UNWRAP_STEP_LIMIT`` in ``madelung`` (every phase meets
  ``ensure_resolved_phase``), the text ``strictly positive`` in
  ``madelung``, found in string constants (every module refuses a
  density with an entry <= 0 through ``ensure_positive``, which names
  the minimum) and ``paths`` in ``nelson_sde`` (the
  stepping's positions, node by node, which that module reduces as each
  interval is stepped, so no other module can come to depend on
  positions the ensemble does not keep).
* No module holds node positions beyond the current interval. Besides
  the ``paths`` row above, two rules keep this. No library module calls
  a numpy allocator (``empty``, ``zeros``, ``ones``, ``full``) with a
  shape of several entries one of which is ``n + 1``
  (``np.empty((width, n + 1))``): that is a buffer over every partition
  node of a block or an ensemble; a 1-D ``n + 1`` array stays allowed.
  And in ``nelson_sde`` no numpy call takes a whole ``<expr>.paths``
  matrix as an argument (``np.diff(ens.paths)``): what such a call
  returns is a second buffer of that matrix's size. Reads of a slice
  (a column ``ens.paths[:, i]``) stay allowed.
* ``edge_leak`` is named only in ``ensure_edges_decay``, the decay
  guard's edge half, and the guard's helpers ``guard_columns`` and
  ``cleared_rows`` only in ``grid_fields`` and in
  ``madelung.ensure_couple_rows`` (and that module's import of them),
  the one couple-side prescreen: every other caller goes through the
  guard, which clears rows by their guard columns before it scans.
* ``ensure_finite`` is named only in ``grid_fields``: the
  ``ScalarField`` constructor scans its values, and the row sums of the
  decay guard and of ``ensure_normalized`` refuse a non-finite entry
  in the pass they make anyway, so no second scan creeps back in.
* Every parameter with a default in a library ``def`` is set, by
  keyword, by position or through ``*args`` or ``**kwargs``, by some
  call in the library or in ``perfbench/`` to that function: a setting
  no caller uses is a constant, not a parameter. A bare or
  module-qualified call counts only for the function that the calling
  module defines or imports; a method call on an object counts for
  every function of its name. The one kept exception, with its reason
  in ``UNSET_DEFAULTS_ALLOWED``, is the console script's ``main(argv)``.
"""

import ast
from pathlib import Path

import pytest

import madelung_lab

PACKAGE = Path(madelung_lab.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))
PERFBENCH = sorted((Path(__file__).resolve().parent.parent / "perfbench").glob("*.py"))
# module name -> source, as the library and the benchmark import them
LIBRARY = {PACKAGE.name if path.stem == "__init__" else f"{PACKAGE.name}.{path.stem}":
           path.read_text() for path in SOURCES}
# the package ``__init__`` only re-exports: naming a function there is no use
MODULES = [source for name, source in LIBRARY.items() if name != PACKAGE.name]
BENCHMARK = {path.stem: path.read_text() for path in PERFBENCH}
BLANKET = {"Exception", "BaseException"}
INTERP_ALLOWED = {"sample_initial"}
LOG_GRADIENT_ALLOWED = {"decompose", "madelung_residuals"}
DRAW_ALLOWED = {"SFC64": {"_stream"}, "Philox": set(), "normal": set(),
                "standard_normal": {"_scaled_normals"}}
ALLOCATORS = {"empty", "zeros", "ones", "full"}
RECIPE = ("SPACE_SUPPORT", "TIME_WINDOW", "AMPLITUDE", "MODES", "raw_perturbation")
UNSET_DEFAULTS_ALLOWED = {
    ("main", "argv"):
        "the madelung-lab console script of pyproject.toml calls main() with "
        "no argument, so argparse reads sys.argv",
}


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


def referenced_names(source: str) -> set[str]:
    """Every name the source reads as a name, an attribute or an import,
    outside the body of a ``def`` of that name."""
    found = set()
    for node, owner in owned_nodes(source):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name != owner:
            found.add(name)
    return found


def test_every_export_is_used_by_the_library():
    used = set().union(*map(referenced_names, MODULES + list(BENCHMARK.values())))
    assert sorted(_exported_names() - used) == []


def uncalled_definitions(sources: list[str], readers: list[str]) -> list[str]:
    """Module-level ``def`` and ``class`` names of ``sources`` that no
    source in ``readers`` names outside the definition's own body."""
    named = set().union(*map(referenced_names, readers))
    return sorted(node.name for source in sources for node in ast.parse(source).body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                       ast.ClassDef))
                  and node.name not in named)


def test_every_function_has_a_caller():
    assert uncalled_definitions(MODULES, MODULES + list(BENCHMARK.values())) == []


HELPER = "def helper(x):\n    return 2 * x\n"


@pytest.mark.parametrize("source, reader", [
    pytest.param(HELPER, "", id="no-reader"),
    pytest.param("def helper(x):\n    return helper(x - 1) if x else 0\n", "",
                 id="only-its-own-body"),
    pytest.param(HELPER, "# helper(1)\nNAME = 'helper'\n", id="comment-and-string"),
    pytest.param(HELPER, "class Tool:\n    def helper(self):\n        return 1\n",
                 id="same-named-method"),
    pytest.param("class Tool:\n    pass\n", "tool = Tool2()\n", id="class"),
])
def test_uncalled_definition_is_caught(source, reader):
    assert uncalled_definitions([source], [source, reader])


def unread_methods(sources: list[str], readers: list[str]) -> list[str]:
    """``Class.method`` for every method of a class of ``sources``, dunders
    aside, whose name no source in ``readers`` reads as an attribute outside
    the body of a ``def`` of that name. Matching is by name: a read of
    ``setup.couple`` counts for every method named ``couple``, so the rule
    guards new methods, not names that collide with a read attribute."""
    read = {node.attr for source in readers for node, owner in owned_nodes(source)
            if isinstance(node, ast.Attribute) and node.attr != owner}
    return sorted(f"{cls.name}.{item.name}" for source in sources
                  for cls in ast.walk(ast.parse(source)) if isinstance(cls, ast.ClassDef)
                  for item in cls.body
                  if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not (item.name.startswith("__") and item.name.endswith("__"))
                  and item.name not in read)


def test_every_method_has_a_reader():
    assert unread_methods(MODULES, MODULES + list(BENCHMARK.values())) == []


TOOL = ("class Tool:\n    def __init__(self):\n        self.size = 1\n\n"
        "    def helper(self, x):\n        return 2 * x\n")


@pytest.mark.parametrize("source, reader", [
    pytest.param(TOOL, "def other(tool):\n    return tool.size\n", id="uncalled"),
    pytest.param("class Tool:\n    def helper(self, x):\n"
                 "        return self.helper(x - 1) if x else 0\n", "",
                 id="only-its-own-body"),
    pytest.param(TOOL, "def other(tool):\n    return helper(tool)\n", id="bare-name"),
])
def test_unread_method_is_caught(source, reader):
    assert unread_methods([source], [source, reader]) == ["Tool.helper"]


def test_method_read_by_another_module_passes():
    reader = "from .tools import Tool\n\ndef twice(x):\n    return Tool().helper(x)\n"
    assert unread_methods([TOOL], [TOOL, reader]) == []


@pytest.mark.parametrize("reader", [
    pytest.param("from .tools import helper\n", id="import"),
    pytest.param("from . import tools\n\nVALUE = tools.helper(1)\n", id="attribute"),
    pytest.param("def double_twice(x):\n    return helper(helper(x))\n",
                 id="other-function"),
    pytest.param("STEPS = [helper]\n", id="module-level"),
])
def test_named_definition_passes(reader):
    assert uncalled_definitions([HELPER], [HELPER, reader]) == []


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
    """(line, enclosing function) of every ``SFC64``, ``Philox``, ``normal``
    or ``standard_normal`` site outside the functions allowed to name it."""
    return [site for name, allowed in DRAW_ALLOWED.items()
            for site in name_sites(source, name) if site[1] not in allowed]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_noise_has_one_draw_site(path):
    assert stray_draws(path.read_text()) == []


@pytest.mark.parametrize("snippet", [
    pytest.param("import numpy as np\n\nclass E:\n    def step(self, rng, h):\n"
                 "        return rng.normal(0.0, h, self.width)\n", id="method"),
    pytest.param("from numpy.random import Philox\n", id="import"),
    pytest.param("import numpy as np\n\ndef _stream(seed, stream):\n"
                 "    return np.random.Generator(np.random.Philox(key=[seed, stream]))\n",
                 id="philox-in-the-stream-helper"),
    pytest.param("import numpy\n\nDRAW = numpy.random.default_rng(0).normal\n",
                 id="module-level"),
    pytest.param("import numpy as np\n\ndef _stream(seed, stream):\n"
                 "    return np.random.Generator(np.random.SFC64([seed, stream]))\n\n"
                 "def _noise(seed, block):\n"
                 "    return np.random.Generator(np.random.SFC64([seed, 2 + block]))\n",
                 id="second-site"),
    pytest.param("from numpy.random import SFC64\n", id="sfc64-import"),
    pytest.param("def _scaled_normals(rng, shape, root_h):\n"
                 "    return rng.standard_normal(shape) * root_h\n\n"
                 "def mixture_ensemble(rng, shape):\n"
                 "    return rng.standard_normal(shape)\n",
                 id="second-standard-normal-site"),
    pytest.param("def _noise(rng, shape, root_h):\n"
                 "    return rng.normal(0.0, root_h, shape)\n", id="normal-in-the-noise"),
])
def test_draw_sites_are_found(snippet):
    assert stray_draws(snippet)


def test_draw_allowed_sites_pass():
    snippet = ("import numpy as np\n\ndef _stream(seed, stream):\n"
               "    return np.random.Generator(np.random.SFC64([seed, stream]))\n\n"
               "def _scaled_normals(rng, out, root_h):\n"
               "    rng.standard_normal(out=out)\n"
               "    out *= root_h\n")
    assert stray_draws(snippet) == []


def named_sites(source: str, names: tuple) -> list[tuple[int, str]]:
    """(line, enclosing function) of every name, attribute or import of
    one of ``names``."""
    bare = [(node.lineno, owner) for node, owner in owned_nodes(source)
            if isinstance(node, ast.Name) and node.id in names]
    return bare + [site for name in names for site in name_sites(source, name)]


def text_sites(source: str, texts: tuple) -> list[tuple[int, str]]:
    """(line, enclosing function) of every string constant, the literal
    parts of an f-string included, that contains one of ``texts``."""
    return [(node.lineno, owner) for node, owner in owned_nodes(source)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and any(text in node.value for text in texts)]


def owned_by(owner: str, names: tuple, snippets: list, sites=named_sites):
    """The two tests of the rule that ``names`` are named only in module
    ``owner``: every library module keeps it, and each snippet, which
    names one of them outside the owner, breaks it. ``sites`` finds
    where a source names them."""

    @pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
    def named_only_in_owner(path):
        found = sites(path.read_text(), names)
        assert bool(found) if path.stem == owner else found == []

    @pytest.mark.parametrize("snippet", snippets)
    def sites_are_found(snippet):
        assert sites(snippet, names)

    return named_only_in_owner, sites_are_found


test_recipe_named_only_in_competitors, test_recipe_sites_are_found = owned_by(
    "competitors", RECIPE, [
        pytest.param("from .competitors import AMPLITUDE\n", id="import"),
        pytest.param("from . import competitors\n\n"
                     "BOX = competitors.SPACE_SUPPORT\n", id="module-level"),
        pytest.param("def window(t):\n    t0, t1 = TIME_WINDOW\n    return t0\n",
                     id="function"),
        pytest.param("MODES = 3\n", id="second-copy"),
        pytest.param("from .competitors import raw_perturbation\n",
                     id="builder-import"),
        pytest.param("from . import competitors\n\ndef precheck(spec, grid):\n"
                     "    return competitors.raw_perturbation(spec, grid)\n",
                     id="builder-call"),
    ])
test_mass_tolerance_named_only_in_grid_fields, test_mass_tolerance_sites_are_found = \
    owned_by("grid_fields", ("MASS_TOL",), [
        pytest.param("from .grid_fields import MASS_TOL\n", id="import"),
        pytest.param("from . import grid_fields\n\ndef check(mass):\n"
                     "    return abs(mass - 1.0) > grid_fields.MASS_TOL\n",
                     id="attribute"),
        pytest.param("MASS_TOL = 1e-8\n", id="second-copy"),
    ])
test_node_floor_named_only_in_schrodinger, test_node_floor_sites_are_found = owned_by(
    "schrodinger", ("NODE_FLOOR",), [
        pytest.param("from .schrodinger import NODE_FLOOR\n", id="import"),
        pytest.param("from . import schrodinger\n\ndef check(dens):\n"
                     "    return dens.min() < schrodinger.NODE_FLOOR\n",
                     id="attribute"),
        pytest.param("NODE_FLOOR = 1e-60\n", id="second-copy"),
    ])
test_unwrap_limit_named_only_in_madelung, test_unwrap_limit_sites_are_found = owned_by(
    "madelung", ("UNWRAP_STEP_LIMIT",), [
        pytest.param("from .madelung import UNWRAP_STEP_LIMIT\n", id="import"),
        pytest.param("import numpy as np\n\ndef resolved(phase):\n"
                     "    step = np.max(np.abs(np.diff(phase, axis=-1)))\n"
                     "    return step <= madelung.UNWRAP_STEP_LIMIT\n", id="attribute"),
        pytest.param("UNWRAP_STEP_LIMIT = 2.8\n", id="second-copy"),
    ])
test_positivity_text_only_in_madelung, test_positivity_text_sites_are_found = owned_by(
    "madelung", ("strictly positive",), [
        pytest.param("def monge_map_1d(rho0, rho1, grid):\n"
                     "    for name, dens in (('source', rho0), ('target', rho1)):\n"
                     "        if dens.min() <= 0.0:\n"
                     "            raise ValueError(f'{name} density must be strictly "
                     "positive')\n", id="second-copy"),
        pytest.param("REFUSAL = 'density must be strictly positive'\n",
                     id="module-level"),
    ], sites=text_sites)
test_paths_named_only_in_nelson_sde, test_paths_sites_are_found = owned_by(
    "nelson_sde", ("paths",), [
        pytest.param("def initial_mean(ens):\n    return ens.paths[:, 0].mean()\n",
                     id="column-read"),
        pytest.param("def path_bytes(ens):\n    return ens.paths.nbytes\n",
                     id="size-read"),
        pytest.param("def simulate(b, grid):\n    paths = run(b, grid)\n"
                     "    return paths\n", id="local-name"),
    ])


def stray_leak_scans(source: str) -> list[tuple[int, str]]:
    """(line, enclosing function) of every name, attribute or import of
    ``edge_leak`` outside ``ensure_edges_decay``: the guard clears rows by
    their guard columns first, and a caller of the scan would skip that."""
    return [site for site in named_sites(source, ("edge_leak",))
            if site[1] != "ensure_edges_decay"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_edge_leak_only_in_the_decay_guard(path):
    assert stray_leak_scans(path.read_text()) == []


@pytest.mark.parametrize("snippet", [
    pytest.param("def row_integrals(values, grid, what):\n"
                 "    if edge_leak(values, grid) > 1e-12:\n"
                 "        raise ValueError(what)\n", id="call"),
    pytest.param("from . import grid_fields\n\nclass Couple:\n    def check(self, v):\n"
                 "        return grid_fields.edge_leak(v, self.grid)\n", id="method"),
    pytest.param("from .grid_fields import edge_leak\n", id="import"),
    pytest.param("SCAN = edge_leak\n", id="module-level"),
])
def test_edge_leak_sites_are_found(snippet):
    assert stray_leak_scans(snippet)


def test_edge_leak_in_the_decay_guard_passes():
    snippet = ("def edge_leak(values, grid):\n    return 0.0\n\n"
               "def ensure_edges_decay(values, grid, what):\n"
               "    leak = edge_leak(values, grid)\n")
    assert stray_leak_scans(snippet) == []
    assert named_sites(snippet, ("edge_leak",)) == [(5, "ensure_edges_decay")]


GUARD_HELPERS = ("guard_columns", "cleared_rows")


def stray_guard_helpers(source: str, module: str) -> list[tuple[int, str]]:
    """(line, enclosing function) of every name, attribute or import of a
    decay guard helper outside ``grid_fields``, save ``madelung``'s import
    of them and ``madelung.ensure_couple_rows``, the one couple-side
    prescreen: a second prescreen would be a second copy of the guard."""
    if module == "grid_fields":
        return []
    return [(node.lineno, owner) for node, owner in owned_nodes(source)
            if ((isinstance(node, ast.Name) and node.id in GUARD_HELPERS)
                or (isinstance(node, ast.Attribute) and node.attr in GUARD_HELPERS)
                or (isinstance(node, ast.alias) and node.name in GUARD_HELPERS
                    and not (module == "madelung" and owner == "<module>")))
            and not (module == "madelung" and owner == "ensure_couple_rows")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_guard_helpers_only_in_the_guard_and_the_couple_prescreen(path):
    assert stray_guard_helpers(path.read_text(), path.stem) == []


@pytest.mark.parametrize("module, snippet", [
    pytest.param("competitors", "from .grid_fields import cleared_rows\n", id="import"),
    pytest.param("action_functionals", "from . import grid_fields\n\n"
                 "def rows(values, grid):\n"
                 "    return values[:, grid_fields.guard_columns(grid)]\n",
                 id="attribute"),
    pytest.param("madelung", "def member_prescreen(columns):\n"
                 "    return ~cleared_rows(columns)\n", id="second-prescreen"),
    pytest.param("madelung", "SCREEN = cleared_rows\n", id="module-level"),
])
def test_guard_helper_sites_are_found(module, snippet):
    assert stray_guard_helpers(snippet, module)


def test_guard_helpers_in_their_allowed_sites_pass():
    prescreen = ("from .grid_fields import cleared_rows, guard_columns\n\n"
                 "def ensure_couple_rows(rho, grid):\n"
                 "    return cleared_rows(rho[:, guard_columns(grid)])\n")
    assert stray_guard_helpers(prescreen, "madelung") == []
    assert stray_guard_helpers(prescreen, "competitors") == [(1, "<module>"),
                                                              (1, "<module>"),
                                                              (4, "ensure_couple_rows"),
                                                              (4, "ensure_couple_rows")]
    guard = "def ensure_decaying(values, grid):\n    return guard_columns(grid)\n"
    assert stray_guard_helpers(guard, "grid_fields") == []


def stray_finite_scans(source: str, module: str) -> list[tuple[int, str]]:
    """(line, enclosing function) of every name, attribute or import of
    ``ensure_finite`` outside ``grid_fields``, the one module that scans
    an array for non-finite entries."""
    return [] if module == "grid_fields" else named_sites(source, ("ensure_finite",))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_finite_scans_only_in_grid_fields(path):
    assert stray_finite_scans(path.read_text(), path.stem) == []


@pytest.mark.parametrize("module, snippet", [
    pytest.param("competitors", "from .grid_fields import ensure_finite\n", id="import"),
    pytest.param("competitors", "from . import grid_fields\n\ndef member_rows(v_y):\n"
                 "    grid_fields.ensure_finite(v_y, 'scalar field')\n", id="attribute"),
    pytest.param("schrodinger", "def ensure_wave_density(density, grid):\n"
                 "    ensure_finite(density, 'wave density')\n", id="call"),
    pytest.param("madelung", "CHECK = ensure_finite\n", id="module-level"),
])
def test_finite_scan_sites_are_found(module, snippet):
    assert stray_finite_scans(snippet, module)


def test_finite_scans_in_grid_fields_pass():
    snippet = ("def ensure_normalized(density, grid, what):\n"
               "    if not np.isfinite(mass_error(density, grid)):\n"
               "        ensure_finite(density, what)\n")
    assert stray_finite_scans(snippet, "grid_fields") == []
    assert stray_finite_scans(snippet, "schrodinger") == [(3, "ensure_normalized")]


def _numpy_call(node: ast.AST) -> bool:
    """Whether ``node`` calls a function reached from ``np`` or ``numpy``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    while isinstance(func, ast.Attribute):
        func = func.value
    return func is not node.func and getattr(func, "id", None) in {"np", "numpy"}


def whole_path_reads(source: str) -> list[tuple[int, str]]:
    """(line, enclosing function) of every numpy call with an unsliced
    ``<expr>.paths`` argument, positional or keyword."""
    return [(node.lineno, owner) for node, owner in owned_nodes(source)
            if _numpy_call(node)
            and any(isinstance(arg, ast.Attribute) and arg.attr == "paths"
                    for arg in [*node.args, *(kw.value for kw in node.keywords)])]


def test_no_numpy_call_takes_the_whole_path_matrix():
    assert whole_path_reads(LIBRARY[f"{PACKAGE.name}.nelson_sde"]) == []


@pytest.mark.parametrize("snippet", [
    pytest.param("import numpy as np\n\nclass E:\n    def __post_init__(self):\n"
                 "        if not np.all(np.isfinite(self.paths)):\n"
                 "            raise ValueError\n", id="finiteness-mask"),
    pytest.param("import numpy\n\ndef action(ens):\n"
                 "    return numpy.diff(ens.paths, axis=1)\n", id="increments"),
    pytest.param("import numpy as np\n\ndef mean(ens):\n"
                 "    return np.mean(a=ens.paths, axis=0)\n", id="keyword"),
    pytest.param("import numpy as np\n\nSQUARES = np.square(ENS.paths)\n",
                 id="module-level"),
])
def test_whole_path_reads_are_found(snippet):
    assert whole_path_reads(snippet)


def test_sliced_path_reads_pass():
    snippet = ("import numpy as np\n\ndef read(ens, rows, i, edges):\n"
               "    dq = np.diff(ens.paths[rows], axis=1)\n"
               "    counts, _ = np.histogram(ens.paths[:, i], bins=edges)\n"
               "    located = ens.grid.locate(ens.paths[:, i])\n"
               "    return np.empty(ens.paths.shape[0])\n")
    assert whole_path_reads(snippet) == []


def _every_node(node: ast.AST) -> bool:
    """Whether ``node`` is ``n + 1`` or ``1 + n``, with ``n`` a name or an
    attribute: the count of a partition's nodes."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    operands = [node.left, node.right]
    return (any(isinstance(side, ast.Constant) and side.value == 1 for side in operands)
            and any(getattr(side, "id", getattr(side, "attr", None)) == "n"
                    for side in operands))


def node_buffers(source: str) -> list[tuple[int, str]]:
    """(line, enclosing function) of every numpy allocator call whose shape,
    positional or keyword, is a tuple of several entries with an ``n + 1``."""
    found = []
    for node, owner in owned_nodes(source):
        if not (_numpy_call(node) and node.func.attr in ALLOCATORS):
            continue
        shapes = [*node.args[:1], *(kw.value for kw in node.keywords
                                     if kw.arg == "shape")]
        if any(isinstance(shape, ast.Tuple) and len(shape.elts) > 1
               and any(map(_every_node, shape.elts)) for shape in shapes):
            found.append((node.lineno, owner))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_allocates_a_buffer_over_the_nodes(path):
    assert node_buffers(path.read_text()) == []


@pytest.mark.parametrize("snippet", [
    pytest.param("import numpy as np\n\ndef _path_blocks(N, n):\n"
                 "    buffer = np.empty((min(N, BLOCK), n + 1))\n", id="block-buffer"),
    pytest.param("import numpy\n\ndef path_matrix(ens):\n"
                 "    return numpy.zeros((ens.N, ens.n + 1))\n", id="path-matrix"),
    pytest.param("import numpy as np\n\ndef buffer(width, n):\n"
                 "    return np.full(shape=(width, 1 + n), fill_value=np.nan)\n",
                 id="keyword"),
    pytest.param("import numpy as np\n\nclass E:\n    def nodes(self, N):\n"
                 "        return np.ones((self.n + 1, N))\n", id="nodes-first"),
])
def test_node_buffers_are_found(snippet):
    assert node_buffers(snippet)


def test_one_dimensional_and_lattice_arrays_pass():
    snippet = ("import numpy as np\n\ndef arrays(grid, N, n):\n"
               "    times = np.linspace(0.0, 1.0, n + 1)\n"
               "    weights = np.ones(n + 1)\n"
               "    lattice = np.zeros((grid.n_t + 1, grid.n_x))\n"
               "    track = np.empty((N, 2))\n"
               "    return np.full((N, n + 2), 0.0)\n")
    assert node_buffers(snippet) == []


def defaulted_parameters(source: str) -> list[tuple[str | None, str, str, int | None]]:
    """(class, function, parameter, call position) of every parameter with
    a default; the class is None for a function. The position counts the
    arguments a call passes (a method's first parameter is not passed),
    and is None for a keyword-only one."""
    tree = ast.parse(source)
    owners = {item: node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
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
        owner = owners.get(node)
        skip = 0 if owner is None else 1
        found += [(owner, node.name, arg.arg, i - skip)
                  for i, arg in enumerate(positional) if i >= first]
        found += [(owner, node.name, arg.arg, None)
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


def imported_names(module: str, source: str, modules) -> dict[str, tuple[str, str | None]]:
    """Local name -> (module, name) of everything ``module`` imports;
    the name is None where the local name is a module itself."""
    package = module if any(m.startswith(module + ".") for m in modules) \
        else module.rpartition(".")[0]
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    found[alias.asname] = (alias.name, None)
                else:
                    top = alias.name.partition(".")[0]
                    found[top] = (top, None)
        elif isinstance(node, ast.ImportFrom):
            origin = node.module or ""
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                origin = ".".join(filter(None, [base, node.module]))
            for alias in node.names:
                full = f"{origin}.{alias.name}"
                found[alias.asname or alias.name] = \
                    (full, None) if full in modules else (origin, alias.name)
    return found


def callees(modules: dict[str, str], callers: list[str]):
    """(call, target) of the calls in the ``callers`` modules. A bare or
    module-qualified call targets the (module, name) that defines the
    function, followed through imports and re-exports, and is left out
    when the calling module neither defines nor imports it; a method
    call on an object targets its bare name."""
    imports = {name: imported_names(name, source, modules)
               for name, source in modules.items()}
    defined = {name: {node.name for node in ast.parse(source).body
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                           ast.ClassDef))}
               for name, source in modules.items()}

    def definition(module: str, name: str) -> tuple[str, str]:
        origin = imports.get(module, {}).get(name)
        if origin is None or origin[1] is None:
            return module, name
        return definition(*origin)

    found = []
    for caller in callers:
        for call in ast.walk(ast.parse(modules[caller])):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name):
                origin = imports[caller].get(func.id)
                if origin is not None and origin[1] is not None:
                    found.append((call, definition(*origin)))
                elif origin is None and func.id in defined[caller]:
                    found.append((call, (caller, func.id)))
            elif isinstance(func, ast.Attribute):
                origin = (imports[caller].get(func.value.id)
                          if isinstance(func.value, ast.Name) else None)
                if origin is not None and origin[1] is None:
                    found.append((call, definition(origin[0], func.attr)))
                else:
                    found.append((call, func.attr))
    return found


def unset_defaults(sources: dict[str, str], callers: dict[str, str]
                   ) -> list[tuple[str, str]]:
    """(function, parameter) of every defaulted parameter in the ``sources``
    modules that no call in the ``callers`` modules to that function sets;
    a method is named ``Class.method``. A method call counts for every
    function of its name."""
    calls = callees({**sources, **callers}, list(callers))
    unset = []
    for module, source in sources.items():
        for owner, name, parameter, position in defaulted_parameters(source):
            targets = {name} if owner else {name, (module, name)}
            if not any(target in targets and _sets(call, parameter, position)
                       for call, target in calls):
                unset.append((f"{owner}.{name}" if owner else name, parameter))
    return sorted(unset)


def test_every_default_has_a_caller():
    unset = unset_defaults(LIBRARY, {**LIBRARY, **BENCHMARK})
    assert unset == sorted(UNSET_DEFAULTS_ALLOWED)


# a package ``lab`` that re-exports ``span`` and ``Box`` from ``lab.spans``
SPANS = ("def span(start, stop=1.0, step=0.1):\n    return start\n\n"
         "class Box:\n    def span(self, start, stop=1.0, step=0.1):\n"
         "        return start\n")
LAB = {"lab": "from .spans import Box, span\n", "lab.spans": SPANS,
       "other": "def span(start, stop=1.0, step=0.1):\n    return start\n"}


def step_unset(caller: str) -> bool:
    """Whether the module-level ``span``'s step stays unset with ``caller``."""
    callers = {**LAB, "caller": caller}
    return ("span", "step") in unset_defaults({"lab.spans": SPANS}, callers)


@pytest.mark.parametrize("caller", [
    pytest.param("", id="no-call"),
    pytest.param("from lab import span\n\nspan(1.0)\n", id="default-left"),
    pytest.param("from lab import span\n\nspan(1.0, stop=2.0)\n", id="other-keyword"),
    pytest.param("from lab import Box\n\nBox().span(1.0, 2.0)\n",
                 id="positional-short-of-it"),
    pytest.param("span(0.0, 2.0, 0.5)\n", id="not-imported"),
    pytest.param("from other import span\n\nspan(0.0, 2.0, 0.5)\n",
                 id="same-named-function-of-another-module"),
    pytest.param("import other\n\nother.span(0.0, step=0.5)\n",
                 id="same-named-function-module-qualified"),
])
def test_unset_default_is_caught(caller):
    assert step_unset(caller)


@pytest.mark.parametrize("caller", [
    pytest.param("from lab import span\n\nspan(0.0, step=0.5, stop=2.0)\n",
                 id="keyword"),
    pytest.param("from lab.spans import span as s\n\ns(0.0, 2.0, 0.5)\n",
                 id="positional"),
    pytest.param("from lab import spans\n\nspans.span(0.0, step=0.5)\n",
                 id="module-qualified"),
    pytest.param("import lab.spans as spans\n\nspans.span(0.0, step=0.5)\n",
                 id="module-alias"),
    pytest.param("Box().span(0.0, 2.0, 0.5)\n", id="method-positional"),
    pytest.param("from lab import span\n\nspan(*bounds)\n", id="through-args"),
    pytest.param("grid.span(0.0, **options)\n", id="through-kwargs"),
])
def test_set_default_passes(caller):
    assert not step_unset(caller)


def test_own_module_call_sets_the_default():
    callers = {"lab.spans": SPANS + "\nspan(0.0, step=0.5)\n"}
    assert ("span", "step") not in unset_defaults({"lab.spans": SPANS}, callers)
