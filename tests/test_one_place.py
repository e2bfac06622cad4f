"""Decisions made in one place, checked on the source: a usage error in the
CLI is an IsocurvError (``cli.main`` has one handler for it), a signature
row's sign pick and J flag are applied only by ``planes``, a sample is
its array of basis rows: ``diagnostics`` builds no Plane or Frame from it,
and no wrapper class named PlaneBatch comes back, a draw's samples come
from one generator (none is built in a loop or comprehension),
``planes`` never reads or rewinds a generator's state, and only ``model``
decides whether a model is valid: no other module raises InvalidModel or
calls ``validate_complex_structure``, and no contraction of the conjugate
tensor that would serve a J failing its axioms (``conjugate_riccis``)
comes back.  Every side of a theorem on one tensor comes from one holder:
no second holder of exact norms (``_ExactNorms``), side function
(``_kind_side``) or table of side names (``SIDE_NAMES``) comes back, and
``diagnostics`` multiplies R by pair rows only in the holder's ``quad``.
Every phi and psi product comes from one kernel, ``canonical._phi_psi``:
no second builder (``_phi_raw``, ``_psi_raw``, ``_pair_sym_outer``) or
outer product comes back, and no other module calls the kernel but
through ``canonical.linear_residual``; ``diagnostics`` builds no pi1 and
contracts R for rho and rho* only in the holder's ``rho`` and
``rho_star``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "isocurv"


def _system_exits(tree: ast.AST) -> list:
    """Lines that raise or catch SystemExit."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            target = node.type
        else:
            continue
        names = target.elts if isinstance(target, ast.Tuple) else [target]
        if any(isinstance(n, ast.Name) and n.id == "SystemExit" for n in names):
            found.append(node.lineno)
    return found


def _row_decisions(tree: ast.AST) -> list:
    """Lines of calls that pass ``antiholomorphic=`` or call a ``.pick``."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call) and (
        any(kw.arg == "antiholomorphic" for kw in node.keywords)
        or isinstance(node.func, ast.Attribute) and node.func.attr == "pick")]


def _raises(tree: ast.AST, name: str) -> list:
    """Lines that raise `name`, bare, called or as an attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if (isinstance(target, ast.Name) and target.id == name
                    or isinstance(target, ast.Attribute) and target.attr == name):
                found.append(node.lineno)
    return found


def _is_call(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == name
        or isinstance(node.func, ast.Attribute) and node.func.attr == name)


def _calls(tree: ast.AST, name: str) -> list:
    """Lines that call `name`, bare or as an attribute."""
    return sorted(node.lineno for node in ast.walk(tree) if _is_call(node, name))


def _calls_outside(tree: ast.AST, name: str, owner: str, method: str) -> list:
    """Lines that call `name` anywhere but in method `method` of class `owner`."""
    inside = {id(node) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == owner
              for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == method
              for node in ast.walk(fn)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if _is_call(node, name) and id(node) not in inside)


def _names(tree: ast.AST, wanted: set) -> list:
    """Lines that define, import, load or call one of the names `wanted`,
    bare or as an attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            hit = any(a.name.rpartition(".")[2] in wanted for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            hit = node.name in wanted
        else:
            hit = (isinstance(node, ast.Name) and node.id in wanted
                   or isinstance(node, ast.Attribute) and node.attr in wanted)
        if hit:
            found.append(node.lineno)
    return sorted(found)


_GENERATORS = {"default_rng", "Generator", "sample_rng"}


def _looped_generators(tree: ast.AST) -> list:
    """Lines that call ``default_rng``, ``Generator`` or ``sample_rng``, bare
    or as an attribute, inside a comprehension or a ``for`` or ``while``
    loop."""
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    return sorted({node.lineno for loop in ast.walk(tree) if isinstance(loop, loops)
                   for node in ast.walk(loop) if isinstance(node, ast.Call)
                   and (isinstance(node.func, ast.Name) and node.func.id in _GENERATORS
                        or isinstance(node.func, ast.Attribute)
                        and node.func.attr in _GENERATORS)})


def _generator_states(tree: ast.AST) -> list:
    """Lines that touch ``<...>.bit_generator.state``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "state"
                  and isinstance(node.value, ast.Attribute)
                  and node.value.attr == "bit_generator")


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_cli_has_one_usage_error_path():
    assert _system_exits(_parse(SRC / "cli.py")) == []


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "planes.py"),
                         ids=lambda p: p.name)
def test_only_planes_applies_a_signature_row(path):
    assert _row_decisions(_parse(path)) == []


def test_diagnostics_builds_no_plane_or_frame():
    assert _names(_parse(SRC / "diagnostics.py"), {"Plane", "Frame"}) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_plane_batch(path):
    assert _names(_parse(path), {"PlaneBatch"}) == []


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "model.py"),
                         ids=lambda p: p.name)
def test_only_model_decides_validity(path):
    tree = _parse(path)
    assert _raises(tree, "InvalidModel") == []
    assert _calls(tree, "validate_complex_structure") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_conjugate_riccis(path):
    assert _names(_parse(path), {"conjugate_riccis"}) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_holder_per_tensor(path):
    assert _names(_parse(path), {"_ExactNorms", "_kind_side", "SIDE_NAMES"}) == []


def test_only_the_holder_multiplies_r_by_pair_rows():
    assert _calls_outside(_parse(SRC / "diagnostics.py"), "bivector_eval", "_Sides", "quad") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_phi_psi_kernel(path):
    tree = _parse(path)
    assert _names(tree, {"_phi_raw", "_psi_raw", "_pair_sym_outer"}) == []
    assert _calls(tree, "outer") == []
    if path.name != "canonical.py":
        assert _names(tree, {"_phi_psi"}) == []


def test_holder_contracts_r_once_and_builds_no_pi1():
    tree = _parse(SRC / "diagnostics.py")
    assert _calls(tree, "pi1") == []
    assert _calls_outside(tree, "ricci", "_Sides", "rho") == []
    assert _calls_outside(tree, "ricci_star", "_Sides", "rho_star") == []


def test_detects_what_it_forbids():
    tree = ast.parse(
        "raise SystemExit('no')\n"
        "try:\n"
        "    f()\n"
        "except (KeyError, SystemExit):\n"
        "    pass\n"
        "random_frames(model, signs, rngs, antiholomorphic=True)\n"
        "row.pick(options, rngs)\n"
        "raise IsocurvError('fine')\n"
        "random_frames(model, (1,), rngs)\n"
        "from .planes import Frame, sample_planes\n"
        "planes.Plane(x, y)\n"
        "import isocurv.planes.PlaneBatch\n"
        "Planes, frame = PlaneBatch(v), batch.vectors\n"
        "raise InvalidModel('no')\n"
        "raise errors.InvalidModel\n"
        "caught = (InvalidModel, KeyError)\n"
        "report = validate_complex_structure(model)\n"
        "ok = model_mod.validate_complex_structure(model, tol).verdict\n"
        "from .model import validate_complex_structure\n"
        "from .tensors import conjugate_riccis\n"
        "rho_bar, rs_bar = tensors.conjugate_riccis(model, R)\n"
        "def conjugate_riccis(model, T): pass\n"
        "class PlaneBatch: pass\n"
        "class _ExactNorms: pass\n"
        "side = _kind_side(planes, R, kind, scale)\n"
        "name = _ExactNorms.SIDE_NAMES[spec.exact]\n"
        "class _Sides:\n"
        "    def quad(self, kind, i, j, a, b):\n"
        "        return bivector_eval(self.R, xy, ab)\n"
        "    def vanishing(self, kind):\n"
        "        return tensors.bivector_eval(self.R, uv, vu)\n"
        "def quad(R, xy, ab):\n"
        "    return bivector_eval(R, xy, ab)\n"
        "V = _pair_sym_outer(g, S) + _phi_raw(g, S)\n"
        "P = np.multiply.outer(a, b) + np.outer(a, b)\n"
        "from .canonical import _phi_psi\n"
        "residual = R - kappa * pi1(model) - canonical.pi1(model)\n")
    assert _system_exits(tree) == [1, 4]
    assert _row_decisions(tree) == [6, 7]
    assert _names(tree, {"Plane", "Frame"}) == [10, 11]
    assert _names(tree, {"PlaneBatch"}) == [12, 13, 23]
    assert _raises(tree, "InvalidModel") == [14, 15]
    assert _calls(tree, "validate_complex_structure") == [17, 18]
    assert _names(tree, {"conjugate_riccis"}) == [20, 21, 22]
    assert _names(tree, {"_ExactNorms", "_kind_side", "SIDE_NAMES"}) == [24, 25, 26, 26]
    assert _calls_outside(tree, "bivector_eval", "_Sides", "quad") == [31, 33]
    assert _names(tree, {"_phi_raw", "_psi_raw", "_pair_sym_outer"}) == [34, 34]
    assert _calls(tree, "outer") == [35, 35]
    assert _names(tree, {"_phi_psi"}) == [36]
    assert _calls(tree, "pi1") == [37, 37]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_generator_is_built_in_a_loop(path):
    assert _looped_generators(_parse(path)) == []


def test_planes_never_touches_a_generator_state():
    assert _generator_states(_parse(SRC / "planes.py")) == []


def test_detects_looped_generators_and_generator_states():
    tree = ast.parse(
        "rngs = [sample_rng(seed, i) for i in range(n)]\n"
        "for i in range(n):\n"
        "    rng = np.random.default_rng([seed, i])\n"
        "rng = sample_rng(seed, trial)\n"
        "rng = np.random.default_rng(seed)\n"
        "gens = {i: Generator(PCG64(i)) for i in range(n)}\n"
        "while more:\n"
        "    draw(rng, count, sample_rng)\n"
        "state = rng.bit_generator.state\n"
        "rngs[0].bit_generator.state = state\n"
        "rng.bit_generator.advance(n)\n")
    assert _looped_generators(tree) == [1, 3, 6]
    assert _generator_states(tree) == [9, 10]
