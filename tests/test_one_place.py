"""Decisions made in one place, checked on the source: a usage error in the
CLI is an IsocurvError (``cli.main`` has one handler for it), a signature
row's sign pick and J flag are applied only by ``planes``, a sample is
its array of basis rows: ``diagnostics`` builds no Plane or Frame from it,
and no wrapper class named PlaneBatch comes back, a draw's samples come
from one generator (none is built in a loop or comprehension), and
``planes`` never reads or rewinds a generator's state."""

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


def _names(tree: ast.AST, wanted: set) -> list:
    """Lines that import, load or call one of the names `wanted`, bare or as
    an attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            hit = any(a.name.rpartition(".")[2] in wanted for a in node.names)
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
        "Planes, frame = PlaneBatch(v), batch.vectors\n")
    assert _system_exits(tree) == [1, 4]
    assert _row_decisions(tree) == [6, 7]
    assert _names(tree, {"Plane", "Frame"}) == [10, 11]
    assert _names(tree, {"PlaneBatch"}) == [12, 13]


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
