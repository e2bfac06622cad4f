"""Decisions made in one place, checked on the source: a usage error in the
CLI is an IsocurvError (``cli.main`` has one handler for it), and a
signature row's sign pick and J flag are applied only by ``planes``."""

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


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_cli_has_one_usage_error_path():
    assert _system_exits(_parse(SRC / "cli.py")) == []


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "planes.py"),
                         ids=lambda p: p.name)
def test_only_planes_applies_a_signature_row(path):
    assert _row_decisions(_parse(path)) == []


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
        "random_frames(model, (1,), rngs)\n")
    assert _system_exits(tree) == [1, 4]
    assert _row_decisions(tree) == [6, 7]
