"""Modules use each other's public names only: no module imports an
underscore-prefixed name from a different isocurv module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "isocurv").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _private_imports(path: Path) -> list:
    """(line, module, name) for every underscore-prefixed name `path` imports
    from another isocurv module."""
    own = f"isocurv.{path.stem}" if path.parent.name == "isocurv" else None
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative imports stay inside the package
                module = "isocurv" + (f".{module}" if module else "")
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            module, names = "", [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            dotted = f"{module}.{name}" if module else name
            if not dotted.startswith("isocurv.") or module == own:
                continue
            if any(part.startswith("_") and not part.startswith("__")
                   for part in dotted.split(".")):
                found.append((node.lineno, module, name))
    return found


def test_sources_found():
    names = {p.name for p in SOURCES}
    assert {"diagnostics.py", "planes.py", "test_acceptance.py"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_private_imports_across_modules(path):
    assert _private_imports(path) == []


def test_detects_a_private_import(tmp_path):
    src = tmp_path / "isocurv"
    src.mkdir()
    (src / "diagnostics.py").write_text(
        "from .planes import _random_frame, sample_planes\n"
        "from .diagnostics import _Sides\n"
        "def f():\n"
        "    from isocurv.planes import _model_key\n")
    (tmp_path / "test_x.py").write_text(
        "import isocurv._private\nfrom isocurv import __version__\nfrom . import _helper\n")
    assert _private_imports(src / "diagnostics.py") == [
        (1, "isocurv.planes", "_random_frame"), (4, "isocurv.planes", "_model_key")]
    assert _private_imports(tmp_path / "test_x.py") == [(1, "", "isocurv._private"),
                                                        (3, "isocurv", "_helper")]

