"""The names the traced benchmark wraps must stay in the library.

``benchmarks/spans.py`` wraps the functions listed in its ``SPANNED`` and
``COUNTED`` tables by name, and tags ``equivalence_check`` spans with the
theorem read from its third positional argument.  A rename or deletion in
``src/isocurv`` would otherwise only show in the slow benchmark smoke run.
The tables are read from the file's source, so nothing under
``benchmarks/`` is imported or edited.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def _tables() -> dict:
    """name -> literal value of the module-level SPANNED and COUNTED tables."""
    tables = {}
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED"):
                    tables[target.id] = ast.literal_eval(node.value)
    return tables


TABLES = _tables()
BOUND_NAMES = [(module, name) for table in TABLES.values()
               for module, names in table.items() for name in names]


def test_both_tables_are_read():
    assert set(TABLES) == {"SPANNED", "COUNTED"}
    assert all(TABLES.values())


@pytest.mark.parametrize("module, name", BOUND_NAMES,
                         ids=[f"{module}.{name}" for module, name in BOUND_NAMES])
def test_listed_name_is_a_public_callable(module, name):
    assert callable(getattr(importlib.import_module(f"isocurv.{module}"), name, None))


def test_equivalence_check_takes_the_theorem_third():
    from isocurv.diagnostics import equivalence_check

    assert list(inspect.signature(equivalence_check).parameters)[2] == "theorem_id"
