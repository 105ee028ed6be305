"""Every name the benchmark's tracer patches still exists where it patches it.

``perfbench/tracing.py`` replaces functions in the module that calls them and
methods on their class, and fails with ``KeyError`` on a missing one.  A
refactor that renames or stops importing a traced name fails here, in tier-1,
not only in a traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def patch_table(name):
    """The literal tuple assigned to ``name`` in tracing.py, read without
    importing the benchmark."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACING}")


def test_traced_names_resolve():
    missing = []
    # the dataset's make_system is patched by name outside the tables
    module_names = [(m, a) for m, a, _ in patch_table("MODULE_PATCHES")]
    module_names.append(("predictor_lab.dataset", "make_system"))
    for module, attr in module_names:
        if attr not in vars(importlib.import_module(module)):
            missing.append(f"{module}.{attr}")
    for module, cls, attr, _ in patch_table("CLASS_PATCHES"):
        owner = getattr(importlib.import_module(module), cls, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module}.{cls}.{attr}")
    assert not missing, f"traced names no longer resolve: {missing}"
