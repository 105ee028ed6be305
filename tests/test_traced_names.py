"""Every name the benchmark's tracer patches still exists where it patches it.

``perfbench/tracing.py`` replaces functions in the module that calls them and
methods on their class, and fails with ``KeyError`` on a missing one.  A
refactor that renames or stops importing a traced name fails here, in tier-1,
not only in a traced benchmark run.  The same holds for the calls that
``probes`` in ``perfbench/run.py`` makes into the package.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
RUN = PERFBENCH / "run.py"
PROBED_MODULES = ("predictor", "history")


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


def probe_calls():
    """``(module, attr, n_positional, keywords)`` of every ``predictor.*`` or
    ``history.*`` call inside ``probes`` in run.py."""
    tree = ast.parse(RUN.read_text())
    probes = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "probes")
    calls = []
    for node in ast.walk(probes):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in PROBED_MODULES):
            calls.append((node.func.value.id, node.func.attr, len(node.args),
                          [kw.arg for kw in node.keywords]))
    return calls


def test_probe_calls_bind():
    calls = probe_calls()
    assert {m for m, *_ in calls} == set(PROBED_MODULES)
    broken = []
    for module, attr, n_args, keywords in calls:
        fn = getattr(importlib.import_module(f"predictor_lab.{module}"),
                     attr, None)
        try:
            inspect.signature(fn).bind(*[None] * n_args,
                                       **dict.fromkeys(keywords))
        except (TypeError, ValueError):
            broken.append(f"{module}.{attr}({n_args} positional, {keywords})")
    assert not broken, f"probe calls no longer bind: {broken}"
