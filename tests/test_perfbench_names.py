"""The benchmark in `perfbench/` reads only `psmsynth` names that exist.

`perfbench/` runs the program from its source checkout, so a name deleted
from `psmsynth` breaks the benchmark only when the benchmark runs.  This scan
reads `perfbench/*.py` with `ast` and checks each `module.attr` read through
a module imported with `from psmsynth import ...`, and each name imported
with `from psmsynth.module import ...`.  A module name rebound as a function
parameter, as in `oracles.graph_of(dfg)`, is skipped inside that function.
Attributes of objects (such as `Report.files`) are outside its reach.  The
names spelled in strings, the `module.func` keys of `layers.GROUPS` and of
the probe table that the tracer hooks, are checked by importing `layers`.
"""

import ast
import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _references(tree: ast.AST) -> list[tuple[int, str, str]]:
    """(line, module, name) of each psmsynth name the file reads."""
    modules = {}
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "psmsynth":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"psmsynth.{alias.name}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("psmsynth."):
            refs += [(node.lineno, node.module, alias.name) for alias in node.names]

    def visit(node: ast.AST, params: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            args = (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
            params = params | {arg.arg for arg in args if arg is not None}
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.value.id not in params
        ):
            refs.append((node.lineno, modules[node.value.id], node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, params)

    visit(tree, frozenset())
    return refs


def test_perfbench_reads_only_existing_names():
    refs = {
        (path.name, line, module, name)
        for path in sorted(PERFBENCH.glob("*.py"))
        for line, module, name in _references(ast.parse(path.read_text(encoding="utf-8")))
    }
    missing = sorted(
        f"{file}:{line}: {module}.{name}"
        for file, line, module, name in refs
        if not hasattr(importlib.import_module(module), name)
    )
    assert refs and missing == []


# Traced names that no longer exist: the tracer skips them, so their metric
# reads 0 or loses a part.  The next `perfbench/` refresh empties this set.
STALE_TRACED = {"cost.loads_alternatives", "fsm.synthesize_component"}


def test_traced_groups_and_probes_name_existing_functions(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    names = {f for funcs in layers.GROUPS.values() for f in funcs} | set(layers.Probes({}).table())
    missing = set()
    for name in names:
        module, func = name.split(".")
        if not callable(getattr(importlib.import_module(f"psmsynth.{module}"), func, None)):
            missing.add(name)
    assert len(names) > 20 and missing == STALE_TRACED


def test_scan_skips_parameters_that_shadow_a_module():
    tree = ast.parse(
        "from psmsynth import dfg, model\n"
        "from psmsynth.fds import Schedule, nothing_here\n"
        "def graph_of(dfg):\n"
        "    return dfg.ops\n"
        "x = model.simulate\n"
        "y = model.no_such_name\n"
    )
    assert sorted(_references(tree)) == [
        (2, "psmsynth.fds", "Schedule"), (2, "psmsynth.fds", "nothing_here"),
        (5, "psmsynth.model", "simulate"), (6, "psmsynth.model", "no_such_name"),
    ]
