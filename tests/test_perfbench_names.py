"""The benchmark in `perfbench/` reads only `psmsynth` names that exist.

`perfbench/` runs the program from its source checkout, so a name deleted
from `psmsynth` breaks the benchmark only when the benchmark runs.  This scan
reads `perfbench/*.py` with `ast` and checks each `module.attr` read through
a module imported with `from psmsynth import ...`, and each name imported
with `from psmsynth.module import ...`.  A module name rebound as a function
parameter, as in `oracles.graph_of(dfg)`, is skipped inside that function.
Each keyword argument passed in a call of such a name, as `chunk=` in
`dse.explore_streaming(space, chunk=64)`, is checked against the callee's
`inspect.signature`.  Attributes of objects (such as `Report.files`) are
outside its reach.  The names spelled in strings, the `module.func` keys of
`layers.GROUPS` and of the probe table that the tracer hooks, are checked by
importing `layers`.
"""

import ast
import importlib
import inspect
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _references(tree: ast.AST) -> tuple[list[tuple[int, str, str]], list[tuple[int, str, str, str]]]:
    """(line, module, name) of each psmsynth name the file reads, and (line,
    module, name, keyword) of each keyword argument of a call of one."""
    modules = {}
    imported = {}  # local name -> (module, name), from `from psmsynth.module import name`
    refs = []
    keywords = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "psmsynth":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"psmsynth.{alias.name}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("psmsynth."):
            for alias in node.names:
                refs.append((node.lineno, node.module, alias.name))
                imported[alias.asname or alias.name] = (node.module, alias.name)

    def module_attr(node: ast.AST, params: frozenset) -> tuple[str, str] | None:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.value.id not in params
        ):
            return modules[node.value.id], node.attr
        return None

    def visit(node: ast.AST, params: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            args = (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
            params = params | {arg.arg for arg in args if arg is not None}
        if found := module_attr(node, params):
            refs.append((node.lineno, *found))
        if isinstance(node, ast.Call):
            func = node.func
            callee = module_attr(func, params) or (
                imported.get(func.id) if isinstance(func, ast.Name) and func.id not in params else None
            )
            if callee:
                keywords.extend((node.lineno, *callee, kw.arg) for kw in node.keywords if kw.arg)
        for child in ast.iter_child_nodes(node):
            visit(child, params)

    visit(tree, frozenset())
    return refs, keywords


def _scan_perfbench() -> tuple[set, set]:
    refs, keywords = set(), set()
    for path in sorted(PERFBENCH.glob("*.py")):
        file_refs, file_keywords = _references(ast.parse(path.read_text(encoding="utf-8")))
        refs |= {(path.name, *ref) for ref in file_refs}
        keywords |= {(path.name, *kw) for kw in file_keywords}
    return refs, keywords


def test_perfbench_reads_only_existing_names():
    refs, _ = _scan_perfbench()
    missing = sorted(
        f"{file}:{line}: {module}.{name}"
        for file, line, module, name in refs
        if not hasattr(importlib.import_module(module), name)
    )
    assert refs and missing == []


def test_perfbench_passes_only_existing_keyword_arguments():
    _, keywords = _scan_perfbench()
    unknown = []
    for file, line, module, name, keyword in sorted(keywords):
        params = inspect.signature(getattr(importlib.import_module(module), name)).parameters
        if keyword not in params and not any(p.kind is p.VAR_KEYWORD for p in params.values()):
            unknown.append(f"{file}:{line}: {module}.{name}({keyword}=...)")
    assert ("psmsynth.dse", "explore_streaming", "chunk") in {k[2:] for k in keywords}
    assert unknown == []


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
        "z = model.simulate(comp, horizon=1, **extra)\n"
        "s = Schedule(0, start={})\n"
        "def shadowed(model, Schedule):\n"
        "    return model.simulate(x=1), Schedule(y=2)\n"
    )
    refs, keywords = _references(tree)
    assert sorted(refs) == [
        (2, "psmsynth.fds", "Schedule"), (2, "psmsynth.fds", "nothing_here"),
        (5, "psmsynth.model", "simulate"), (6, "psmsynth.model", "no_such_name"),
        (7, "psmsynth.model", "simulate"),
    ]
    assert sorted(keywords) == [
        (7, "psmsynth.model", "simulate", "horizon"), (8, "psmsynth.fds", "Schedule", "start"),
    ]
