"""Checks on the package source: the pipeline modules stay off the lemma
library and `import cyclecover` does not load it, the lemma library keeps
no search of its own, the blow-up search draws no random numbers, every
function of cover.py, blowup_search.py and seeding.py runs in the pipeline, no module keeps an import it does not
use, numpy loads only when something needs it, every process-level memo is
bounded, and GNP hosts are drawn in blocks, without a random() call per
pair or numpy.random."""

import ast
import inspect
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cyclecover.blowup_search as blowup_search
import cyclecover.cover as cover
import cyclecover.lemmas as lemmas
import cyclecover.seeding as seeding
from cyclecover.core import CycleBlowupCertificate, Graph
from cyclecover.generators import DIRAC_EXTREMAL, GNP_REPAIRED, GeneratorSpec, generate

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cyclecover"

# modules the solve path and the verifier run; the lemma library is
# exercised by the acceptance criteria and the CLI only
PIPELINE = ("cover", "blowup_search", "seeding", "core", "bitset", "generators")
LEMMA_LIBRARY = {"lemmas"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported_modules(tree: ast.Module) -> set[str]:
    """Package-relative names of every module the tree imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name.removeprefix("cyclecover.") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and not node.module.startswith("cyclecover"):
                continue
            base = (node.module or "").removeprefix("cyclecover").lstrip(".")
            if base:
                out.add(base)
            else:  # from . import x, or from cyclecover import x
                out.update(a.name for a in node.names)
    return out


@pytest.mark.parametrize("module", PIPELINE)
def test_pipeline_module_does_not_import_the_lemma_library(module):
    assert not LEMMA_LIBRARY & _imported_modules(_tree(PACKAGE / f"{module}.py"))


def test_importing_the_package_does_not_load_the_lemma_library():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = ("import sys, cyclecover; "
            f"print(sorted(m for m in {sorted(LEMMA_LIBRARY)} if 'cyclecover.' + m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code],
                         env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_lemma_library_keeps_no_search_of_its_own(monkeypatch):
    # the biclique search is connect_clusters' subset DFS, not a copy of it:
    # lemmas.py nests no function (a biclique DFS and an arity recursion
    # were the two it had), and find_biclique runs blowup_search._subset_dfs
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    nested = sorted((inner.lineno, inner.name)
                    for outer in ast.walk(_tree(PACKAGE / "lemmas.py")) if isinstance(outer, defs)
                    for inner in ast.walk(outer) if inner is not outer and isinstance(inner, defs))
    assert nested == []
    real = blowup_search._subset_dfs
    assert lemmas._subset_dfs is real
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(lemmas, "_subset_dfs", counting)
    req = lemmas.BicliqueRequest.of(Graph.complete(8), {0, 1, 2}, {3, 4, 5}, 2)
    assert lemmas.find_biclique(req) == ((0, 1), (3, 4))
    assert calls == 1


def test_blowup_search_has_no_search_stream_or_restart_knob():
    # extraction is one greedy pass: the search module spawns no random
    # stream, and a search differs from another only in what it avoids
    assert "seeding" not in _imported_modules(_tree(PACKAGE / "blowup_search.py"))
    params = inspect.signature(blowup_search.BlowupSearch.find).parameters
    assert list(params) == ["self", "avoid"]


def test_every_cover_function_runs_in_the_pipeline():
    # the pipeline path holds only code the pipeline runs: generating and
    # solving four desk hosts enters every def of cover.py, blowup_search.py
    # and seeding.py, methods, properties and nested functions included.
    # GNP (300, 0.8, 210) seed 9 places a late vertex, (600, 0.8, 420) seed 0
    # takes a direct pickup out of the fold-in, and the relabelled
    # DIRAC_EXTREMAL host draws its relabelling with draw_subset.
    paths = {m.__file__ for m in (cover, blowup_search, seeding)}
    # a decorated function's code starts at its first decorator
    defs = {(path, node.name, min([node.lineno] + [d.lineno for d in node.decorator_list]))
            for path in paths for node in ast.walk(_tree(Path(path)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    specs = [GeneratorSpec(GNP_REPAIRED, n=n, p=p, delta_target=delta, seed=seed)
             for n, p, delta, seed in ((300, 0.97, 225, 0), (300, 0.8, 210, 9),
                                       (600, 0.8, 420, 0))]
    specs.append(GeneratorSpec(DIRAC_EXTREMAL, n=300, delta_target=225, seed=1))
    entered = set()

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename in paths:
            entered.add((code.co_filename, code.co_name, code.co_firstlineno))
        # no local trace function: calls are recorded, lines are not

    cover._guard_picks.cache_clear()  # a warm memo would skip the draw
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        params = cover.CoverParams()
        certs = [cover.spanning_cycle_blowup(generate(spec), params) for spec in specs]
    finally:
        sys.settrace(previous)
    assert all(isinstance(c, CycleBlowupCertificate) for c in certs), certs
    assert all(sum(d[0] == path for d in defs) >= 5 for path in paths)
    assert sorted((Path(path).name, name, line) for path, name, line in defs - entered) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):  # names re-exported through __all__
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(e.value for e in node.value.elts)
    unused = sorted((line, name) for name, line in bound.items() if name not in used)
    assert not unused, f"{path.name}: unused imports (line, name) {unused}"


def _import_time_imports(node: ast.AST):
    """Import statements that run when the module is imported: everything
    outside function bodies."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        yield from _import_time_imports(child)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_numpy_is_imported_inside_functions_only(path):
    # numpy at import time raised the peak memory of `import cyclecover` from
    # 18.5 to 27.8 MB (Python 3.11, numpy 2.4)
    names = set()
    for node in _import_time_imports(_tree(path)):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    assert "numpy" not in names


def test_importing_the_package_does_not_load_numpy():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c",
                          "import sys, cyclecover, cyclecover.cli; print('numpy' in sys.modules)"],
                         env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def _unbounded_caches(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of every functools cache or lru_cache decorator in the
    tree that is not given an integer maxsize."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in node.decorator_list:
            call = deco if isinstance(deco, ast.Call) else None
            target = call.func if call else deco
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name not in ("cache", "lru_cache"):
                continue
            size = None
            if call and name == "lru_cache":
                size = next((k.value for k in call.keywords if k.arg == "maxsize"),
                            call.args[0] if call.args else None)
            if not (isinstance(size, ast.Constant) and type(size.value) is int):
                out.append((deco.lineno, node.name))
    return out


def test_unbounded_cache_finder_flags_every_unbounded_form():
    src = """
import functools
from functools import cache, lru_cache
@cache
def a(): pass
@lru_cache
def b(): pass
@lru_cache(maxsize=None)
def c(): pass
@functools.lru_cache(None)
def d(): pass
@functools.cache
def e(): pass
@lru_cache(maxsize=8)
def f(): pass
@functools.lru_cache(4)
def g(): pass
"""
    assert [name for _, name in _unbounded_caches(ast.parse(src))] == ["a", "b", "c", "d", "e"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_memo_is_bounded(path):
    # a process-level memo lives as long as the process: the fold-in's plan
    # cache raised peak memory while it was module-level (cover.py), and a
    # sweep or a benchmark solves many hosts in one process
    assert not _unbounded_caches(_tree(path)), path.name


def test_gnp_generation_makes_no_random_calls(monkeypatch):
    # a random() call per pair made a sparse-600 host cost 22 ms, against
    # 9 ms with the coins drawn in blocks (2-vCPU x86-64, Python 3.11)
    calls = 0
    real = random.Random.random

    def counting(self):
        nonlocal calls
        calls += 1
        return real(self)

    monkeypatch.setattr(random.Random, "random", counting)
    generate(GeneratorSpec(GNP_REPAIRED, n=80, p=0.5, delta_target=60, seed=1))
    assert calls == 0


def test_gnp_generation_does_not_load_numpy_random():
    # numpy.random, with the secrets and hashlib modules it imports, raised
    # the peak memory of a sparse-600 benchmark run from 33.4 to 39.5 MB
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    code = ("import sys; from cyclecover.generators import GNP_REPAIRED, GeneratorSpec, generate; "
            "generate(GeneratorSpec(GNP_REPAIRED, n=50, p=0.5, delta_target=30, seed=1)); "
            "print('numpy' in sys.modules, 'numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code],
                         env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "True False"
