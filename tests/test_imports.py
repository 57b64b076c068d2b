"""Every module of the package, and every test file, uses every name it
imports, and importing the command line takes at most 1 s and loads no
module that only a worker pool needs, and none that code generation needs.

The package's ``__init__.py`` is left out of the unused-import check: it
imports names to re-export them.  An import statement marked
``# noqa: F401`` is left out too; those bindings are kept on purpose for
callers that reach into the module.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "obstrukt"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns


def unused_imports(source: str) -> list[str]:
    """Names bound by imports in ``source`` that nothing else in it reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names written inside string annotations, such as -> "SimplicialComplex"
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES + sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_a_stale_import_is_reported():
    source = (PACKAGE / "homology.py").read_text(encoding="utf-8")
    assert unused_imports("import json\n" + source) == ["line 1: json"]


def test_noqa_and_string_annotations_keep_a_binding():
    assert unused_imports("import json  # noqa: F401\n") == []
    assert unused_imports("from os import (\n    path,  # noqa: F401\n)\n") == []
    assert unused_imports("from os import PathLike\ndef f() -> 'PathLike': ...\n") == []
    assert unused_imports("from os import sep\nx = {'sep': 1}\n") == ["line 1: sep"]


def _loaded_by_cli_import(modules: set[str]) -> list[str]:
    """Those of ``modules`` that a fresh interpreter holds after ``import
    obstrukt.cli``, which must take at most 1 s.

    The import took 30-40 ms with no bytecode cache and about 10 ms with one
    on a 2-core host (CPython 3.11); the bound fails a heavy import added
    later, not runner noise."""
    probe = ("import sys, time; start = time.perf_counter(); import obstrukt.cli; "
             "took = time.perf_counter() - start; "
             f"print((took, sorted(set({sorted(modules)!r}) & set(sys.modules))))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True).stdout
    took, loaded = ast.literal_eval(out)
    assert took <= 1.0, f"import obstrukt.cli took {took * 1000:.1f} ms"
    return loaded


def test_cli_import_leaves_the_pool_modules_unloaded():
    # every command imports obstrukt.cli before it computes; multiprocessing
    # and pickle load only when a suite starts a pool (--jobs above 1)
    assert _loaded_by_cli_import({"multiprocessing", "pickle"}) == []


def test_cli_import_leaves_the_code_generation_modules_unloaded():
    # the record classes are plain classes: dataclasses, and the inspect,
    # ast, dis and tokenize it brings, load only to raise FrozenInstanceError
    assert _loaded_by_cli_import({"dataclasses", "inspect", "ast", "dis", "tokenize"}) == []
