"""Every module-level function, class and exception of the package is reached.

Reachability is static.  It starts at ``cli.main`` and at the names that the
package's ``__init__.py`` imports, and follows ``Name`` and ``Attribute``
references through function and class bodies (decorators, bases and
annotations included) and through module-level assignments, the tables such
as ``codemaps.THEOREMS`` and ``cli._COMMANDS``.  A ``Name`` resolves to the
definition or the relative import of that name in its own module; an
``Attribute`` resolves to every module-level definition of that name, which
can only over-approximate what is reached.  Any other module-level statement
runs on import, so what it references is reached too.
"""

import ast
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "obstrukt"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _sources() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}


def _bound_in_functions(node: ast.AST) -> set[str]:
    """Parameters and assigned names of the functions inside ``node``, which
    shadow a module-level definition of the same name."""
    bound = set()
    for fn in ast.walk(node):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = fn.args
            bound.update(arg.arg for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs,
                                             a.vararg, a.kwarg] if arg is not None)
            bound.update(n.id for n in ast.walk(fn)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return bound


def unreached(sources: dict[str, str]) -> list[str]:
    """``module.name`` of every module-level function or class in ``sources``
    (module name -> source text) that no root reaches."""
    nodes: dict[tuple[str, str], list[ast.AST]] = defaultdict(list)
    imports: dict[str, dict[str, tuple[str, str]]] = defaultdict(dict)
    by_name: dict[str, set[tuple[str, str]]] = defaultdict(set)
    checked: set[tuple[str, str]] = set()
    roots: list[tuple[str, str]] = [("cli", "main")]
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, DEFINITIONS):
                key = (module, node.name)
                nodes[key].append(node)
                checked.add(key)
                by_name[node.name].add(key)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            nodes[(module, name.id)].append(node)
            elif isinstance(node, ast.ImportFrom):
                if node.level == 1 and node.module:
                    for alias in node.names:
                        key = (node.module, alias.name)
                        imports[module][alias.asname or alias.name] = key
                        if module == "__init__":
                            roots.append(key)
            elif not isinstance(node, ast.Import):
                nodes[(module, "<import time>")].append(node)
                roots.append((module, "<import time>"))

    def resolve(module: str, name: str) -> tuple[str, str] | None:
        key = (module, name)
        while key not in nodes and key[1] in imports[key[0]]:
            key = imports[key[0]][key[1]]
        return key if key in nodes else None

    reached: set[tuple[str, str]] = set()
    stack = [key for key in (resolve(*root) for root in roots) if key is not None]
    while stack:
        key = stack.pop()
        if key in reached:
            continue
        reached.add(key)
        for node in nodes[key]:
            local = _bound_in_functions(node)
            for ref in ast.walk(node):
                if isinstance(ref, ast.Name) and ref.id not in local:
                    found = resolve(key[0], ref.id)
                    if found is not None:
                        stack.append(found)
                elif isinstance(ref, ast.Attribute):
                    stack.extend(by_name[ref.attr])
    return sorted(f"{m}.{n}" for m, n in checked - reached)


def test_every_definition_is_reached():
    assert unreached(_sources()) == []


def test_an_uncalled_helper_is_reported():
    sources = _sources()
    sources["homology"] += "\n\ndef _stale(K):\n    return reduced_homology(K, Field.GF2)\n"
    sources["errors"] += "\n\nclass Unraised(ObstruktError):\n    pass\n"
    assert unreached(sources) == ["errors.Unraised", "homology._stale"]


def test_references_reach_through_tables_attributes_and_imports():
    sources = {
        "__init__": "from .b import exported\n",
        "cli": "from . import b\nTABLE = {'x': b.via_attribute}\n"
               "def main():\n    return TABLE\n",
        "b": "def exported():\n    shadowed = helper()\n    return shadowed\n"
             "def helper():\n    pass\ndef via_attribute():\n    pass\n"
             "def shadowed():\n    pass\n",
    }
    assert unreached(sources) == ["b.shadowed"]
