import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import blowlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(blowlab.__path__))

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blowlab"

# public names whose only callers are unit tests that use them as the
# independent reference for a live route
REFERENCES = {
    "hermite.hermite_explicit_sum": "closed-form H_m that the recurrence and jet tables are checked against",
    "params.profile_second_derivative": "closed-form f_b'' that w_rhs and the direct w-solver are checked against",
    "hermite.recompose": "the grid function of a decomposition, for the idempotence and generator checks",
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"blowlab.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _referenced(tree: ast.Module, skip: str | None = None) -> set[str]:
    """Names that code in a module refers to.

    An attribute counts by its name. A bare name counts when the module
    defines it at top level or imports it, so a local variable that shares
    a public name does not. Docstrings, comments and other strings do not
    count, nor does anything inside the top-level definition of skip.
    """
    own = {
        n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
    } | {
        t.id for n in tree.body if isinstance(n, ast.Assign)
        for t in n.targets if isinstance(t, ast.Name)
    }
    imported = {
        alias.asname or alias.name
        for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for alias in n.names
    }
    out: set[str] = set()
    stack = [n for n in tree.body if getattr(n, "name", None) != skip]
    while stack:
        n = stack.pop()
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id in own | imported:
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        stack.extend(ast.iter_child_nodes(n))
    return out


def test_every_public_name_has_a_caller():
    """Each name in a module's __all__ is used by the package, the acceptance
    suite or the benchmark, or is listed in REFERENCES."""
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    outside = set()
    for path in [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "benchmarks").glob("*.py"))]:
        outside |= _referenced(ast.parse(path.read_text(encoding="utf-8")))

    uncalled = set()
    for path, tree in trees.items():
        for name in _exported(tree):
            used = name in outside or any(
                name in _referenced(other, skip=name if other is tree else None)
                for other in trees.values()
            )
            if not used:
                uncalled.add(f"{path.stem}.{name}")
    assert sorted(uncalled - set(REFERENCES)) == []
    # a reference that gains a caller leaves the list
    assert sorted(set(REFERENCES) - uncalled) == []


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but neither refers to nor lists in __all__."""
    imported = {
        alias.asname or alias.name.split(".")[0]
        for n in ast.walk(tree)
        if isinstance(n, ast.Import) or (isinstance(n, ast.ImportFrom) and n.module != "__future__")
        for alias in n.names
    }
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - set(_exported(tree)))


# __init__ imports only to re-export
@pytest.mark.parametrize(
    "path", sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}), ids=lambda p: p.stem,
)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_caching_rule_lives_in_params():
    # params.table_cache sets every cached table read-only; no other module
    # caches or freezes arrays by hand
    named = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        if names & {"lru_cache", "writeable"}:
            named.add(path.stem)
    assert named == {"params"}
