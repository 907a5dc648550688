"""The public surface: every top-level function and class of circlelab,
public or private, is used by the package itself, not only by tests, and
so is every import and every upper-case module-level constant; each
module's __all__ lists its public functions and classes and nothing it
does not define."""

import ast
import sys
from pathlib import Path

import circlelab

PACKAGE = Path(circlelab.__file__).parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# public names that only tests call, each with the reason it stays
ALLOWED = {
    "localdens.a_of_q": (
        "benchmark/test_wiring.py reads localdens.joint_histogram, "
        "and a_of_q is the only user of that import"
    ),
}


def _modules() -> dict[str, ast.Module]:
    """Every module of the package but __init__.py, which only re-exports."""
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def _surface(modules: dict[str, ast.Module]) -> tuple[set[str], set[str]]:
    """(the top-level definitions, the referenced ones), as module.name.

    A reference is an ast.Name or ast.Attribute anywhere in the package;
    one inside the top-level definition of the name itself does not count.
    Imports and the strings of __all__ are no references."""
    defined = {
        f"{mod}.{node.name}"
        for mod, tree in modules.items()
        for node in tree.body
        if isinstance(node, DEFINITIONS)
    }
    by_name: dict[str, set[str]] = {}
    for qual in defined:
        by_name.setdefault(qual.partition(".")[2], set()).add(qual)
    referenced = set()
    for mod, tree in modules.items():
        for node in tree.body:
            own = {f"{mod}.{node.name}"} if isinstance(node, DEFINITIONS) else set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    referenced |= by_name.get(sub.id, set()) - own
                elif isinstance(sub, ast.Attribute):
                    referenced |= by_name.get(sub.attr, set()) - own
    return defined, referenced


def _private(qual: str) -> bool:
    return qual.partition(".")[2].startswith("_")


def test_every_public_name_is_used_in_the_package():
    defined, referenced = _surface(_modules())
    public = {qual for qual in defined if not _private(qual)}
    assert sorted(public - referenced - set(ALLOWED)) == []


def test_every_private_name_is_used_in_the_package():
    # a leftover helper of a deleted path shows here: no private name is
    # allowed to go unreferenced
    defined, referenced = _surface(_modules())
    assert sorted(qual for qual in defined - referenced if _private(qual)) == []


def test_allowlist_names_only_unused_definitions():
    defined, referenced = _surface(_modules())
    for qual in ALLOWED:
        assert qual in defined and not _private(qual) and qual not in referenced, qual


def _loaded(node: ast.AST) -> set[str]:
    """Names read under node: each ast.Name in a load context, each attribute."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def _unused_bindings(modules: dict[str, ast.Module]) -> list[str]:
    """Imports and upper-case module-level constants that no module reads.

    An import counts as used when its own module reads the name it binds;
    a constant when any module reads it, by name or as an attribute.
    __future__ imports bind nothing."""
    everywhere = set().union(*(_loaded(tree) for tree in modules.values()))
    unused = []
    for mod, tree in modules.items():
        here = _loaded(tree)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in here:
                        unused.append(f"{mod}: import {bound}")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id.isupper()
                        and target.id not in everywhere
                    ):
                        unused.append(f"{mod}: {target.id}")
    return unused


def test_every_import_and_constant_is_used_in_the_package():
    assert _unused_bindings(_modules()) == []


def _declared(tree: ast.Module) -> list[str] | None:
    """The strings of the module's __all__, or None when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return None


def _top_level_names(tree: ast.Module) -> set[str]:
    """Names that a module defines at top level: its functions, classes and
    assigned names (imports excluded)."""
    names = set()
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_every_module_declares_its_public_surface():
    # __all__ names only what its module defines, and every public
    # top-level function and class of the module
    for mod, tree in _modules().items():
        declared = _declared(tree)
        assert declared is not None, f"{mod} has no __all__"
        assert len(declared) == len(set(declared)), mod
        assert sorted(set(declared) - _top_level_names(tree)) == [], mod
        public = {
            node.name for node in tree.body
            if isinstance(node, DEFINITIONS) and not node.name.startswith("_")
        }
        assert sorted(public - set(declared)) == [], mod


def test_numpy_is_the_only_runtime_dependency():
    # every import of the package, __init__.py and function bodies included,
    # names the standard library, numpy, __future__ or the package itself
    # through a relative import; scipy and sympy may be installed where the
    # tests run, so only this test sees a stray import of them
    allowed = set(sys.stdlib_module_names) | {"numpy", "__future__"}
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [f"{path.name}: {name}" for name in names if name.partition(".")[0] not in allowed]
    assert stray == []
