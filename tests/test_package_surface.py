"""Every function and class that `src/aegem` defines is named by the program,
and every name a package module imports is read in it.

The check walks the syntax trees of `src/aegem/*.py` (not `__init__.py`,
whose re-exports name every public function) and `perfbench/*.py`. It
collects every name read (`ast.Name`), every attribute (`ast.Attribute`)
and every imported name, and fails for each function, method or class
defined in `src/aegem` that none of them names, unless `ALLOWED` keeps it
with its reason. The tests are not walked, so a helper that only the
tests call fails the check.

The check goes by name, not by binding: two definitions that share a
name hide each other. A method `step` counts as named wherever any
`.step` is read, and an uncalled function is missed whenever anything
else of its name is used. Dunder methods, which Python calls itself, are
not checked.

A second walk fails for each name that a `src/aegem` module other than
`__init__.py` imports and never reads (`from __future__` imports aside).
A third fails for each `_`-prefixed name that a `src/aegem` module
imports from another package module, or reads as an attribute `alias._name`
of a name bound to another package module (`from . import autodiff as ad`
makes `ad._name` such a read): a name another module needs is public. A
private member of another module's class, such as `ad.Tensor._from_op`,
is outside this walk.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "aegem"

# Definitions kept although the program never names them, each with its reason.
ALLOWED = {
    "batch_norm": "acceptance criterion 1 gradchecks batch normalization",
    "relu": "acceptance criterion 1 gradchecks ReLU",
    "leaky_relu": "acceptance criterion 1 gradchecks the leaky ReLU, whose kernels conv2d's "
                  "leaky= applies inside the conv node",
    "rbf_adjacency": "acceptance criterion 3 checks the RBF adjacency",
    "laplacian": "acceptance criterion 3 checks the graph Laplacian",
    "normalized_laplacian": "acceptance criterion 3 checks the normalized Laplacian",
    "softplus": "the op of the GCN loss's composite oracle in tests/oracles.py",
}


def _program_files() -> list[Path]:
    package = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return package + sorted((ROOT / "perfbench").glob("*.py"))


def _definitions(tree: ast.AST) -> set[str]:
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))}


def _names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def test_every_definition_in_the_package_is_named_by_the_program():
    defined, named = {}, set()  # definition -> the file defining it; every name used
    for path in _program_files():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if path.parent == PACKAGE:
            defined.update(dict.fromkeys(_definitions(tree), path.name))
        named |= _names(tree)
    unnamed = sorted(f"{defined[name]}: {name}" for name in defined
                     if name not in named and name not in ALLOWED)
    assert not unnamed, ("defined in src/aegem but named nowhere in src/aegem or "
                         f"perfbench; delete them or add them to ALLOWED: {unnamed}")
    # a stale entry would let a later uncalled helper of its name through
    stale = sorted(name for name in ALLOWED if name not in defined or name in named)
    assert not stale, f"ALLOWED entries no longer needed: {stale}"


def _unread_imports(tree: ast.AST) -> list[str]:
    """Names a module imports (`from __future__` aside) that it never reads."""
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_every_name_a_package_module_imports_is_read_in_it():
    # __init__.py imports to re-export, so its names are read elsewhere
    unread = [f"{path.name}: {name}" for path in _program_files() if path.parent == PACKAGE
              for name in _unread_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert not unread, f"imported but never read; delete them: {unread}"


def _module_aliases(tree: ast.AST) -> set[str]:
    """Names a module binds to a package module: `from . import x [as y]`,
    `from aegem import x [as y]` and `import aegem.x as y`."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "aegem"):
            aliases.update(alias.asname or alias.name for alias in node.names
                           if alias.name in modules)
        elif isinstance(node, ast.Import):
            aliases.update(alias.asname for alias in node.names
                           if alias.asname and alias.name.split(".")[0] == "aegem"
                           and alias.name.split(".")[-1] in modules)
    return aliases


def test_no_package_module_imports_a_private_name_of_another():
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = _module_aliases(tree)
        private += [f"{path.name}: {alias.name}" for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and (node.level or (node.module or "").split(".")[0] == "aegem")
                    for alias in node.names if alias.name.startswith("_")]
        private += [f"{path.name}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases and node.attr.startswith("_")]
    assert not private, f"private names read from another module; make them public: {private}"
