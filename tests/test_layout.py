"""Structural checks of the source tree: no unreferenced code, an independent oracle."""

import ast
from pathlib import Path

import qcfeff

SRC = Path(qcfeff.__file__).parent
ORACLE = Path(__file__).with_name("oracle.py")

# argparse calls this hook itself; nothing in the package names it
_CALLED_FROM_OUTSIDE = {("cli.py", "_Parser.error")}

# the engine code that the oracle is a separate reference for: the integer
# operators and transfer tables, the quaternion matrix maps, the jet
# product tables and the kernel engine's elimination
_CHECKED_MACHINERY = {
    "_bareiss_echelon",
    "_kernel_from_echelon",
    "_component_kernel",
    "ints",
    "_block_operators",
    "_operators_into",
    "harmonic_space",
    "_part1_ints",
    "_part2_ints",
    "_part2_ints_at",
    "_codifferential_ints",
    "_induce_ints",
    "_transfer",
    "quat_product",
    "_quat_conj",
    "_realify_H",
    "_realify_C",
    "_permuted",
    "_check_member",
    "jet_space",
    "JetSpace",
    "_multi_indices",
}


def _module_names(module):
    """(name, name) of every module-level class and public module-level constant."""
    for node in module.body:
        if isinstance(node, ast.ClassDef):
            yield node.name, node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, target.id


def _definitions(tree, prefix=""):
    """(qualified name, name) of every function and method, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _definitions(node, prefix + node.name + ".")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node.name
            yield from _definitions(node, prefix + node.name + ".<locals>.")
        else:
            yield from _definitions(node, prefix)


def _referenced_names(tree):
    """Every identifier read as a name or an attribute, plus imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_every_function_in_src_is_referenced():
    """A function, method, module-level class or public module-level
    constant that nothing in the package names is dead code.

    Re-exports in ``__init__`` do not count as uses, and dunder methods
    are called by the language, not by name.
    """
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for name, tree in trees.items():
        if name != "__init__.py":
            used |= {
                n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            used |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    unreferenced = [
        "%s:%s" % (module, qual)
        for module, tree in trees.items()
        for qual, name in (*_module_names(tree), *_definitions(tree))
        if not (name.startswith("__") and name.endswith("__"))
        and name not in used
        and (module, qual) not in _CALLED_FROM_OUTSIDE
    ]
    assert unreferenced == []


def test_every_import_and_private_constant_is_read():
    """An import or a module-level private name (``_X = ...``) that its own
    module never reads is dead.

    ``__init__`` imports are re-exports, and ``__future__`` imports are
    compiler directives.
    """
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        bound = [
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        bound += [
            target.id
            for node in tree.body
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
            and target.id.startswith("_")
            and not target.id.startswith("__")
        ]
        unread += ["%s:%s" % (path.name, name) for name in bound if name not in read]
    assert unread == []


def test_oracle_reads_no_integer_machinery():
    """The oracle stays a separate reference for the integer engine, the
    quaternion matrix maps, the jet product tables and the elimination."""
    read = _referenced_names(ast.parse(ORACLE.read_text()))
    assert sorted(read & _CHECKED_MACHINERY) == []
