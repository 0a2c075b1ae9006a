"""Every module-level function and class in the package has a caller.

Helpers that only the tests use are not product code; they live in the
tests, as oracles. A name counts as used when the package, a demo or
the benchmark names it outside its own definition: as a name, an
attribute, an import, or a string that is an identifier (the
benchmark's tracer patches entry points by name).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "floorspace"
CALLERS = ("src", "demos", "perfbench")


def names_in(tree, skip=None):
    """Identifiers that ``tree`` names, leaving out the subtree ``skip``."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_module_level_name_in_the_package_is_named_outside_its_definition():
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for top in CALLERS
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    elsewhere = {path: names_in(tree) for path, tree in trees.items()}
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = trees[path]
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            named = names_in(tree, skip=node)
            named |= {n for p, names in elsewhere.items() if p != path for n in names}
            if node.name not in named:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, "named only in their own definition: " + ", ".join(unused)
