"""Every module-level function and class in the package has a caller.

Helpers that only the tests or the demos use are not product code; the
tests keep theirs as oracles, and the demos walk the product's own
paths. A name counts as used when the package or the benchmark names it
outside its own definition: as a name, an attribute, an import, or a
string that is an identifier (the benchmark's tracer patches entry
points by name). The package root's re-exports do not count: a name
that only ``__init__.py`` names has no caller.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "floorspace"
CALLERS = ("src", "perfbench")


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
        if path != PACKAGE / "__init__.py"
    }
    elsewhere = {path: names_in(tree) for path, tree in trees.items()}
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            named = names_in(tree, skip=node)
            named |= {n for p, names in elsewhere.items() if p != path for n in names}
            if node.name not in named:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, "named only in their own definition: " + ", ".join(unused)


# Imported into a package module that never reads them, because the
# benchmark reaches them there: its tracer patches the first three in the
# modules named, and its workloads import SAMPLE_RATE from ``vad``.
READ_BY_THE_BENCHMARK = {
    "evaluation.trp_gap_from_arrays",
    "learner.simultaneous_speech",
    "learner.trp_gap_from_arrays",
    "vad.SAMPLE_RATE",
}


def unread_imports(tree):
    """The names a module-level import binds that the module never reads
    (``__all__``'s strings count as reads)."""
    bound = {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", "") != "__future__"
        for alias in node.names
    }
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                getattr(t, "id", "") == "__all__" for t in node.targets):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return bound - read


def test_every_import_in_the_package_is_read():
    unread = {
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in unread_imports(ast.parse(path.read_text(encoding="utf-8")))
    }
    extra = sorted(unread - READ_BY_THE_BENCHMARK)
    assert not extra, "imported but never read: " + ", ".join(extra)


# Settable values in the package, counted by ``settable_values``; lower it
# when a setting goes, and add none: a new setting fails here.
SETTABLE_VALUES = 74


def _defaulted(fn):
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def _is_dataclass(cls):
    return any(
        (d.func if isinstance(d, ast.Call) else d).id == "dataclass"
        for d in cls.decorator_list
        if isinstance(d.func if isinstance(d, ast.Call) else d, ast.Name)
    )


def settable_values():
    """Per site, the values a caller can set: every ``--flag`` the CLI
    adds, every field of a ``*Config`` class, every defaulted field of
    another dataclass, and every defaulted parameter of a public
    function, public method or constructor."""
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "add_argument"
                    and node.args and str(node.args[0].value).startswith("-")):
                sites[f"{path.stem} --flags"] = sites.get(f"{path.stem} --flags", 0) + 1
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                sites[f"{path.stem}.{node.name}"] = _defaulted(node)
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                config = node.name.endswith("Config")
                if config or _is_dataclass(node):
                    sites[f"{path.stem}.{node.name} fields"] = sum(
                        isinstance(f, ast.AnnAssign) and (config or f.value is not None)
                        for f in node.body
                    )
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and (
                            fn.name == "__init__" or not fn.name.startswith("_")):
                        sites[f"{path.stem}.{node.name}.{fn.name}"] = _defaulted(fn)
    return {site: k for site, k in sites.items() if k}


def test_no_setting_is_added():
    sites = settable_values()
    listed = ", ".join(f"{site} {k}" for site, k in sorted(sites.items()))
    assert sum(sites.values()) == SETTABLE_VALUES, listed


def rule_spellings(tree):
    """Lines that spell out what ``errors.check_integer`` and
    ``check_number`` say: ``isinstance(…, bool)``, ``type(…) is int`` or
    ``math.isfinite``."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", "") == "isinstance"
                and len(node.args) == 2
                and "bool" in {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
                and getattr(node.left.func, "id", "") == "type"
                and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                and any(getattr(c, "id", "") == "int" for c in node.comparators)):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr == "isfinite"
                and getattr(node.value, "id", "") == "math"):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_two_rules_are_the_only_spelling_of_an_integer_or_a_number():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "errors.py"
        for line in rule_spellings(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not found, "use errors.check_integer or check_number at: " + ", ".join(found)


# the one function per module that may parse JSON: every file is read by
# ``read_json``, and only the control plane parses bytes off the wire
JSON_READERS = {"errors.py": "read_json", "server.py": "decode_message"}


def json_reads(tree, reader=None):
    """Lines that call ``json.load`` or ``json.loads`` outside the
    function named ``reader``."""
    lines = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name == reader:
            continue
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("load", "loads")
                and getattr(node.func.value, "id", "") == "json"):
            lines.append(node.lineno)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(lines)


def test_every_json_file_is_read_by_the_one_rule():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in json_reads(ast.parse(path.read_text(encoding="utf-8")),
                               JSON_READERS.get(path.name))
    ]
    assert not found, "read a JSON file with errors.read_json at: " + ", ".join(found)
