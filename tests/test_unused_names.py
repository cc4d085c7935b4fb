"""Every public name in the library has a caller outside the tests.

A public function, class or method of src/bibdcodes (a name without a
leading underscore) must be used somewhere in src/, bench/ or scripts/:
read as a Python name or attribute (f-strings included) in the syntax
tree of a module, not merely mentioned in a comment or docstring. An
attribute counts wherever it is read. A bare name counts only in a
module that defines it or imports it from bibdcodes, so that a name
imported from elsewhere (itertools.accumulate, say) is not taken for a
library one. Its own def or class statement is not a use. Package
__init__.py files only re-export names, so they do not count as
callers. Code that only the tests call belongs in tests/oracles.py.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "bibdcodes")
CALLER_DIRS = [os.path.join(ROOT, d) for d in ("src", "bench", "scripts")]


def _python_files(top):
    for dirpath, _, files in os.walk(top):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _tree(path):
    with open(path, encoding="utf-8") as f:
        return ast.parse(f.read())


def _definitions(tree):
    """The module's functions and classes and their classes' methods."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    for node in tree.body:
        if isinstance(node, defs):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (n for n in node.body if isinstance(n, defs))


def _library_import(node):
    """Whether node imports names from bibdcodes, relatively or not."""
    return isinstance(node, ast.ImportFrom) and (
        node.level > 0 or node.module.split(".")[0] == "bibdcodes")


def _uses(tree):
    """Every name read as an Attribute in the tree, and every name read
    as a Name that the module defines or imports from bibdcodes, under
    the name it was defined or imported as."""
    local = {n.name: n.name for n in _definitions(tree)}
    for node in ast.walk(tree):
        if _library_import(node):
            local.update((a.asname or a.name, a.name) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in local:
            yield local[node.id]
        elif isinstance(node, ast.Attribute):
            yield node.attr


def unused_public_names():
    public = set()
    for path in _python_files(PACKAGE):
        public.update(n.name for n in _definitions(_tree(path)) if not n.name.startswith("_"))
    used = set()
    for top in CALLER_DIRS:
        for path in _python_files(top):
            if os.path.basename(path) != "__init__.py":
                used.update(_uses(_tree(path)))
    return sorted(public - used)


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = unused_public_names()
    assert not unused, f"no caller in src/, bench/ or scripts/: {', '.join(unused)}"
