"""Every public name in the library has a caller outside the tests.

A public function, class or method of src/bibdcodes (a name without a
leading underscore) must appear as a word somewhere in src/, bench/ or
scripts/ besides its own def or class line. Package __init__.py files
only re-export names, so they do not count as callers. Code that only
the tests call belongs in tests/oracles.py.
"""

import ast
import os
import re
from collections import Counter

WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "bibdcodes")
CALLER_DIRS = [os.path.join(ROOT, d) for d in ("src", "bench", "scripts")]


def _python_files(top):
    for dirpath, _, files in os.walk(top):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def _definitions(tree):
    """The module's functions and classes and their classes' methods."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    for node in tree.body:
        if isinstance(node, defs):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (n for n in node.body if isinstance(n, defs))


def unused_public_names():
    # occurrences of each public name on its own def or class lines
    own = Counter()
    for path in _python_files(PACKAGE):
        text = _read(path)
        lines = text.splitlines()
        for node in _definitions(ast.parse(text)):
            if not node.name.startswith("_"):
                own[node.name] += WORD.findall(lines[node.lineno - 1]).count(node.name)
    seen = Counter()
    for top in CALLER_DIRS:
        for path in _python_files(top):
            if os.path.basename(path) != "__init__.py":
                seen.update(WORD.findall(_read(path)))
    return sorted(name for name, n in own.items() if seen[name] <= n)


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = unused_public_names()
    assert not unused, f"no caller in src/, bench/ or scripts/: {', '.join(unused)}"
