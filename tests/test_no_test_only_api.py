"""Every top-level function and class of the package has a caller outside
the tests.

A name that only the tests reach is code the package carries for no run:
no CLI command, preset, demo or benchmark can reach it.  This test parses
``src/stokesmg/*.py`` and fails on any top-level function or class that no
other module of the package (``__init__.py``'s re-exports aside), no demo
and no benchmark file names.  Uses in its own module count, except its own
definition; a name counts as named where it is read, imported, or given as
a string (``perfbench/spans.py`` patches functions by name).
"""

import ast
import glob
import os

import stokesmg

PACKAGE = os.path.dirname(os.path.abspath(stokesmg.__file__))
REPO = os.path.dirname(os.path.dirname(PACKAGE))

#: names kept although only tests call them, each with its reason
EXEMPT = {
    # the reference -D A^-1 G operator that test_acceptance.py and
    # test_schur.py compare the Schur inverses against
    "exact_schur_apply",
}


def parse(path):
    with open(path) as handle:
        return ast.parse(handle.read(), path)


def names_in(tree):
    """Every identifier ``tree`` reads, imports or spells as a string."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_every_top_level_definition_has_a_caller_outside_the_tests():
    modules = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    callers = [path for path in modules if os.path.basename(path) != "__init__.py"]
    callers += glob.glob(os.path.join(REPO, "demos", "**", "*.py"), recursive=True)
    callers += glob.glob(os.path.join(REPO, "perfbench", "**", "*.py"), recursive=True)
    named = set().union(*(names_in(parse(path)) for path in callers))
    unused = [
        f"{os.path.basename(module)}: {node.name}"
        for module in modules
        for node in parse(module).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in EXEMPT and node.name not in named
    ]
    assert unused == [], f"reached only by tests: {unused}"
