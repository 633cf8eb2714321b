"""Every top-level function and class of the package, and every method
whose name no other definition of the package shares, has a caller outside
the tests.

A name that only the tests reach is code the package carries for no run:
no CLI command, preset, demo or benchmark can reach it.  This test parses
``src/stokesmg/*.py`` and fails on any such definition that no module of
the package, no demo and no benchmark file names.  Uses in its own module
count, except its own definition; a name counts as named where it is read
or given as a string (``perfbench/spans.py`` patches functions by name),
and where a demo or benchmark file imports it.  An import inside the
package is no use: a re-export that nothing calls reaches no run.
Methods are checked by name alone, so a method is checked only when its
name is unique among the package's definitions, and special methods
(``__name__``), which Python calls itself, are not.
"""

import ast
import collections
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

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def parse(path):
    with open(path) as handle:
        return ast.parse(handle.read(), path)


def names_in(tree, imports=True):
    """Every identifier ``tree`` reads or spells as a string, and, with
    ``imports``, every name it imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias) and imports:
            found.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def checked(modules):
    """(module, definition) of every top-level definition, and of every
    method whose name is unique among the package's definitions."""
    trees = {module: parse(module) for module in modules}
    defined = collections.Counter(node.name for tree in trees.values()
                                  for node in ast.walk(tree)
                                  if isinstance(node, DEFINITIONS))
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                yield module, node
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if (isinstance(method, DEFINITIONS) and defined[method.name] == 1
                            and not method.name.startswith("__")):
                        yield module, method


def test_every_top_level_definition_has_a_caller_outside_the_tests():
    modules = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    package = [path for path in modules if os.path.basename(path) != "__init__.py"]
    others = glob.glob(os.path.join(REPO, "demos", "**", "*.py"), recursive=True)
    others += glob.glob(os.path.join(REPO, "perfbench", "**", "*.py"), recursive=True)
    named = set().union(*(names_in(parse(path), imports=False) for path in package),
                        *(names_in(parse(path)) for path in others))
    unused = [f"{os.path.basename(module)}: {node.name}"
              for module, node in checked(modules)
              if node.name not in EXEMPT and node.name not in named]
    assert unused == [], f"reached only by tests: {unused}"
