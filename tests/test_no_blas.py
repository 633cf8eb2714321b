"""The solve path makes no BLAS call.

OpenBLAS threads its level-1 and level-2 routines on long vectors.  A BLAS
call on the run path would make results depend on the BLAS thread count and
make parallel sweep workers oversubscribe the cores, so the modules every
solve runs through compute inner products, norms, Arnoldi steps and
basis combinations with the compiled library's reductions
(``kernels.sum_products``, ``arnoldi`` and ``combine``), each summed in
one documented blocked order.  This test reads their source and fails
on any construct that reaches BLAS: the ``@`` operator, ``np.dot``,
``np.vdot``, ``np.inner``, ``np.matmul``, ``np.tensordot``, any
``np.linalg`` call or ``linalg`` import, and ``np.einsum`` with an
``optimize`` keyword (which dispatches to ``tensordot``).

Two modules stay outside the list.  ``_exact.py`` applies the dense null
correction of the exact subsolvers (a few columns) after a SuperLU solve,
and ``spectrum.py`` is dense eigenvalue analysis through LAPACK; neither is
on the multigrid solve path.
"""

import ast
import os

import pytest

import stokesmg

RUN_PATH = ("grid.py", "kernels.py", "krylov.py", "multigrid.py",
            "operators.py", "precond.py", "schur.py")
BLAS_FUNCTIONS = {"dot", "vdot", "inner", "matmul", "tensordot"}
NUMPY = {"np", "numpy"}


def dotted(node):
    """``a.b.c`` of a Name/Attribute chain as a list, else ``[]``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return []
    parts.append(node.id)
    return parts[::-1]


def blas_uses(source):
    """``(line, description)`` of every BLAS-reaching construct in
    ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", None)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.MatMult):
            found.append((line, "@"))
        elif isinstance(node, ast.Call):
            name = dotted(node.func)
            if len(name) < 2 or name[0] not in NUMPY:
                continue
            if name[1] == "linalg" or (len(name) == 2 and name[1] in BLAS_FUNCTIONS):
                found.append((line, ".".join(name)))
            elif name[1:] == ["einsum"] and any(
                    kw.arg == "optimize" for kw in node.keywords):
                found.append((line, "einsum(optimize=...)"))
        elif isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""):
            found.append((line, f"from {node.module} import"))
        elif isinstance(node, ast.Import) and any(
                "linalg" in alias.name for alias in node.names):
            found.append((line, "import linalg"))
    return found


@pytest.mark.parametrize("module", RUN_PATH)
def test_run_path_module_makes_no_blas_call(module):
    path = os.path.join(os.path.dirname(stokesmg.__file__), module)
    with open(path) as handle:
        assert blas_uses(handle.read()) == []


def test_guard_sees_each_blas_construct():
    source = "\n".join([
        "a @ b",
        "a @= b",
        "np.dot(a, b)",
        "numpy.vdot(a, b)",
        "np.inner(a, b)",
        "np.matmul(a, b)",
        "np.tensordot(a, b)",
        "np.linalg.norm(a)",
        "np.einsum('i,i->', a, b, optimize=True)",
        "from numpy.linalg import norm",
        "import scipy.linalg",
        "np.einsum('i,i->', a, b)",
        "grid.dot(a, b)",
    ])
    assert sorted(line for line, _ in blas_uses(source)) == list(range(1, 12))


def diff_calls(source):
    """Lines of every ``np.diff`` call in ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and dotted(node.func) in (["np", "diff"], ["numpy", "diff"])]


@pytest.mark.parametrize("module", RUN_PATH)
def test_run_path_module_calls_no_np_diff(module):
    """``np.diff`` stays off the run path.

    Every call goes through a Python wrapper and returns a fresh output
    array, and the stencils difference several arrays per operator row.
    The run path's idiom is slice subtraction into an output the kernel
    already owns: ``np.subtract(arr[1:], arr[:-1], out=...)``.
    """
    path = os.path.join(os.path.dirname(stokesmg.__file__), module)
    with open(path) as handle:
        assert diff_calls(handle.read()) == []


def test_guard_sees_np_diff():
    source = "\n".join([
        "np.diff(a, axis=0)",
        "numpy.diff(a)",
        "np.subtract(a[1:], a[:-1])",
        "a.diff()",
    ])
    assert diff_calls(source) == [1, 2]
