"""The benchmark's own tests, run against this checkout.

``perfbench/spans.py`` wraps library functions by module, name and
signature (``precond.mg_solve``, ``krylov.gmres_kernel``, the smoothers
and others), so a rename or signature change in ``src/`` breaks
``perfbench/run.py --trace 1`` without failing any library test.  This
test runs ``python -m pytest perfbench -q`` in a child process with
``PYTHONPATH=src``.  The child takes several seconds, so ``conftest.py``
starts it as soon as this test is selected and it runs beside the rest of
the suite.
"""

import os
import subprocess
import sys
import tempfile

import stokesmg

SRC = os.path.dirname(os.path.dirname(os.path.abspath(stokesmg.__file__)))
REPO = os.path.dirname(SRC)


class SuiteRun:
    """The child pytest process and the file holding its output."""

    def __init__(self):
        self.proc = None
        self.output = None

    def start(self) -> None:
        if self.proc is not None:
            return
        fd, self.output = tempfile.mkstemp(prefix="stokesmg-perfbench-", suffix=".log")
        env = dict(os.environ, PYTHONPATH=SRC)
        with os.fdopen(fd, "w") as output:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "pytest", "perfbench", "-q", "-p", "no:cacheprovider"],
                cwd=REPO, env=env, stdout=output, stderr=subprocess.STDOUT)

    def finish(self) -> tuple[int, str]:
        code = self.proc.wait(timeout=600)
        with open(self.output) as handle:
            return code, handle.read()

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if self.output is not None and os.path.exists(self.output):
            os.unlink(self.output)
        self.proc = self.output = None


CHILD = SuiteRun()


def test_benchmark_suite_passes():
    CHILD.start()  # a no-op when conftest.py started it
    try:
        code, output = CHILD.finish()
    finally:
        CHILD.stop()
    assert code == 0, output[-8000:]
    assert " passed" in output
