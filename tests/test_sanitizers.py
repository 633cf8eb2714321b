"""The kernel properties against a sanitizer build of the library.

The bitwise oracles cannot see a read that does not change a result, such
as one entry past a row that is multiplied by zero.  This test runs the
properties of ``test_kernels.py`` in a child process whose library is built
with AddressSanitizer and UndefinedBehaviorSanitizer.  The runtimes are
preloaded, so numpy's buffers get redzones too, and every report goes to a
log file: pytest's output capture swallows a sanitizer's report, so the
test fails on any log file as well as on the child's exit status.

The child takes about half a minute, so ``conftest.py`` starts it as soon
as this test is selected and it runs beside the rest of the suite.
"""

import os
import shutil
import subprocess
import sys
import tempfile

import pytest

import stokesmg
from stokesmg import kernels

FLAGS = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
         "-ffp-contract=off", "-fPIC", "-shared", "-pthread")
TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(stokesmg.__file__)))
#: the build-and-cache tests of test_kernels.py, left out: they start
#: compilers and CLI processes of their own
BUILD_TESTS = "not (compil or build or library)"
SCRIPT = "\n".join([
    "import sys, pytest",
    "from stokesmg import kernels",
    f"kernels.FLAGS = {FLAGS!r}",
    "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', 'test_kernels.py',",
    f"                     '-k', {BUILD_TESTS!r}]))",
])


def runtime(name: str) -> str | None:
    """Path of the C compiler's copy of a sanitizer runtime, if it has one."""
    compiler = shutil.which(kernels.COMPILER)
    if compiler is None:
        return None
    done = subprocess.run([compiler, f"-print-file-name={name}"], capture_output=True,
                          text=True, check=False)
    path = done.stdout.strip()
    return path if os.path.isabs(path) and os.path.exists(path) else None


class SanitizedRun:
    """The child process running ``script`` with the sanitizer runtimes
    preloaded (the first is required, the others are added when present)
    and ``options(logs)`` in its environment, which sends every report into
    the directory ``logs``.  Its directory holds the library cache, the
    sanitizer logs and the child's output."""

    def __init__(self, script: str, runtimes: tuple[str, ...], options):
        self.script, self.runtimes, self.options = script, runtimes, options
        self.proc = None
        self.root = None

    def start(self) -> None:
        paths = [runtime(name) for name in self.runtimes]
        if self.proc is not None or paths[0] is None:
            return
        self.root = tempfile.mkdtemp(prefix="stokesmg-sanitizers-")
        logs = os.path.join(self.root, "logs")
        os.mkdir(logs)
        env = dict(os.environ, PYTHONPATH=SRC,
                   XDG_CACHE_HOME=os.path.join(self.root, "cache"),
                   LD_PRELOAD=" ".join(filter(None, paths)), **self.options(logs))
        with open(os.path.join(self.root, "output"), "w") as output:
            self.proc = subprocess.Popen([sys.executable, "-c", self.script], cwd=TESTS,
                                         env=env, stdout=output,
                                         stderr=subprocess.STDOUT)

    def finish(self) -> tuple[int, str, dict[str, str]]:
        """Exit status, output and sanitizer reports by log name."""
        code = self.proc.wait(timeout=600)
        with open(os.path.join(self.root, "output")) as handle:
            output = handle.read()
        logs = os.path.join(self.root, "logs")
        reports = {}
        for name in os.listdir(logs):
            with open(os.path.join(logs, name)) as handle:
                reports[name] = handle.read()
        return code, output, reports

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
        self.proc = self.root = None


CHILD = SanitizedRun(SCRIPT, ("libasan.so", "libubsan.so"), lambda logs: {
    "ASAN_OPTIONS": f"detect_leaks=0:log_path={logs}/asan",
    "UBSAN_OPTIONS": f"print_stacktrace=1:log_path={logs}/ubsan"})


def test_kernel_properties_pass_under_sanitizers():
    if runtime("libasan.so") is None:
        pytest.skip(f"'{kernels.COMPILER}' has no libasan.so")
    CHILD.start()  # a no-op when conftest.py started it
    try:
        code, output, reports = CHILD.finish()
    finally:
        CHILD.stop()
    assert reports == {}
    assert code == 0, output[-8000:]
    assert " passed" in output and " deselected" in output
