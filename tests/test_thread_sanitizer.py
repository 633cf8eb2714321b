"""The team-size property against a ThreadSanitizer build of the library.

Bitwise equality across team sizes cannot see a data race whose outcome
did not change a result on that run.  This test runs the team-size
property of ``test_kernels.py`` at team sizes 1 and 2 in a child process
whose library is built with ThreadSanitizer, started and checked as
``test_sanitizers.py`` does: the runtime is preloaded, every report goes to
a log file, and the test fails on any log file as well as on the child's
exit status.

The child takes about 20 seconds, so ``conftest.py`` starts it as soon as
this test is selected and it runs beside the rest of the suite.
"""

import pytest

from test_sanitizers import SanitizedRun, runtime

FLAGS = ("-O1", "-g", "-fsanitize=thread", "-ffp-contract=off", "-fPIC", "-shared",
         "-pthread")
SCRIPT = "\n".join([
    "import sys, pytest",
    "from stokesmg import kernels",
    f"kernels.FLAGS = {FLAGS!r}",
    "import test_kernels",
    "test_kernels.TEAM_SIZES = (1, 2)",
    "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', 'test_kernels.py',",
    "                     '-k', 'every_team_size']))",
])

CHILD = SanitizedRun(SCRIPT, ("libtsan.so",),
                     lambda logs: {"TSAN_OPTIONS": f"log_path={logs}/tsan"})


def test_team_property_passes_under_thread_sanitizer():
    if runtime("libtsan.so") is None:
        pytest.skip("the C compiler has no libtsan.so")
    CHILD.start()  # a no-op when conftest.py started it
    try:
        code, output, reports = CHILD.finish()
    finally:
        CHILD.stop()
    assert reports == {}
    assert code == 0, output[-8000:]
    assert "1 passed" in output and " deselected" in output
