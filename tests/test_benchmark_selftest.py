"""The benchmark's own self-test, run as part of the suite.

``perfbench/selftest.py`` runs every workload at a small scale and
checks each output against the planted truth, the traced forecast
against the untraced one, and every pass's bytes against the first
pass's.  It writes only under the ignored ``.perfbench/`` directory.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
