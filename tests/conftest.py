"""Shared pytest hooks.

Tests run at one BLAS thread: ``OPENBLAS_NUM_THREADS`` and
``OMP_NUM_THREADS`` are set to 1 where unset, here, before any test module
imports numpy, which reads them when it loads. A value set outside is
kept. ``NUMPY_BEFORE_PIN`` records whether numpy was loaded already.

The acceptance module records one summary line per criterion; echo them in
the terminal summary so every run shows the full scorecard without -s.
"""

import os
import sys

NUMPY_BEFORE_PIN = "numpy" in sys.modules
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")


def pytest_terminal_summary(terminalreporter):
    module = sys.modules.get("test_acceptance") or sys.modules.get(
        "tests.test_acceptance"
    )
    lines = getattr(module, "REPORT_LINES", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
