"""Trace every process of a traced benchmark run.

The traced run puts this directory on ``PYTHONPATH`` of the processes it
starts, so Python imports this module at start-up in each of them (and in
the replicas they fork).  It installs the span hooks of
:mod:`perfbench.tracing` only when ``PERFBENCH_TRACE_DIR`` is set.
"""

import os
import sys
from pathlib import Path

if os.environ.get("PERFBENCH_TRACE_DIR"):
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from perfbench.tracing import install_from_environment

    install_from_environment()
