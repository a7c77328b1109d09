import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

# One BLAS thread, as the benchmark runs: on a two-core machine a threaded
# OpenBLAS spends far longer synchronizing than computing on these small
# matrices.  Neither pytest nor hypothesis imports numpy, so this is set
# before numpy loads; the CLI subprocesses inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# Run from a plain checkout: the package is importable here and in the CLI
# subprocesses, which inherit PYTHONPATH.
SRC = str(Path(__file__).resolve().parents[1] / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

# Reproducible property tests: fixed example draws, no timing deadline and
# no example database; each test sets only its own max_examples.
settings.register_profile("artifact", deadline=None, derandomize=True, database=None)
settings.load_profile("artifact")


def _run_cli(*args, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "artifact.cli", *map(str, args)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


@pytest.fixture(scope="session")
def cli():
    return _run_cli
