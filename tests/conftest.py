import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

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
