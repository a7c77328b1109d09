import subprocess
import sys

import pytest


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
