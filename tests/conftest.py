import subprocess
import sys

import pytest
from hypothesis import settings

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
