"""Child process of the benchmark: import artifact, then run CLI calls in process.

    python3 bench/child.py '<json spec>'

The spec holds ``argv`` (the CLI arguments), ``calls`` (how many times to
call ``artifact.cli.main`` in this process), ``trace`` (wrap the calls in a
``tracer.Tracer``), ``src`` (the directory artifact must be imported from),
``result`` (where to write the JSON report) and ``spans`` (where a traced
run writes its spans).  CLI output goes to this process's stdout, which the
parent points at a regular file; each call's byte range is reported.  A
``speed.probe`` runs after the import and after each call, so every timing
is bracketed by two probes.

Only ``sys`` and ``time`` are imported before ``artifact``, so the time
from launch to ``IMPORTED`` is the set-up a user pays.
"""

import sys
import time

import artifact

IMPORTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import traceback  # noqa: E402

from artifact import cli  # noqa: E402

import speed  # noqa: E402
import tracer  # noqa: E402


def _position() -> int:
    sys.stdout.flush()
    return sys.stdout.buffer.tell()


def _call(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a non-zero exit, as it would be for the CLI
        traceback.print_exc()
        return 1


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(artifact.__file__).startswith(src + os.sep):
        print(f"artifact imported from {artifact.__file__}, not {src}", file=sys.stderr)
        return 2
    report = {"imported": IMPORTED, "probe": speed.probe(), "calls": []}
    for _ in range(spec["calls"]):
        start = _position()
        if spec["trace"]:
            with tracer.Tracer() as trace:
                t0 = time.perf_counter()
                rc = _call(spec["argv"])
                seconds = time.perf_counter() - t0
            report["restored"] = trace.restored()
            report["layers"] = trace.summary()
            trace.dump(spec["spans"])
        else:
            t0 = time.perf_counter()
            rc = _call(spec["argv"])
            seconds = time.perf_counter() - t0
        end = _position()
        report["calls"].append(
            {"rc": rc, "s": seconds, "start": start, "end": end, "probe": speed.probe()}
        )
    with open(spec["result"], "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
