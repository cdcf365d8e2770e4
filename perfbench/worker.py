"""One benchmark request in a fresh interpreter, as every CLI call runs.

Usage: python3 perfbench/worker.py '<request JSON>'

The request holds ``argv`` for ``rinfty.cli.main`` (or ``"probe": true``
to measure import only) and ``trace`` (0 or 1).  The worker prints one
JSON line: the monotonic clock right after ``rinfty.cli`` was imported,
the exit code, captured stdout and stderr, seconds spent in
``cli.main``, peak RSS, and with tracing on the recorded spans.
Nothing of the harness is imported before ``rinfty.cli``, so the import
time measured here is the program's own.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import rinfty.cli  # noqa: E402

IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def main():
    request = json.loads(sys.argv[1])
    report = {"imported": IMPORTED}
    if not request.get("probe"):
        tracer = None
        span = contextlib.nullcontext()
        if request["trace"]:
            import tracer as tracing  # perfbench/, this script's directory
            tracer = tracing.Tracer(request["id"])
            tracer.install()
            span = tracer.span("cli")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with span:
                t0 = time.perf_counter()
                rc = rinfty.cli.main(request["argv"])
                t1 = time.perf_counter()
        report.update(rc=rc, stdout=out.getvalue(), stderr=err.getvalue(),
                      seconds=t1 - t0)
        if tracer is not None:
            report.update(tracer.export())
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
