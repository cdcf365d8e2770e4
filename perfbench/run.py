"""rinfty benchmark: closed-loop CLI requests, one client, one in flight.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each request runs ``rinfty.cli.main`` in a fresh interpreter
(``perfbench/worker.py``), as every CLI invocation does, so the
module-level caches start cold.  The next request is sent when the
previous one has answered, for ``--seconds`` (see ``run``).
Every answer is checked against a reference that does not come from
rinfty (``perfbench/workloads.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` sends each
request twice, untraced and then traced, requires byte-identical stdout,
and reports per-layer metrics from the spans (``perfbench/tracer.py``)
plus the tracing overhead.  The last stdout line is the result object;
the line before it records the environment.  Spans and the full result
are written under ``.perfbench_out/``.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

# Import-only workers started before the timed loop, so that setup_s is a
# median over at least this many set-ups even when few requests fit.
SETUP_PROBES = 6
# Requests sent even when the run's time is up, so every median has a few.
MIN_REQUESTS = 3
# No request starts, and none may run, past this many seconds of the run.
HARD_LIMIT_S = 165


class RequestFailed(Exception):
    pass


def spawn(request, deadline):
    """Run one worker; its report, with the seconds it took to set up."""
    launched = time.monotonic()
    timeout = max(1.0, deadline - launched)
    try:
        proc = subprocess.run([sys.executable, WORKER, json.dumps(request)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RequestFailed(f"no answer within {timeout:.0f} s")
    if proc.returncode != 0:
        raise RequestFailed(f"worker exit {proc.returncode}: "
                            f"{proc.stderr.strip()[-300:]}")
    try:
        report = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        raise RequestFailed(f"unreadable worker output: {proc.stdout[-300:]!r}")
    report["setup_s"] = report["imported"] - launched
    return report


def git_commit():
    """HEAD of the checkout, or None where it is not a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    """sha256 over the program's sources, to identify code without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "rinfty")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def run(workload, seed, seconds, trace, hard_deadline):
    """Send requests in a closed loop; returns the run's record."""
    setups, rss, latencies, walls, failures = [], [], [], [], []
    traced, pairs = [], []
    for _ in range(SETUP_PROBES):
        probe = spawn({"probe": True}, hard_deadline)
        setups.append(probe["setup_s"])
        rss.append(probe["maxrss_kb"])
    start = time.monotonic()
    busy = 0.0
    correct = attempted = 0
    index = 0
    while True:
        now = time.monotonic()
        estimate = statistics.median(walls) if walls else 0.0
        # Send the next request if it is due to end no more than half a
        # request after the window, so runs last ``seconds`` on average.
        if index >= MIN_REQUESTS and now + estimate / 2 > start + seconds:
            break
        if now + estimate > hard_deadline:
            break
        argv, context = workload.request(ROOT, seed, index)
        # Input generation is the harness's work: the clock starts here.
        t0 = time.monotonic()
        reports = []
        reason = None
        for flag in ((0, 1) if trace else (0,)):
            attempted += 1
            try:
                report = spawn({"argv": argv, "trace": flag, "id": index},
                               hard_deadline)
            except RequestFailed as exc:
                reason = str(exc)
                break
            reports.append(report)
            setups.append(report["setup_s"])
            rss.append(report["maxrss_kb"])
            reason = workloads.verify(workload, report, context)
            if reason is not None:
                break
            correct += 1
        if trace and reason is None:
            plain, with_spans = reports
            if plain["stdout"] != with_spans["stdout"]:
                correct -= 1
                reason = "traced stdout differs from untraced stdout"
            else:
                traced.append(with_spans)
                pairs.append((plain["seconds"], with_spans["seconds"]))
        if reason is not None:
            failures.append({"index": index, "argv": argv, "reason": reason})
        else:
            latencies.append(reports[0]["seconds"])
        walls.append(time.monotonic() - t0)
        busy += walls[-1]
        index += 1
    return {"setups": setups, "rss_kb": rss, "latencies": latencies,
            "busy": busy, "correct": correct, "attempted": attempted,
            "failures": failures, "traced": traced, "pairs": pairs,
            "requests": index}


def end_to_end(rec):
    def metric(value, unit):
        return {"value": value, "unit": unit}
    return {
        "latency_s.p50": metric(statistics.median(rec["latencies"]), "s"),
        "verdicts_per_s": metric(rec["correct"] / rec["busy"], "1/s"),
        "setup_s": metric(statistics.median(rec["setups"]), "s"),
        "peak_rss_mb": metric(max(rec["rss_kb"]) / 1024, "MB"),
        "ok_frac": metric(rec["correct"] / rec["attempted"], "frac"),
    }


def write_spans(path, traced):
    with open(path, "w") as fh:
        for report in traced:
            for s in report["spans"]:
                fh.write(json.dumps({
                    "name": s[tracer.NAME], "start": s[tracer.START],
                    "end": s[tracer.END], "stats_end": s[tracer.STATS_END],
                    "parent": s[tracer.PARENT], "request": s[tracer.REQUEST],
                    "attrs": s[tracer.ATTRS]}) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "rinfty", "cli.py")):
        print(f"perfbench: no rinfty sources at {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "loadavg_before": os.getloadavg(), "git_commit": git_commit(),
           "src_sha256": source_digest(),
           "workload": workload.name, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace}
    try:
        rec = run(workload, args.seed, args.seconds, bool(args.trace),
                  began + HARD_LIMIT_S)
    except RequestFailed as exc:
        print(f"perfbench: import probe failed: {exc}", file=sys.stderr)
        return 2
    env["loadavg_after"] = os.getloadavg()
    answered = len(rec["latencies"])
    if args.trace:
        metrics = tracer.summarize(rec["traced"], rec["pairs"]) \
            if rec["traced"] else {}
        counts = {"traced_requests": len(rec["traced"])}
    else:
        metrics = end_to_end(rec) if answered else {}
        counts = {"latency_s.p50": answered,
                  "verdicts_per_s": rec["requests"],
                  "setup_s": len(rec["setups"]),
                  "peak_rss_mb": len(rec["rss_kb"]),
                  "ok_frac": rec["attempted"]}
    env["requests_per_metric"] = counts
    failed = rec["attempted"] - rec["correct"]
    env["failed_frac"] = failed / rec["attempted"]
    env["failures"] = rec["failures"]
    out_dir = os.path.join(ROOT, workloads.OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        write_spans(os.path.join(out_dir, f"spans-{stem}.jsonl"), rec["traced"])
    result = {"correct": failed == 0 and bool(metrics),
              "attempted": rec["attempted"], "failed": failed,
              "metrics": metrics}
    with open(os.path.join(out_dir, f"result-{stem}.json"), "w") as fh:
        json.dump({"env": env, "result": result,
                   "latencies": rec["latencies"], "setups": rec["setups"]},
                  fh, indent=1)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
