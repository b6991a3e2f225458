"""Benchmark of bipcayley: time to an exact answer, and per-layer traces.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from anywhere; the library is imported from ``src/`` next to this
directory.  Every repetition runs in a fresh interpreter (bench/worker.py),
serially, so module-level caches start cold as they do for a user.

``--trace 0`` runs timed passes, at least one, starting another while its
expected midpoint falls within ``--seconds`` of the start; ten interpreters
before the passes and ten after them stop at the first timed call and give
the set-up time.  It prints the end-to-end metrics.  Their times are
scaled by the host's speed while they were taken (see worker.py), to the
speed at which worker.reference_work takes REFERENCE_S; the times as
measured are printed too.  ``--trace 1`` runs
one untraced pass and two traced passes, checks that the two traced passes
counted exactly the same work, and prints the per-layer metrics of the
first.  Every pass checks its answers; ``failed`` counts wrong answers,
exceptions and crashed interpreters.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.

``--self-test`` shows that a deliberately wrong pinned value is reported
as a failure, on every workload but table2, whose check is table1's.
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import tracer as tracing

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(BENCH, "worker.py")
TRACE_DIR = os.path.join(ROOT, ".bench_traces")

WORKLOADS = ("table1", "table2", "c26-prefix", "sample", "classify-sweep")
SETUP_SAMPLES = 20
TIME_LIMIT_S = 170.0      # one invocation never runs longer than this
# Times are reported at the host speed at which worker.reference_work takes
# this long: its usual time on the host the first numbers were taken on,
# where it varied from 3 to 7 ms as that host's neighbours came and went.
REFERENCE_S = 0.005

END_TO_END_UNITS = {"wall_s": "s", "sets_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class ChildFailed(Exception):
    pass


def child(workload, seed, mode, deadline, *extra):
    """Run bench/worker.py in a fresh interpreter and return its report."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed(f"{mode}: no time left")
    cmd = [sys.executable, WORKER, workload, str(seed), mode, *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode}: killed after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{mode}: exit {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "bipcayley")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


class Tally:
    """Answers attempted and failed over every interpreter of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, report):
        self.attempted += report.get("attempted", 0)
        self.failed += report.get("failed", 0)
        self.failures += report.get("failures", [])

    def crash(self, exc):
        self.attempted += 1
        self.failed += 1
        self.failures.append(str(exc))


def median_line(name, values, unit, what):
    return (f"  {name:<13} {statistics.median(values):<14.6g} {unit:<6} "
            f"median of {len(values)} {what} "
            f"(min {min(values):.6g}, max {max(values):.6g})")


def corrected(raw_s, speed):
    """A time taken at ``speed`` reference works per second, scaled to the
    speed at which one reference work takes REFERENCE_S."""
    return raw_s * speed * REFERENCE_S


def timed_run(workload, seed, seconds, tally):
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    setups, passes = [], []

    def take_setups(count):
        for _ in range(count):
            try:
                setups.append(child(workload, seed, "setup", deadline))
            except ChildFailed as exc:
                tally.crash(exc)

    # set-up samples before and after the passes, so that they see the
    # host's speed over the whole run
    take_setups(SETUP_SAMPLES // 2)
    while True:
        t = time.monotonic()
        try:
            report = child(workload, seed, "pass", deadline)
        except ChildFailed as exc:
            tally.crash(exc)
            break
        tally.add(report)
        if "settled" in report:
            passes.append(report)
        now = time.monotonic()
        # start another pass only if its expected midpoint is in the window
        took = now - t
        if now + took / 2 > start + seconds or now + took > deadline - 5:
            break
    take_setups(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    if not passes:
        return None, []
    walls = [corrected(p["pass_s"], p["pass_speed"]) for p in passes]
    metrics = {
        "wall_s": walls,
        "sets_per_s": [p["settled"] / w for p, w in zip(passes, walls)],
        "setup_s": [corrected(r["setup_s"], r["setup_speed"])
                    for r in setups + passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    raw = {"wall_s": [p["pass_s"] for p in passes],
           "setup_s": [r["setup_s"] for r in setups + passes],
           "reference_s": [1 / p["pass_speed"] for p in passes]}
    rate = tally.failed / tally.attempted if tally.attempted else 1.0
    best = passes[0]["best_index"]
    lines = [
        median_line("wall_s", metrics["wall_s"], "s", "passes"),
        median_line("sets_per_s", metrics["sets_per_s"], "1/s", "passes"),
        median_line("setup_s", metrics["setup_s"], "s", "interpreters"),
        median_line("peak_rss_mb", metrics["peak_rss_mb"], "MB", "passes"),
        f"  {'error_rate':<13} {rate:<14.6g} {'ratio':<6} "
        f"{tally.failed} failed of {tally.attempted} checked answers",
        f"  {'best_index':<13} {best if best is not None else 'n/a':<14} "
        f"{'int':<6} Cayley index after the fixed prefix (c26-prefix only)",
        f"  as measured, before scaling to the speed at which the "
        f"reference work takes {REFERENCE_S * 1e3:g} ms:",
        median_line("wall_s", raw["wall_s"], "s", "passes"),
        median_line("setup_s", raw["setup_s"], "s", "interpreters"),
        median_line("reference_s", raw["reference_s"], "s", "passes"),
    ]
    values = {name: statistics.median(v) for name, v in metrics.items()}
    return values, lines


def traced_run(workload, seed, tally):
    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(TRACE_DIR, exist_ok=True)
    try:
        plain = child(workload, seed, "pass", deadline)
        tally.add(plain)
        traced = []
        for k in (1, 2):
            spans = os.path.join(TRACE_DIR, f"{workload}-seed{seed}-{k}.json")
            report = child(workload, seed, "trace", deadline, spans)
            tally.add(report)
            traced.append(report)
    except ChildFailed as exc:
        tally.crash(exc)
        return None, []
    if any("trace" not in r for r in traced) or "settled" not in plain:
        return None, []
    first, second = (r["trace"] for r in traced)
    tally.attempted += 1
    if first["counts"] != second["counts"]:
        tally.failed += 1
        differ = sorted(k for k in set(first["counts"]) | set(second["counts"])
                        if first["counts"].get(k) != second["counts"].get(k))
        tally.failures.append(f"traced counts differ between two runs: "
                              f"{differ[:10]}")
    metrics = tracing.per_layer_metrics(first)
    untraced_wall = plain["inputs_s"] + plain["pass_s"]
    metrics["trace.overhead"] = first["wall_s"] / untraced_wall - 1
    lines = [f"  {name:<30} {value:.6g}" for name, value in metrics.items()]
    lines.append(f"  spans recorded {first['spans'] - first['spans_dropped']}"
                 f", dropped {first['spans_dropped']}; written to "
                 f"{os.path.relpath(TRACE_DIR, ROOT)}/")
    lines.append(f"  counts repeat exactly across two traced passes: "
                 f"{first['counts'] == second['counts']}")
    return metrics, lines


def self_test():
    """A wrong pinned value must be reported as a failed answer."""
    deadline = time.monotonic() + TIME_LIMIT_S
    ok = True
    right = child("classify-sweep", 0, "pass", deadline)
    print(f"classify-sweep, pins as shipped: failed {right['failed']} "
          f"of {right['attempted']}")
    ok &= right["failed"] == 0
    for workload in ("table1", "c26-prefix", "sample", "classify-sweep"):
        report = child(workload, 0, "pass", deadline, "--wrong-pin")
        caught = report["failed"] >= 1
        print(f"{workload}, first pin off by one: failed {report['failed']} "
              f"of {report['attempted']} {report['failures'][:1]} -> "
              f"{'reported' if caught else 'NOT REPORTED'}")
        ok &= caught
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bipcayley", "__init__.py")):
        print(f"bench: no bipcayley sources under {SRC}", file=sys.stderr)
        return 2
    for tree in (SRC, BENCH):
        compileall.compile_dir(tree, quiet=1)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cores": os.cpu_count(), "commit": commit(),
            "source_sha256": source_digest()}
    print("meta " + json.dumps(meta))
    tally = Tally()
    if args.trace:
        metrics, lines = traced_run(args.workload, args.seed, tally)
    else:
        metrics, lines = timed_run(args.workload, args.seed, args.seconds,
                                   tally)
    print(f"{args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'}, serial, "
          f"one fresh interpreter per repetition)")
    for line in lines:
        print(line)
    for failure in tally.failures:
        print(f"  FAILED: {failure}")
    metrics = metrics or {}
    units = {name: END_TO_END_UNITS.get(name) or tracing.unit_of(name)
             for name in metrics}
    print(json.dumps({
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if metrics else max(tally.failed, 1),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
