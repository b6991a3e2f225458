"""One repetition of one workload, in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED setup
    python3 bench/worker.py WORKLOAD SEED pass [--wrong-pin]
    python3 bench/worker.py WORKLOAD SEED trace SPANS_FILE

``setup`` stops at the first timed call and reports only the set-up time.
``pass`` also runs one timed pass and checks its answers; ``--wrong-pin``
adds one to the first pinned value, so that the checks must report a
failure.  ``trace`` runs the pass with the tracer installed and writes the
spans to SPANS_FILE.  The last line of standard output is one JSON object.

Set-up and untraced passes are reported with the host's speed while they
ran, in reference works per second: a fixed piece of pure-Python work is
timed just before and just after set-up, and every PROBE_INTERVAL_S
seconds during a pass.  Traced passes run without the probe.
"""

import json
import os
import resource
import signal
import sys
import time
import traceback

T0 = time.perf_counter()

# One CPU for every interpreter of a run, so that no repetition migrates
# between vCPUs or lands on a different one than the last.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE_INTERVAL_S = 0.2
BURST = 10   # reference samples taken just before set-up, and just after it


def peak_rss_mb():
    """Peak resident memory of this interpreter.

    VmHWM belongs to the address space that exec created.  ru_maxrss would
    also count the parent's resident memory copied by fork before exec.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def reference_work():
    """A fixed piece of pure-Python work, a few milliseconds: bit
    operations, list and dict lookups and a builtin call, the kinds of work
    the library does."""
    perm = list(range(64))
    seen = {}
    acc = 0
    for i in range(10000):
        j = (i * 37 + acc) & 63
        perm[j], perm[i & 63] = perm[i & 63], perm[j]
        acc = (acc ^ (perm[j] << 3)) & 0xFFFF
        seen[acc & 1023] = seen.get(acc & 1023, 0) + 1
        acc += len(seen) & 7
    return acc


def timed_reference():
    t = time.perf_counter()
    reference_work()
    return time.perf_counter() - t


def speed(samples):
    """Reference works per second: the mean of 1 / sample time, so that a
    pass's time times its speed is the work it did, wherever the host's
    speed changed during it."""
    return sum(1 / s for s in samples) / len(samples)


class SpeedProbe:
    """Times the reference work every PROBE_INTERVAL_S seconds of a pass,
    from a timer signal, and keeps the sample times."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(timed_reference())

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(argv):
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    wrong_pin = "--wrong-pin" in argv[3:]
    # the host's speed just before and just after set-up; the samples
    # before it are not counted in it
    t_burst = time.perf_counter()
    before = [timed_reference() for _ in range(BURST)]
    burst_s = time.perf_counter() - t_burst
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    wl = workloads.WORKLOADS[name]
    tracer = None
    if mode == "trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
        tracer.start()
    t_inputs = time.perf_counter()
    inputs = wl.prepare(seed)
    t_pass = time.perf_counter()
    out = {"setup_s": t_pass - T0 - burst_s,
           "inputs_s": t_pass - t_inputs}
    if tracer is None:
        after = [timed_reference() for _ in range(BURST)]
        out["setup_speed"] = speed(before + after)
    if mode == "setup":
        return out
    try:
        if tracer is None:
            # the probe's own time is taken out of the pass
            with SpeedProbe() as probe:
                t_pass = time.perf_counter()
                output = wl.run(inputs)
                t_end = time.perf_counter()
            out["pass_s"] = t_end - t_pass - sum(probe.samples)
            out["pass_speed"] = speed(probe.samples or [timed_reference()])
        else:
            # no probe in a traced pass: its samples would be charged to
            # whichever span they interrupt
            output = wl.run(inputs)
            out["pass_s"] = time.perf_counter() - t_pass
            tracer.stop()
            out["trace"] = tracer.summary()
            tracer.write_spans(argv[3])
        out["peak_rss_mb"] = peak_rss_mb()
        pins = wl.pins(seed)
        if wrong_pin and pins:
            pins[next(iter(pins))] += 1
        answers = wl.check(inputs, output, pins)
        out["settled"] = wl.settled(inputs, output)
        out["best_index"] = wl.best_index(output)
    except Exception:  # a pass or check that raises is one failed answer
        answers = [(traceback.format_exc(limit=4), False)]
    failures = [label for label, ok in answers if not ok]
    out.update(attempted=len(answers), failed=len(failures),
               failures=failures[:10])
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
