"""Recompute the pinned hit counts of the ``sample`` workload.

The counts are deterministic under the seed, so they are pinned once, at the
commit that introduced the benchmark, and every later run must reproduce
them.  Run from the repository root:

    python3 bench/pin_sample_hits.py [first_seed] [last_seed]

which rewrites bench/sample_pins.json for benchmark seeds first..last
(default 0..99).
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402


def main(argv):
    first, last = (int(argv[0]), int(argv[1])) if argv else (0, 99)
    wl = workloads.WORKLOADS["sample"]
    hits = {}
    for seed in range(first, last + 1):
        inputs = wl.prepare(seed)
        directed, undirected = wl.run(inputs)
        hits[str(inputs[2])] = [directed.hits, undirected.hits]
        print(seed, hits[str(inputs[2])], flush=True)
    rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                       for k, v in hits.items())
    with open(workloads.SAMPLE_PINS, "w", encoding="utf-8") as fh:
        fh.write(f'{{"group": {json.dumps(workloads.SAMPLE_GROUP)}, '
                 f'"samples": {workloads.SAMPLE_SIZE}, "hits": {{\n'
                 f'{rows}\n}}}}\n')


if __name__ == "__main__":
    main(sys.argv[1:])
