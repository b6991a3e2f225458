"""The benchmark tracer (``bench/tracer.py``) wraps library functions and
methods by name.  A renamed or removed name breaks ``install()`` or empties a
metric, so this builds one traced digraph, runs one exact and one bounded
stabilizer search and one canonical form on it, and checks that the build,
stabilizer and search metrics are populated."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
import bipcayley
from bipcayley import cayley, groups, stabilizer
import tracer

t = tracer.Tracer()
t.install()
t.start()
g = groups.build_group([4, 2])
digraph = cayley.build_cayley(g, cayley.connection_set(g, [(1, 0), (3, 0)]))
stabilizer.vertex_stabilizer(digraph)
stabilizer.stabilizer_order_bounded(digraph, abort_order=2)
cayley.canonical_form(digraph)
t.stop()
summary = t.summary()
print(json.dumps({"metrics": tracer.per_layer_metrics(summary),
                  "counts": summary["counts"]}))
"""


def test_tracer_installs_and_fills_the_search_metrics():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           str(ROOT / "bench")]),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    metrics = out["metrics"]
    assert metrics["cayley.build.calls"] == 1
    assert metrics["stabilizer.exact.calls"] == 1
    assert metrics["stabilizer.bounded.calls"] == 1
    assert metrics["search.runs"] == 2
    assert metrics["search.refine.calls"] > 0
    assert metrics["search.leaf_checks"] > 0
    assert out["counts"].get("_search.CanonicalSearch.run") == 1
