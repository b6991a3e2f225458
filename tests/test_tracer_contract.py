"""The benchmark tracer (``bench/tracer.py``) wraps library functions and
methods by name.  A renamed or removed name breaks ``install()`` or empties a
metric, so this builds one traced digraph, runs one exact and one bounded
stabilizer search and one canonical form on it, and checks that the build,
stabilizer and search metrics are populated; it traces one canonical form on
its own; it checks the leaf counts of one search on a directed digraph; it
checks that a bounded call answered by its closed form runs no search; and
it runs one exhaustive survey and checks that the survey's per-layer counts
are populated.  The stabilizer digraphs are connected and aperiodic, so that
each is its own quotient and their searches run on the digraph itself."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
import bipcayley
from bipcayley import autos, cayley, groups, stabilizer, survey
import tracer

t = tracer.Tracer()
t.install()
t.start()
g = groups.build_group([4, 2])
{work}
t.stop()
summary = t.summary()
print(json.dumps({{"metrics": tracer.per_layer_metrics(summary),
                   "counts": summary["counts"]}}))
"""


def _traced(work: str) -> dict:
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           str(ROOT / "bench")]),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", SCRIPT.format(work=work)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_tracer_installs_and_fills_the_search_metrics():
    out = _traced("""
digraph = cayley.build_cayley(
    g, cayley.connection_set(g, [(0, 1), (1, 0), (3, 0)]))
assert stabilizer.vertex_stabilizer(digraph).cayley_index == 6
stabilizer.stabilizer_order_bounded(digraph, abort_order=2)
cayley.canonical_form(digraph)
""")
    metrics = out["metrics"]
    assert metrics["cayley.build.calls"] == 1
    assert metrics["stabilizer.exact.calls"] == 1
    assert metrics["stabilizer.bounded.calls"] == 1
    assert metrics["search.runs"] == 2
    assert metrics["search.refine.calls"] > 0
    assert metrics["search.leaf_checks"] > 0
    assert out["counts"].get("_search.CanonicalSearch.run") == 1


def test_canonical_form_alone_runs_no_stabilizer_search():
    """CanonicalSearch walks the stabilizer search's tree with its own run
    and leaf, so a canonical form on its own counts leaf checks but no
    stabilizer search and no registered automorphism.  S = {(1, 0), (3, 0)}
    is inverse-closed, and its digraph has automorphisms beyond A."""
    out = _traced("""
digraph = cayley.build_cayley(g, cayley.connection_set(g, [(1, 0), (3, 0)]))
cayley.canonical_form(digraph)
""")
    metrics = out["metrics"]
    assert out["counts"].get("_search.CanonicalSearch.run") == 1
    assert metrics["search.runs"] == 0
    assert metrics["search.auts_registered"] == 0
    assert metrics["search.leaf_checks"] > 0


def test_tracer_counts_leaf_checks_on_a_directed_digraph():
    """S = {(0, 1), (1, 0), (2, 1)} is not inverse-closed, so the in-rows
    differ from the out-rows, and its stabilizer has order 2: the leaf check
    runs with both row lists and finds the automorphism."""
    out = _traced("""
digraph = cayley.build_cayley(
    g, cayley.connection_set(g, [(0, 1), (1, 0), (2, 1)]))
assert digraph.out_neighbors != digraph.in_neighbors
assert stabilizer.vertex_stabilizer(digraph).cayley_index == 2
""")
    metrics = out["metrics"]
    assert metrics["stabilizer.exact.calls"] == 1
    assert metrics["search.leaf_checks"] > 0
    assert metrics["search.auts_registered"] > 0


def test_bounded_call_at_the_closed_form_runs_no_search():
    """Cay(C4xC2, {(1, 0), (3, 0)}) is two copies of a 4-cycle, whose period
    {0, (2, 0)} leaves an edge as its quotient: the least order the closed
    form gives is 2 * (4 * 2) = 16, and a bound of 16 needs no search.  A
    connected, aperiodic digraph is its own quotient, whose least order is
    1, so a bound of 1 needs no search either."""
    out = _traced("""
digraph = cayley.build_cayley(g, cayley.connection_set(g, [(1, 0), (3, 0)]))
assert stabilizer.stabilizer_order_bounded(digraph, abort_order=16) \\
    == (16, False)
digraph = cayley.build_cayley(
    g, cayley.connection_set(g, [(0, 1), (1, 0), (3, 0)]))
assert stabilizer.stabilizer_order_bounded(digraph, abort_order=1) \\
    == (1, False)
""")
    metrics = out["metrics"]
    assert metrics["stabilizer.bounded.calls"] == 2
    assert metrics["search.runs"] == 0


def test_orbit_hook_fills_the_survey_counts():
    """(C4xC2, index:0) directed: 2^4 admissible sets, fewer orbits."""
    out = _traced("""
survey.exhaustive_bipartite_index(g, autos.index2_subgroup(g, 0), "directed")
""")
    counts = out["counts"]
    assert counts.get("survey.sets_examined") == 16
    assert 0 < counts.get("survey.reps_searched", 0) < 16
    assert 0 < out["metrics"]["survey.reps_ratio"] < 1
