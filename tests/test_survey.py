import collections
import json
import math
import random

import pytest

from bipcayley.autos import (
    automorphism_generators,
    index2_subgroups,
    inversion_automorphism,
    stabilizing_automorphisms,
)
from bipcayley.bounds import count_inverse_closed, unit_union
from bipcayley.errors import BudgetExceeded, FalsificationError, OddOrder
from bipcayley.groups import (
    bits_of,
    build_group,
    generated_subgroup,
    invariant_factors_of_orders,
    parse_group_spec,
)
from bipcayley.survey import (
    TABLE1_ROWS,
    TABLE2_ROWS,
    UnlabeledReport,
    _generic_first,
    _orbit_generators,
    _pair_orbits,
    _units,
    admissible_set_count,
    bipartite_index,
    c26_reduced_search,
    c26_subclaims,
    exhaustive_bipartite_index,
    global_index,
    iter_admissible_sets,
    monte_carlo_proportion,
    orbit_representatives,
    random_bipartite_index,
    subgroup_of_type,
    sweep,
    unlabeled_count,
    verify_table,
    wilson_interval,
)


def test_bipartite_index_c22():
    g = build_group([2, 2])
    b = index2_subgroups(g)[0]
    res = exhaustive_bipartite_index(g, b, "directed")
    assert res.min_index == 2
    assert res.sets_examined == 4
    assert res.method == "exhaustive"


def test_bipartite_index_c4xc2():
    g = build_group([4, 2])
    b = subgroup_of_type(g, "C2^2")
    res = exhaustive_bipartite_index(g, b, "directed")
    assert res.min_index == 2 and res.sets_examined == 16


def test_bipartite_index_undirected_c2xc4():
    g = build_group([2, 4])
    b = subgroup_of_type(g, "C4")
    res = exhaustive_bipartite_index(g, b, "undirected")
    assert res.min_index == 6
    assert res.sets_examined == count_inverse_closed(g, b) == 8


def test_orbit_reduction_consistency():
    g = build_group([2, 2, 2])
    b = subgroup_of_type(g, "C2^2")
    reduced = exhaustive_bipartite_index(g, b, "directed")
    everything = list(iter_admissible_sets(g, b, "directed"))
    assert reduced.min_index == sweep(g, everything)[0] == 6
    assert len(everything) == 16 >= reduced.reps_searched


def test_budget_exceeded():
    g = build_group([2, 2, 2, 2])
    b = index2_subgroups(g)[0]
    with pytest.raises(BudgetExceeded):
        exhaustive_bipartite_index(g, b, "directed", budget=100)


def test_conjugate_subgroups_same_index():
    g = build_group([4, 2])
    c4_subs = [s for s in index2_subgroups(g)
               if s.invariant_factors() == (4,)]
    assert len(c4_subs) == 2
    values = {exhaustive_bipartite_index(g, s, "directed").min_index
              for s in c4_subs}
    assert len(values) == 1


def test_global_index():
    g = build_group([2, 2])
    assert global_index(g, "directed")["global_index"] == 2
    g6 = build_group([6])
    assert global_index(g6, "directed")["global_index"] == 1
    g42 = build_group([4, 2])
    res = global_index(g42, "undirected")
    assert res["global_index"] == 6     # the C4-type subgroups achieve it
    with pytest.raises(OddOrder):
        global_index(build_group([3, 3]), "directed")


def test_random_method_flagged():
    g = build_group([6])
    b = index2_subgroups(g)[0]
    res = random_bipartite_index(g, b, "directed", samples=64, seed=5)
    assert res.method == "random"
    assert res.details["upper_bound_only"]
    again = random_bipartite_index(g, b, "directed", samples=64, seed=5)
    assert res.min_index == again.min_index == 1
    assert res.argmin_set == again.argmin_set


def test_dispatcher():
    g = build_group([6])
    b = index2_subgroups(g)[0]
    assert bipartite_index(g, b, "directed").min_index == 1
    assert bipartite_index(g, b, "directed", method="random",
                           samples=32, seed=1).min_index == 1


def test_undirected_sampler_valid():
    g = build_group([4, 2])
    b = subgroup_of_type(g, "C4")
    from bipcayley.survey import _sample_mask, _units
    rng = random.Random(0)
    units = _units(g, b, "undirected")
    for _ in range(200):
        mask = _sample_mask(rng, units)
        assert g.negate_set(mask) == mask
        assert mask & b.bits == 0


def test_directed_sampler_uniform_support():
    g = build_group([2, 2])
    b = index2_subgroups(g)[0]
    from bipcayley.survey import _sample_mask, _units
    rng = random.Random(7)
    units = _units(g, b, "directed")
    counts = collections.Counter(
        _sample_mask(rng, units) for _ in range(2000))
    assert len(counts) == 4                    # full support over 2^2 subsets
    assert all(count > 380 for count in counts.values())  # ~500 each


def test_monte_carlo_deterministic():
    g = build_group([6])
    b = index2_subgroups(g)[0]
    a = monte_carlo_proportion(g, b, "directed", samples=100, seed=9)
    c = monte_carlo_proportion(g, b, "directed", samples=100, seed=9)
    assert (a.hits, a.estimate) == (c.hits, c.estimate)
    assert 0 <= a.wilson_low <= a.estimate <= a.wilson_high <= 1


def test_monte_carlo_matches_exhaustive_support():
    g = build_group([6])
    b = index2_subgroups(g)[0]
    # exhaustive truth: count DRR sets among all 8
    from bipcayley.cayley import build_cayley, connection_set
    from bipcayley.stabilizer import vertex_stabilizer
    truth = sum(
        vertex_stabilizer(build_cayley(g, connection_set(g, m))).cayley_index == 1
        for m in iter_admissible_sets(g, b, "directed"))
    est = monte_carlo_proportion(g, b, "directed", samples=400, seed=3)
    assert abs(float(est.estimate) - truth / 8) < 0.15


def test_wilson_interval_against_float():
    for hits, n in ((1900, 2000), (50, 100), (0, 10), (10, 10)):
        low, high = wilson_interval(hits, n)
        z = 1.96
        p = hits / n
        denom = 1 + z * z / n
        center = p + z * z / (2 * n)
        rad = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
        f_low = max(0.0, (center - rad) / denom)
        f_high = min(1.0, (center + rad) / denom)
        assert float(low) <= f_low + 1e-9      # outward rounding
        assert float(high) >= f_high - 1e-9
        assert abs(float(low) - f_low) < 1e-6
        assert abs(float(high) - f_high) < 1e-6


def test_unlabeled_c22():
    g = build_group([2, 2])
    b = generated_subgroup(g, [g.encode((1, 0))])
    rep = unlabeled_count(g, b, "directed")
    assert rep.total_sets == 4
    assert rep.total_classes == 3       # empty, matching, double 4-cycle
    assert rep.class_sizes == [2, 1, 1]


def test_unlabeled_orbit_bound():
    from bipcayley.autos import count_automorphisms
    for orders in ([2, 2], [6], [4, 2]):
        g = build_group(orders)
        aut = count_automorphisms(g)
        for b in index2_subgroups(g):
            for mode in ("directed", "undirected"):
                rep = unlabeled_count(g, b, mode)
                assert rep.total_classes * aut >= rep.total_sets


def _unlabeled_per_set(g, b, mode):
    """``unlabeled_count`` as it was: a canonical form and an exact search
    for every admissible set, one class per canonical form."""
    from bipcayley.cayley import build_cayley, canonical_form, connection_set
    from bipcayley.stabilizer import (
        minimal_graph_index_target,
        vertex_stabilizer,
    )
    target = 1 if mode == "directed" else minimal_graph_index_target(g)
    classes = {}
    for mask in iter_admissible_sets(g, b, mode):
        digraph = build_cayley(g, connection_set(g, mask))
        form = canonical_form(digraph)
        idx = vertex_stabilizer(digraph).cayley_index
        classes.setdefault(form, []).append((mask, idx))
    for members in classes.values():
        assert len({idx for _, idx in members}) == 1
    return UnlabeledReport(
        total_sets=admissible_set_count(g, b, mode),
        total_classes=len(classes),
        target_classes=sum(1 for members in classes.values()
                           if members[0][1] == target),
        target_index=target,
        class_sizes=sorted((len(m) for m in classes.values()), reverse=True))


def test_unlabeled_orbit_walk_matches_the_per_set_count():
    """One canonical form and one search per Stab_Aut(A)(B)-orbit give the
    per-set report: every (A, B, mode) with |A| <= 24 and at most 2^7
    admissible sets, 71 triples over 22 groups."""
    from bipcayley.groups import abelian_isomorphism_classes
    triples, groups = 0, set()
    for n in range(2, 25, 2):
        for orders in abelian_isomorphism_classes(n):
            g = build_group(list(orders))
            for b in index2_subgroups(g):
                for mode in ("directed", "undirected"):
                    if admissible_set_count(g, b, mode) > 1 << 7:
                        continue
                    assert (unlabeled_count(g, b, mode)
                            == _unlabeled_per_set(g, b, mode)), \
                        (orders, b.bits, mode)
                    triples += 1
                    groups.add(tuple(orders))
    assert (triples, len(groups)) == (71, 22)


def test_unlabeled_c2_5_undirected_keeps_the_per_set_report():
    """(C2^5, index:0, undirected) as the per-set route gave it (about 5
    minutes there): 65,536 sets in 32 classes, none at index 1."""
    g = build_group([2] * 5)
    rep = unlabeled_count(g, index2_subgroups(g)[0], "undirected")
    assert (rep.total_sets, rep.total_classes, rep.target_classes,
            rep.target_index) == (65536, 32, 0, 1)
    assert rep.class_sizes == [
        10080, 6720, 6720, 6720, 6720, 4480, 4480, 2688, 2688, 1920, 1680,
        1680, 1680, 1680, 840, 840, 840, 560, 560, 448, 448, 240, 240, 140,
        140, 120, 120, 30, 16, 16, 1, 1]


def test_unlabeled_class_mixing_indices_is_refused(monkeypatch):
    """One canonical form for every set puts the empty set (index 6) and
    a perfect matching of C2^2 (index 2) in one class: refused."""
    from bipcayley import survey
    g = build_group([2, 2])
    monkeypatch.setattr(survey, "canonical_form", lambda digraph: b"")
    with pytest.raises(FalsificationError):
        unlabeled_count(g, index2_subgroups(g)[0], "directed")


def test_babai_drr_classes_are_stabilizer_orbits():
    """Babai's lemma: two DRRs Cay(A, S) and Cay(A, T) are isomorphic iff
    T = alpha(S) for some alpha in Aut(A).  Such an alpha fixes B, the only
    index-2 subgroup that S and T (generating sets) both miss, so the
    directed target classes are the Stab_Aut(A)(B)-orbits on DRR sets."""
    from bipcayley.stabilizer import is_drr

    nonzero = 0
    for orders in ([2], [4], [2, 2], [6], [2, 3], [8], [4, 2], [2, 2, 2]):
        g = build_group(orders)
        for b in index2_subgroups(g):
            gens = automorphism_generators(g, (b.bits,))[0]
            drrs = {mask for mask in iter_admissible_sets(g, b, "directed")
                    if is_drr(g, mask)}
            orbits = 0
            while drrs:
                orbits += 1
                frontier = [drrs.pop()]
                while frontier:
                    mask = frontier.pop()
                    for alpha in gens:
                        im = alpha.apply_to_set(mask)
                        if im in drrs:
                            drrs.remove(im)
                            frontier.append(im)
            rep = unlabeled_count(g, b, "directed")
            assert rep.target_classes == orbits, (orders, b.bits)
            nonzero += orbits > 0
    assert nonzero >= 6


def test_verify_table_small_budget():
    rows = verify_table(1, budget=600)
    by_group = {(r.group, r.subgroup): r for r in rows}
    assert by_group[("C2^2", "C2")].computed == 2
    assert by_group[("C2^3", "C2^2")].matches
    assert by_group[("C2^5", "C2^4")].status == "skipped"
    assert by_group[("C4xC2^3", "C2^4")].status == "skipped"
    assert all(r.matches for r in rows if r.status == "ok")


def test_table_data_sane():
    assert len(TABLE1_ROWS) == 10
    assert len(TABLE2_ROWS) == 26
    assert sum(1 for r in TABLE1_ROWS if r.extended) == 2
    assert {r.expected for r in TABLE1_ROWS if r.group_spec == "C2^6"} == {4}


def test_same_type_index2_subgroups_are_conjugate_in_table_groups():
    """The table rows name B only by isomorphism type; picking the first
    subgroup of that type is canonical because all of them lie in one
    Aut(A)-orbit (orbits closed under a generating set of Aut(A))."""
    from collections import defaultdict

    from bipcayley.groups import parse_group_spec

    specs = sorted({row.group_spec for row in TABLE1_ROWS + TABLE2_ROWS})
    checked = 0
    for spec in specs:
        group = build_group(parse_group_spec(spec))
        if group.size > 64:
            continue
        auts = automorphism_generators(group)[0]
        by_type = defaultdict(list)
        for sub in index2_subgroups(group):
            by_type[sub.invariant_factors()].append(sub.bits)
        for bits_list in by_type.values():
            orbit = {bits_list[0]}
            frontier = [bits_list[0]]
            while frontier:
                nxt = []
                for bts in frontier:
                    for alpha in auts:
                        im = alpha.apply_to_set(bts)
                        if im not in orbit:
                            orbit.add(im)
                            nxt.append(im)
                frontier = nxt
            assert set(bits_list) <= orbit, spec
            checked += 1
    assert checked >= 15


def test_c26_subclaims():
    rep = c26_subclaims()
    assert rep.candidate_count == 7_701_512
    assert rep.candidate_count == 2 * sum(math.comb(25, k) for k in range(10))
    assert rep.orbit_sizes == [20, 6]
    assert rep.orbit_representatives == [[1, 1, 1, 0, 0, 0],
                                         [1, 1, 1, 1, 1, 0]]
    assert rep.disconnected_min_bound == 165888
    assert rep.basis_transitivity_count_match


def test_c26_budgeted_prefix_and_checkpoint(tmp_path):
    ck = tmp_path / "c26.ckpt"
    first = c26_reduced_search(budget=40, checkpoint=str(ck))
    assert first.searched == 40 and not first.completed
    assert first.best_index is not None
    resumed = c26_reduced_search(budget=40, checkpoint=str(ck))
    assert resumed.searched == 80
    straight = c26_reduced_search(budget=80)
    assert resumed.best_index == straight.best_index


def test_admissible_count():
    g = build_group([4, 2])
    b = subgroup_of_type(g, "C2^2")
    assert admissible_set_count(g, b, "directed") == 16
    assert admissible_set_count(g, b, "undirected") == 4
    assert len(list(iter_admissible_sets(g, b, "undirected"))) == 4


def test_random_method_undirected():
    g = build_group([3, 6])
    b = subgroup_of_type(g, "C3^2")
    res = random_bipartite_index(g, b, "undirected", samples=40, seed=2)
    assert res.method == "random"
    assert res.min_index >= 8        # the exhaustive minimum for this pair
    bits = 0
    for coords in res.argmin_set:
        bits |= 1 << g.encode(coords)
    assert g.negate_set(bits) == bits


def test_parallel_sweep_matches_serial():
    g = build_group([4, 2, 2, 2])
    b = subgroup_of_type(g, "C2^4")
    serial = exhaustive_bipartite_index(g, b, "directed", budget=1 << 17,
                                        threads=1)
    parallel = exhaustive_bipartite_index(g, b, "directed", budget=1 << 17,
                                          threads=2)
    assert serial.min_index == parallel.min_index == 4
    assert serial.argmin_set == parallel.argmin_set


def test_sweep_argmin_is_first_achiever_in_stream_order():
    """Serial and sharded sweeps of the 256 directed sets of (C4xC2^2,
    index:0) return the minimum and its first achiever, also when that
    achiever lies inside or past the 32 masks swept before sharding."""
    from bipcayley.cayley import build_cayley, connection_set
    from bipcayley.stabilizer import vertex_stabilizer
    g = build_group([4, 2, 2])
    b = index2_subgroups(g)[0]
    masks = list(iter_admissible_sets(g, b, "directed"))
    index = {m: vertex_stabilizer(
        build_cayley(g, connection_set(g, m))).cayley_index for m in masks}
    low = min(index.values())
    hits = [i for i, m in enumerate(masks) if index[m] == low]
    shift = next(s for s in range(len(masks))
                 if min((i - s) % len(masks) for i in hits) > 32)
    for stream in (masks, masks[::-1], masks[shift:] + masks[:shift]):
        first = next(m for m in stream if index[m] == low)
        assert sweep(g, stream, threads=2) == sweep(g, stream) == (low, first)
    assert sweep(g, masks, best=low, threads=2) == (low, None)


@pytest.fixture
def fake_pool(monkeypatch):
    """``concurrent.futures.ProcessPoolExecutor`` replaced by an in-process
    fake, so no process starts; returns the ``max_workers`` of each pool."""
    import concurrent.futures
    asked = []

    class FakePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return asked


def test_sharded_sweep_asks_for_at_most_one_worker_per_cpu(fake_pool):
    """A huge ``threads`` forks no more processes than there are CPUs: the
    pool is asked for at most ``os.cpu_count()`` workers, and the shards,
    still 4 * threads of them, give the serial answer."""
    import os
    g = build_group([4, 2, 2])
    masks = list(iter_admissible_sets(g, index2_subgroups(g)[0], "directed"))
    assert len(masks) > 64
    assert sweep(g, masks, threads=10 ** 6) == sweep(g, masks)
    assert len(fake_pool) == 1 and 1 <= fake_pool[0] <= (os.cpu_count() or 1)


def _floored_reps(g, b, mode):
    """The orbit representatives of an exhaustive survey in sweep order,
    their orbit floors and their exact indices."""
    from bipcayley.cayley import build_cayley, connection_set
    from bipcayley.stabilizer import vertex_stabilizer
    _, order, reps = _pair_orbits(g, b, mode, admissible_set_count(g, b, mode))
    floor = {mask: order // length for mask, length in reps.items()}
    masks = _generic_first(floor, g.size / 4)
    index = {m: vertex_stabilizer(
        build_cayley(g, connection_set(g, m))).cayley_index for m in masks}
    return masks, floor, index


def test_sweep_with_floors_keeps_the_minimum_and_argmin(fake_pool):
    """Orbit floors, and the exact indices as the tightest floors, leave
    (best, argmin) of serial and sharded sweeps as they are without floors:
    on the 76 representatives of (C4xC2^3, index:0) in sweep order, reversed,
    and rotated so that the argmin lies past the first 32 masks."""
    g = build_group([4, 2, 2, 2])
    masks, floor, index = _floored_reps(g, index2_subgroups(g)[0],
                                        "directed")
    assert len(masks) == 76
    low = min(index.values())
    streams = [masks, masks[::-1], masks[40:] + masks[:40]]
    assert any(next(i for i, m in enumerate(stream) if index[m] == low) > 32
               for stream in streams)
    for stream in streams:
        want = sweep(g, stream)
        for bound in (floor, index):
            floors = [bound[m] for m in stream]
            assert sweep(g, stream, floors=floors) == want
            assert sweep(g, stream, threads=2, floors=floors) == want
    assert len(fake_pool) == 3 * 2


def test_sweep_settles_masks_at_the_floor_without_a_search(monkeypatch,
                                                           fake_pool):
    """A floor at or above the starting best builds and searches no mask,
    serial or sharded, and still reports every mask to ``progress``; a
    floor one below it is searched."""
    from bipcayley import survey
    from bipcayley.cayley import build_cayley, connection_set
    from bipcayley.stabilizer import vertex_stabilizer
    g = build_group([4, 2, 2])
    masks = list(iter_admissible_sets(g, index2_subgroups(g)[0], "directed"))
    mask = masks[100]
    low = vertex_stabilizer(build_cayley(g, connection_set(g, mask))
                            ).cayley_index
    assert sweep(g, [mask], best=low + 1, floors=[low]) == (low, mask)

    def refuse(*args, **kwargs):
        raise AssertionError("a mask at its floor was searched")

    monkeypatch.setattr(survey, "build_cayley", refuse)
    monkeypatch.setattr(survey, "stabilizer_order_bounded", refuse)
    for threads in (1, 2):
        seen = []
        assert sweep(g, masks, best=4, threads=threads,
                     floors=[4] * len(masks),
                     progress=lambda *p: seen.append(p)) == (4, None)
        assert seen[-1] == (len(masks), len(masks))


def test_sweep_progress_does_not_depend_on_floors(fake_pool):
    """The same ``progress(done, total)`` calls with and without floors,
    serial and sharded, also when most masks are skipped."""
    g = build_group([4, 2, 2, 2])
    masks, floor, _ = _floored_reps(g, index2_subgroups(g)[0], "directed")
    for threads in (1, 2):
        calls = []
        for floors in (None, [floor[m] for m in masks]):
            seen = []
            sweep(g, masks, threads=threads, floors=floors,
                  progress=lambda *p: seen.append(p))
            calls.append(seen)
        assert calls[0] == calls[1] and calls[0], threads


@pytest.mark.parametrize("which,budget,calls", [(1, 1 << 17, 19),
                                                (2, 1 << 11, 115)])
def test_table_sweeps_search_only_sets_below_their_floor(monkeypatch, which,
                                                         budget, calls):
    """Work guard: the bounded stabilizer searches of the benchmark's table
    passes.  Without orbit floors they were 189 (Table 1) and 327
    (Table 2)."""
    from bipcayley import survey
    count = [0]
    bounded = survey.stabilizer_order_bounded

    def counting(*args, **kwargs):
        count[0] += 1
        return bounded(*args, **kwargs)

    monkeypatch.setattr(survey, "stabilizer_order_bounded", counting)
    assert all(row.matches is not False
               for row in verify_table(which, budget=budget))
    assert count[0] == calls


def test_import_leaves_concurrent_futures_unloaded():
    """The process pool module (and the ``logging`` it pulls in) is
    imported only when a sweep is sharded."""
    import os
    import subprocess
    import sys
    import bipcayley
    src = os.path.dirname(os.path.dirname(bipcayley.__file__))
    code = ("import sys, bipcayley\n"
            "assert 'concurrent.futures' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_random_survey_threads_keep_the_answer():
    g = build_group([4, 2, 2])
    b = index2_subgroups(g)[0]
    serial, sharded = (random_bipartite_index(g, b, "directed", samples=200,
                                              seed=7, threads=threads)
                       for threads in (1, 2))
    assert (serial.min_index, serial.argmin_set) == (
        sharded.min_index, sharded.argmin_set)


# The argmin of the first 400 C2^6 candidates (the minimum drops from 48 to
# 16 at stream position 329, the 330th candidate): a search that gets some
# candidate's index wrong moves it.
C26_BEST_SET_400 = [
    [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0], [0, 0, 0, 1, 0, 0],
    [0, 0, 0, 1, 1, 1], [0, 0, 1, 0, 0, 0], [0, 0, 1, 0, 1, 1],
    [0, 1, 0, 0, 0, 0], [0, 1, 0, 1, 0, 1], [1, 0, 0, 0, 0, 0],
    [1, 1, 1, 0, 0, 0]]


@pytest.fixture(scope="module")
def c26_serial_400():
    return c26_reduced_search(budget=400)


def test_c26_threaded_matches_serial(tmp_path, c26_serial_400):
    ck = tmp_path / "c26.ckpt"
    threaded = c26_reduced_search(budget=400, threads=2, checkpoint=str(ck))
    assert threaded.best_index == c26_serial_400.best_index == 16
    assert threaded.best_set == c26_serial_400.best_set == C26_BEST_SET_400
    lines = [json.loads(line) for line in ck.read_text().splitlines()]
    assert lines and lines[-1]["cursor"] == 400
    for line in lines:
        if line["best_index"] is not None:
            assert line["best_set"] is not None
            assert line["best_mask"] is not None


def test_c26_sharded_sweep_matches_serial(tmp_path):
    """Budget 1,000 keeps 124 representatives, more than ``sweep``'s 64, so
    on two threads the block is swept by worker processes, which get each
    mask's floor and known maps with it: the same answer and checkpoint."""
    reports, lines = [], []
    for threads in (1, 2):
        ck = tmp_path / f"c26-{threads}.ckpt"
        reports.append(c26_reduced_search(budget=1000, threads=threads,
                                          checkpoint=str(ck)))
        lines.append(ck.read_text().splitlines())
    serial, sharded = reports
    assert serial.reps_searched == sharded.reps_searched == 124
    assert sharded.best_index == serial.best_index == 16
    assert sharded.best_set == serial.best_set
    assert lines[0] == lines[1] and len(lines[0]) == 1


def _generated(perms) -> set:
    """The group that the permutations ``perms`` generate, as tuples."""
    group = {tuple(range(len(perms[0])))} if perms else {()}
    frontier = list(group)
    while frontier:
        x = frontier.pop()
        for g in perms:
            y = tuple(g[v] for v in x)
            if y not in group:
                group.add(y)
                frontier.append(y)
    return group


@pytest.mark.parametrize("rep", ["rep3", "rep5"])
def test_c26_seeds_are_automorphisms_that_keep_each_index(rep):
    """Each representative in the first 2,000 positions of a C2^6 block:
    its maps are additive (XOR on element indices) and fix S, they
    generate a group of the order given as its floor, and a search seeded
    with them finds the index of an unseeded one."""
    import itertools
    from bipcayley._search import perm_on_set
    from bipcayley.cayley import build_cayley, connection_set
    from bipcayley.stabilizer import stabilizer_order_bounded, vertex_stabilizer
    from bipcayley.survey import _c26_candidates, _c26_group_and_parts
    group, basis, b_bits, rep3, rep5 = _c26_group_and_parts()
    stream = _c26_candidates(group, basis, b_bits,
                             {"rep3": rep3, "rep5": rep5}[rep])
    kept = [item for item in itertools.islice(stream, 2000)
            if item is not None]
    seen, helped = set(), 0
    for mask, order, maps in kept:
        for m in maps:
            if m not in seen:
                seen.add(m)
                assert all(m[a ^ b] == m[a] ^ m[b]
                           for a in range(64) for b in range(a))
            assert perm_on_set(m, mask) == mask
        assert len(_generated(maps)) == order
        helped += order > 1
        d = build_cayley(group, connection_set(group, mask))
        index = vertex_stabilizer(d).cayley_index
        assert index % order == 0
        assert stabilizer_order_bounded(d, known=maps) == (index, True)
    assert 0 < helped < len(kept)


def test_c26_prefix_refinements_are_pinned(monkeypatch):
    """Work guard: the 500-position prefix refines 724 times.  Searched
    from inversion alone, not from each candidate's coordinate stabilizer,
    it took 1,093."""
    from bipcayley import _search
    calls = [0]
    refine = _search.refine_partition

    def counting(*args, **kwargs):
        calls[0] += 1
        return refine(*args, **kwargs)

    monkeypatch.setattr(_search, "refine_partition", counting)
    assert c26_reduced_search(budget=500).best_index == 16
    assert calls[0] == 724


def test_c26_threaded_resume_matches_straight(tmp_path, c26_serial_400):
    ck = tmp_path / "c26.ckpt"
    c26_reduced_search(budget=200, threads=2, checkpoint=str(ck))
    resumed = c26_reduced_search(budget=200, threads=2, checkpoint=str(ck))
    assert resumed.searched == 400
    assert resumed.best_index == c26_serial_400.best_index
    assert resumed.best_set == c26_serial_400.best_set


def test_c26_resumes_a_line_with_the_old_shard_id(tmp_path, c26_serial_400):
    ck = tmp_path / "c26.ckpt"
    c26_reduced_search(budget=200, checkpoint=str(ck))
    last = json.loads(ck.read_text().splitlines()[-1])
    assert "shard_id" not in last
    ck.write_text(json.dumps({"shard_id": 0, **last}) + "\n")
    resumed = c26_reduced_search(budget=200, checkpoint=str(ck))
    assert resumed.searched == 400
    assert resumed.best_index == c26_serial_400.best_index
    assert resumed.best_set == c26_serial_400.best_set


def test_worker_timeout_reaches_caller():
    from bipcayley.errors import Timeout
    g = build_group([2, 2, 2, 2])
    b = subgroup_of_type(g, "C2^3")
    masks = list(iter_admissible_sets(g, b, "directed"))
    with pytest.raises(Timeout):  # a starting bound skips the serial head
        sweep(g, masks, best=1 << 40, threads=2, timeout=0.0)


def test_exhaustive_timeout_propagates():
    from bipcayley.errors import Timeout
    g = build_group([2, 2, 2, 2])
    b = subgroup_of_type(g, "C2^3")
    with pytest.raises(Timeout):
        exhaustive_bipartite_index(g, b, "directed", timeout=0.0)


def _orbit_reps_reference(masks, perms):
    """Reference orbit reduction on element masks: the first mask of each
    orbit of <perms> (element permutations) in stream order, mapped to the
    length of its orbit."""
    universe = set(masks)
    seen = set()
    reps = {}
    for mask in masks:
        if mask in seen:
            continue
        seen.add(mask)
        orbit = [mask]
        for m in orbit:
            for g in perms:
                im = 0
                for b in bits_of(m):
                    im |= 1 << g[b]
                if im not in seen:
                    assert im in universe
                    seen.add(im)
                    orbit.append(im)
        reps[mask] = len(orbit)
    return reps


def _harvested_images(g, b):
    """The element permutations ``_orbit_generators`` translates: inversion
    and a generating set of the B-stabilizer."""
    iota = inversion_automorphism(g)
    images = [] if iota.is_identity else [iota.image]
    return images + [alpha.image
                     for alpha in automorphism_generators(g, (b.bits,))[0]]


def _check_reps_against_reference(g, b, mode):
    masks = list(iter_admissible_sets(g, b, mode))
    reps = _pair_orbits(g, b, mode, len(masks))[2]
    assert sum(reps.values()) == len(masks)
    assert list(reps.items()) == list(
        _orbit_reps_reference(masks, _harvested_images(g, b)).items())


def test_orbit_representatives_match_reference(small_groups):
    """Same representatives in the same order, with the same orbit lengths,
    as the mask-domain loop, for every index-2 subgroup of every small
    group, in both modes."""
    for g in small_groups:
        for b in index2_subgroups(g):
            for mode in ("directed", "undirected"):
                _check_reps_against_reference(g, b, mode)


def test_orbit_representatives_match_reference_on_table1_rows():
    """The Table 1 rows up to 2^16 admissible sets, the extended C2^5 row
    included."""
    for row in TABLE1_ROWS:
        g = build_group(parse_group_spec(row.group_spec))
        b = subgroup_of_type(g, row.subgroup_spec)
        if admissible_set_count(g, b, "directed") <= 1 << 16:
            _check_reps_against_reference(g, b, "directed")


def _choice_orbit_reps_reference(k, perms):
    """The least choice of each orbit of <perms> on range(2^k), mapped to
    the length of its orbit, by a plain set-based BFS from every choice."""
    seen, reps = set(), {}
    for choice in range(1 << k):
        if choice in seen:
            continue
        seen.add(choice)
        orbit = [choice]
        for member in orbit:
            for p in perms:
                im = sum(1 << p[i] for i in bits_of(member))
                if im not in seen:
                    seen.add(im)
                    orbit.append(im)
        reps[choice] = len(orbit)
    return reps


def _synthetic_unit_perms(rng, k):
    """A random permutation, a transposition and a cycle on a random subset
    of k units, each kept with probability 1/2."""
    shuffled = list(range(k))
    rng.shuffle(shuffled)
    swap = list(range(k))
    i, j = rng.sample(range(k), 2) if k > 1 else (0, 0)
    swap[i], swap[j] = swap[j], swap[i]
    cycle = list(range(k))
    subset = rng.sample(range(k), rng.randint(1, k))
    for a, b in zip(subset, subset[1:] + subset[:1]):
        cycle[a] = b
    return [tuple(p) for p in (shuffled, swap, cycle) if rng.random() < 0.5]


def test_orbit_representatives_match_set_bfs_on_synthetic_unit_groups():
    """Odd and even k, the middle layer, and k > 16, where each half of a
    choice is looked up in a table of 2^9 entries."""
    rng = random.Random(19)
    for k in range(1, 19):
        perms = _synthetic_unit_perms(rng, k)
        reps = orbit_representatives(range(1 << k), perms)
        assert sum(reps.values()) == 1 << k
        assert (list(reps.items()) == list(
            _choice_orbit_reps_reference(k, perms).items())), (k, perms)


def test_orbit_representatives_edge_groups():
    """No generators (every choice is its own orbit), and a transposition
    with a cycle on a subset, whose orbits are not all of one size."""
    for k in (0, 1, 4, 7):
        reps = orbit_representatives(range(1 << k), [])
        assert list(reps.items()) == [(c, 1) for c in range(1 << k)]
    for k in (5, 6, 9, 10):
        cycle = tuple(list(range(1, k - 1)) + [0, k - 1])
        swap = tuple([k - 1] + list(range(1, k - 1)) + [0])
        for perms in ([cycle], [swap], [cycle, swap]):
            reps = orbit_representatives(range(1 << k), perms)
            assert list(reps.items()) == list(
                _choice_orbit_reps_reference(k, perms).items()), (k, perms)


def test_inversion_lies_in_the_group_the_orbit_generators_generate():
    """The walk needs no permutation for inversion: it fixes every
    subgroup, so it lies in Stab_Aut(A)(B), which the generators generate.
    Every index-2 B of every abelian group of even order <= 24."""
    from bipcayley.groups import abelian_isomorphism_classes
    checked = 0
    for n in range(2, 25, 2):
        for orders in abelian_isomorphism_classes(n):
            g = build_group(list(orders))
            iota = inversion_automorphism(g).image
            for b in index2_subgroups(g):
                gens = [alpha.image for alpha
                        in automorphism_generators(g, (b.bits,))[0]]
                seen, frontier = {iota}, [iota]
                while frontier and tuple(range(g.size)) not in seen:
                    img = frontier.pop()
                    for gen in gens:
                        prod = tuple(img[x] for x in gen)
                        if prod not in seen:
                            seen.add(prod)
                            frontier.append(prod)
                assert tuple(range(g.size)) in seen, (orders, b)
                checked += 1
    assert checked == 70


class _CountingRange:
    """``range(n)`` that counts the choices read from it."""

    def __init__(self, n):
        self.n, self.read = n, 0

    def __len__(self):
        return self.n

    def __iter__(self):
        for choice in range(self.n):
            self.read += 1
            yield choice


def test_orbit_scan_stops_at_the_last_orbit():
    """Work guard: on the directed (C4xC2^3, C2^4) row the scan stops once
    the counted orbit lengths reach 2^16, after choice 5,911, and reads none
    of the 59,624 choices after it; the representatives and lengths are the
    reference's."""
    g = build_group([4, 2, 2, 2])
    b = subgroup_of_type(g, "C2^4")
    units = _units(g, b, "directed")
    perms, _, want = _pair_orbits(g, b, "directed", 1 << len(units))
    choices = _CountingRange(1 << len(units))
    reps = orbit_representatives(choices, perms)
    assert choices.read == 5912 and len(reps) == 76
    assert {unit_union(units, c): n for c, n in reps.items()} == want
    _check_reps_against_reference(g, b, "directed")


def test_orbit_floors_divide_the_exact_index():
    """Every orbit length divides |Stab_Aut(A)(B)|, and the floor
    |Stab_Aut(A)(B)| / |orbit| divides the exact index of its
    representative: the automorphisms of A fixing S are automorphisms of
    Cay(A, S) fixing 0.  Every index-2 B of every abelian group of even
    order <= 24, in both modes, up to 2^12 admissible sets."""
    from bipcayley.cayley import build_cayley, connection_set
    from bipcayley.groups import abelian_isomorphism_classes
    from bipcayley.stabilizer import vertex_stabilizer
    checked = 0
    for n in range(2, 25, 2):
        for orders in abelian_isomorphism_classes(n):
            g = build_group(list(orders))
            for b in index2_subgroups(g):
                for mode in ("directed", "undirected"):
                    total = admissible_set_count(g, b, mode)
                    if total > 1 << 12:
                        continue
                    _, order, reps = _pair_orbits(g, b, mode, total)
                    for mask, length in reps.items():
                        assert order % length == 0
                        digraph = build_cayley(g, connection_set(g, mask))
                        index = vertex_stabilizer(digraph).cayley_index
                        assert index % (order // length) == 0, (orders, mode)
                        checked += 1
    assert checked == 6609


def test_orbit_length_not_dividing_the_order_is_refused(monkeypatch):
    """|Stab_Aut(C2^2)(B)| = 2, so an orbit of 3 choices cannot occur."""
    from bipcayley import survey
    g = build_group([2, 2])
    monkeypatch.setattr(survey, "orbit_representatives",
                        lambda choices, perms: {0: 3})
    with pytest.raises(FalsificationError):
        exhaustive_bipartite_index(g, index2_subgroups(g)[0], "directed")


def test_subgroup_of_type_is_first_index2_subgroup_of_that_type():
    for row in TABLE1_ROWS + TABLE2_ROWS:
        g = build_group(parse_group_spec(row.group_spec))
        want = invariant_factors_of_orders(parse_group_spec(row.subgroup_spec))
        first = next(s for s in index2_subgroups(g)
                     if s.invariant_factors() == want)
        assert subgroup_of_type(g, row.subgroup_spec).bits == first.bits, row


def test_orbit_generating_sets_stay_small_on_table_rows():
    """Each orbit member pays one image per generator, so the generating
    set of Stab_Aut(A)(B) must stay small on every table row."""
    for row in TABLE1_ROWS + TABLE2_ROWS:
        g = build_group(parse_group_spec(row.group_spec))
        b = subgroup_of_type(g, row.subgroup_spec)
        assert len(automorphism_generators(g, (b.bits,))[0]) <= 11, row


def test_unit_translation_rejects_generator_not_fixing_b():
    """Automorphisms fixing one index-2 subgroup, translated on the units
    of another that they move."""
    g = build_group([2, 2])
    b, other = index2_subgroups(g)[:2]
    assert any(alpha.stabilizes(other) and not alpha.stabilizes(b)
               for alpha in stabilizing_automorphisms(g, other))
    with pytest.raises(FalsificationError):
        _orbit_generators(g, other, _units(g, b, "directed"))


def _c26_block_reference(rep_coords, count):
    """The first ``count`` candidates of the C2^6 block of ``rep_coords``,
    unreduced, and whether each is the first in stream order of its orbit
    under the coordinate permutations fixing the rep (36 or 120 maps acting
    on group elements)."""
    import itertools
    from bipcayley._search import perm_on_set
    g = build_group([2] * 6)
    rep = g.encode(rep_coords)
    base = 1 << rep
    for e in g.generators():
        base |= 1 << e
    pool = [a for a in g.elements()
            if sum(g.decode(a)) % 2 and not (base >> a) & 1]
    masks = []
    for k in range(10):
        for comb in itertools.combinations(pool, k):
            masks.append(base | sum(1 << a for a in comb))
            if len(masks) == count:
                break
        if len(masks) == count:
            break
    support = {i for i in range(6) if rep_coords[i]}
    images = [[g.encode(tuple(g.decode(a)[p[j]] for j in range(6)))
               for a in g.elements()]
              for p in itertools.permutations(range(6))
              if {p[i] for i in support} == support]
    assert len(images) == (36 if len(support) == 3 else 120)
    position = {m: i for i, m in enumerate(masks)}
    first = [min(position.get(perm_on_set(img, m), count) for img in images)
             == i for i, m in enumerate(masks)]
    return g, masks, first


C26_REP3 = (1, 1, 1, 0, 0, 0)
C26_REP5 = (1, 1, 1, 1, 1, 0)


def test_c26_representatives_match_brute_force_orbits():
    import itertools
    from bipcayley.survey import _c26_candidates, _c26_group_and_parts
    group, basis, b_bits, rep3, rep5 = _c26_group_and_parts()
    for rep, coords in ((rep3, C26_REP3), (rep5, C26_REP5)):
        _, masks, first = _c26_block_reference(coords, 2000)
        stream = [None if item is None else item[0] for item in
                  itertools.islice(_c26_candidates(group, basis, b_bits, rep),
                                   2000)]
        assert stream == [m if keep else None
                          for m, keep in zip(masks, first)]
        assert 0 < sum(first) < 2000


def test_c26_reduction_keeps_the_prefix_answer(tmp_path):
    from bipcayley.survey import _decode_set
    g, masks, _ = _c26_block_reference(C26_REP3, 500)
    best, argmin = sweep(g, masks)
    straight = c26_reduced_search(budget=500)
    assert (straight.searched, straight.reps_searched) == (500, 49)
    assert straight.best_index == best == 16
    assert straight.best_set == _decode_set(g, argmin)
    ck = tmp_path / "c26.ckpt"
    c26_reduced_search(budget=250, checkpoint=str(ck))
    resumed = c26_reduced_search(budget=250, checkpoint=str(ck))
    last = json.loads(ck.read_text().splitlines()[-1])
    assert last["cursor"] == 500
    assert last["reps_searched"] == resumed.reps_searched == 49
    assert resumed.best_set == straight.best_set


# The argmin of the whole C2^6 stream, the first candidate reaching the
# paper's directed index 4 (found by ``bipcayley c26 --full``).
C26_BEST_SET_FULL = [
    [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 0], [0, 0, 0, 1, 0, 0],
    [0, 0, 0, 1, 1, 1], [0, 0, 1, 0, 0, 0], [0, 0, 1, 0, 1, 1],
    [0, 0, 1, 1, 0, 1], [0, 1, 0, 0, 0, 0], [0, 1, 0, 0, 1, 1],
    [0, 1, 0, 1, 1, 0], [1, 0, 0, 0, 0, 0], [1, 0, 1, 0, 0, 1],
    [1, 1, 1, 0, 0, 0]]


def test_c26_full_argmin_reverifies_to_index_4():
    from bipcayley.cayley import build_cayley, connection_set
    from bipcayley.stabilizer import vertex_stabilizer
    g = build_group([2] * 6)
    elements = {tuple(e) for e in C26_BEST_SET_FULL}
    assert {g.decode(e) for e in g.generators()} | {C26_REP3} <= elements
    assert all(sum(e) % 2 for e in elements)  # avoids B, the even vectors
    conn = connection_set(g, [tuple(e) for e in C26_BEST_SET_FULL])
    assert vertex_stabilizer(build_cayley(g, conn)).cayley_index == 4
