"""Acceptance suite: one test per criterion, exact tolerances throughout.

The slow shared piece is the classifier soundness sweep (criterion 4); its
results are reused for the brute-force oracle equivalence check
(criterion 10) through a session fixture.
"""

import hashlib
import json
import math
from collections import Counter
from fractions import Fraction

import pytest

from bipcayley.autos import (
    example1_automorphism,
    example2_automorphism,
    index2_subgroups,
    inversion_automorphism,
    is_exceptional_pair,
)
from bipcayley.bounds import (
    bounds_suite,
    brute_count_inverse_closed,
    count_inverse_closed,
)
from bipcayley.cayley import build_cayley, connection_set
from bipcayley.classify import (
    VERDICT_GOOD,
    classify_directed,
    classify_undirected,
    verify_witness,
)
from bipcayley.groups import (
    abelian_isomorphism_classes,
    bits_of,
    build_group,
    factor_multisets,
)
from bipcayley.stabilizer import (
    brute_force_stabilizer_order,
    minimal_graph_index_target,
    vertex_stabilizer,
)
from bipcayley.survey import (
    c26_subclaims,
    exhaustive_bipartite_index,
    iter_admissible_sets,
    monte_carlo_proportion,
    subgroup_of_type,
    unlabeled_count,
)

TABLE1_REQUIRED = [
    ("C2^2", "C2", 2),
    ("C2^3", "C2^2", 6),
    ("C2^4", "C2^3", 24),
    ("C4xC2", "C2^2", 2),
    ("C4xC2^2", "C2^3", 4),
    ("C4xC2^2", "C4xC2", 2),
    ("C3xC6", "C3^2", 2),
    ("C4xC2^3", "C2^4", 4),
]

TABLE2_REQUIRED = [
    ("C2^3", "C2^2", 6),
    ("C2^4", "C2^3", 24),
    ("C2xC4", "C4", 6),
    ("C2xC4", "C2^2", 16),
    ("C4xC4", "C4xC2", 24),
    ("C4xC2^2", "C2^3", 768),
    ("C4xC2^2", "C4xC2", 24),
    ("C3xC6", "C3^2", 8),
    ("C2xC8", "C2xC4", 16),
]


def _group(spec):
    from bipcayley.groups import parse_group_spec
    return build_group(parse_group_spec(spec))


@pytest.fixture(scope="session")
def classifier_sweep():
    """Criterion 4's sweep: every admissible (A, B, S) with its verdict.

    The exact Cayley index is computed where a criterion needs it: for every
    GOOD verdict (those must hit the minimal index, and their stabilizers
    are small) and for every digraph on <= 8 vertices (criterion 10 compares
    them against the brute-force filter).  Symmetric sets on larger groups
    would cost minutes each in the stabilizer chain for no assertion.
    """
    records = []
    directed_sizes = [n for n in range(2, 13, 2)]
    undirected_sizes = [n for n in range(2, 17, 2)]
    for n in sorted(set(directed_sizes + undirected_sizes)):
        for invfac in abelian_isomorphism_classes(n):
            group = build_group(list(invfac))
            for sub in index2_subgroups(group):
                if is_exceptional_pair(group, sub):
                    continue
                modes = []
                if n in directed_sizes:
                    modes.append("directed")
                if n in undirected_sizes:
                    modes.append("undirected")
                for mode in modes:
                    for s_bits in iter_admissible_sets(group, sub, mode):
                        if mode == "directed":
                            res = classify_directed(group, sub, s_bits)
                        else:
                            res = classify_undirected(group, sub, s_bits)
                        idx = None
                        if res.verdict == VERDICT_GOOD or group.size <= 8:
                            digraph = build_cayley(
                                group, connection_set(group, s_bits))
                            idx = vertex_stabilizer(digraph).cayley_index
                        records.append((group, sub, s_bits, mode, res, idx))
    return records


def test_criterion_01_table1_desk_rows():
    for gspec, bspec, expected in TABLE1_REQUIRED:
        group = _group(gspec)
        sub = subgroup_of_type(group, bspec)
        res = exhaustive_bipartite_index(group, sub, "directed",
                                         budget=1 << 17)
        assert res.min_index == expected, (gspec, bspec, res.min_index)
        assert res.sets_examined == 1 << (group.size // 2)
    print("ACCEPTANCE 1: PASS - Table 1 desk rows reproduce exactly")


def test_criterion_02_table2_desk_rows():
    for gspec, bspec, expected in TABLE2_REQUIRED:
        group = _group(gspec)
        sub = subgroup_of_type(group, bspec)
        res = exhaustive_bipartite_index(group, sub, "undirected",
                                         budget=1 << 17)
        assert res.min_index == expected, (gspec, bspec, res.min_index)
        assert res.sets_examined == count_inverse_closed(group, sub)
    print("ACCEPTANCE 2: PASS - Table 2 desk rows reproduce exactly")


def test_criterion_03_inverse_closed_formula():
    pairs = 0
    for n in range(2, 21):
        for orders in factor_multisets(n):
            group = build_group(list(orders))
            for sub in index2_subgroups(group):
                assert count_inverse_closed(group, sub) == \
                    brute_count_inverse_closed(group, sub), (orders, sub)
                pairs += 1
    assert pairs > 50
    print(f"ACCEPTANCE 3: PASS - formula equals brute count on {pairs} pairs")


def test_criterion_04_classifier_soundness(classifier_sweep):
    checked = 0
    for group, sub, s_bits, mode, res, idx in classifier_sweep:
        assert verify_witness(group, sub, s_bits, res, mode), \
            (group.orders, s_bits, res.verdict)
        if res.verdict == VERDICT_GOOD:
            target = 1 if mode == "directed" \
                else minimal_graph_index_target(group)
            assert idx == target, \
                (group.orders, sub, s_bits, mode, idx, target)
            checked += 1
    assert checked > 100
    print(f"ACCEPTANCE 4: PASS - {checked} GOOD sets all reach the minimal "
          f"index ({len(classifier_sweep)} classifications)")


def test_criterion_04_sweep_verdicts_and_witnesses_are_pinned(
        classifier_sweep):
    """Every triple of the sweep keeps its verdict and its witness: the
    counts, and a SHA-256 over one line per triple, in sweep order."""
    digest = hashlib.sha256()
    for group, sub, s_bits, mode, res, _ in classifier_sweep:
        witness = json.dumps(res.witness_json(group), sort_keys=True)
        digest.update(f"{group.orders} {sub.bits} {mode} {s_bits} "
                      f"{res.verdict} {witness}\n".encode())
    assert Counter(r[4].verdict for r in classifier_sweep) == {
        "A1": 2111, "A2": 2656, "A3": 53, "A4": 4, "GOOD": 202}
    assert digest.hexdigest() == ("d13a35d8fdc3da5040ccc8d5530d0205"
                                  "573d25d49ba6a997b2c91deee4905261")


def test_criterion_05_lemma_bounds_hold():
    reports = 0
    for n in range(2, 17, 2):
        for invfac in abelian_isomorphism_classes(n):
            group = build_group(list(invfac))
            for sub in index2_subgroups(group):
                for rep in bounds_suite(group, sub):
                    if rep.holds is not None:
                        assert rep.holds, (invfac, rep.name, rep.exact)
                        reports += 1
    assert reports > 100
    print(f"ACCEPTANCE 5: PASS - {reports} lemma-bound reports all hold")


def test_criterion_06_exceptional_families():
    for ell in (1, 2, 3):
        group, sub, alpha = example1_automorphism(ell)
        iota = inversion_automorphism(group)
        assert all(alpha(alpha(a)) == a for a in group.elements())
        assert not alpha.is_identity and alpha.image != iota.image
        assert alpha.stabilizes(sub)
        for a in bits_of(sub.complement_bits()):
            pair = (1 << a) | (1 << group.neg(a))
            assert alpha.apply_to_set(pair) == pair
    for ell in (0, 1, 2):
        group, sub, alpha = example2_automorphism(ell)
        iota = inversion_automorphism(group)
        assert all(alpha(alpha(a)) == a for a in group.elements())
        assert not alpha.is_identity and alpha.image != iota.image
        assert alpha.stabilizes(sub)
        for a in bits_of(sub.complement_bits()):
            pair = (1 << a) | (1 << group.neg(a))
            assert alpha.apply_to_set(pair) == pair

    g1 = _group("C4xC2")
    r1 = exhaustive_bipartite_index(g1, subgroup_of_type(g1, "C2^2"),
                                    "undirected")
    assert r1.min_index >= 4
    g2 = _group("C4xC4")
    r2 = exhaustive_bipartite_index(g2, subgroup_of_type(g2, "C4xC2"),
                                    "undirected")
    assert r2.min_index >= 4
    print(f"ACCEPTANCE 6: PASS - exceptional automorphisms check out; "
          f"indices {r1.min_index}, {r2.min_index} >= 4")


def test_criterion_07_c26_subclaims():
    rep = c26_subclaims()
    assert rep.candidate_count == 7_701_512
    assert rep.candidate_count == 2 * sum(math.comb(25, k) for k in range(10))
    assert sorted(rep.orbit_sizes) == [6, 20]
    assert rep.orbit_representatives == [[1, 1, 1, 0, 0, 0],
                                         [1, 1, 1, 1, 1, 0]]
    assert rep.basis_transitivity_count_match
    print("ACCEPTANCE 7: PASS - C2^6 reduction sub-claims exact")


def test_criterion_08_monte_carlo_trend():
    group = build_group([2, 30])    # order 60
    sub = index2_subgroups(group)[0]
    est = monte_carlo_proportion(group, sub, "directed",
                                 samples=2000, seed=12345)
    assert est.wilson_low > Fraction(95, 100), float(est.wilson_low)
    print(f"ACCEPTANCE 8: PASS - DRR proportion {float(est.estimate):.4f}, "
          f"Wilson lower bound {float(est.wilson_low):.4f} > 0.95")


def test_criterion_09_unlabeled_consistency():
    from bipcayley.autos import automorphism_generators
    checked = 0
    for n in (2, 4, 6, 8):
        for invfac in abelian_isomorphism_classes(n):
            group = build_group(list(invfac))
            aut = automorphism_generators(group)[1]
            for sub in index2_subgroups(group):
                for mode in ("directed", "undirected"):
                    rep = unlabeled_count(group, sub, mode)
                    assert rep.total_classes * aut >= rep.total_sets
                    checked += 1
    assert checked >= 20
    print(f"ACCEPTANCE 9: PASS - {checked} unlabeled reports consistent "
          f"(class-index mixing is checked internally)")


def test_criterion_10_stabilizer_oracle_equivalence(classifier_sweep):
    checked = 0
    for group, sub, s_bits, mode, res, idx in classifier_sweep:
        if group.size > 8 or mode != "directed":
            continue
        digraph = build_cayley(group, connection_set(group, s_bits))
        assert idx == brute_force_stabilizer_order(digraph), \
            (group.orders, s_bits)
        checked += 1
    assert checked >= 150
    print(f"ACCEPTANCE 10: PASS - {checked} digraphs match the brute-force "
          f"permutation filter")
