import collections
import math
from fractions import Fraction

import pytest

from bipcayley.autos import (
    Automorphism,
    index2_subgroup,
    index2_subgroups,
    inversion_automorphism,
    is_exceptional_pair,
    prime_index_subgroups,
    prime_order_subgroups,
    stabilizing_automorphisms,
)
from bipcayley import bounds
from bipcayley.bounds import (
    Bound,
    _int_leq_rational_pow,
    admissible_set_count,
    admissible_units,
    bounds_suite,
    brute_count_inverse_closed,
    ceil_exponent,
    count_inverse_closed,
    count_product_triples,
    inverse_closed_count_report,
    iter_unit_subsets,
    lemma_bound,
    log2_dyadic_interval,
    logsq_below,
    prelim_facts_check,
    theorem_lower_bound,
    threshold_scan,
    _threshold_inequality_holds,
)
from bipcayley.classify import _direct_decompositions, _match_product
from bipcayley.errors import HypothesisViolated
from bipcayley.groups import (
    abelian_isomorphism_classes,
    bits_of,
    build_group,
    coset_decompose,
    factor_multisets,
    generated_subgroup,
    involution_subgroup,
)


def test_count_inverse_closed_examples():
    g = build_group([4, 2])
    a2 = involution_subgroup(g)
    assert count_inverse_closed(g, a2) == 4
    rep = inverse_closed_count_report(g, a2)
    assert rep["a2_contained_in_b"] and rep["case"] == "2^(|A|/4)"

    g = build_group([2, 2, 2, 2])
    b = index2_subgroups(g)[0]
    assert count_inverse_closed(g, b) == 2 ** (g.size // 2)  # exponent 2

    g = build_group([2, 4])
    b = [s for s in index2_subgroups(g) if s.invariant_factors() == (4,)][0]
    assert count_inverse_closed(g, b) == 8


def test_count_formula_matches_brute_force_small():
    for n in range(2, 13, 2):
        for orders in factor_multisets(n):
            g = build_group(list(orders))
            for b in index2_subgroups(g):
                assert count_inverse_closed(g, b) == \
                    brute_count_inverse_closed(g, b)


def test_undirected_admissible_units_complete():
    g = build_group([2, 4])
    for b in index2_subgroups(g):
        seen = set(iter_unit_subsets(
            admissible_units(g, b.complement_bits(), "undirected")))
        assert len(seen) == count_inverse_closed(g, b)
        for bits in seen:
            assert g.negate_set(bits) == bits
            assert bits & b.bits == 0


def test_alpha_invariant_lemma():
    g = build_group([6])
    b = generated_subgroup(g, [2])
    iota = inversion_automorphism(g)
    rep = lemma_bound("alpha-invariant", g, b, alpha=iota)
    assert rep.exact == 4          # orbits {1,5} and {3} outside B
    assert abs(rep.bound.log2_float() - 2.25) < 1e-12
    assert rep.holds
    # oracle: enumerate all subsets of A \ B fixed by iota
    outside = [1, 3, 5]
    fixed = 0
    for mask in range(8):
        bits = sum(1 << outside[i] for i in range(3) if (mask >> i) & 1)
        if iota.apply_to_set(bits) == bits:
            fixed += 1
    assert fixed == rep.exact


def test_alpha_invariant_hypotheses():
    g = build_group([6])
    b = generated_subgroup(g, [2])
    with pytest.raises(HypothesisViolated):
        lemma_bound("alpha-invariant", g, b,
                    alpha=Automorphism(g, tuple(range(g.size))))


def test_a1_directed_lemma():
    g = build_group([6])
    b = generated_subgroup(g, [2])
    rep = lemma_bound("A1-directed", g, b)
    assert rep.exact == 2          # the empty set and {3}
    assert rep.holds
    # oracle: direct enumeration over all subsets of A \ B
    count = 0
    for mask in range(8):
        bits = sum(1 << [1, 3, 5][i] for i in range(3) if (mask >> i) & 1)
        span = generated_subgroup(g, list(bits_of(bits)))
        count += span.order < g.size
    assert count == rep.exact


def test_hk_cosets_lemma_exact_formula():
    g = build_group([6])
    b = generated_subgroup(g, [2])
    h = generated_subgroup(g, [2])   # order 3, inside B
    rep = lemma_bound("HK-cosets", g, b, small=h, big=h)
    assert rep.exact == 2 and rep.holds
    # oracle: enumerate subsets of A \ B whose part outside K is H-cosets
    count = 0
    for mask in range(8):
        bits = sum(1 << [1, 3, 5][i] for i in range(3) if (mask >> i) & 1)
        if coset_decompose(g, h, bits & ~h.bits):
            count += 1
    assert count == rep.exact


def test_hk_undirected_requires_non_two_group():
    g = build_group([4, 2])
    b = involution_subgroup(g)
    h = prime_order_subgroups(g)[0]
    k = prime_index_subgroups(g)[0]
    if h.bits & ~k.bits or h.bits & ~b.bits:
        pytest.skip("pair not admissible for this enumeration order")
    with pytest.raises(HypothesisViolated):
        lemma_bound("HK-undirected", g, b, small=h, big=k)


def test_triples_lemma():
    g = build_group([6])
    b = generated_subgroup(g, [2])
    rep = lemma_bound("triples", g, b)
    # only the empty product set arises from the C6 x 1 decomposition
    assert rep.exact == 1
    assert rep.holds
    assert count_product_triples(g, b) == 1

    g = build_group([4, 2])
    b = generated_subgroup(g, [g.encode((1, 0))])
    rep = lemma_bound("triples", g, b)
    assert rep.exact >= 1 and rep.holds


def _index2_pairs(max_order):
    for n in range(2, max_order + 1, 2):
        for invfac in abelian_isomorphism_classes(n):
            g = build_group(list(invfac))
            for b in index2_subgroups(g):
                yield g, b


def _subsets_outside(g, b):
    outside = [1 << a for a in bits_of(b.complement_bits())]
    for mask in range(1 << len(outside)):
        yield sum(u for i, u in enumerate(outside) if (mask >> i) & 1)


def test_triples_count_matches_a4_witness_oracle():
    pairs = 0
    for g, b in _index2_pairs(16):
        pairs += 1
        oracle = sum(_match_product(g, cyc, comp, s) is not None
                     for cyc, comp in _direct_decompositions(g)
                     for s in _subsets_outside(g, b))
        assert count_product_triples(g, b) == oracle, (g.orders, b.bits)
    assert pairs == 52


def test_alpha_invariant_count_matches_fixed_subset_oracle():
    autos_checked = 0
    for g, b in _index2_pairs(12):
        for alpha in stabilizing_automorphisms(g, b):
            if alpha.is_identity:
                continue
            autos_checked += 1
            fixed = sum(alpha.apply_to_set(s) == s
                        for s in _subsets_outside(g, b))
            rep = lemma_bound("alpha-invariant", g, b, alpha=alpha)
            assert rep.exact == fixed, (g.orders, b.bits, alpha.image)
    assert autos_checked == 197


def test_theorem_lower_bounds():
    g8 = build_group([8])
    b8 = index2_subgroups(g8)[0]
    assert theorem_lower_bound("directed", g8, b8) < 0   # vacuous at |A|=8

    g1024 = build_group([2] * 10)
    b1024 = index2_subgroup(g1024, 0)
    v = theorem_lower_bound("directed", g1024, b1024)
    assert v > 0
    # conservative rounding: value is at most the float estimate
    float_est = 2.0 ** 512 - 3 * 2.0 ** (384 + math.log2(1024) ** 2)
    assert v <= float_est

    g6 = build_group([6])
    b6 = index2_subgroups(g6)[0]
    v = theorem_lower_bound("undirected", g6, b6)
    assert v == count_inverse_closed(g6, b6) - (1 << ceil_exponent(
        Fraction(11 * 6, 48) + Fraction(1, 2) + 2, 6, 1))


def test_threshold_scan_values():
    assert not _threshold_inequality_holds("directed", 100)
    directed = threshold_scan("directed")
    assert directed.paper_value == 744
    assert directed.computed_value == 744
    assert directed.largest_failing == 742

    undirected = threshold_scan("undirected")
    assert undirected.paper_value == 8214
    assert undirected.computed_value == 8214


def test_prelim_facts():
    g = build_group([2, 2, 2])
    reports = {r.name: r for r in prelim_facts_check(g)}
    assert reports["aut-order"].exact == 168
    assert reports["aut-order"].holds          # 168 <= 8^3
    assert reports["prime-order-count"].exact == 7
    assert reports["prime-index-count"].holds
    assert reports["z-minus-y"].holds

    g6 = build_group([6])
    reports = {r.name: r for r in prelim_facts_check(g6)}
    assert reports["prime-order-count"].exact == 2
    assert reports["prime-order-count"].holds

    g42 = build_group([4, 2])
    reports = {r.name: r for r in prelim_facts_check(g42)}
    assert reports["z-minus-y"].exact == 2     # |Z \ Y| in {0, 2} <= |A|/4
    assert reports["z-minus-y"].holds


def test_z_minus_y_row_reports_the_quarter_bound():
    for orders, worst in (([4, 2], 2), ([2, 2, 2, 2], 4)):
        g = build_group(orders)
        row = {r.name: r for r in prelim_facts_check(g)}["z-minus-y"].row()
        assert row["log2_bound"] == math.log2(g.size) - 2
        assert row["exact"] == worst and row["holds"] is True


def test_bound_exact_comparisons():
    b = Bound(1, 6, 0, Fraction(9, 4))        # 2^2.25
    assert b.admits(4)
    assert not b.admits(5)                    # 5^4 = 625 > 2^9 = 512
    b = Bound(3, 6, 1, Fraction(1, 2))        # 3 * 6 * sqrt(2) ~ 25.45
    assert b.admits(25)
    assert not b.admits(26)
    b = Bound(1, 6, 0, Fraction(0), 1)        # 2^(log2 6)^2 ~ 102.75
    assert b.admits(102)
    assert not b.admits(103)


def test_log2_interval_and_ceil():
    lo, hi = log2_dyadic_interval(6, 16)
    assert float(lo) <= math.log2(6) <= float(hi)
    assert hi - lo == Fraction(1, 1 << 16)
    lo, hi = log2_dyadic_interval(8, 10)
    assert lo == hi == 3
    assert ceil_exponent(Fraction(1, 2), 8, 1) == 10   # 0.5 + 9
    assert ceil_exponent(Fraction(0), 6, 1) == 7       # (log2 6)^2 = 6.68...
    assert logsq_below(6, Fraction(7))
    assert not logsq_below(6, Fraction(6))


# The three precision loops that ``bounds._settle`` replaced, kept verbatim
# as references; each raises ArithmeticError when undecided.


def _logsq_below_reference(n, t):
    if n & (n - 1) == 0:
        k = n.bit_length() - 1
        return Fraction(k * k) < t
    for prec in bounds._PRECISIONS:
        lo, hi = log2_dyadic_interval(n, prec)
        if hi * hi < t:
            return True
        if lo * lo >= t:
            return False
    raise ArithmeticError


def _ceil_exponent_reference(rational, n, logsq_coeff):
    if logsq_coeff == 0:
        return math.ceil(rational)
    if n & (n - 1) == 0:
        k = n.bit_length() - 1
        return math.ceil(rational + logsq_coeff * k * k)
    for prec in bounds._PRECISIONS:
        lo, hi = log2_dyadic_interval(n, prec)
        clo = math.ceil(rational + logsq_coeff * lo * lo)
        chi = math.ceil(rational + logsq_coeff * hi * hi)
        if clo == chi:
            return clo
    raise ArithmeticError


def _admits_reference(bound, count):
    if count <= 0:
        return True
    args = (count, bound.multiplier, bound.n, bound.n_exp)
    if bound.logsq_coeff == 0:
        return _int_leq_rational_pow(*args, bound.dyadic)
    if bound.n & (bound.n - 1) == 0:
        k = bound.n.bit_length() - 1
        return _int_leq_rational_pow(*args,
                                     bound.dyadic + bound.logsq_coeff * k * k)
    for prec in bounds._PRECISIONS:
        grain = min(prec, 16)
        scale = 1 << grain
        lo, hi = log2_dyadic_interval(bound.n, prec)
        qlo = Fraction(math.floor(
            (bound.dyadic + bound.logsq_coeff * lo * lo) * scale), scale)
        qhi = Fraction(math.ceil(
            (bound.dyadic + bound.logsq_coeff * hi * hi) * scale), scale)
        if _int_leq_rational_pow(*args, qlo):
            return True
        if not _int_leq_rational_pow(*args, qhi):
            return False
    raise ArithmeticError


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ArithmeticError:
        return "undecided"


def test_settle_matches_the_three_reference_loops(monkeypatch):
    monkeypatch.setattr(bounds, "_PRECISIONS", (8, 13, 16))
    seen = collections.Counter()
    for n in (1, 2, 3, 6, 8, 10, 12, 24, 64, 100, 744, 1024):
        logsq = math.log2(n) ** 2
        # thresholds and exponents at and around (log2 n)^2, some of them
        # closer to it than the finest interval can tell
        for t in {Fraction(math.floor(logsq * d) + e, d)
                  for d in (1, 7, 1 << 10, 1 << 30) for e in (-1, 0, 1)}:
            want = _outcome(_logsq_below_reference, n, t)
            assert _outcome(logsq_below, n, t) == want, (n, t)
            seen["logsq", want] += 1
        for coeff in (0, 1, 2):
            near = Fraction(round(coeff * logsq * 2 ** 30), 2 ** 30)
            for rational in {5 - near + Fraction(e, d)
                             for d in (1 << 4, 1 << 12, 1 << 40)
                             for e in (-1, 0, 1)}:
                want = _outcome(_ceil_exponent_reference, rational, n, coeff)
                assert _outcome(ceil_exponent, rational, n, coeff) == want
                seen["ceil", want == "undecided"] += 1
    for n in (2, 3, 6, 8):
        for coeff in (0, 1, 2):
            for dyadic in (Fraction(-3, 2), Fraction(11 * n, 48)):
                bound = Bound(3, n, 1, dyadic, coeff)
                edge = 2 ** bound.log2_float()
                for count in {0, 1, math.floor(edge) - 1, math.floor(edge),
                              math.ceil(edge), math.ceil(edge) + 1}:
                    want = _outcome(_admits_reference, bound, count)
                    assert _outcome(bound.admits, count) == want, \
                        (bound, count)
                    seen["admits", want] += 1
    # both answers and the undecided outcome all occur on the grid
    for kind in ("logsq", "admits"):
        assert all(seen[kind, want] for want in (True, False, "undecided"))
    assert seen["ceil", True] and seen["ceil", False]


def test_admissible_units_partition_the_complement(small_groups):
    for g in small_groups:
        for b in index2_subgroups(g):
            outside = b.complement_bits()
            for mode in ("directed", "undirected"):
                units = admissible_units(g, outside, mode)
                union = 0
                for unit in units:
                    assert not union & unit          # disjoint
                    union |= unit
                    if mode == "undirected":
                        assert g.negate_set(unit) == unit
                    else:
                        assert unit.bit_count() == 1
                assert union == outside
                least = [unit & -unit for unit in units]
                assert least == sorted(least)
                assert 1 << len(units) == admissible_set_count(g, b, mode)


def test_theorem_bound_below_exhaustive_drr_count():
    from bipcayley.cayley import build_cayley, connection_set
    from bipcayley.stabilizer import vertex_stabilizer
    from bipcayley.survey import iter_admissible_sets
    for orders in ([6], [2, 4], [10], [2, 6]):
        g = build_group(orders)
        for b in index2_subgroups(g):
            drr = sum(
                vertex_stabilizer(
                    build_cayley(g, connection_set(g, m))).cayley_index == 1
                for m in iter_admissible_sets(g, b, "directed"))
            assert theorem_lower_bound("directed", g, b) <= drr


def _alpha_worst_reference(group, sub):
    """The alpha rows as ``bounds_suite`` first built them: one
    ``lemma_bound`` report per B-stabilizing automorphism, the first of
    largest count kept per family."""
    iota = inversion_automorphism(group)
    undirected = group.exponent > 2 and not is_exceptional_pair(group, sub)
    families = {"alpha-invariant": [], "alpha-undirected": []}
    for alpha in stabilizing_automorphisms(group, sub):
        if alpha.is_identity:
            continue
        families["alpha-invariant"].append(
            lemma_bound("alpha-invariant", group, sub, alpha=alpha))
        if undirected and alpha.image != iota.image:
            families["alpha-undirected"].append(
                lemma_bound("alpha-undirected", group, sub, alpha=alpha))
    return [max(reps, key=lambda rep: rep.exact)
            for reps in families.values() if reps]


def test_bounds_suite_alpha_rows_match_per_automorphism_reports(small_groups):
    def key(rep):
        return rep.name, rep.exact, rep.bound, rep.holds

    for g in small_groups:
        for b in index2_subgroups(g):
            rows = [rep for rep in bounds_suite(g, b)
                    if rep.name.startswith("alpha")]
            assert [key(rep) for rep in rows] == [
                key(rep) for rep in _alpha_worst_reference(g, b)], g.orders
            assert all(rep.details == {"aggregated": "max over alpha"}
                       for rep in rows)


def test_bounds_suite_all_hold():
    for orders in ([6], [4, 2], [2, 2, 2], [3, 6]):
        g = build_group(orders)
        for b in index2_subgroups(g):
            for rep in bounds_suite(g, b):
                assert rep.holds is not False, (orders, rep.name)
