import io
import json

import pytest

import bipcayley.classify as classify
from bipcayley.autos import (
    index2_subgroups,
    inversion_automorphism,
    is_exceptional_pair,
    prime_index_subgroups,
)
from bipcayley.classify import (
    VERDICT_A1,
    VERDICT_A2,
    VERDICT_A3,
    VERDICT_A4,
    VERDICT_GOOD,
    a4_witness_search,
    classify_directed,
    classify_undirected,
    verify_witness,
)
from bipcayley.cli import main
from bipcayley.errors import (
    ExceptionalPair,
    NotInverseClosed,
    SetNotAvoidingB,
)
from bipcayley.groups import (
    _closure,
    all_subgroups,
    bits_of,
    build_group,
    factor_multisets,
    generated_subgroup,
    involution_subgroup,
)
from bipcayley.stabilizer import cayley_index
from bipcayley.survey import iter_admissible_sets


@pytest.fixture
def c6():
    g = build_group([6])
    return g, generated_subgroup(g, [2])


def test_empty_set_is_a1(c6):
    g, b = c6
    res = classify_directed(g, b, 0)
    assert res.verdict == VERDICT_A1
    assert res.witness.order == 1
    assert verify_witness(g, b, 0, res, "directed")


def test_full_outside_is_a2_directed(c6):
    g, b = c6
    s = (1 << 1) | (1 << 3) | (1 << 5)
    res = classify_directed(g, b, s)
    assert res.verdict == VERDICT_A2
    # the witness is inversion: it fixes S = -S and stabilizes B
    assert res.witness.image == inversion_automorphism(g).image
    assert verify_witness(g, b, s, res, "directed")


def test_singleton_is_good_and_drr(c6):
    g, b = c6
    res = classify_directed(g, b, 1 << 1)
    assert res.verdict == VERDICT_GOOD
    assert cayley_index(g, 1 << 1) == 1


def test_full_outside_is_a3_undirected(c6):
    g, b = c6
    s = (1 << 1) | (1 << 3) | (1 << 5)
    res = classify_undirected(g, b, s)
    assert res.verdict == VERDICT_A3
    small, big = res.witness
    assert small.order == 3 and big.order == 3
    assert verify_witness(g, b, s, res, "undirected")
    assert cayley_index(g, s) == 12  # not the minimal value 2


def test_set_not_avoiding_b(c6):
    g, b = c6
    with pytest.raises(SetNotAvoidingB):
        classify_directed(g, b, 1 << 2)


def test_not_inverse_closed(c6):
    g, b = c6
    with pytest.raises(NotInverseClosed):
        classify_undirected(g, b, 1 << 1)


def test_exceptional_pair_refused():
    g = build_group([4, 2])
    a2 = involution_subgroup(g)
    with pytest.raises(ExceptionalPair):
        classify_undirected(g, a2, 0)


def test_undirected_classification_cross_checked():
    g = build_group([4, 2])
    b = generated_subgroup(g, [g.encode((1, 0))])
    s = (1 << g.encode((0, 1))) | (1 << g.encode((2, 1)))
    res = classify_undirected(g, b, s)
    assert verify_witness(g, b, s, res, "undirected")
    idx = cayley_index(g, s)
    if res.verdict == VERDICT_GOOD:
        assert idx == 2


def test_a4_witness_c6_none(c6):
    g, _ = c6
    for s in (0, (1 << 1) | (1 << 5), (1 << 1) | (1 << 3) | (1 << 5)):
        if s == 0:
            # the trivial complement decomposition C6 x 1 admits S = {}
            w = a4_witness_search(g, s)
            assert w is not None and w.s_prime == 0
        else:
            assert a4_witness_search(g, s) is None


def test_a4_witness_product_set():
    g = build_group([4, 2])
    s = 0
    for c in range(4):
        s |= 1 << g.encode((c, 1))
    w = a4_witness_search(g, s)
    assert w is not None
    assert w.cyclic.order == 4
    assert w.complement.order == 2
    assert w.s_prime == w.cyclic.bits
    assert w.s_dprime == 1 << g.encode((0, 1))


def test_a4_witness_verifies():
    g = build_group([4, 2])
    b = generated_subgroup(g, [g.encode((1, 0))])
    s = 0
    for c in range(4):
        s |= 1 << g.encode((c, 1))
    res = classify_undirected(g, b, s)
    assert res.verdict in (VERDICT_A2, VERDICT_A3, VERDICT_A4)
    assert verify_witness(g, b, s, res, "undirected")


def test_a1_iff_disconnected(c6):
    g, b = c6
    from bipcayley.cayley import build_cayley, connection_set, is_connected
    for s in iter_admissible_sets(g, b, "directed"):
        res = classify_directed(g, b, s)
        disconnected = not is_connected(build_cayley(g, connection_set(g, s)))
        assert (res.verdict == VERDICT_A1) == disconnected


def test_classification_deterministic(c6):
    g, b = c6
    for s in iter_admissible_sets(g, b, "directed"):
        first = classify_directed(g, b, s)
        second = classify_directed(g, b, s)
        assert first.verdict == second.verdict
        assert type(first.witness) is type(second.witness)


def test_mini_soundness_sweep_directed():
    """GOOD implies DRR on a small sweep (the full one is acceptance)."""
    for orders in ([6], [4, 2], [2, 2, 2]):
        g = build_group(orders)
        from bipcayley.autos import index2_subgroups
        for b in index2_subgroups(g):
            for s in iter_admissible_sets(g, b, "directed"):
                res = classify_directed(g, b, s)
                assert verify_witness(g, b, s, res, "directed")
                if res.verdict == VERDICT_GOOD:
                    assert cayley_index(g, s) == 1


def test_classification_report_shape():
    out = io.StringIO()
    assert main(["classify", "--group", "C6", "--subgroup", "index:0",
                 "--set", "1", "--mode", "directed", "--cross-check"],
                out=out) == 0
    rep = json.loads(out.getvalue())["result"]
    assert rep["verdict"] == VERDICT_GOOD
    assert rep["witness"] is None
    assert rep["witness_verified"]
    assert rep["cross_check"] == {"cayley_index": 1, "consistent": True}


def test_direct_decompositions_match_brute_force():
    """Every A = C x Z with C cyclic of order >= 4 and Z of exponent <= 2,
    found by testing every pair of subgroups; none below exponent 4."""
    for n in range(2, 17):
        for orders in factor_multisets(n):
            g = build_group(orders)
            subs = all_subgroups(g)
            cyclic = [c for c in subs if c.order >= 4
                      and len(c.invariant_factors()) == 1]
            elementary = [z for z in subs
                          if all(f == 2 for f in z.invariant_factors())]
            want = {(c.bits, z.bits) for c in cyclic for z in elementary
                    if c.bits & z.bits == 1 and c.order * z.order == n}
            got = [(c.bits, z.bits)
                   for c, z in classify._direct_decompositions(g)]
            assert len(got) == len(set(got)) and set(got) == want, orders
            if g.exponent < 4:
                assert got == []


@pytest.mark.parametrize("orders, index", [([2, 2, 2, 2], 0), ([2, 2, 4], 1),
                                           ([2, 6], 0), ([4, 2], 1)])
def test_cached_candidates_do_not_change_verdicts(orders, index):
    """Classifying from cold caches, and after the caches were filled by the
    other index-2 subgroups of the same group, gives the same verdicts and
    witnesses on every admissible set (C4xC2 adds A4 verdicts)."""
    g = build_group(orders)
    b = index2_subgroups(g)[index]
    modes = [("directed", classify_directed)]
    if not is_exceptional_pair(g, b):
        modes.append(("undirected", classify_undirected))

    def classify_all():
        out = []
        for mode, fn in modes:
            for s in iter_admissible_sets(g, b, mode):
                res = fn(g, b, s)
                out.append((res.verdict, res.witness_json(g)))
        return out

    classify._context_slot.cache_clear()
    classify.group_candidates.cache_clear()
    cold = classify_all()
    classify._context_slot.cache_clear()
    classify.group_candidates.cache_clear()
    for other in index2_subgroups(g):
        if other.bits != b.bits:
            for s in iter_admissible_sets(g, other, "directed"):
                classify_directed(g, other, s)
    assert classify_all() == cold


def test_a1_iff_inside_a_prime_index_subgroup(small_groups):
    """<S> is proper iff S lies in a maximal subgroup, and the maximal
    subgroups of a finite abelian group are those of prime index."""
    for g in small_groups:
        maximal = prime_index_subgroups(g)
        full = (1 << g.size) - 1
        for b in index2_subgroups(g):
            for s in iter_admissible_sets(g, b, "directed"):
                inside = any(not s & ~m.bits for m in maximal)
                assert inside == (_closure(g, bits_of(s)) != full), \
                    (g.orders, b.bits, s)


def _criterion_4_triples():
    """The (A, B, S, mode) of criterion 4's sweep, in its order: directed
    on |A| <= 12, undirected on |A| <= 16, exceptional pairs left out."""
    from bipcayley.groups import abelian_isomorphism_classes
    for n in range(2, 17, 2):
        for invfac in abelian_isomorphism_classes(n):
            g = build_group(list(invfac))
            for b in index2_subgroups(g):
                if is_exceptional_pair(g, b):
                    continue
                for mode in ("directed",) * (n <= 12) + ("undirected",):
                    for s in iter_admissible_sets(g, b, mode):
                        yield g, b, s, mode


def _fresh_a2(g, b, s, undirected):
    """The A2 decision by its own backtrack, with no cache."""
    from bipcayley.autos import enumerate_automorphisms
    iota = inversion_automorphism(g).image
    return next((alpha.image for alpha in enumerate_automorphisms(
        g, (b.bits, s)) if not alpha.is_identity
        and not (undirected and alpha.image == iota)), None)


def test_a2_decision_is_shared_by_s_its_negation_and_complements():
    """S, -S, (A \\ B) \\ S and its negation have the same set stabilizer
    in Stab_Aut(A)(B), so each one's own backtrack finds the same A2
    witness or none, and the classifier's kept decision is that one: on
    criterion 4's sweep and on seeded directed sets of C2xC30, C4xC2^3 and
    C2^2xC6.  A1 witnesses keep the generators ``_greedy_generators``
    gives their span, when built and when read back."""
    import random
    from bipcayley.groups import _greedy_generators
    rng = random.Random(35)
    cases = list(_criterion_4_triples())
    for orders in ([2, 30], [4, 2, 2, 2], [2, 2, 6]):
        g = build_group(orders)
        for b in index2_subgroups(g):
            outside = b.complement_bits()
            cases += [(g, b, rng.getrandbits(g.size) & outside, "directed")
                      for _ in range(20)]
    classify._context_slot.cache_clear()
    classify._span_subgroup.cache_clear()
    shared = 0
    for g, b, s, mode in cases:
        undirected = mode == "undirected"
        neg = g.negate_set(s)
        outside = b.complement_bits()
        members = [s, neg, outside ^ s, outside ^ neg]
        want = _fresh_a2(g, b, s, undirected)
        ctx = classify.classify_context(g, b)
        for x in members:
            assert _fresh_a2(g, b, x, undirected) == want, (g.orders, s, x)
            got = ctx.a2_witness(x, undirected)
            assert (got and got.image) == want, (g.orders, s, x)
        shared += want is not None
        for _ in range(2):
            res = (classify_undirected if undirected
                   else classify_directed)(g, b, s)
            if res.verdict == VERDICT_A1:
                span = res.witness.bits
                assert res.witness.generators == _greedy_generators(g, span)
    assert len(cases) == 5026 + 20 * (3 + 15 + 7) and shared > 2000


def test_classify_runs_one_a2_backtrack_per_class(monkeypatch):
    """Work guard: criterion 4's sweep starts one A2 backtrack per
    {S, -S, (A \\ B) \\ S, its negation} class and mode that reaches A2,
    2,268 of them (2,915 with one per set reaching A2)."""
    from bipcayley.autos import enumerate_automorphisms
    classify._context_slot.cache_clear()
    calls = []

    def counted(group, fixing=()):
        calls.append(fixing)
        return enumerate_automorphisms(group, fixing)

    monkeypatch.setattr(classify, "enumerate_automorphisms", counted)
    for g, b, s, mode in _criterion_4_triples():
        (classify_undirected if mode == "undirected"
         else classify_directed)(g, b, s)
    assert len(calls) == 2268
