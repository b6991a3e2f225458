"""Connection-set classification for bipartite Cayley (di)graphs.

A connection set S inside A \\ B (B of index 2) is placed into the first
matching class:

  A1    <S> is a proper subgroup (the digraph is disconnected);
  A2    S is invariant under a forbidden group automorphism that also
        stabilizes B (directed: any non-identity; undirected: also != inversion);
  A3    S \\ K is a union of H-cosets for subgroups 1 < H <= K < A with
        H <= B, |H| and |A:K| prime (skipped for 2-groups in the undirected
        classification);
  A4    undirected only: S = S' x S'' along a direct decomposition
        A = C x Z with C cyclic of order >= 4, Z elementary abelian of
        exponent 2, and S' one of {}, {identity}, C, C minus identity;
  GOOD  none of the above; such sets are certified to give a digraph whose
        automorphism group is as small as possible (a DRR in the directed
        case, index 2 -- or 1 at exponent 2 -- in the undirected case).

Every verdict carries a machine-checkable witness that re-verifies
independently of the search that produced it.  <S> is proper iff S lies
in a maximal subgroup, one of prime index in an abelian group, so A1 is
one subset test per prime-index subgroup; the span of S is built only for
an A1 set, as its witness.  The A2 witness is the first automorphism, in
``enumerate_automorphisms`` order, fixing B and S; S, -S and their rests
in A \\ B share it.  Once per group, ``group_candidates`` builds the
prime-order and prime-index subgroups and the (C, Z) pairs the A4 search
and ``bounds.count_product_triples`` read; a per-(A, B) ``ClassifyContext``
keeps the (H, K) pairs with H inside B and one A2 decision per such class
of S.  These, and the A1 spans, live in 64-entry ``lru_cache``s.
``_product_set`` is the one place the A4 product S' x S'' is built: the A4
search, its witness check and ``bounds.count_product_triples`` use it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .autos import (
    Automorphism,
    enumerate_automorphisms,
    inversion_automorphism,
    is_exceptional_pair,
    prime_index_subgroups,
    prime_order_subgroups,
)
from .errors import (
    ExceptionalPair,
    NotInverseClosed,
    SetNotAvoidingB,
)
from .groups import (
    AbelianGroup,
    Subgroup,
    _closure,
    _greedy_generators,
    _prime_factorization,
    all_subgroups,
    bits_of,
    check_index2,
    coset_decompose,
    generated_subgroup,
    involution_subgroup,
)

VERDICT_A1 = "A1"
VERDICT_A2 = "A2"
VERDICT_A3 = "A3"
VERDICT_A4 = "A4"
VERDICT_GOOD = "GOOD"

@dataclass(frozen=True)
class A4Witness:
    cyclic: Subgroup
    complement: Subgroup
    s_prime: int   # bitset over the cyclic part
    s_dprime: int  # bitset over the complement part


@dataclass(frozen=True)
class Classification:
    verdict: str
    witness: object | None

    def witness_json(self, group: AbelianGroup) -> object:
        w = self.witness
        if w is None:
            return None
        if isinstance(w, Subgroup):
            return {"subgroup_generators":
                    [list(group.decode(g)) for g in w.generators]}
        if isinstance(w, Automorphism):
            return {"automorphism_generator_images":
                    [list(group.decode(w(g))) for g in group.generators()]}
        if isinstance(w, tuple):  # (H, K)
            h, k = w
            return {"H_generators": [list(group.decode(g)) for g in h.generators],
                    "K_generators": [list(group.decode(g)) for g in k.generators]}
        if isinstance(w, A4Witness):
            return {"C_generators":
                    [list(group.decode(g)) for g in w.cyclic.generators],
                    "Z_generators":
                    [list(group.decode(g)) for g in w.complement.generators],
                    "S_prime": [list(group.decode(a)) for a in bits_of(w.s_prime)],
                    "S_dprime": [list(group.decode(a)) for a in bits_of(w.s_dprime)]}
        return repr(w)


# -- per-group candidates and per-(A, B) contexts ------------------------------


@functools.lru_cache(maxsize=64)
def group_candidates(group: AbelianGroup) -> tuple:
    """(prime-order subgroups, prime-index subgroups, (C, Z) decompositions)
    of A: what the A3 and A4 tests need of A alone, built once per group."""
    return (prime_order_subgroups(group), prime_index_subgroups(group),
            _direct_decompositions(group))


@functools.lru_cache(maxsize=64)
def _span_subgroup(group: AbelianGroup, span: int) -> Subgroup:
    return Subgroup(group, span, span.bit_count(),
                    _greedy_generators(group, span))


class ClassifyContext:
    """One (A, B) pair's (H, K) pairs and A2 decisions, kept across sets."""

    def __init__(self, group: AbelianGroup, sub: Subgroup):
        check_index2(sub)
        self.group = group
        self.sub = sub
        self.iota_image = inversion_automorphism(group).image
        self.outside = sub.complement_bits()
        self.exceptional = is_exceptional_pair(group, sub)
        self.is_two_group = group.size & (group.size - 1) == 0
        # the maximal subgroups, and the (H, K) pairs: H of prime order
        # inside B, K maximal (of prime index)
        smalls, self.maximal, _ = group_candidates(group)
        self.hk_pairs = tuple((h, k) for h in smalls if not h.bits & ~sub.bits
                              for k in self.maximal if not h.bits & ~k.bits)
        self.a2: tuple[dict[int, Automorphism | None], ...] = ({}, {})

    def a2_witness(self, s_bits: int, undirected: bool) -> Automorphism | None:
        """The first non-identity automorphism (undirected: nor inversion)
        fixing B and S, or None; kept under the least of S, -S, (A \\ B) \\ S
        and its negation, since one fixing B fixes all four or none."""
        neg, kept = self.group.negate_set(s_bits), self.a2[undirected]
        key = min(s_bits, neg, self.outside ^ s_bits, self.outside ^ neg)
        if key not in kept:
            kept[key] = next((alpha for alpha in enumerate_automorphisms(
                self.group, (self.sub.bits, s_bits)) if not alpha.is_identity
                and not (undirected and alpha.image == self.iota_image)), None)
        return kept[key]


def classify_context(group: AbelianGroup, sub: Subgroup) -> ClassifyContext:
    kept = _context_slot(group.orders, sub.bits)  # a key hashed in C
    if not kept:
        kept.append(ClassifyContext(group, sub))
    return kept[0]


@functools.lru_cache(maxsize=64)
def _context_slot(orders: tuple[int, ...], bits: int) -> list:
    return []


def _direct_decompositions(group: AbelianGroup) -> list[tuple[Subgroup, Subgroup]]:
    """All pairs (C, Z): C cyclic of order >= 4, Z elementary abelian
    2-subgroup, A = C x Z (internally); none below exponent 4."""
    if group.exponent < 4:
        return []
    inv = involution_subgroup(group)
    elementary = all_subgroups(group, inv)
    out = []
    seen_cyclic: set[int] = set()
    for a in group.elements():
        if group.element_order(a) < 4:
            continue
        cyc = generated_subgroup(group, [a])
        if cyc.bits in seen_cyclic:
            continue
        seen_cyclic.add(cyc.bits)
        needed = group.size // cyc.order
        for comp in elementary:
            if comp.order == needed and (cyc.bits & comp.bits) == 1:
                out.append((cyc, comp))
    return out


# -- classification -----------------------------------------------------------


def _validate(group: AbelianGroup, sub: Subgroup, s_bits: int) -> None:
    check_index2(sub)
    if s_bits >> group.size:
        raise SetNotAvoidingB("connection set outside the group")
    if s_bits & sub.bits:
        raise SetNotAvoidingB("connection set meets the index-2 subgroup")


def _a3_witness(ctx: ClassifyContext,
                s_bits: int) -> tuple[Subgroup, Subgroup] | None:
    for small, big in ctx.hk_pairs:
        outside = s_bits & ~big.bits
        if coset_decompose(ctx.group, small, outside):
            return (small, big)
    return None


def a4_witness_search(group: AbelianGroup, s_bits: int) -> A4Witness | None:
    """Search for (C, Z, S', S'') with A = C x Z and S = S' x S''."""
    for cyc, comp in group_candidates(group)[2]:
        witness = _match_product(group, cyc, comp, s_bits)
        if witness is not None:
            return witness
    return None


def _match_product(group: AbelianGroup, cyc: Subgroup, comp: Subgroup,
                   s_bits: int) -> A4Witness | None:
    if s_bits == 0:
        return A4Witness(cyc, comp, 0, 0)
    candidates = [cyc.bits, 1, cyc.bits ^ 1]  # C, {identity}, C minus identity
    for s_prime in candidates:
        members = list(bits_of(s_prime))
        s_dprime = 0
        for z in bits_of(comp.bits):
            if all((s_bits >> group.add(c, z)) & 1 for c in members):
                s_dprime |= 1 << z
        if _product_set(group, s_prime, s_dprime) == s_bits:
            return A4Witness(cyc, comp, s_prime, s_dprime)
    return None


def _product_set(group: AbelianGroup, s_prime: int, s_dprime: int) -> int:
    """S' + S'' = {c + z : c in S', z in S''} as a bitset."""
    built = 0
    for c in bits_of(s_prime):
        built |= group.translate_set(s_dprime, c)
    return built


def classify_directed(group: AbelianGroup, sub: Subgroup,
                      s_bits: int) -> Classification:
    """First matching class among A1 < A2 < A3, else GOOD (a certified DRR)."""
    return _classify(group, sub, s_bits, undirected=False)


def classify_undirected(group: AbelianGroup, sub: Subgroup,
                        s_bits: int) -> Classification:
    """First matching class among A1 < A2 < A3 < A4, else GOOD (certified
    index 2, or 1 at exponent 2).  Exceptional pairs are refused."""
    return _classify(group, sub, s_bits, undirected=True)


def _classify(group: AbelianGroup, sub: Subgroup, s_bits: int,
              undirected: bool) -> Classification:
    _validate(group, sub, s_bits)
    if undirected and group.negate_set(s_bits) != s_bits:
        raise NotInverseClosed("undirected classification requires S = -S")
    ctx = classify_context(group, sub)
    if undirected and ctx.exceptional:
        raise ExceptionalPair(
            "no inverse-closed set over this pair reaches the minimal index")
    # A1: S lies in a maximal (prime-index) subgroup; the span is the witness
    if any(not s_bits & ~m.bits for m in ctx.maximal):
        return Classification(VERDICT_A1, _span_subgroup(
            group, _closure(group, bits_of(s_bits))))
    alpha = ctx.a2_witness(s_bits, undirected)
    if alpha is not None:
        return Classification(VERDICT_A2, alpha)
    if not (undirected and ctx.is_two_group):
        hk = _a3_witness(ctx, s_bits)
        if hk is not None:
            return Classification(VERDICT_A3, hk)
    if undirected:
        w = a4_witness_search(group, s_bits)
        if w is not None:
            return Classification(VERDICT_A4, w)
    return Classification(VERDICT_GOOD, None)


# -- witness re-verification ----------------------------------------------------


def verify_witness(group: AbelianGroup, sub: Subgroup, s_bits: int,
                   result: Classification, mode: str) -> bool:
    """Independent re-verification of a classification witness."""
    if result.verdict == VERDICT_A1:
        c = result.witness
        return (isinstance(c, Subgroup) and c.order < group.size
                and (s_bits & ~c.bits) == 0)
    if result.verdict == VERDICT_A2:
        alpha = result.witness
        if not isinstance(alpha, Automorphism) or alpha.is_identity:
            return False
        if mode == "undirected" \
                and alpha.image == inversion_automorphism(group).image:
            return False
        return alpha.stabilizes(sub) and alpha.fixes_set(s_bits)
    if result.verdict == VERDICT_A3:
        small, big = result.witness
        index = group.size // big.order
        prime_ok = (_prime_factorization(small.order) == {small.order: 1}
                    and _prime_factorization(index) == {index: 1})
        return (1 < small.order and big.order < group.size
                and (small.bits & ~big.bits) == 0
                and (small.bits & ~sub.bits) == 0
                and prime_ok
                and coset_decompose(group, small, s_bits & ~big.bits))
    if result.verdict == VERDICT_A4:
        w = result.witness
        if not isinstance(w, A4Witness):
            return False
        if w.cyclic.order < 4 or len(w.cyclic.invariant_factors()) != 1:
            return False
        if any(group.element_order(z) > 2 for z in bits_of(w.complement.bits)):
            return False
        if (w.cyclic.bits & w.complement.bits) != 1 \
                or w.cyclic.order * w.complement.order != group.size:
            return False
        if w.s_prime not in (0, 1, w.cyclic.bits, w.cyclic.bits ^ 1):
            return False
        return _product_set(group, w.s_prime, w.s_dprime) == s_bits
    return result.verdict == VERDICT_GOOD and result.witness is None

