"""Counting formulas, lemma upper bounds, theorem lower bounds, and the
corollary-proof thresholds, with exact arithmetic throughout.

Bounds have the shape  m * n^k * 2^(q + c*(log2 n)^2)  with q a rational
(usually dyadic) exponent.  Comparisons against integer counts clear the
rational exponent by raising both sides to its denominator (big-int exact),
and handle the (log2 n)^2 term with certified dyadic intervals refined until
the comparison is decided -- these thresholds are razor thin, and floating
point would silently lie.

The exact counts use the constructions where they live: alpha-invariant sets
are unions of ``_search._orbit`` orbits on A \\ B, and product sets S' + S''
are built by ``classify._product_set``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from ._search import _orbit
from .autos import (
    Automorphism,
    count_automorphisms,
    index2_subgroups,
    inversion_automorphism,
    is_exceptional_pair,
    prime_index_subgroups,
    prime_order_subgroups,
    stabilizing_automorphisms,
)
from .classify import _product_set, classify_context, group_candidates
from .errors import HypothesisViolated
from .groups import (
    AbelianGroup,
    Subgroup,
    all_subgroups,
    bits_of,
    check_index2,
    coset_decompose,
    involution_subgroup,
    popcount,
)

EXACT_SUBSET_CAP = 20    # enumerate subsets exactly when |A| <= this
_PRECISIONS = (8, 13, 16, 20, 24, 28, 32, 40)


# -- certified log2 arithmetic ---------------------------------------------------


def log2_dyadic_interval(n: int, frac_bits: int) -> tuple[Fraction, Fraction]:
    """Dyadic interval [lo, hi] containing log2(n), of width 2^-frac_bits.

    Exact: 2^e <= n^(2^k) < 2^(e+1) pins log2(n) into [e/2^k, (e+1)/2^k].
    """
    if n < 1:
        raise ValueError("log2 needs n >= 1")
    if n & (n - 1) == 0:
        exact = Fraction(n.bit_length() - 1)
        return exact, exact
    power = n ** (1 << frac_bits)
    e = power.bit_length() - 1
    return (Fraction(e, 1 << frac_bits), Fraction(e + 1, 1 << frac_bits))


def _settle(n: int, decide):
    """The answer of ``decide(x, outward)`` for x = log2 n, found exactly.

    A dyadic interval around log2 n narrows until ``decide`` agrees at both
    ends; ``outward`` rounds a rational down at the lower end and up at the
    upper end, to a grain of 2^-min(prec, 16), so the big-int comparisons
    ``decide`` makes stay small.  ``decide`` must be monotone in x.
    """
    for prec in _PRECISIONS:
        grain = 1 << min(prec, 16)
        lo, hi = log2_dyadic_interval(n, prec)
        low = decide(lo, lambda q: Fraction(math.floor(q * grain), grain))
        high = decide(hi, lambda q: Fraction(math.ceil(q * grain), grain))
        if low == high:
            return low
    raise ArithmeticError(f"a comparison with log2 {n} is undecided at "
                          f"max precision")


def logsq_below(n: int, t: Fraction) -> bool:
    """Decide (log2 n)^2 < t exactly."""
    return _settle(n, lambda x, _: x * x < t)


def ceil_exponent(rational: Fraction, n: int, logsq_coeff: int) -> int:
    """Exact ceil(rational + logsq_coeff * (log2 n)^2)."""
    return _settle(n, lambda x, _: math.ceil(rational + logsq_coeff * x * x))


def _int_leq_rational_pow(count: int, multiplier: int, n: int, n_exp: int,
                          q: Fraction) -> bool:
    """count <= multiplier * n^n_exp * 2^q, decided with big ints.

    Both sides are raised to the denominator of q, so callers must keep that
    denominator modest (quantizing interval endpoints outward as needed).
    """
    if count <= 0:
        return True
    b = q.denominator
    a = q.numerator
    lhs = count ** b
    rhs = (multiplier ** b) * (n ** (n_exp * b))
    if a >= 0:
        rhs <<= a
    else:
        lhs <<= -a
    return lhs <= rhs


@dataclass(frozen=True)
class Bound:
    """multiplier * n^n_exp * 2^(dyadic + logsq_coeff*(log2 n)^2)."""

    multiplier: int
    n: int
    n_exp: int
    dyadic: Fraction
    logsq_coeff: int = 0

    def log2_float(self) -> float:
        ell = math.log2(self.n)
        return (math.log2(self.multiplier) + self.n_exp * ell
                + float(self.dyadic) + self.logsq_coeff * ell * ell)

    def admits(self, count: int) -> bool:
        """count <= bound value, decided exactly: outright when log2 n is
        not needed or is an integer (the exponent may then have a factor 3 in
        its denominator, as 11n/48 does, which no dyadic grain represents)."""
        if self.logsq_coeff == 0 or self.n & (self.n - 1) == 0:
            k = self.n.bit_length() - 1
            return _int_leq_rational_pow(
                count, self.multiplier, self.n, self.n_exp,
                self.dyadic + self.logsq_coeff * k * k)
        return _settle(self.n, lambda x, outward: _int_leq_rational_pow(
            count, self.multiplier, self.n, self.n_exp,
            outward(self.dyadic + self.logsq_coeff * x * x)))


@dataclass(frozen=True)
class BoundReport:
    name: str
    exact: int | None
    bound: Bound
    holds: bool | None
    details: dict = field(default_factory=dict)

    def row(self) -> dict:
        return {
            "name": self.name,
            "exact": self.exact,
            "log2_bound": round(self.bound.log2_float(), 6),
            "holds": self.holds,
            **self.details,
        }


# -- the exact inverse-closed count ---------------------------------------------


def count_inverse_closed(group: AbelianGroup, sub: Subgroup) -> int:
    """Number of inverse-closed subsets of ``A \\ B``: 2^(|A|/4 + |A2\\B|/2).

    Involutions outside B are free bits; the remaining elements of A \\ B come
    in {a, -a} pairs, one free bit each -- so the exponent is an integer.
    """
    check_index2(sub)
    a2 = involution_subgroup(group)
    a2_outside = popcount(a2.bits & ~sub.bits)
    paired = group.size // 2 - a2_outside
    if paired % 2:
        raise AssertionError("non-involutions outside B must pair up")
    return 1 << (a2_outside + paired // 2)


def admissible_set_count(group: AbelianGroup, sub: Subgroup, mode: str) -> int:
    """Number of admissible connection sets: all subsets of A \\ B when
    directed, the inverse-closed ones when undirected."""
    check_index2(sub)
    if mode == "directed":
        return 1 << (group.size // 2)
    return count_inverse_closed(group, sub)


def inverse_closed_count_report(group: AbelianGroup, sub: Subgroup) -> dict:
    a2 = involution_subgroup(group)
    a2_outside = popcount(a2.bits & ~sub.bits)
    return {
        "count": count_inverse_closed(group, sub),
        "a2_contained_in_b": a2_outside == 0,
        "exponent": Fraction(group.size, 4) + Fraction(a2_outside, 2),
        "case": ("2^(|A|/4)" if a2_outside == 0 else "2^(|A|/4 + |A2|/4)"),
    }


def brute_count_inverse_closed(group: AbelianGroup, sub: Subgroup) -> int:
    """Independent oracle: enumerate subsets of A \\ B and test S = -S."""
    outside = [a for a in group.elements() if not sub.contains(a)]
    count = 0
    for mask in range(1 << len(outside)):
        bits = 0
        for i, a in enumerate(outside):
            if (mask >> i) & 1:
                bits |= 1 << a
        if group.negate_set(bits) == bits:
            count += 1
    return count


# -- admissible-set enumeration helpers -------------------------------------------


def unit_union(units: list[int], choice: int) -> int:
    """Union of the units (bitsets) picked by the set bits of ``choice``."""
    bits = 0
    while choice:
        low = choice & -choice
        bits |= units[low.bit_length() - 1]
        choice ^= low
    return bits


def iter_unit_subsets(units: list[int]):
    """Every union of the given disjoint units, in the order of the choice
    mask (unit i is bit i)."""
    for choice in range(1 << len(units)):
        yield unit_union(units, choice)


def admissible_units(group: AbelianGroup, allowed_bits: int,
                     mode: str) -> list[int]:
    """The free choices of a connection set inside ``allowed_bits``, in
    order of their least element: one unit per element (directed), or per
    involution and {a, -a} pair of the inverse-closed ``allowed_bits``
    (undirected).  Every admissible set is a union of units."""
    if mode not in ("directed", "undirected"):
        raise ValueError(f"unknown mode {mode!r}")
    undirected = mode == "undirected"
    units = {(1 << a) | (1 << (group.neg(a) if undirected else a))
             for a in bits_of(allowed_bits)}
    return sorted(units, key=lambda unit: unit & -unit)


# -- lemma bounds -----------------------------------------------------------------


def _orbit_count(images: list[tuple[int, ...]], domain_bits: int) -> int:
    """Orbits of the group generated by the given permutations on a subset
    they leave invariant, peeled off it one ``_orbit`` at a time."""
    count = 0
    while domain_bits:
        low = (domain_bits & -domain_bits).bit_length() - 1
        domain_bits &= ~_orbit(images, low)
        count += 1
    return count


def _proper_span_count(group: AbelianGroup, sub: Subgroup, mode: str) -> int:
    """Exact |{S admissible in ``mode`` : <S> < A}|, as the union of the
    admissible sets inside each maximal subgroup."""
    return len({bits for big in group_candidates(group)[1]
                for bits in iter_unit_subsets(admissible_units(
                    group, big.bits & ~sub.bits, mode))})


def lemma_bound(name: str, group: AbelianGroup, sub: Subgroup,
                alpha: Automorphism | None = None,
                small: Subgroup | None = None,
                big: Subgroup | None = None) -> BoundReport:
    """One named lemma bound with its exact count (when within the cap).

    Names: A1-directed, A1-undirected, alpha-invariant, alpha-undirected,
    HK-cosets, HK-undirected, triples.
    """
    check_index2(sub)
    n = group.size
    a2_outside = popcount(involution_subgroup(group).bits & ~sub.bits)
    within_cap = n <= EXACT_SUBSET_CAP
    outside_bits = sub.complement_bits()

    if name == "A1-directed":
        bound = Bound(1, n, 1, Fraction(n, 4))
        exact = (_proper_span_count(group, sub, "directed")
                 if within_cap else None)

    elif name == "A1-undirected":
        bound = Bound(1, n, 1, Fraction(n, 8) + Fraction(a2_outside, 2))
        exact = (_proper_span_count(group, sub, "undirected")
                 if within_cap else None)

    elif name == "alpha-invariant":
        if alpha is None or alpha.is_identity or not alpha.stabilizes(sub):
            raise HypothesisViolated(
                "alpha must be a non-identity automorphism stabilizing B")
        bound = Bound(1, n, 0, Fraction(3 * n, 8))
        exact = 1 << _orbit_count([alpha.image], outside_bits)

    elif name == "alpha-undirected":
        iota = inversion_automorphism(group)
        if alpha is None or alpha.is_identity or alpha.image == iota.image \
                or not alpha.stabilizes(sub):
            raise HypothesisViolated(
                "alpha must stabilize B and differ from 1 and inversion")
        if group.exponent <= 2:
            raise HypothesisViolated("requires exponent greater than 2")
        if is_exceptional_pair(group, sub):
            raise HypothesisViolated("pair (A, B) is exceptional")
        bound = Bound(1, n, 0, Fraction(11 * n, 48) + Fraction(a2_outside, 2))
        exact = 1 << _orbit_count([alpha.image, iota.image], outside_bits)

    elif name == "HK-cosets":
        _check_hk(group, sub, small, big)
        bound = Bound(1, n, 0, Fraction(3 * n, 8))
        free = popcount(big.bits & ~sub.bits)
        coset_area = n // 2 - free
        if coset_area % small.order:
            raise AssertionError("A \\ (K u B) must be a union of H-cosets")
        exact = 1 << (free + coset_area // small.order)

    elif name == "HK-undirected":
        _check_hk(group, sub, small, big)
        if n & (n - 1) == 0:
            raise HypothesisViolated("requires |A| not a power of 2")
        bound = Bound(1, n, 0, Fraction(11 * n, 48) + Fraction(a2_outside, 2))
        exact = None
        if within_cap:
            exact = 0
            for bits in iter_unit_subsets(admissible_units(
                    group, outside_bits, "undirected")):
                if coset_decompose(group, small, bits & ~big.bits):
                    exact += 1

    elif name == "triples":
        bound = Bound(1, n, 2, Fraction(n, 8) - 1)
        exact = count_product_triples(group, sub)

    else:
        raise ValueError(f"unknown lemma bound {name!r}")

    holds = bound.admits(exact) if exact is not None else None
    return BoundReport(name, exact, bound, holds)


def _check_hk(group: AbelianGroup, sub: Subgroup,
              small: Subgroup | None, big: Subgroup | None) -> None:
    if small is None or big is None:
        raise HypothesisViolated("HK bounds need the subgroups H and K")
    if not (1 < small.order <= big.order < group.size):
        raise HypothesisViolated("need 1 < H <= K < A")
    if small.bits & ~big.bits or small.bits & ~sub.bits:
        raise HypothesisViolated("need H <= K and H <= B")


def count_product_triples(group: AbelianGroup, sub: Subgroup) -> int:
    """Exact number of (C, Z, S) with A = C x Z, C cyclic of order >= 4,
    Z elementary abelian of exponent 2, and S = S' x S'' inside A \\ B."""
    total = 0
    for cyc, comp in group_candidates(group)[2]:
        z_units = admissible_units(group, comp.bits, "directed")
        products = {_product_set(group, s_prime, s_dprime)
                    for s_prime in (0, 1, cyc.bits, cyc.bits ^ 1)
                    for s_dprime in iter_unit_subsets(z_units)}
        total += sum(1 for s in products if not s & sub.bits)
    return total


# -- theorem lower bounds ----------------------------------------------------------


def theorem_lower_bound(which: str, group: AbelianGroup, sub: Subgroup) -> int:
    """Signed big-integer value of the existence lower bounds.

    The (log2|A|)^2 exponent of the subtrahend is rounded UP to the next
    integer, which is conservative for a lower bound.
    """
    check_index2(sub)
    n = group.size
    if which == "directed":
        slack = 3 << ceil_exponent(Fraction(3 * n, 8), n, 1)
    elif which == "undirected":
        a2_outside = popcount(involution_subgroup(group).bits & ~sub.bits)
        slack = 1 << ceil_exponent(
            Fraction(11 * n, 48) + Fraction(a2_outside, 2) + 2, n, 1)
    else:
        raise ValueError(f"unknown bound kind {which!r}")
    return admissible_set_count(group, sub, which) - slack


# -- corollary-proof threshold scans -------------------------------------------------


@dataclass(frozen=True)
class ThresholdReport:
    mode: str
    paper_value: int
    computed_value: int
    largest_failing: int

    @property
    def agrees(self) -> bool:
        return self.paper_value == self.computed_value


PAPER_THRESHOLD_DIRECTED = 744
PAPER_THRESHOLD_UNDIRECTED = 8214


def _threshold_inequality_holds(mode: str, m: int) -> bool:
    """directed: m/2 > 3m/8 + (log2 m)^2 + 2;
    undirected: m/4 > 11m/48 + (log2 m)^2 + 2 -- both decided exactly."""
    if mode == "directed":
        t = Fraction(m, 8) - 2
    elif mode == "undirected":
        t = Fraction(m, 48) - 2
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if t <= 0:
        return False
    return logsq_below(m, t)


def threshold_scan(mode: str) -> ThresholdReport:
    """Least even n such that the corollary-proof inequality holds for all
    even m >= n (scanned to twice the paper's n; the gap function increases
    with log2 m for m >= 256, so the scanned crossover is the true one)."""
    paper = (PAPER_THRESHOLD_DIRECTED if mode == "directed"
             else PAPER_THRESHOLD_UNDIRECTED)
    largest_failing = 2
    for m in range(4, 2 * paper + 1, 2):
        if not _threshold_inequality_holds(mode, m):
            largest_failing = m
    return ThresholdReport(mode, paper, largest_failing + 2, largest_failing)


# -- preliminary facts ---------------------------------------------------------------


def bounds_suite(group: AbelianGroup, sub: Subgroup) -> list[BoundReport]:
    """Every applicable lemma bound for one (A, B): the A1 counts, the
    worst case over B-stabilizing automorphisms, the worst case over (H, K)
    pairs, the triple count, and the closed-form inverse-closed count
    checked against brute enumeration."""
    check_index2(sub)
    reports = [
        lemma_bound("A1-directed", group, sub),
        lemma_bound("A1-undirected", group, sub),
    ]

    ctx = classify_context(group, sub)
    iota = inversion_automorphism(group)
    undirected = group.exponent > 2 and not ctx.exceptional
    outside = sub.complement_bits()
    most = {}  # family -> (orbits on A \ B, first alpha with that many)
    for alpha in stabilizing_automorphisms(group, sub):
        if alpha.is_identity:
            continue
        families = {"alpha-invariant": [alpha.image]}
        if undirected and alpha.image != iota.image:
            families["alpha-undirected"] = [alpha.image, iota.image]
        for name, images in families.items():
            orbits = _orbit_count(images, outside)
            if name not in most or orbits > most[name][0]:
                most[name] = (orbits, alpha)
    # the worst case of each family is its first report of largest count
    worst = [(lemma_bound(name, group, sub, alpha=alpha), "max over alpha")
             for name, (_, alpha) in most.items()]
    hk_reps, hk_und_reps = [], []
    for small, big in ctx.hk_pairs:
        hk_reps.append(lemma_bound("HK-cosets", group, sub, small=small,
                                   big=big))
        if group.size & (group.size - 1):
            hk_und_reps.append(lemma_bound("HK-undirected", group, sub,
                                           small=small, big=big))
    for reps in (hk_reps, hk_und_reps):
        counted = [rep for rep in reps if rep.exact is not None]
        if counted:
            worst.append((max(counted, key=lambda rep: rep.exact),
                          "max over HK"))
    for rep, note in worst:
        reports.append(BoundReport(rep.name, rep.exact, rep.bound, rep.holds,
                                   {"aggregated": note}))

    reports.append(lemma_bound("triples", group, sub))

    formula = count_inverse_closed(group, sub)
    brute = (brute_count_inverse_closed(group, sub)
             if group.size <= EXACT_SUBSET_CAP else None)
    reports.append(BoundReport(
        "inverse-closed-formula", brute,
        Bound(formula, group.size, 0, Fraction(0)),
        (brute == formula) if brute is not None else None,
        {"formula": formula, "equality_required": True}))
    return reports


def prelim_facts_check(group: AbelianGroup) -> list[BoundReport]:
    """Exact verification of the preliminary facts on one group:
    the automorphism-order bound, the prime-order/prime-index subgroup
    counts, and |Z \\ Y| <= |A|/4 for proper Z and index-2 Y."""
    n = group.size
    reports = []

    aut_order = count_automorphisms(group)
    aut_bound = Bound(1, n, int(math.floor(math.log2(n))), Fraction(0))
    reports.append(BoundReport(
        "aut-order", aut_order, aut_bound, aut_bound.admits(aut_order),
        {"also_below_2_to_log2_squared":
         Bound(1, n, 0, Fraction(0), 1).admits(aut_order)}))

    po = len(prime_order_subgroups(group))
    bound_n = Bound(n, n, 0, Fraction(0))
    reports.append(BoundReport("prime-order-count", po, bound_n,
                               bound_n.admits(po)))
    pi = len(prime_index_subgroups(group))
    reports.append(BoundReport("prime-index-count", pi, bound_n,
                               bound_n.admits(pi)))

    worst = 0
    for z in all_subgroups(group):
        if z.order == n:
            continue
        for y in index2_subgroups(group):
            worst = max(worst, popcount(z.bits & ~y.bits))
    quarter = Bound(1, n, 1, Fraction(-2))
    reports.append(BoundReport(
        "z-minus-y", worst, quarter, quarter.admits(worst),
        {"bound_is": "|A|/4"}))
    return reports
