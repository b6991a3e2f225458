"""Brute-force and randomized campaigns over connection sets.

Exhaustive minimization of the Cayley index over all admissible connection
sets uses two sound accelerations:

  * orbit reduction -- conjugate sets alpha(S) for alpha in Aut(A) with
    alpha(B) = B give isomorphic digraphs, so only orbit representatives are
    searched (every admissible set still counts as examined);
  * early abort -- once a set's partial automorphism group reaches the
    current best index, its exact index cannot improve the minimum, so the
    search is cut off.

The reported minimum is always re-checked by a full stabilizer search on the
winning set.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from ._search import _orbit, perm_on_set
from .autos import (
    AUT_CAP,
    automorphism_generators,
    index2_subgroups,
    inversion_automorphism,
)
from .bounds import (
    count_inverse_closed,
    inverse_closed_units,
    iter_unit_subsets,
    unit_union,
)
from .cayley import CANON_CAP, build_cayley, canonical_form, connection_set
from .errors import (
    BadParameter,
    BudgetExceeded,
    CapExceeded,
    FalsificationError,
    OddOrder,
)
from .groups import (
    AbelianGroup,
    Subgroup,
    bits_of,
    build_group,
    check_index2,
    format_group_spec,
    invariant_factors_of_orders,
    parse_group_spec,
    popcount,
)
from .stabilizer import (
    SEARCH_CAP,
    check_search_cap,
    minimal_graph_index_target,
    stabilizer_order_bounded,
    vertex_stabilizer,
)

DEFAULT_EXHAUSTIVE_BUDGET = 1 << 24
DEFAULT_TABLE_BUDGET = 1 << 13
DEFAULT_SAMPLES = 10_000
C26_BLOCK = 50_000


# -- admissible sets -----------------------------------------------------------


def _outside_elements(group: AbelianGroup, sub: Subgroup) -> list[int]:
    return [a for a in group.elements() if not sub.contains(a)]


def _free_units(group: AbelianGroup, sub: Subgroup) -> list[int]:
    """Independent bits of an inverse-closed subset of A \\ B: one per
    involution outside B, one per {a, -a} pair outside B."""
    return inverse_closed_units(group, sub.complement_bits())


def _units(group: AbelianGroup, sub: Subgroup, mode: str) -> list[int]:
    """The free choices of an admissible set: one unit per element outside B
    (directed), or per involution and {a, -a} pair outside B (undirected)."""
    if mode == "directed":
        return [1 << a for a in _outside_elements(group, sub)]
    if mode == "undirected":
        return _free_units(group, sub)
    raise ValueError(f"unknown mode {mode!r}")


def admissible_set_count(group: AbelianGroup, sub: Subgroup, mode: str) -> int:
    check_index2(sub)
    if mode == "directed":
        return 1 << (group.size // 2)
    return count_inverse_closed(group, sub)


def iter_admissible_sets(group: AbelianGroup, sub: Subgroup, mode: str):
    """All admissible connection-set bitsets, in deterministic mask order."""
    check_index2(sub)
    return iter_unit_subsets(_units(group, sub, mode))


# -- orbit reduction -----------------------------------------------------------


def _orbit_generators(group: AbelianGroup, sub: Subgroup, units: list[int],
                      aut_cap: int = AUT_CAP) -> list[tuple[int, ...]]:
    """Permutations of the unit indices induced by inversion and by a
    generating set of Stab_Aut(A)(B); past ``aut_cap``, by inversion alone
    (any subgroup of the stabilizer gives a sound reduction).

    An automorphism fixing B commutes with inversion, so it maps every unit
    onto a unit; one that does not is a ``FalsificationError``.  Identity
    and repeated unit permutations (inversion, when undirected) are dropped.
    """
    images = []
    iota = inversion_automorphism(group)
    if not iota.is_identity:
        images.append(iota.image)
    try:
        gens = automorphism_generators(group, (sub.bits,), aut_cap)[0]
        images += [alpha.image for alpha in gens]
    except CapExceeded:
        pass  # reduce by inversion alone; still sound
    position = {unit: i for i, unit in enumerate(units)}
    identity = tuple(range(len(units)))
    perms = []
    for image in images:
        moved = [perm_on_set(image, unit) for unit in units]
        if not all(unit in position for unit in moved):
            raise FalsificationError(
                "automorphism left the admissible set space")
        perm = tuple(position[unit] for unit in moved)
        if perm != identity and perm not in perms:
            perms.append(perm)
    return perms


def _byte_tables(perm: tuple[int, ...]) -> list[list[int]]:
    """One table per byte of a choice, lowest byte first: ``table[v]`` is
    the image under ``perm`` of the units picked by the byte value ``v``."""
    tables = []
    for shift in range(0, len(perm), 8):
        block = perm[shift:shift + 8]
        table = [0] * (1 << len(block))
        for v in range(1, len(table)):
            low = v & -v
            table[v] = table[v ^ low] | (1 << block[low.bit_length() - 1])
        tables.append(table)
    return tables


def orbit_representatives(choices: range,
                          perms: Sequence[tuple[int, ...]]) -> list[int]:
    """The first choice of each orbit of the group generated by the unit
    permutations ``perms``, in increasing order.

    ``choices`` is ``range(1 << k)`` for k units; choice c picks unit i when
    bit i of c is set.  Orbits are marked in a bytearray of 2^k entries.
    """
    if not perms:
        return list(choices)
    tables = [_byte_tables(perm) for perm in perms]
    seen = bytearray(len(choices))
    reps = []
    for choice in choices:
        if seen[choice]:
            continue
        reps.append(choice)
        seen[choice] = 1
        frontier = [choice]
        while frontier:
            member = frontier.pop()
            for perm_tables in tables:
                im, rest = 0, member
                for table in perm_tables:
                    im |= table[rest & 0xFF]
                    rest >>= 8
                if not seen[im]:
                    seen[im] = 1
                    frontier.append(im)
    return reps


# -- exhaustive / random index minimization ---------------------------------------


@dataclass
class IndexSurveyResult:
    """The minimum index over the connection sets a campaign sweeps.

    ``argmin_set`` is the first set in sweep order whose exact index equals
    ``min_index`` (see ``sweep``): for an exhaustive survey the order of the
    orbit representatives, mid-sized sets first; for a random one the order
    of the draws.
    """

    group: str
    subgroup: list
    mode: str
    min_index: int
    argmin_set: list
    sets_examined: int
    reps_searched: int
    method: str
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "subgroup": self.subgroup,
            "mode": self.mode,
            "min_index": self.min_index,
            "argmin_set": self.argmin_set,
            "sets_examined": self.sets_examined,
            "reps_searched": self.reps_searched,
            "method": self.method,
            **self.details,
        }


def _generic_first(masks: Iterable[int], half: float) -> list[int]:
    """Mid-sized sets first: their stabilizers are usually trivial, which
    establishes a tight abort threshold immediately."""
    return sorted(masks, key=lambda m: (abs(popcount(m) - half), m))


def sweep(group: AbelianGroup, masks: Sequence[int],
          best: int | None = None, timeout: float | None = None,
          progress=None) -> tuple[int | None, int | None]:
    """Minimum Cayley index of Cay(A, S) over the connection sets ``masks``,
    and its argmin, as ``(best, argmin)``.

    Only indices below the starting ``best`` count (``None``: no bound).  A
    set's stabilizer search aborts once it reaches the running minimum, so
    the argmin is the first mask in stream order whose exact index equals
    the minimum: until that mask the running minimum is above it, so it is
    searched exactly.  ``argmin`` is ``None`` when no mask goes below the
    starting ``best``.  ``progress(done, total)`` is called every 64 masks.
    """
    argmin = None
    for done, mask in enumerate(masks, 1):
        digraph = build_cayley(group, connection_set(group, mask))
        order, exact = stabilizer_order_bounded(digraph, 0, abort_order=best,
                                                timeout=timeout)
        if exact and (best is None or order < best):
            best, argmin = order, mask
        if progress is not None and done % 64 == 0:
            progress(done, len(masks))
    return best, argmin


def _shard_worker(args) -> tuple[int | None, int | None]:
    orders, shard, best, timeout = args
    best, argmin = sweep(build_group(list(orders)), shard, best=best,
                         timeout=timeout)
    return best, None if argmin is None else shard.index(argmin)


def _sweep_sharded(group: AbelianGroup, masks: Sequence[int],
                   best: int | None, threads: int,
                   timeout: float | None = None,
                   progress=None) -> tuple[int | None, int | None]:
    """``sweep`` on ``threads`` worker processes, with the same result.

    The masks are dealt round-robin into 4 * threads shards, each swept from
    the same starting ``best``.  Each worker returns its minimum and the
    position of its argmin; the merge keeps the lowest index, then the
    earliest stream position.  ``progress(done, total)`` counts shards.
    """
    width = 4 * threads
    shards = [masks[i::width] for i in range(min(width, len(masks)))]
    args = [(group.orders, shard, best, timeout) for shard in shards]
    found = None  # (index, stream position)
    with ProcessPoolExecutor(max_workers=threads) as pool:
        for i, (local, pos) in enumerate(pool.map(_shard_worker, args)):
            if pos is not None:
                here = (local, i + pos * width)
                found = here if found is None else min(found, here)
            if progress is not None:
                progress(i + 1, len(args))
    if found is None:
        return best, None
    return found[0], masks[found[1]]


def _decode_set(group: AbelianGroup, mask: int) -> list:
    return sorted(list(group.decode(a)) for a in bits_of(mask))


def _recheck(group: AbelianGroup, mask: int, best: int) -> None:
    recheck = vertex_stabilizer(
        build_cayley(group, connection_set(group, mask))).cayley_index
    if recheck != best:
        raise FalsificationError("argmin re-check disagrees with the minimum")


def exhaustive_bipartite_index(group: AbelianGroup, sub: Subgroup, mode: str,
                               budget: int = DEFAULT_EXHAUSTIVE_BUDGET,
                               orbit_reduce: bool = True,
                               threads: int = 1,
                               timeout: float | None = None,
                               progress=None,
                               aut_cap: int = AUT_CAP) -> IndexSurveyResult:
    """Exact minimum Cayley index over every admissible connection set."""
    total = admissible_set_count(group, sub, mode)
    if total > budget:
        raise BudgetExceeded(
            f"{total} admissible sets exceed the budget of {budget} searches")
    units = _units(group, sub, mode)
    if mode == "undirected" and (1 << len(units)
                                 != count_inverse_closed(group, sub)):
        raise FalsificationError(
            "inverse-closed enumeration disagrees with the counting formula")
    perms = _orbit_generators(group, sub, units, aut_cap) if orbit_reduce else []
    reps = [unit_union(units, choice) for choice
            in orbit_representatives(range(1 << len(units)), perms)]
    ordered = _generic_first(reps, len(_outside_elements(group, sub)) / 2)

    if threads > 1 and len(ordered) > 64:
        best, argmin = sweep(group, ordered[:32], timeout=timeout)
        best, found = _sweep_sharded(group, ordered[32:], best, threads,
                                     timeout=timeout, progress=progress)
        if found is not None:
            argmin = found
    else:
        best, argmin = sweep(group, ordered, timeout=timeout,
                             progress=progress)
    _recheck(group, argmin, best)
    return IndexSurveyResult(
        group=format_group_spec(group.orders),
        subgroup=[list(group.decode(g)) for g in sub.generators],
        mode=mode,
        min_index=best,
        argmin_set=_decode_set(group, argmin),
        sets_examined=total,
        reps_searched=len(reps),
        method="exhaustive",
        details={"orbit_generators": len(perms), "recheck": True},
    )


def _sample_mask(rng: random.Random, units: list[int]) -> int:
    return unit_union(units, rng.getrandbits(len(units)))


def random_bipartite_index(group: AbelianGroup, sub: Subgroup, mode: str,
                           samples: int = DEFAULT_SAMPLES, seed: int = 0,
                           timeout: float | None = None) -> IndexSurveyResult:
    """Minimum index over uniformly random admissible sets (an upper bound)."""
    check_index2(sub)
    if samples < 1:
        raise BadParameter("a random survey needs at least one sample")
    rng = random.Random(seed)
    units = _units(group, sub, mode)
    masks = [_sample_mask(rng, units) for _ in range(samples)]
    best, argmin = sweep(group, masks, timeout=timeout)
    _recheck(group, argmin, best)
    return IndexSurveyResult(
        group=format_group_spec(group.orders),
        subgroup=[list(group.decode(g)) for g in sub.generators],
        mode=mode,
        min_index=best,
        argmin_set=_decode_set(group, argmin),
        sets_examined=samples,
        reps_searched=samples,
        method="random",
        details={"seed": seed, "upper_bound_only": True,
                 "rng": "mersenne-twister"},
    )


def bipartite_index(group: AbelianGroup, sub: Subgroup, mode: str,
                    method: str = "exhaustive", **kwargs) -> IndexSurveyResult:
    if method == "exhaustive":
        return exhaustive_bipartite_index(group, sub, mode, **kwargs)
    if method == "random":
        return random_bipartite_index(group, sub, mode, **kwargs)
    raise ValueError(f"unknown method {method!r}")


def global_index(group: AbelianGroup, mode: str, **kwargs) -> dict:
    """Minimum of the bipartite index over all index-2 subgroups."""
    if group.size % 2:
        raise OddOrder("groups of odd order have no index-2 subgroup")
    best = None
    per_subgroup = []
    for i, sub in enumerate(index2_subgroups(group)):
        res = bipartite_index(group, sub, mode, **kwargs)
        per_subgroup.append({"position": i, "min_index": res.min_index,
                             "subgroup": res.subgroup})
        if best is None or res.min_index < best:
            best = res.min_index
    return {"group": format_group_spec(group.orders), "mode": mode,
            "global_index": best, "per_subgroup": per_subgroup}


# -- tables 1 and 2 --------------------------------------------------------------


@dataclass(frozen=True)
class TableRow:
    group_spec: str
    subgroup_spec: str
    expected: int
    extended: bool = False


TABLE1_ROWS: tuple[TableRow, ...] = (
    TableRow("C2^2", "C2", 2),
    TableRow("C2^3", "C2^2", 6),
    TableRow("C2^4", "C2^3", 24),
    TableRow("C2^5", "C2^4", 72, extended=True),
    TableRow("C2^6", "C2^5", 4, extended=True),
    TableRow("C3xC6", "C3^2", 2),
    TableRow("C4xC2^3", "C2^4", 4),
    TableRow("C4xC2^2", "C2^3", 4),
    TableRow("C4xC2^2", "C4xC2", 2),
    TableRow("C4xC2", "C2^2", 2),
)

TABLE2_ROWS: tuple[TableRow, ...] = (
    TableRow("C2^3", "C2^2", 6),
    TableRow("C2^4", "C2^3", 24),
    TableRow("C2^5", "C2^4", 72, extended=True),
    TableRow("C2^6", "C2^5", 4, extended=True),
    TableRow("C2xC4", "C4", 6),
    TableRow("C2xC4", "C2^2", 16),
    TableRow("C2xC8", "C2xC4", 16),
    TableRow("C4xC4", "C4xC2", 24),
    TableRow("C4xC2^2", "C2^3", 768),
    TableRow("C4xC2^2", "C4xC2", 24),
    TableRow("C3xC6", "C3^2", 8),
    TableRow("C2xC12", "C2xC6", 4),
    TableRow("C2^2xC6", "C2xC6", 4),
    TableRow("C4xC8", "C4^2", 4),
    TableRow("C4xC8", "C2xC8", 4),
    TableRow("C2^2xC8", "C2^2xC4", 12),
    TableRow("C2xC4^2", "C4^2", 12),
    TableRow("C2xC4^2", "C2^2xC4", 128),
    TableRow("C2^3xC4", "C2^4", 786432),
    TableRow("C2^3xC4", "C2^2xC4", 72),
    TableRow("C3xC12", "C3xC6", 4),
    TableRow("C2^2xC12", "C2^2xC6", 4),
    TableRow("C3^2xC6", "C3^3", 12),
    TableRow("C2^3xC8", "C2^3xC4", 8),
    TableRow("C4^3", "C2xC4^2", 4),
    TableRow("C2^4xC4", "C2^3xC4", 4),
)

# The two infinite families heading the undirected table; their finite members
# are the rows above with B of involution type (or C4 x C2^(l+1) type).
TABLE2_FAMILIES = (
    ("C4xC2^l (l>=1)", "C2^(l+1)", "index not known for l >= 4"),
    ("C4^2xC2^l (l>=0)", "C4xC2^(l+1)", "index not known for l >= 2"),
)


@dataclass
class TableRowResult:
    table: int
    group: str
    subgroup: str
    expected: int
    computed: int | None
    matches: bool | None
    status: str  # "ok" | "skipped"
    reason: str
    sets: int

    def to_json(self) -> dict:
        return self.__dict__.copy()


def subgroup_of_type(group: AbelianGroup, iso_spec: str) -> Subgroup:
    """First index-2 subgroup (in character order) with the given type."""
    want = invariant_factors_of_orders(parse_group_spec(iso_spec))
    for sub in index2_subgroups(group):
        if sub.invariant_factors() == want:
            return sub
    raise ValueError(f"no index-2 subgroup of type {iso_spec} in "
                     f"{format_group_spec(group.orders)}")


def verify_table(which: int, budget: int = DEFAULT_TABLE_BUDGET,
                 include_extended: bool = False,
                 threads: int = 1,
                 aut_cap: int = AUT_CAP,
                 search_cap: int = SEARCH_CAP) -> list[TableRowResult]:
    """Recompute every table row whose admissible-set count fits the budget;
    rows over budget (or extended rows not opted into) come back SKIPPED.
    A row to recompute on a group over ``search_cap`` is refused before any
    row is searched."""
    rows = TABLE1_ROWS if which == 1 else TABLE2_ROWS
    mode = "directed" if which == 1 else "undirected"
    plan = []
    for row in rows:
        group = build_group(parse_group_spec(row.group_spec))
        sub = subgroup_of_type(group, row.subgroup_spec)
        total = admissible_set_count(group, sub, mode)
        skip = ("extended row (opt-in)"
                if row.extended and not include_extended
                else f"{total} sets exceed budget {budget}"
                if total > budget else "")
        if not skip:
            check_search_cap(group.size, search_cap)
        plan.append((row, group, sub, total, skip))
    out = []
    for row, group, sub, total, skip in plan:
        if skip:
            out.append(TableRowResult(which, row.group_spec, row.subgroup_spec,
                                      row.expected, None, None, "skipped",
                                      skip, total))
            continue
        res = exhaustive_bipartite_index(group, sub, mode, budget=budget,
                                         threads=threads, aut_cap=aut_cap)
        out.append(TableRowResult(which, row.group_spec, row.subgroup_spec,
                                  row.expected, res.min_index,
                                  res.min_index == row.expected, "ok", "",
                                  total))
    return out


# -- Monte-Carlo proportions --------------------------------------------------------


@dataclass
class ProportionEstimate:
    samples: int
    hits: int
    estimate: Fraction
    wilson_low: Fraction
    wilson_high: Fraction
    seed: int
    mode: str
    target_index: int

    def to_json(self) -> dict:
        return {
            "samples": self.samples,
            "hits": self.hits,
            "estimate": float(self.estimate),
            "wilson_low": float(self.wilson_low),
            "wilson_high": float(self.wilson_high),
            "seed": self.seed,
            "mode": self.mode,
            "target_index": self.target_index,
            "rng": "mersenne-twister",
        }


def _sqrt_upper(value: Fraction, scale: int = 10 ** 12) -> Fraction:
    """A rational upper bound on sqrt(value)."""
    if value <= 0:
        return Fraction(0)
    num = value.numerator * scale * scale
    return Fraction(math.isqrt(num // value.denominator) + 1, scale)


def wilson_interval(hits: int, samples: int,
                    z_squared: Fraction = Fraction(38416, 10000)
                    ) -> tuple[Fraction, Fraction]:
    """95% Wilson interval with outward (conservative) rational rounding."""
    n = samples
    phat = Fraction(hits, n)
    denom = 1 + z_squared / n
    center = phat + z_squared / (2 * n)
    radicand = z_squared * (phat * (1 - phat) / n + z_squared / (4 * n * n))
    rad = _sqrt_upper(radicand)
    low = (center - rad) / denom
    high = (center + rad) / denom
    return max(Fraction(0), low), min(Fraction(1), high)


def monte_carlo_proportion(group: AbelianGroup, sub: Subgroup, mode: str,
                           samples: int = DEFAULT_SAMPLES,
                           seed: int = 0) -> ProportionEstimate:
    """Fraction of random admissible sets whose index hits the target
    (1 directed, c undirected); deterministic under the seed."""
    check_index2(sub)
    if samples < 1:
        raise BadParameter("a proportion estimate needs at least one sample")
    target = 1 if mode == "directed" else minimal_graph_index_target(group)
    rng = random.Random(seed)
    units = _units(group, sub, mode)
    hits = 0
    for _ in range(samples):
        _, hit = sweep(group, [_sample_mask(rng, units)], best=target + 1)
        if hit is not None:
            hits += 1
    low, high = wilson_interval(hits, samples)
    return ProportionEstimate(samples, hits, Fraction(hits, samples),
                              low, high, seed, mode, target)


# -- unlabeled counting ---------------------------------------------------------------


@dataclass
class UnlabeledReport:
    total_sets: int
    total_classes: int
    target_classes: int
    target_index: int
    class_sizes: list[int]

    def to_json(self) -> dict:
        return self.__dict__.copy()


def unlabeled_count(group: AbelianGroup, sub: Subgroup, mode: str,
                    canon_cap: int = CANON_CAP) -> UnlabeledReport:
    """Isomorphism classes among admissible Cay(A, S), via canonical forms."""
    if group.size > canon_cap:
        raise CapExceeded(f"canonical cap {canon_cap} exceeded")
    target = 1 if mode == "directed" else minimal_graph_index_target(group)
    classes: dict[bytes, list[tuple[int, int]]] = {}
    total = 0
    for mask in iter_admissible_sets(group, sub, mode):
        total += 1
        digraph = build_cayley(group, connection_set(group, mask))
        form = canonical_form(digraph, cap=canon_cap)
        idx = vertex_stabilizer(digraph).cayley_index
        classes.setdefault(form, []).append((mask, idx))
    for members in classes.values():
        indices = {idx for _, idx in members}
        if len(indices) != 1:
            raise FalsificationError(
                "one isomorphism class mixes different Cayley indices")
    target_classes = sum(1 for members in classes.values()
                         if members[0][1] == target)
    return UnlabeledReport(
        total_sets=total,
        total_classes=len(classes),
        target_classes=target_classes,
        target_index=target,
        class_sizes=sorted((len(m) for m in classes.values()), reverse=True),
    )


# -- the C2^6 reduced search -----------------------------------------------------------


@dataclass
class C26Report:
    """Sub-claims of the C2^6 reduction and the outcome of its search.

    ``best_set`` is the first candidate in stream order whose exact index
    equals ``best_index`` (see ``sweep``), for serial and threaded runs and
    across resumes alike.  ``reps_searched`` of the ``searched`` positions
    were orbit representatives, the only candidates searched.
    """

    candidate_count: int
    orbit_sizes: list[int]
    orbit_representatives: list[list[int]]
    disconnected_min_bound: int
    basis_transitivity_count_match: bool
    searched: int = 0
    reps_searched: int = 0
    best_index: int | None = None
    best_set: list | None = None
    completed: bool = False

    def to_json(self) -> dict:
        return self.__dict__.copy()


def _c26_group_and_parts():
    group = build_group([2] * 6)
    basis = group.generators()  # e1..e6 (coordinate unit vectors)
    b_bits = 0
    for a in group.elements():
        if bin(a).count("1") % 2 == 0:
            b_bits |= 1 << a
    rep3 = basis[0] | basis[1] | basis[2]
    rep5 = basis[0] | basis[1] | basis[2] | basis[3] | basis[4]
    return group, basis, b_bits, rep3, rep5


def _permute_coordinates(group: AbelianGroup, p: Sequence[int],
                         elements: Sequence[int]) -> list[int]:
    """The images of ``elements`` when coordinate j takes coordinate p[j]."""
    return [group.encode(tuple(group.decode(a)[j] for j in p))
            for a in elements]


def _gl2_order(dim: int) -> int:
    order = 1
    for i in range(dim):
        order *= (1 << dim) - (1 << i)
    return order


def c26_subclaims() -> C26Report:
    """The exactly-checkable sub-claims of the C2^6 reduction."""
    group, basis, b_bits, rep3, rep5 = _c26_group_and_parts()
    candidate_count = 2 * sum(math.comb(25, k) for k in range(10))
    residual = sum(1 << a for a in group.elements()
                   if not (b_bits >> a) & 1 and a not in basis)
    # Sym(coordinates) is generated by a transposition and a 6-cycle
    perms = [_permute_coordinates(group, p, group.elements())
             for p in ((1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0))]
    orbit3, orbit5 = _orbit(perms, rep3), _orbit(perms, rep5)
    sizes = [orbit3.bit_count(), orbit5.bit_count()]
    if orbit3 | orbit5 != residual or sizes != [20, 6]:
        raise FalsificationError("unexpected coordinate-permutation orbits")

    # disconnected case: <S> = C2^l gives 2^(6-l) isomorphic components, so
    # |Aut| >= |Aut(component)|^(2^(6-l)) * (2^(6-l))! with the component
    # index taken from the smaller table rows (l = 1 is a single edge, index 1)
    component_index = {1: 1, 2: 2, 3: 6, 4: 24, 5: 72}
    disconnected = None
    for ell, c in component_index.items():
        comps = 1 << (6 - ell)
        value = math.factorial(comps) * (c * (1 << ell)) ** comps // 64
        disconnected = value if disconnected is None else min(disconnected,
                                                              value)

    # the connected case fixes a basis inside S; the B-stabilizer acts freely
    # on ordered bases, and |{M in GL6(2) : all columns of odd weight}| equals
    # |GL6(2)| / 63 (transitivity on nonzero functionals), so equality with
    # |AGL5(2)| = 2^5 |GL5(2)| certifies transitivity on odd bases
    stab_order = _gl2_order(6) // 63
    agl5 = (1 << 5) * _gl2_order(5)
    return C26Report(
        candidate_count=candidate_count,
        orbit_sizes=sizes,
        orbit_representatives=[list(group.decode(rep3)),
                               list(group.decode(rep5))],
        disconnected_min_bound=disconnected,
        basis_transitivity_count_match=stab_order == agl5,
    )


def _c26_candidates(group, basis, b_bits, rep):
    """The candidates e1..e6 + ``rep`` + ``comb`` in stream order (``comb``
    a k-subset of the 25-element pool, k < 10), with ``None`` for each one
    that some coordinate permutation fixing ``rep`` maps to a smaller sorted
    pool-index tuple: only the first of each orbit is kept."""
    base = sum(1 << e for e in basis) | 1 << rep
    pool = [a for a in group.elements()
            if not (b_bits >> a) & 1 and not (base >> a) & 1]
    support = {i for i in range(6) if group.decode(rep)[i]}
    position = {a: i for i, a in enumerate(pool)}
    perms = [[position[a] for a in _permute_coordinates(group, p, pool)]
             for p in itertools.permutations(range(6))
             if {p[i] for i in support} == support]
    for k in range(10):
        for comb in itertools.combinations(range(len(pool)), k):
            if any(tuple(sorted([img[i] for i in comb])) < comb
                   for img in perms):
                yield None
                continue
            bits = base
            for i in comb:
                bits |= 1 << pool[i]
            yield bits


def c26_reduced_search(budget: int | None = None,
                       checkpoint: str | None = None,
                       threads: int = 1,
                       progress=None) -> C26Report:
    """Run (a budgeted prefix of) the 7,701,512-candidate minimization.

    The result equals the directed bipartite Cayley index of (C2^6, C2^5)
    when run to completion; the ordering of candidates is deterministic.
    Only orbit representatives are searched (see ``_c26_candidates``), and
    as each comes first in its orbit, every prefix keeps its minimum and
    argmin.  The stream is swept in blocks of ``C26_BLOCK`` positions, and
    after each block a checkpoint file gets one JSON line {cursor,
    reps_searched, best_index, best_set, best_mask}, which makes long runs
    resumable; ``budget`` and ``cursor`` count stream positions.  The
    ``reps_searched`` field is informational: a resume recounts it over
    the skipped prefix.
    """
    report = c26_subclaims()
    group, basis, b_bits, rep3, rep5 = _c26_group_and_parts()
    stream = itertools.chain(_c26_candidates(group, basis, b_bits, rep3),
                             _c26_candidates(group, basis, b_bits, rep5))
    start = 0
    best = None
    best_mask = None
    if checkpoint:
        try:
            with open(checkpoint, "r", encoding="utf-8") as fh:
                last = None
                for line in fh:
                    if line.strip():
                        last = json.loads(line)
                if last:
                    start = last["cursor"]
                    best = last["best_index"]
                    best_mask = last.get("best_mask")
        except FileNotFoundError:
            pass
    reps_searched = sum(mask is not None
                        for mask in itertools.islice(stream, start))

    searched = start
    limit = report.candidate_count if budget is None else min(
        report.candidate_count, start + budget)
    while searched < limit:
        block = list(itertools.islice(stream, min(C26_BLOCK,
                                                  limit - searched)))
        reps = [mask for mask in block if mask is not None]
        if threads > 1:
            best, found = _sweep_sharded(group, reps, best, threads)
        else:
            best, found = sweep(group, reps, best)
        if found is not None:
            best_mask = found
        searched += len(block)
        reps_searched += len(reps)
        if checkpoint:
            best_set = (_decode_set(group, best_mask)
                        if best_mask is not None else None)
            with open(checkpoint, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"shard_id": 0, "best_index": best,
                                     "best_set": best_set,
                                     "cursor": searched,
                                     "reps_searched": reps_searched,
                                     "best_mask": best_mask}) + "\n")
        if progress is not None:
            progress(searched, limit)
    report.searched = searched
    report.reps_searched = reps_searched
    report.best_index = best
    report.best_set = (_decode_set(group, best_mask)
                       if best_mask is not None else None)
    report.completed = searched >= report.candidate_count
    return report
