"""Brute-force and randomized campaigns over connection sets.

Exhaustive minimization of the Cayley index over all admissible connection
sets uses three sound accelerations:

  * orbit reduction -- conjugate sets alpha(S) for alpha in Aut(A) with
    alpha(B) = B give isomorphic digraphs, so only orbit representatives are
    searched (every admissible set still counts as examined); the orbits of
    sets of more than half the free choices are read off their complements;
  * orbit floors -- the automorphisms of A fixing S fix 0 in Aut(Cay(A, S))
    (Godsil, Combinatorica 1, 1981), so the index of S is a multiple of
    |Stab_Aut(A)(B)| / |orbit of S|; a set whose floor reaches the current
    best index is not searched;
  * early abort -- once a set's partial automorphism group reaches the
    current best index, its exact index cannot improve the minimum, so the
    search is cut off.

The reported minimum is always re-checked by a full stabilizer search on the
winning set.  ``unlabeled_count`` reads the same orbits (``_pair_orbits``).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import sys
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from ._search import _orbit, perm_on_set
from .autos import (
    automorphism_generators,
    index2_subgroup,
    index2_subgroup_count,
    index2_subgroups,
    index2_type,
)
from .bounds import (
    admissible_set_count,
    admissible_units,
    iter_unit_subsets,
    unit_union,
)
from .cayley import build_cayley, canonical_form, connection_set
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
)
from .stabilizer import (
    closed_form_order,
    minimal_graph_index_target,
    stabilizer_order_bounded,
    vertex_stabilizer,
)

DEFAULT_EXHAUSTIVE_BUDGET = 1 << 24
DEFAULT_TABLE_BUDGET = 1 << 13
SEARCH_CAP = 1 << 12   # default of BIPCAYLEY_SEARCH_CAP
DEFAULT_SAMPLES = 10_000
C26_BLOCK = 50_000
SQRT_SCALE = 10 ** 12  # _sqrt_upper rounds up to a multiple of 1/SQRT_SCALE
Z2 = Fraction(38416, 10000)  # 1.96^2: the Wilson interval is 95%


# -- admissible sets -----------------------------------------------------------


def _units(group: AbelianGroup, sub: Subgroup, mode: str) -> list[int]:
    """The free choices of an admissible set (see ``admissible_units``)."""
    return admissible_units(group, sub.complement_bits(), mode)


def iter_admissible_sets(group: AbelianGroup, sub: Subgroup, mode: str):
    """All admissible connection-set bitsets, in deterministic mask order."""
    check_index2(sub)
    return iter_unit_subsets(_units(group, sub, mode))


# -- orbit reduction -----------------------------------------------------------


def _orbit_generators(group: AbelianGroup, sub: Subgroup, units: list[int]
                      ) -> tuple[list[tuple[int, ...]], int]:
    """Permutations of the unit indices induced by a generating set of
    Stab_Aut(A)(B), and the exact order of that group.

    Inversion fixes every subgroup, so it lies in the group these generate
    and needs no permutation of its own.  An automorphism fixing B commutes
    with inversion, so it maps every unit onto a unit; one that does not is
    a ``FalsificationError``.  Identity and repeated unit permutations are
    dropped.
    """
    gens, order = automorphism_generators(group, (sub.bits,))
    position = {unit: i for i, unit in enumerate(units)}
    identity = tuple(range(len(units)))
    perms = []
    for alpha in gens:
        moved = [perm_on_set(alpha.image, unit) for unit in units]
        if not all(unit in position for unit in moved):
            raise FalsificationError(
                "automorphism left the admissible set space")
        perm = tuple(position[unit] for unit in moved)
        if perm != identity and perm not in perms:
            perms.append(perm)
    return perms, order


def _image_table(block: Sequence[int]) -> list[int]:
    """``table[v]`` is the choice of the units ``block[i]`` for the set bits
    i of ``v``."""
    table = [0] * (1 << len(block))
    for v in range(1, len(table)):
        low = v & -v
        table[v] = table[v ^ low] | (1 << block[low.bit_length() - 1])
    return table


def orbit_representatives(choices: range, perms: Sequence[tuple[int, ...]]
                          ) -> dict[int, int]:
    """The first choice of each orbit of the group generated by the unit
    permutations ``perms``, in increasing order, mapped to its orbit length.

    ``choices`` is ``range(1 << k)`` for k units; choice c picks unit i when
    bit i of c is set.  Orbits are marked in a bytearray of 2^k entries.
    A unit permutation commutes with complementation, so an orbit of more
    than k/2 units is the complement of one of fewer than k/2 units, of the
    same length, and its first choice is the complement of that orbit's last
    one: only choices of at most k/2 units are walked, and the scan stops
    once the orbit lengths counted so far reach 2^k.  An image is two
    lookups, one per half of the choice's bits.
    """
    k = len(choices).bit_length() - 1
    full, width = len(choices) - 1, (k + 1) // 2
    mask = (1 << width) - 1
    tables = [(_image_table(perm[:width]), _image_table(perm[width:]))
              for perm in perms]
    seen = bytearray(len(choices))
    reps, counted = {}, 0
    for choice in choices:
        if seen[choice] or 2 * choice.bit_count() > k:
            continue
        seen[choice] = 1
        orbit = [choice]
        for member in orbit:
            lo, hi = member & mask, member >> width
            for lo_table, hi_table in tables:
                im = lo_table[lo] | hi_table[hi]
                if not seen[im]:
                    seen[im] = 1
                    orbit.append(im)
        reps[choice] = len(orbit)
        counted += len(orbit)
        if 2 * choice.bit_count() < k:
            reps[full ^ max(orbit)] = len(orbit)
            counted += len(orbit)
        if counted == len(choices):
            break
    return dict(sorted(reps.items()))


def _pair_orbits(group: AbelianGroup, sub: Subgroup, mode: str,
                 total: int) -> tuple[list, int, dict[int, int]]:
    """The one path from (A, B, mode) to its orbits: the unit permutations,
    |Stab_Aut(A)(B)| and each orbit's first set mapped to its length.  Units
    not matching ``total`` sets, or a length not dividing the order, are a
    ``FalsificationError``."""
    units = _units(group, sub, mode)
    if 1 << len(units) != total:
        raise FalsificationError(
            "admissible-set enumeration disagrees with the counting formula")
    perms, order = _orbit_generators(group, sub, units)
    reps = orbit_representatives(range(1 << len(units)), perms)
    if any(order % length for length in reps.values()):
        raise FalsificationError("an orbit length does not divide the order")
    return perms, order, {unit_union(units, c): n for c, n in reps.items()}


# -- exhaustive / random index minimization ---------------------------------------


class IndexSurveyResult(NamedTuple):
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
    details: Mapping = MappingProxyType({})

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
    return sorted(masks, key=lambda m: (abs(m.bit_count() - half), m))


def sweep(group: AbelianGroup, masks: Sequence[int],
          best: int | None = None, threads: int = 1,
          timeout: float | None = None, progress=None,
          floors=None, known=None) -> tuple[int | None, int | None]:
    """Minimum Cayley index of Cay(A, S) over the connection sets ``masks``,
    and its argmin, as ``(best, argmin)``.

    Only indices below the starting ``best`` count (``None``: no bound).  A
    set's stabilizer search aborts once it reaches the running minimum, so
    the argmin is the first mask in stream order whose exact index equals
    the minimum: until that mask the running minimum is above it, so it is
    searched exactly.  ``argmin`` is ``None`` when no mask goes below the
    starting ``best``.  ``floors[i]``, when given, is a lower bound on the
    index of ``masks[i]``: a mask whose floor reaches the running minimum
    cannot go below it, so it is skipped unbuilt, with the same result.
    ``known[i]``, when given, holds automorphisms of A that fix ``masks[i]``,
    as element permutations; its search starts from them.
    ``progress(done, total)`` counts masks, skipped ones included.

    With more than one thread and more than 64 masks the sweep runs on
    ``threads`` worker processes, at most one per CPU, with the same result.
    Without a starting bound the first 32 masks are swept here to find one.
    The rest, their floors and their known maps, are dealt round-robin into
    4 * threads shards, each swept from the same bound; the merge keeps the
    lowest index, then the earliest stream position.
    """
    floors = [0] * len(masks) if floors is None else floors
    known = [()] * len(masks) if known is None else known
    if threads > 1 and len(masks) > 64:
        from concurrent import futures
        head = 32 if best is None else 0
        best, argmin = sweep(group, masks[:head], best, timeout=timeout,
                             floors=floors[:head], known=known[:head])
        width = 4 * threads
        shards = [masks[i::width]
                  for i in range(head, min(head + width, len(masks)))]
        args = [(group.orders, shard, floors[head + i::width],
                 known[head + i::width], best, timeout)
                for i, shard in enumerate(shards)]
        found = []  # (index, stream position) of each shard's argmin
        workers = min(threads, os.cpu_count() or 1)
        with futures.ProcessPoolExecutor(max_workers=workers) as pool:
            for i, (local, pos) in enumerate(pool.map(_shard_worker, args)):
                if pos is not None:
                    found.append((local, head + i + pos * width))
                if progress is not None:
                    progress(head + sum(map(len, shards[:i + 1])), len(masks))
        if found:
            best, pos = min(found)
            argmin = masks[pos]
        return best, argmin
    argmin = None
    for done, (mask, floor, maps) in enumerate(zip(masks, floors, known), 1):
        if best is None or floor < best:
            digraph = build_cayley(group, connection_set(group, mask))
            order, exact = stabilizer_order_bounded(digraph, best, timeout,
                                                    maps)
            if exact and (best is None or order < best):
                best, argmin = order, mask
        if progress is not None and done % 64 == 0:
            progress(done, len(masks))
    return best, argmin


def _shard_worker(args) -> tuple[int | None, int | None]:
    orders, shard, floors, known, best, timeout = args
    best, argmin = sweep(build_group(list(orders)), shard, best=best,
                         timeout=timeout, floors=floors, known=known)
    return best, None if argmin is None else shard.index(argmin)


def _decode_set(group: AbelianGroup, mask: int) -> list:
    return sorted(list(group.decode(a)) for a in bits_of(mask))


def _recheck(group: AbelianGroup, best: int, argmin: int) -> None:
    """A full stabilizer search on the argmin must give the minimum."""
    recheck = vertex_stabilizer(
        build_cayley(group, connection_set(group, argmin))).cayley_index
    if recheck != best:
        raise FalsificationError("argmin re-check disagrees with the minimum")


def _survey(group: AbelianGroup, sub: Subgroup, mode: str,
            masks: Sequence[int], threads: int, timeout: float | None,
            progress, floors=None, **fields) -> IndexSurveyResult:
    """The survey result of ``sweep`` over ``masks``, its argmin re-checked
    by a full stabilizer search."""
    best, argmin = sweep(group, masks, threads=threads, timeout=timeout,
                         progress=progress, floors=floors)
    _recheck(group, best, argmin)
    return IndexSurveyResult(
        group=format_group_spec(group.orders),
        subgroup=[list(group.decode(g)) for g in sub.generators],
        mode=mode,
        min_index=best,
        argmin_set=_decode_set(group, argmin),
        **fields,
    )


def exhaustive_bipartite_index(group: AbelianGroup, sub: Subgroup, mode: str,
                               budget: int = DEFAULT_EXHAUSTIVE_BUDGET,
                               threads: int = 1,
                               timeout: float | None = None,
                               progress=None) -> IndexSurveyResult:
    """Exact minimum Cayley index over every admissible connection set,
    each orbit representative swept with its floor |Stab_Aut(A)(B)| /
    |orbit| (a length not dividing the order is a ``FalsificationError``)."""
    total = admissible_set_count(group, sub, mode)
    limit = min(budget, sys.maxsize)  # the orbit work space: a byte per set
    if total > limit:
        raise BudgetExceeded(
            f"{total} admissible sets exceed the budget of {limit} searches")
    perms, order, reps = _pair_orbits(group, sub, mode, total)
    floors = {mask: order // n for mask, n in reps.items()}
    ordered = _generic_first(floors, group.size / 4)  # |A \ B| / 2
    return _survey(group, sub, mode, ordered, threads, timeout, progress,
                   floors=[floors[mask] for mask in ordered],
                   sets_examined=total, reps_searched=len(floors),
                   method="exhaustive",
                   details={"orbit_generators": len(perms), "recheck": True})


def _sample_mask(rng: random.Random, units: list[int]) -> int:
    return unit_union(units, rng.getrandbits(len(units)))


def random_bipartite_index(group: AbelianGroup, sub: Subgroup, mode: str,
                           samples: int = DEFAULT_SAMPLES, seed: int = 0,
                           threads: int = 1,
                           timeout: float | None = None,
                           progress=None) -> IndexSurveyResult:
    """Minimum index over uniformly random admissible sets (an upper bound)."""
    check_index2(sub)
    if samples < 1:
        raise BadParameter("a random survey needs at least one sample")
    rng = random.Random(seed)
    units = _units(group, sub, mode)
    masks = [_sample_mask(rng, units) for _ in range(samples)]
    return _survey(group, sub, mode, masks, threads, timeout, progress,
                   sets_examined=samples, reps_searched=samples,
                   method="random",
                   details={"seed": seed, "upper_bound_only": True,
                            "rng": "mersenne-twister"})


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


class TableRow(NamedTuple):
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


class TableRowResult(NamedTuple):
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
        return self._asdict()


def subgroup_of_type(group: AbelianGroup, iso_spec: str) -> Subgroup:
    """First index-2 subgroup (in character order) with the given type.
    Each character is typed by ``index2_type``; only the match is built."""
    want = invariant_factors_of_orders(parse_group_spec(iso_spec))
    for k in range(index2_subgroup_count(group)):
        if index2_type(group, k) == want:
            return index2_subgroup(group, k)
    raise ValueError(f"no index-2 subgroup of type {iso_spec} in "
                     f"{format_group_spec(group.orders)}")


def verify_table(which: int, budget: int = DEFAULT_TABLE_BUDGET,
                 include_extended: bool = False,
                 threads: int = 1,
                 search_cap: int = SEARCH_CAP,
                 progress=None) -> list[TableRowResult]:
    """Recompute every table row whose admissible-set count fits the budget;
    rows over budget (or extended rows not opted into) come back SKIPPED.
    A row to recompute on a group over ``search_cap`` is refused before any
    row is searched.  ``progress(done, total)`` counts each row's sets as
    ``sweep`` does."""
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
        if not skip and group.size > search_cap:
            raise CapExceeded(f"{row.group_spec}: |A|={group.size} exceeds "
                              f"BIPCAYLEY_SEARCH_CAP={search_cap}")
        plan.append((row, group, sub, total, skip))
    out = []
    for row, group, sub, total, skip in plan:
        if skip:
            out.append(TableRowResult(which, row.group_spec, row.subgroup_spec,
                                      row.expected, None, None, "skipped",
                                      skip, total))
            continue
        res = exhaustive_bipartite_index(group, sub, mode, budget=budget,
                                         threads=threads, progress=progress)
        out.append(TableRowResult(which, row.group_spec, row.subgroup_spec,
                                  row.expected, res.min_index,
                                  res.min_index == row.expected, "ok", "",
                                  total))
    return out


# -- Monte-Carlo proportions --------------------------------------------------------


class ProportionEstimate(NamedTuple):
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


def _sqrt_upper(value: Fraction) -> Fraction:
    """A rational upper bound on sqrt(value)."""
    if value <= 0:
        return Fraction(0)
    num = value.numerator * SQRT_SCALE * SQRT_SCALE
    return Fraction(math.isqrt(num // value.denominator) + 1, SQRT_SCALE)


def wilson_interval(hits: int, samples: int) -> tuple[Fraction, Fraction]:
    """95% Wilson interval with outward (conservative) rational rounding."""
    n = samples
    phat = Fraction(hits, n)
    denom = 1 + Z2 / n
    center = phat + Z2 / (2 * n)
    radicand = Z2 * (phat * (1 - phat) / n + Z2 / (4 * n * n))
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


class UnlabeledReport(NamedTuple):
    total_sets: int
    total_classes: int
    target_classes: int
    target_index: int
    class_sizes: list[int]

    def to_json(self) -> dict:
        return self._asdict()


def unlabeled_count(group: AbelianGroup, sub: Subgroup,
                    mode: str) -> UnlabeledReport:
    """Isomorphism classes among admissible Cay(A, S), via canonical forms:
    one form and one exact search per Stab_Aut(A)(B)-orbit, whose sets give
    isomorphic digraphs, and a class's size is the sum of its orbits'
    lengths.  Refused before any search past the exhaustive budget."""
    total = admissible_set_count(group, sub, mode)
    if total > DEFAULT_EXHAUSTIVE_BUDGET:
        raise BudgetExceeded(f"{total} admissible sets exceed the budget of "
                             f"{DEFAULT_EXHAUSTIVE_BUDGET} searches")
    target = 1 if mode == "directed" else minimal_graph_index_target(group)
    classes: dict[bytes, list[int]] = {}  # form -> [index, size]
    for mask, length in _pair_orbits(group, sub, mode, total)[2].items():
        digraph = build_cayley(group, connection_set(group, mask))
        form = canonical_form(digraph)
        idx = vertex_stabilizer(digraph).cayley_index
        kept = classes.setdefault(form, [idx, 0])
        if kept[0] != idx:
            raise FalsificationError(
                "one isomorphism class mixes different Cayley indices")
        kept[1] += length
    return UnlabeledReport(
        total_sets=total,
        total_classes=len(classes),
        target_classes=sum(idx == target for idx, _ in classes.values()),
        target_index=target,
        class_sizes=sorted((n for _, n in classes.values()), reverse=True),
    )


# -- the C2^6 reduced search -----------------------------------------------------------


class C26Report(NamedTuple):
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
        return self._asdict()


def _c26_group_and_parts():
    group = build_group([2] * 6)
    basis = group.generators()  # e1..e6 (coordinate unit vectors)
    b_bits = sum(1 << a for a in group.elements() if a.bit_count() % 2 == 0)
    return group, basis, b_bits, sum(basis[:3]), sum(basis[:5])


def _permute_coordinates(group: AbelianGroup, perms, elements: Sequence[int]
                         ) -> list[tuple[int, ...]]:
    """For each p in ``perms``, the images of ``elements`` when coordinate j
    takes coordinate p[j]."""
    coords = [group.decode(a) for a in elements]
    return [tuple(group.encode(tuple(c[j] for j in p)) for c in coords)
            for p in perms]


def _gl2_order(dim: int) -> int:
    order = 1
    for i in range(dim):
        order *= (1 << dim) - (1 << i)
    return order


def c26_subclaims(parts=None) -> C26Report:
    """The exactly-checkable sub-claims of the C2^6 reduction, on ``parts``
    (from ``_c26_group_and_parts``, built here when not given)."""
    group, basis, b_bits, rep3, rep5 = parts or _c26_group_and_parts()
    candidate_count = 2 * sum(math.comb(25, k) for k in range(10))
    residual = sum(1 << a for a in group.elements()
                   if not (b_bits >> a) & 1 and a not in basis)
    # Sym(coordinates) is generated by a transposition and a 6-cycle
    perms = _permute_coordinates(group, ((1, 0, 2, 3, 4, 5),
                                         (1, 2, 3, 4, 5, 0)), group.elements())
    orbit3, orbit5 = _orbit(perms, rep3), _orbit(perms, rep5)
    sizes = [orbit3.bit_count(), orbit5.bit_count()]
    if orbit3 | orbit5 != residual or sizes != [20, 6]:
        raise FalsificationError("unexpected coordinate-permutation orbits")

    # disconnected case: <S> = C2^l gives 2^(6-l) isomorphic components, so
    # the index is at least the closed form over a component of at least the
    # smaller table row's index (l = 1 is a single edge, index 1)
    component_index = {1: 1, 2: 2, 3: 6, 4: 24, 5: 72}
    disconnected = min(closed_form_order(c, 1 << ell, 1 << (6 - ell))
                       for ell, c in component_index.items())

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
    tuple: only the first of each orbit is kept.  A kept one comes as
    ``(mask, order, maps)``.  The coordinate permutations fixing ``rep`` and
    ``comb`` are automorphisms of A fixing S, so they fix 0 in
    Aut(Cay(A, S)), and they form a group H of that order.  ``maps`` holds,
    as element permutations, one member of H per first coordinate it moves
    and that coordinate's image: a strong generating set of H."""
    base = sum(1 << e for e in basis) | 1 << rep
    pool = [a for a in group.elements()
            if not (b_bits >> a) & 1 and not (base >> a) & 1]
    support = {i for i in range(6) if group.decode(rep)[i]}
    coords = [p for p in itertools.permutations(range(6))
              if {p[i] for i in support} == support]
    maps = _permute_coordinates(group, coords, group.elements())
    for k in range(10):
        for comb in itertools.combinations(pool, k):
            if any(tuple(sorted([m[a] for a in comb])) < comb for m in maps):
                yield None
                continue
            fixing = [(p, m) for p, m in zip(coords, maps)
                      if {m[a] for a in comb} == set(comb)]
            gens = {}
            for p, m in fixing[1:]:  # the identity comes first
                i = next(i for i in range(6) if p[i] != i)
                gens.setdefault((i, p[i]), m)
            yield base | sum(1 << a for a in comb), len(fixing), list(
                gens.values())


def c26_reduced_search(budget: int | None = None,
                       checkpoint: str | None = None,
                       threads: int = 1,
                       progress=None) -> C26Report:
    """Run (a budgeted prefix of) the 7,701,512-candidate minimization.

    The result equals the directed bipartite Cayley index of (C2^6, C2^5)
    when run to completion; the ordering of candidates is deterministic.
    Only orbit representatives are searched (see ``_c26_candidates``), and
    as each comes first in its orbit, every prefix keeps its minimum and
    argmin.  Each search starts from its candidate's coordinate stabilizer,
    whose order is the candidate's floor (see ``sweep``).  The stream is
    swept in blocks of ``C26_BLOCK`` positions, and after each block a
    checkpoint file gets one JSON line {cursor, reps_searched, best_index,
    best_set, best_mask}, which makes long runs resumable; ``budget`` and
    ``cursor`` count stream positions.  The ``reps_searched`` field is
    informational: a resume recounts it over the skipped prefix.  A line out of range, or with only one of
    ``best_index`` and ``best_mask``, is refused.  The final ``best_set``
    is re-checked by a full stabilizer search, as a survey's argmin is.
    """
    parts = _c26_group_and_parts()
    report = c26_subclaims(parts)
    group, basis, b_bits, rep3, rep5 = parts
    stream = itertools.chain(_c26_candidates(group, basis, b_bits, rep3),
                             _c26_candidates(group, basis, b_bits, rep5))
    start = 0
    best = None
    best_mask = None
    if checkpoint:
        try:
            with open(checkpoint, "a+", encoding="utf-8") as fh:
                fh.seek(0)
                lines = [line for line in fh if line.strip()]
            if lines:
                last = json.loads(lines[-1])
                start, best = last["cursor"], last["best_index"]
                best_mask = last.get("best_mask")
                if not (isinstance(start, int)
                        and 0 <= start <= report.candidate_count
                        and (best is None) == (best_mask is None)
                        and all(v is None or isinstance(v, int)
                                for v in (best, best_mask))
                        and 0 <= (best_mask or 0) < 1 << group.size):
                    raise ValueError("bad cursor, best_index or best_mask")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise BadParameter(f"checkpoint {checkpoint!r} is unusable: "
                               f"{exc!r}") from None
    reps_searched = sum(item is not None
                        for item in itertools.islice(stream, start))

    searched = start
    limit = report.candidate_count if budget is None else min(
        report.candidate_count, start + budget)
    while searched < limit:
        block = list(itertools.islice(stream, min(C26_BLOCK,
                                                  limit - searched)))
        reps = [item for item in block if item is not None]
        masks, floors, known = map(list, zip(*reps)) if reps else ([],) * 3
        best, found = sweep(group, masks, best, threads=threads,
                            floors=floors, known=known)
        if found is not None:
            best_mask = found
        searched += len(block)
        reps_searched += len(reps)
        if checkpoint:
            best_set = (_decode_set(group, best_mask)
                        if best_mask is not None else None)
            with open(checkpoint, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"best_index": best,
                                     "best_set": best_set,
                                     "cursor": searched,
                                     "reps_searched": reps_searched,
                                     "best_mask": best_mask}) + "\n")
        if progress is not None:
            progress(searched, limit)
    if best_mask is not None:
        _recheck(group, best, best_mask)
    return report._replace(
        searched=searched, reps_searched=reps_searched, best_index=best,
        best_set=(_decode_set(group, best_mask)
                  if best_mask is not None else None),
        completed=searched >= report.candidate_count)
