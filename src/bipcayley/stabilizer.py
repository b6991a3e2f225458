"""Exact automorphism-group computation for Cayley digraphs.

Only the stabilizer of one vertex is ever searched: right translations act
regularly, so |Aut(Cay(A,S))| = |A| * |Aut(Cay(A,S))_v| and the Cayley index
|Aut : A| equals the stabilizer order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import permutations

from ._search import (
    AutomorphismSearch,
    Perm,
    format_cycles,
    perm_on_set,
)
from .autos import inversion_automorphism
from .cayley import CayleyDigraph, build_cayley
from .errors import NotInverseClosed
from .groups import AbelianGroup, Subgroup, format_group_spec


@dataclass(frozen=True)
class AutReport:
    """Result of a vertex-stabilizer search."""

    stabilizer_order: int
    full_order: int
    cayley_index: int
    stabilizer_generators: tuple[Perm, ...] = field(default=())


def _iota_seed(digraph: CayleyDigraph, v: int) -> list[Perm]:
    """Negation is a digraph automorphism whenever S = -S; seed the search
    with it when it also fixes the chosen vertex."""
    group = digraph.group
    if not digraph.is_graph or group.exponent <= 2:
        return []
    if group.neg(v) != v:
        return []
    return [inversion_automorphism(group).image]


def vertex_stabilizer(digraph: CayleyDigraph, v: int = 0,
                      timeout: float | None = None) -> AutReport:
    """Exact order and generators of the stabilizer of ``v`` in Aut(digraph)."""
    search = AutomorphismSearch(digraph.out_neighbors, digraph.in_neighbors,
                                root=v, seed_gens=_iota_seed(digraph, v),
                                timeout=timeout).run()
    order = search.order()
    return AutReport(stabilizer_order=order,
                     full_order=digraph.n * order,
                     cayley_index=order,
                     stabilizer_generators=tuple(search.gens))


def stabilizer_order_bounded(digraph: CayleyDigraph,
                             abort_order: int | None = None,
                             timeout: float | None = None) -> tuple[int, bool]:
    """Order of the stabilizer of vertex 0, with early abort.

    Returns ``(order, exact)``.  When the search is aborted because the group
    found so far already has order >= ``abort_order``, the returned order is a
    lower bound and ``exact`` is False.
    """
    search = AutomorphismSearch(digraph.out_neighbors, digraph.in_neighbors,
                                root=0, seed_gens=_iota_seed(digraph, 0),
                                abort_order=abort_order, timeout=timeout).run()
    return search.order(), not search.aborted


def cayley_index(group: AbelianGroup, conn) -> int:
    """|Aut(Cay(A,S)) : A|, computed at the identity vertex."""
    return vertex_stabilizer(build_cayley(group, conn)).cayley_index


def is_drr(group: AbelianGroup, conn) -> bool:
    return cayley_index(group, conn) == 1


def minimal_graph_index_target(group: AbelianGroup) -> int:
    """The smallest possible Cayley index of a Cayley graph over the group:
    1 for exponent 2, else 2 (inversion is always a graph automorphism)."""
    return 1 if group.exponent == 2 else 2


def is_minimal_graph_index(group: AbelianGroup, conn) -> bool:
    digraph = build_cayley(group, conn)
    if not digraph.is_graph:
        raise NotInverseClosed("minimal graph index requires S = -S")
    idx = vertex_stabilizer(digraph).cayley_index
    return idx == minimal_graph_index_target(group)


def brute_force_stabilizer_order(digraph: CayleyDigraph, v: int = 0) -> int:
    """Count all vertex permutations fixing ``v`` that preserve arcs.

    Independent oracle for the backtracking search; factorial cost, meant
    for digraphs on <= 10 vertices.
    """
    n = digraph.n
    out = digraph.out_neighbors
    others = [u for u in range(n) if u != v]
    count = 0
    g = list(range(n))
    for per in permutations(others):
        for pos, u in zip(others, per):
            g[pos] = u
        ok = True
        for a in range(n):
            if perm_on_set(g, out[a]) != out[g[a]]:
                ok = False
                break
        count += ok
    return count


def report_json(group: AbelianGroup, conn, sub: Subgroup | None = None,
                timeout: float | None = None,
                with_timing: bool = True) -> dict:
    """Machine-readable stabilizer report for one connection set."""
    digraph = build_cayley(group, conn)
    start = time.monotonic()
    rep = vertex_stabilizer(digraph, 0, timeout=timeout)
    elapsed_ms = (time.monotonic() - start) * 1000.0
    return {
        "group": format_group_spec(group.orders),
        "subgroup": (sorted(group.decode(g) for g in sub.generators)
                     if sub is not None else None),
        "connection_set": sorted(digraph.conn.element_tuples()),
        "stabilizer_order": rep.stabilizer_order,
        "cayley_index": rep.cayley_index,
        "is_drr": rep.cayley_index == 1,
        "generators": [format_cycles(g) for g in rep.stabilizer_generators],
        "elapsed_ms": round(elapsed_ms, 3) if with_timing else 0.0,
    }
