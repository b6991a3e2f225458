"""Cayley digraphs over finite abelian groups.

Adjacency is stored as one out-neighbor bitset per vertex: (g, h) is an arc
iff g - h lies in the connection set (the multiplicative gh^-1 condition in
additive notation), so the out-neighborhood of g is g - S and right
translation by any group element is an automorphism.  The out-rows are thus
the translates of -S and the in-rows the translates of S, and both are built
by rotating bitsets (``AbelianGroup.translates``).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from ._search import CanonicalSearch
from .errors import SetOutOfRange
from .groups import AbelianGroup, Subgroup, bits_of


class ConnectionSet(NamedTuple):
    """Subset S of the group as a bitset, with -S computed once."""

    group: AbelianGroup
    bits: int
    negated: int

    @property
    def inverse_closed(self) -> bool:
        return self.negated == self.bits

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def elements(self):
        return bits_of(self.bits)

    def element_tuples(self) -> list[tuple[int, ...]]:
        return [self.group.decode(a) for a in self.elements()]


def connection_set(group: AbelianGroup,
                   elements: int | Iterable[int | Sequence[int]]
                   ) -> ConnectionSet:
    """Build a connection set from a bitset, element indices, or coord tuples."""
    if isinstance(elements, int):
        bits = elements
    else:
        bits = 0
        for e in elements:
            idx = e if isinstance(e, int) else group.encode(e)
            bits |= 1 << idx
    if bits < 0 or bits >> group.size:
        raise SetOutOfRange("connection set refers to elements outside the group")
    return ConnectionSet(group, bits, group.negate_set(bits))


class CayleyDigraph:
    """Cay(A, S) with per-vertex out/in neighbor bitsets."""

    __slots__ = ("group", "conn", "out_neighbors", "in_neighbors")

    def __init__(self, group: AbelianGroup, conn: ConnectionSet):
        self.group = group
        self.conn = conn
        self.out_neighbors = group.translates(conn.negated)
        self.in_neighbors = (self.out_neighbors if conn.inverse_closed
                             else group.translates(conn.bits))

    @property
    def n(self) -> int:
        return self.group.size

    @property
    def is_graph(self) -> bool:
        return self.conn.inverse_closed

    def arcs(self):
        for g in range(self.n):
            for h in bits_of(self.out_neighbors[g]):
                yield (g, h)

    def __repr__(self) -> str:
        return (f"CayleyDigraph(n={self.n}, |S|={self.conn.size}, "
                f"graph={self.is_graph})")


def build_cayley(group: AbelianGroup,
                 conn: ConnectionSet | int | Iterable) -> CayleyDigraph:
    if not isinstance(conn, ConnectionSet):
        conn = connection_set(group, conn)
    if conn.group != group:
        raise SetOutOfRange("connection set belongs to a different group")
    return CayleyDigraph(group, conn)


def root_component(digraph: CayleyDigraph) -> int:
    """Bitset of <S>, the weak component of vertex 0 (S and -S generate the
    same subgroup).  {0} u S u -S u (S + S) u (S - S), the union of the rows
    of 0 and of S, lies in <S>: it fills A as soon as it passes n/2
    elements, as a proper subgroup has at most n/2.  Else a row search."""
    out, inn = digraph.out_neighbors, digraph.in_neighbors
    near = 1
    for s in (0, *bits_of(inn[0])):
        near |= out[s] | inn[s]
        if 2 * near.bit_count() > digraph.n:
            return (1 << digraph.n) - 1
    comp = frontier = 1
    while frontier:
        reach = 0
        for v in bits_of(frontier):
            reach |= out[v] | inn[v]
        frontier = reach & ~comp
        comp |= frontier
    return comp


def bipartition_respected(digraph: CayleyDigraph, sub: Subgroup) -> bool:
    """True iff every arc crosses the parts {B, A \\ B}, i.e. S avoids B."""
    return digraph.conn.bits & sub.bits == 0


def canonical_form(digraph: CayleyDigraph) -> bytes:
    """Canonical byte-string: equal for two digraphs iff they are isomorphic.

    The string is the row-major adjacency bit matrix of the canonically
    relabeled digraph (packed MSB-first, prefixed with the vertex count),
    minimized over the leaves of the individualization-refinement tree.
    """
    body = CanonicalSearch(digraph.out_neighbors, digraph.in_neighbors).run()
    return digraph.n.to_bytes(4, "big") + body


def edge_list_text(digraph: CayleyDigraph) -> str:
    """DIMACS-like arc list: one ``a <u> <v>`` line per arc."""
    lines = [f"p digraph {digraph.n} {sum(m.bit_count() for m in digraph.out_neighbors)}"]
    for g, h in digraph.arcs():
        lines.append(f"a {g} {h}")
    return "\n".join(lines) + "\n"
