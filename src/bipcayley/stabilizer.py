"""Exact automorphism-group computation for Cayley digraphs.

Only the stabilizer of vertex 0 is ever searched: right translations act
regularly, so |Aut(Cay(A,S))| = |A| * |Aut(Cay(A,S))_0| and the Cayley index
|Aut : A| equals the stabilizer order.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import NamedTuple

from ._search import AutomorphismSearch, Perm, perm_on_set
from .autos import inversion_automorphism
from .cayley import CayleyDigraph, root_component
from .errors import FalsificationError
from .groups import AbelianGroup, bits_of


class AutReport(NamedTuple):
    """Result of a vertex-stabilizer search.  ``cayley_index`` is the order
    of the stabilizer of vertex 0 (see the module docstring)."""

    cayley_index: int
    stabilizer_generators: tuple[Perm, ...] = ()


def closed_form_order(s_q: int, k: int, m: int, t: int = 1) -> int:
    """The vertex-stabilizer order of Cay(A, S) from that of a smaller digraph.

    Cay(A, S) is m copies of its root component Y = Cay(<S>, S), on k
    vertices, so Aut = Aut(Y) wr S_m.  The twin classes of Y (vertices with
    equal rows: the cosets of the full period P of S, t = |P|) are modules,
    so Aut(Y) = S_t wr Aut(Q) for the quotient Q = Cay(<S>/P, S/P) on
    q = k/t vertices (Sabidussi, "The lexicographic product of graphs",
    Duke Math. J. 28, 1961).  With s_q the stabilizer order of Q, that of Y
    is s = (t!)^q s_q / t, and that of Cay(A, S) is s (k s)^(m-1) (m-1)!.
    """
    s = math.factorial(t) ** (k // t) // t * s_q
    return s * (k * s) ** (m - 1) * math.factorial(m - 1)


def _symmetric(points) -> list[list[tuple[int, int]]]:
    """A transposition and a full cycle of ``points``, as (point, image)
    pairs: together they generate Sym(points)."""
    if len(points) < 2:
        return []
    moves = [[(points[0], points[1]), (points[1], points[0])]]
    if len(points) > 2:
        moves.append(list(zip(points, points[1:] + points[:1])))
    return moves


class _Quotient:
    """Cay(A, S) as m copies of its root component Y = Cay(<S>, S), and Y as
    the quotient Q by its twin classes, each class one vertex of Q.  Class 0
    is the full period P of S and holds 0 first.  A connected, aperiodic
    digraph (m = t = 1) is its own quotient and keeps its rows.  Only Q is
    searched, at 0, seeded with the ``known`` automorphisms of A fixing S
    (element permutations) and with inversion when S = -S, each put on Q's
    labels; ``lift`` and ``generators`` answer for Cay(A, S)."""

    def __init__(self, digraph: CayleyDigraph, known=()):
        out, inn = digraph.out_neighbors, digraph.in_neighbors
        n = digraph.n
        self.digraph = digraph
        self.comp = root_component(digraph)
        self.k = self.comp.bit_count()
        self.m = n // self.k
        # t counts inside <S>: with S = {} every vertex has the row of 0
        if self.m == 1 and out.count(out[0]) == 1:
            self.t, self.classes = 1, None
            label = reps = range(n)
            self.out, self.inn = out, inn
        else:
            self.members = list(bits_of(self.comp))
            twins: dict[int, list[int]] = {}
            for g in self.members:
                twins.setdefault(out[g], []).append(g)
            self.classes = list(twins.values())
            label = [0] * n
            for j, c in enumerate(self.classes):
                for g in c:
                    label[g] = j
            self.t = len(self.classes[0])
            reps = [c[0] for c in self.classes]
            self.out = [perm_on_set(label, out[r]) for r in reps]
            self.inn = self.out if inn is out else [
                perm_on_set(label, inn[r]) for r in reps]
        group, conn = digraph.group, digraph.conn.bits
        if digraph.is_graph and group.exponent > 2:
            known = (*known, inversion_automorphism(group).image)
        self.seeds = []
        for g in known:
            if g[0] or perm_on_set(g, conn) != conn:
                raise FalsificationError("a known automorphism moves 0 or S")
            seed = tuple(label[g[r]] for r in reps)
            if seed != tuple(range(len(reps))):
                self.seeds.append(seed)

    def lift(self, s_q: int) -> int:
        return closed_form_order(s_q, self.k, self.m, self.t)

    def search(self, abort_order: int | None,
               timeout: float | None) -> AutomorphismSearch:
        """Q's stabilizer search, aborted at the least order whose lift
        reaches ``abort_order`` (which must exceed ``lift(1)``)."""
        least = abort_order
        if least is not None:  # lift(s) = s^m lift(1): the least s^m >= r
            r = least = -(-abort_order // self.lift(1))
            lo = 1  # lo^m < r <= least^m
            while self.m > 1 and least - lo > 1:
                mid = (lo + least) // 2
                lo, least = (lo, mid) if mid ** self.m >= r else (mid, least)
        return AutomorphismSearch(self.out, self.inn, seed_gens=self.seeds,
                                  abort_order=least, timeout=timeout).run()

    def generators(self, q_gens) -> list[Perm]:
        """Generators of the stabilizer of 0.  Those of the stabilizer of 0
        in Y, on copy 0: Q's, lifted class by class, and Sym of each class,
        Sym(P - 0) for class 0.  With the translations by S they generate
        Aut(Y), put on copy 1; and translations permute the copies 1..m-1
        as Sym."""
        group, classes = self.digraph.group, self.classes
        if classes is None:  # Q's generators are already permutations of A
            return list(q_gens)

        def onto(a, b):  # the copy of a onto the copy of b, by translation
            return [(group.add(a, c), group.add(b, c)) for c in self.members]

        moves = [[(x, y) for c, h in zip(classes, gen)
                  for x, y in zip(c, classes[h])] for gen in q_gens]
        moves += _symmetric(classes[0][1:])
        for c in classes[1:]:
            moves += _symmetric(c)
        if self.m > 1:
            reps = [a for a, coset in enumerate(group.translates(self.comp))
                    if coset & -coset == 1 << a]  # least of its coset
            a = reps[1]
            moves += [[(group.add(x, a), group.add(y, a)) for x, y in move]
                      for move in moves]
            moves += [onto(a, group.add(a, s))
                      for s in bits_of(self.digraph.conn.bits & ~1)]
            moves += [[p for x, y in move for p in onto(x, y)]
                      for move in _symmetric(reps[1:])]
        gens = []
        for move in moves:
            g = list(range(self.digraph.n))
            for x, y in move:
                g[x] = y
            gens.append(tuple(g))
        return gens


def vertex_stabilizer(digraph: CayleyDigraph, *,
                      timeout: float | None = None) -> AutReport:
    """Exact order and generators of the stabilizer of vertex 0 in
    Aut(digraph).  That of vertex v is its conjugate by the translation by
    v, and |Aut(digraph)| is n times its order."""
    quotient = _Quotient(digraph)
    search = quotient.search(None, timeout)
    order = quotient.lift(search.order())
    return AutReport(cayley_index=order,
                     stabilizer_generators=tuple(
                         quotient.generators(search.gens)))


def stabilizer_order_bounded(digraph: CayleyDigraph,
                             abort_order: int | None = None,
                             timeout: float | None = None,
                             known=()) -> tuple[int, bool]:
    """Order of the stabilizer of vertex 0, with early abort.

    Returns ``(order, exact)``.  When the search is aborted because the group
    found so far already has order >= ``abort_order``, the returned order is a
    lower bound and ``exact`` is False.  A digraph whose least closed form,
    ``lift(1)``, already reaches ``abort_order`` is not searched.  The search
    starts from the ``known`` automorphisms of A fixing S (see ``_Quotient``).
    """
    quotient = _Quotient(digraph, known)
    least = quotient.lift(1)
    if abort_order is not None and least >= abort_order:
        return least, False
    search = quotient.search(abort_order, timeout)
    return quotient.lift(search.order()), not search.aborted


def minimal_graph_index_target(group: AbelianGroup) -> int:
    """The smallest possible Cayley index of a Cayley graph over the group:
    1 for exponent 2, else 2 (inversion is always a graph automorphism)."""
    return 1 if group.exponent == 2 else 2


def brute_force_stabilizer_order(digraph: CayleyDigraph) -> int:
    """Count all vertex permutations fixing vertex 0 that preserve arcs.

    Independent oracle for the backtracking search; factorial cost, meant
    for digraphs on <= 10 vertices.
    """
    n = digraph.n
    out = digraph.out_neighbors
    others = range(1, n)
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

