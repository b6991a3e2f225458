"""Partition-refinement search core for digraph automorphisms.

Shared by the vertex-stabilizer engine and the canonical-form engine.
Vertex sets are int bitsets; permutations are tuples of ints.

The searches follow the usual individualization-refinement discipline:
refine an ordered partition to equitability using (out, in)-degree
signatures, branch on the first smallest non-singleton cell (smallest
vertex first), detect automorphisms by comparing discrete leaves against
the first leaf reached, and prune sibling branches lying in the same
orbit under the automorphisms found so far.  A completed search's group
order is the product of the first-path orbit lengths: the orbit of the
vertex individualized at depth i, under the found automorphisms that fix
the vertices individualized above it (McKay & Piperno, "Practical graph
isomorphism, II").  A lazy Schreier-Sims chain gives the lower bound that
decides early aborts.
"""

from __future__ import annotations

import time
from collections import deque

from .errors import Timeout
from .groups import bits_of

Perm = tuple


def perm_compose(a: Perm, b: Perm) -> Perm:
    """(a o b)(i) = a(b(i))."""
    return tuple(a[v] for v in b)


def perm_invert(a: Perm) -> Perm:
    inv = [0] * len(a)
    for i, v in enumerate(a):
        inv[v] = i
    return tuple(inv)


def perm_on_set(g, mask: int) -> int:
    out = 0
    for b in bits_of(mask):
        out |= 1 << g[b]
    return out


def perm_cycles(g: Perm) -> list[tuple[int, ...]]:
    """Nontrivial cycles, smallest point first, sorted by smallest point."""
    seen = [False] * len(g)
    cycles = []
    for i in range(len(g)):
        if seen[i] or g[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = g[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = g[j]
        cycles.append(tuple(cyc))
    return cycles


def format_cycles(g: Perm) -> str:
    cycles = perm_cycles(g)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)


# -- Schreier-Sims stabilizer chain -------------------------------------------


class StabChain:
    """Deterministic lazy Schreier-Sims stabilizer chain on points 0..n-1.

    Recursive: each node stabilizes all shallower base points; a node's
    effective generating set is its own generators plus every deeper node's
    (those fix this node's base point too).  After each real addition the
    node rebuilds its orbit transversal.  Schreier generators are never
    certified, so ``order()`` is a lower bound on the order of the generated
    group (products of transversal representatives are still pairwise
    distinct), which is all an abort threshold needs.
    """

    def __init__(self, n: int):
        self.n = n
        self.identity = tuple(range(n))
        self.base: int | None = None
        self.gens: list[Perm] = []
        self.stab: StabChain | None = None
        self.transversal: dict[int, Perm] = {}

    def order(self) -> int:
        if self.base is None:
            return 1
        return len(self.transversal) * self.stab.order()

    def generators(self) -> list[Perm]:
        if self.base is None:
            return []
        return self.stab.generators() + self.gens

    def sift(self, g: Perm) -> Perm:
        if self.base is None or g == self.identity:
            return g
        u = self.transversal.get(g[self.base])
        if u is None:
            return g
        return self.stab.sift(perm_compose(perm_invert(u), g))

    def add_generator(self, g: Perm) -> bool:
        """Extend the chain; returns False when ``g`` sifts to the identity
        and so is already in the group."""
        residue = self.sift(g)
        if residue == self.identity:
            return False
        self._add_nonmember(residue)
        return True

    def _add_nonmember(self, g: Perm) -> None:
        if self.base is None:
            self.base = min(i for i, v in enumerate(g) if v != i)
            self.stab = StabChain(self.n)
            self.transversal = {self.base: self.identity}
        if g[self.base] == self.base:
            self.stab._add_nonmember(g)
        else:
            self.gens.append(g)
        self._rebuild_transversal()

    def _rebuild_transversal(self) -> None:
        gens = self.generators()
        trans = {self.base: self.identity}
        frontier = [self.base]
        while frontier:
            nxt = []
            for a in frontier:
                u = trans[a]
                for s in gens:
                    b = s[a]
                    if b not in trans:
                        trans[b] = perm_compose(s, u)
                        nxt.append(b)
            frontier = nxt
        self.transversal = trans


def _orbit(gens, point: int) -> int:
    """Orbit of ``point`` under the group generated by ``gens``, as a bitset."""
    orbit = 1 << point
    frontier = [point]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = g[p]
                if not (orbit >> q) & 1:
                    orbit |= 1 << q
                    nxt.append(q)
        frontier = nxt
    return orbit


def _fixers(gens, points) -> list[Perm]:
    """The permutations in ``gens`` that fix every one of ``points``."""
    return [g for g in gens if all(g[p] == p for p in points)]


# -- equitable refinement ------------------------------------------------------


def refine_partition(out_adj, in_adj, cells, splitters=None):
    """Refine an ordered partition until equitable wrt (out, in) counts.

    ``cells`` is a list of int bitsets.  New cells produced by a split are
    ordered by their (out, in) signature, which makes the procedure
    deterministic and equivariant under vertex relabeling.
    """
    cells = list(cells)
    queue = deque(cells if splitters is None else splitters)
    while queue:
        w = queue.popleft()
        i = 0
        while i < len(cells):
            cell = cells[i]
            if cell & (cell - 1):  # at least two vertices
                groups: dict[tuple[int, int], int] = {}
                for v in bits_of(cell):
                    key = ((out_adj[v] & w).bit_count(),
                           (in_adj[v] & w).bit_count())
                    groups[key] = groups.get(key, 0) | (1 << v)
                if len(groups) > 1:
                    parts = [groups[k] for k in sorted(groups)]
                    cells[i:i + 1] = parts
                    queue.extend(parts)
                    i += len(parts)
                    continue
            i += 1
    return cells


def _target_cell_index(cells) -> int:
    """First smallest non-singleton cell; -1 if the partition is discrete."""
    best = -1
    best_size = None
    for i, cell in enumerate(cells):
        size = cell.bit_count()
        if size > 1 and (best_size is None or size < best_size):
            best = i
            best_size = size
    return best


def _individualize(out_adj, in_adj, cells, idx, v):
    rest = cells[idx] ^ (1 << v)
    child = cells[:idx] + [1 << v, rest] + cells[idx + 1:]
    return refine_partition(out_adj, in_adj, child,
                            splitters=[1 << v, rest])


def is_digraph_automorphism(out_adj, g) -> bool:
    for a in range(len(out_adj)):
        if perm_on_set(g, out_adj[a]) != out_adj[g[a]]:
            return False
    return True


class AbortSearch(Exception):
    """Internal: raised when the found group already meets the abort bound."""


# -- automorphism / stabilizer search ------------------------------------------


class AutomorphismSearch:
    """Find generators (and the order) of the automorphism group of a digraph,
    optionally restricted to the stabilizer of a root vertex."""

    def __init__(self, out_adj, in_adj, root=None, seed_gens=(),
                 abort_order=None, timeout=None):
        self.out_adj = out_adj
        self.in_adj = in_adj
        self.n = len(out_adj)
        self.root = root
        self.abort_order = abort_order
        self.deadline = None if timeout is None else time.monotonic() + timeout
        # lazy chain: order() is a certified lower bound, enough for aborts
        self.chain = StabChain(self.n)
        self.gens: list[Perm] = []        # kept by the chain
        self.found: list[Perm] = []       # every automorphism found
        self.first_path: list[int] = []   # prefix of the reference leaf
        self.aborted = False
        try:
            for g in seed_gens:
                self._register(g)
        except AbortSearch:
            self.aborted = True
        self.ref_leaf: list[int] | None = None
        self.ref_invariants: list[tuple[int, ...]] = []
        self.prefix: list[int] = []

    def _register(self, g: Perm) -> None:
        self.found.append(g)
        if self.chain.add_generator(g):
            self.gens.append(g)
            if self.abort_order is not None \
                    and self.chain.order() >= self.abort_order:
                raise AbortSearch

    def run(self) -> "AutomorphismSearch":
        if self.aborted:
            return self
        full = (1 << self.n) - 1
        if self.root is None:
            cells = [full]
        elif self.n == 1:
            cells = [full]
        else:
            cells = [1 << self.root, full ^ (1 << self.root)]
        cells = refine_partition(self.out_adj, self.in_adj, cells)
        try:
            self._descend(cells, 0)
        except AbortSearch:
            self.aborted = True
        return self

    def order(self) -> int:
        """The exact group order when the search completed, otherwise the
        lazy chain's certified lower bound.

        The exact order is the product over i of the orbit length of
        ``first_path[i]`` under the found automorphisms that fix
        ``first_path[:i]``.  A completed search visits every child v of the
        first-path node at depth i, bar orbit-mates of visited ones, and
        in v's subtree finds an automorphism fixing ``first_path[:i]`` and
        mapping ``first_path[i]`` to v whenever one exists; so each orbit is
        the full orbit in the pointwise stabilizer of ``first_path[:i]``,
        and orbit-stabilizer makes the product the group order.  The orbits
        need every found automorphism: those the chain keeps generate the
        group but, in general, not these stabilizers.
        """
        if self.aborted:
            return self.chain.order()
        order = 1
        for i, p in enumerate(self.first_path):
            fixers = _fixers(self.found, self.first_path[:i])
            order *= _orbit(fixers, p).bit_count()
        return order

    def _check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise Timeout("stabilizer search exceeded its time budget")

    def _descend(self, cells, depth: int) -> None:
        self._check_deadline()
        building_ref = self.ref_leaf is None
        invariant = tuple(c.bit_count() for c in cells)
        if building_ref:
            self.ref_invariants.append(invariant)
        elif depth >= len(self.ref_invariants) \
                or invariant != self.ref_invariants[depth]:
            return  # no automorphism can map this node onto the reference path
        idx = _target_cell_index(cells)
        if idx < 0:
            self._leaf(cells)
            return
        target = cells[idx]
        covered = 0
        for u in bits_of(target):
            if (covered >> u) & 1:
                continue
            child = _individualize(self.out_adj, self.in_adj, cells, idx, u)
            self.prefix.append(u)
            try:
                self._descend(child, depth + 1)
            finally:
                self.prefix.pop()
            covered |= _orbit(_fixers(self.gens, self.prefix), u)

    def _leaf(self, cells) -> None:
        sigma = [cell.bit_length() - 1 for cell in cells]
        if self.ref_leaf is None:
            self.ref_leaf = sigma
            self.first_path = list(self.prefix)
            return
        g = [0] * self.n
        for a, b in zip(self.ref_leaf, sigma):
            g[a] = b
        g = tuple(g)
        if is_digraph_automorphism(self.out_adj, g):
            self._register(g)


# -- canonical labeling ---------------------------------------------------------


def _leaf_string(out_adj, sigma, n) -> bytes:
    """Row-major adjacency bits of the digraph relabeled by sigma
    (label i -> vertex sigma[i]), packed MSB-first into bytes."""
    bits = bytearray((n * n + 7) // 8)
    pos = 0
    for i in range(n):
        row = out_adj[sigma[i]]
        for j in range(n):
            if (row >> sigma[j]) & 1:
                bits[pos >> 3] |= 0x80 >> (pos & 7)
            pos += 1
    return bytes(bits)


class CanonicalSearch:
    """Minimal row-major adjacency string over the leaves of the
    individualization-refinement tree (with orbit pruning)."""

    def __init__(self, out_adj, in_adj, timeout=None):
        self.out_adj = out_adj
        self.in_adj = in_adj
        self.n = len(out_adj)
        self.deadline = None if timeout is None else time.monotonic() + timeout
        self.best: bytes | None = None
        self.best_leaf: list[int] | None = None
        self.gens: list[Perm] = []
        self.prefix: list[int] = []

    def run(self) -> bytes:
        cells = refine_partition(self.out_adj, self.in_adj,
                                 [(1 << self.n) - 1])
        self._descend(cells)
        assert self.best is not None
        return self.best

    def _descend(self, cells) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise Timeout("canonical labeling exceeded its time budget")
        idx = _target_cell_index(cells)
        if idx < 0:
            self._leaf(cells)
            return
        target = cells[idx]
        covered = 0
        for u in bits_of(target):
            if (covered >> u) & 1:
                continue
            child = _individualize(self.out_adj, self.in_adj, cells, idx, u)
            self.prefix.append(u)
            try:
                self._descend(child)
            finally:
                self.prefix.pop()
            covered |= _orbit(_fixers(self.gens, self.prefix), u)

    def _leaf(self, cells) -> None:
        sigma = [cell.bit_length() - 1 for cell in cells]
        s = _leaf_string(self.out_adj, sigma, self.n)
        if self.best is None or s < self.best:
            self.best = s
            self.best_leaf = sigma
            return
        if s == self.best:
            g = [0] * self.n
            for a, b in zip(self.best_leaf, sigma):
                g[a] = b
            g = tuple(g)
            if is_digraph_automorphism(self.out_adj, g):
                self.gens.append(g)
