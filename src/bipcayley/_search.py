"""One partition-refinement tree walker for digraph automorphisms.

``AutomorphismSearch`` walks the tree for the vertex-stabilizer engine;
``CanonicalSearch`` walks it for canonical forms and differs in one way only:
its reference leaf is the best (least-string) leaf so far.  Vertex sets are
int bitsets; permutations are tuples of ints.

The searches follow the usual individualization-refinement discipline:
refine an ordered partition to equitability using (out, in)-degree
signatures, counted as bit planes by ripple-carry addition of adjacency
rows (a few big-int operations per splitter member; one row is one plane),
branch on the first smallest non-singleton cell (smallest vertex first),
detect automorphisms by comparing discrete leaves against the first leaf
reached, and prune sibling branches lying in the same orbit under the
automorphisms found so far.  Splitters are taken from a stack, so the parts
of a split are used before older splitters; any order that does not depend
on vertex labels gives the same cells.  A split stacks every part but the
first largest (Hopcroft's rule, as in nauty/Traces and bliss): counts into
that part are counts into the old cell, equitable or stacked, minus counts
into its siblings.  A splitter scans only the cells it reaches that can still
split: not singletons, nor at the root the orbits of the seed
automorphisms.  A completed search's group order is the product of the
first-path orbit lengths: the orbit of the vertex individualized at depth
i, under the found automorphisms that fix the vertices individualized above
it (McKay & Piperno, "Practical graph isomorphism, II").  A leaf that
yields an automorphism backjumps to the deepest node the current path
shares with the first path (the best leaf's path, for canonical forms): the
rest of the abandoned subtree holds nothing new.  A leaf map g is checked
whole: the transposed rows ``out[g[a]]`` must have ``in[b]`` as row g[b].
A lazy Schreier-Sims chain gives the lower bound that decides early aborts.
"""

from __future__ import annotations

import functools
import time

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


@functools.lru_cache(maxsize=8)  # the same seeds serve every set of a group
def _orbits(gens: tuple[Perm, ...], n: int) -> frozenset[int]:
    """The orbits of two or more points under the group ``gens`` generates."""
    orbits = {_orbit(gens, p) for p in range(n)} if gens else ()
    return frozenset(o for o in orbits if o & (o - 1))


def _branch_depth(path, other) -> int:
    """The first depth where two distinct root-to-leaf paths differ."""
    return next(i for i, (a, b) in enumerate(zip(path, other)) if a != b)


def _fixers(gens, points) -> list[Perm]:
    """The permutations in ``gens`` that fix every one of ``points``."""
    return [g for g in gens if all(g[p] == p for p in points)]


# -- equitable refinement ------------------------------------------------------


def _planes(rows, w: int) -> list[int]:
    """Ripple-carry sum of ``rows[u]`` over u in ``w``: bit v of
    ``planes[-1 - j]`` is bit j of the number of those rows that contain v.
    A plane is added only for a carry past the top one, so none on top is
    zero: one row gives ``[row]``, an empty ``w`` gives ``[]``."""
    if not w & (w - 1):
        return [rows[w.bit_length() - 1]] if w else []
    planes = []
    while w:
        low = w & -w
        w ^= low
        carry = rows[low.bit_length() - 1]
        for j, p in enumerate(planes):
            planes[j] = p ^ carry
            carry &= p
            if not carry:
                break
        if carry:  # past the top plane
            planes.append(carry)
    return planes[::-1]


def refine_partition(out_adj, in_adj, cells, splitters=None,
                     final=frozenset()):
    """Refine an ordered partition until equitable wrt (out, in) counts.

    ``cells`` is a list of int bitsets, already equitable wrt every cell not
    in ``splitters`` (``None`` passes them all); the result is the coarsest
    equitable refinement, with the cells and order of the sequential Hopcroft
    refinement that pops splitters from a stack (the given ones first, in
    their order; a split's parts on top) and scans cells left to right.
    Parts of a split are ordered by (out, in) signature, so the result is
    deterministic and equivariant under relabeling: the counts into a
    splitter are bit planes (``_planes``), and a cell splits by them, most
    significant first.

    Work that cannot split is skipped.  Cells in ``final`` stay whole:
    callers pass orbits of automorphisms fixing every cell and splitter, so
    by equivariance each later cell is a union of orbits.  A regular
    digraph's last cell is not stacked by ``splitters=None``: at the bottom
    of the stack it would be popped after everything else, when its counts
    are the degree minus those into the other initial cells.  And a cell
    that no row of a splitter reaches is not scanned.
    """
    cells = list(cells)
    if splitters is None:
        regular = all(len(set(map(int.bit_count, rows))) < 2
                      for rows in (out_adj, in_adj))
        splitters = cells[:-1] if regular else cells
    stack = list(splitters)[::-1]  # the first splitter on top
    live = [i for i, cell in enumerate(cells)
            if cell & (cell - 1) and cell not in final]
    while stack and live:  # live: the positions of cells that may split
        w = stack.pop()
        planes = _planes(in_adj, w)  # out-counts
        if out_adj is not in_adj:  # else the in-counts are the same
            planes += _planes(out_adj, w)  # in-counts rank below
        reach = 0
        for p in planes:
            reach |= p
        old, live, shift = live, [], 0
        for i in old:
            i += shift
            cell = cells[i]
            if not cell & reach:  # no row of w meets the cell
                live.append(i)
                continue
            rest = iter(planes)
            for p in rest:
                hit = cell & p
                if 0 != hit != cell:
                    break
            else:
                live.append(i)
                continue
            parts = [cell ^ hit, hit]  # count bit 0 before bit 1
            for p in rest:
                if 0 != cell & p != cell:
                    split = []
                    for r in parts:
                        h = r & p
                        split += (r ^ h, h) if 0 != h != r else (r,)
                    parts = split
            cells[i:i + 1] = parts
            shift += len(parts) - 1
            big = size = 0  # the first largest part: implied by the others
            for q in parts:
                k = q.bit_count()
                if k > size:
                    big, size = q, k
                if k > 1 and q not in final:
                    live.append(i)
                i += 1
            parts.remove(big)
            stack += parts
    return cells


def _target_cell_index(cells) -> int:
    """First smallest non-singleton cell; -1 if the partition is discrete."""
    sizes = list(map(int.bit_count, cells))
    nontrivial = [s for s in sizes if s > 1]
    return sizes.index(min(nontrivial)) if nontrivial else -1


def _individualize(out_adj, in_adj, cells, idx, v):
    child = cells[:idx] + [1 << v, cells[idx] ^ (1 << v)] + cells[idx + 1:]
    return refine_partition(out_adj, in_adj, child, [1 << v])


@functools.lru_cache(maxsize=8)
def _swap_masks(w: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) of the block swaps, j = w/2, ..., 1, that transpose a
    w x w bit matrix packed row-major: the mask holds the entries (r, c) with
    bit j clear in r and set in c, which trade places with (r + j, c - j)."""
    steps = []
    for j in (w >> i for i in range(1, w.bit_length())):
        row = bytes(sum(1 << c for c in range(8) if (8 * k + c) & j)
                    for k in range(w // 8))
        block = (row * j + bytes(w // 8) * j) * (w // (2 * j))
        steps.append((j * (w - 1), int.from_bytes(block, "little")))
    return tuple(steps)


def _transpose(rows) -> list[int]:
    """Columns of the bit matrix with rows ``rows`` (bit a of column c is bit
    c of ``rows[a]``), by masked block swaps on the rows packed into one int
    at a power-of-two stride (Warren, Hacker's Delight, 7-3)."""
    n = len(rows)
    w = max(8, 1 << (n - 1).bit_length())
    width = w // 8
    x = int.from_bytes(b"".join(r.to_bytes(width, "little") for r in rows),
                       "little")
    for shift, mask in _swap_masks(w):
        t = (x ^ (x >> shift)) & mask
        x ^= t ^ (t << shift)
    buf = x.to_bytes(w * width, "little")
    return [int.from_bytes(buf[c * width:(c + 1) * width], "little")
            for c in range(n)]


def is_digraph_automorphism(out_adj, in_adj, g) -> bool:
    """b in out[a] iff g[b] in out[g[a]], for all a, b.  With R[a] =
    out[g[a]], column c of R is {a : c in out[g[a]]}; so g is an
    automorphism exactly when column g[b] of R is in[b] for every b."""
    cols = _transpose([out_adj[v] for v in g])
    return all(cols[v] == row for v, row in zip(g, in_adj))


class AbortSearch(Exception):
    """Internal: raised when the found group already meets the abort bound."""


# -- automorphism / stabilizer search ------------------------------------------


class AutomorphismSearch:
    """Find generators (and the order) of the stabilizer of vertex 0 in the
    automorphism group of a digraph: for a vertex-transitive digraph, such
    as a Cayley digraph, every vertex stabilizer is conjugate to it."""

    def __init__(self, out_adj, in_adj, seed_gens=(), abort_order=None,
                 timeout=None):
        self.out_adj = out_adj
        self.in_adj = in_adj
        self.n = len(out_adj)
        self.abort_order = abort_order
        self.deadline = None if timeout is None else time.monotonic() + timeout
        # lazy chain: order() is a certified lower bound, enough for aborts
        self.chain = StabChain(self.n)
        self.gens: list[Perm] = []  # kept by the chain; canonical: all found
        self.found: list[Perm] = []       # every automorphism found
        self.first_path: list[int] = []   # prefix of the reference leaf
        self.aborted = False
        try:
            for g in seed_gens:
                self._register(g)
        except AbortSearch:
            self.aborted = True
        self.position: Perm | None = None  # vertex -> its reference leaf cell
        self.prefix: list[int] = []
        self.jump = self.n  # the depth a backjump unwinds to; n: none

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
        cells = [1, (1 << self.n) - 2] if self.n > 1 else [1]
        seeds = tuple(_fixers(self.gens, [0]))
        cells = refine_partition(self.out_adj, self.in_adj, cells,
                                 final=_orbits(seeds, self.n))
        try:
            self._descend(cells)
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

    def _descend(self, cells) -> None:
        """Walk a subtree.  A leaf that yields an automorphism g unwinds the
        walk to the first-path node at depth k, the first where ``prefix``
        leaves ``first_path``, which goes on with its next child.  g fixes
        ``first_path[:k]`` and maps ``first_path[k]`` to ``prefix[k]``; the
        deeper first-path nodes are complete, so the found automorphisms
        generate the stabilizer H of ``first_path[:k+1]`` (see ``order``),
        and each leaf left under ``prefix[:k+1]`` yields one in gH.  Each
        child at depth k yields at most one: |orbit_k| - 1 in all."""
        self._check_deadline()
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
            if self.jump < len(self.prefix):
                return
            self.jump = self.n
            covered |= _orbit(_fixers(self.gens, self.prefix), u)

    def _leaf(self, cells) -> None:
        sigma = [cell.bit_length() - 1 for cell in cells]
        if self.position is None:
            self.position = perm_invert(sigma)
            self.first_path = list(self.prefix)
            return
        g = tuple(map(sigma.__getitem__, self.position))
        if is_digraph_automorphism(self.out_adj, self.in_adj, g):
            self._register(g)
            self.jump = _branch_depth(self.prefix, self.first_path)


# -- canonical labeling ---------------------------------------------------------


def _leaf_string(out_adj, sigma, n) -> bytes:
    """Row-major adjacency bits of the digraph relabeled by sigma
    (label i -> vertex sigma[i]), packed MSB-first into bytes."""
    rank = [0] * n
    for i, v in enumerate(sigma):
        rank[v] = n - 1 - i
    bits = 0
    for v in sigma:
        bits = bits << n | perm_on_set(rank, out_adj[v])
    return (bits << (-n * n % 8)).to_bytes((n * n + 7) // 8, "big")


class CanonicalSearch(AutomorphismSearch):
    """Minimal row-major adjacency string over the leaves of the
    individualization-refinement tree, walked as the stabilizer search
    walks it, with the best leaf so far as the reference leaf."""

    def __init__(self, out_adj, in_adj):
        super().__init__(out_adj, in_adj)
        self.best: bytes | None = None

    def run(self) -> bytes:
        cells = refine_partition(self.out_adj, self.in_adj,
                                 [(1 << self.n) - 1])
        self._descend(cells)
        assert self.best is not None
        return self.best

    def _leaf(self, cells) -> None:
        sigma = [cell.bit_length() - 1 for cell in cells]
        s = _leaf_string(self.out_adj, sigma, self.n)
        if self.best is None or s < self.best:
            self.best, self.position = s, perm_invert(sigma)
            self.first_path = list(self.prefix)
        elif s == self.best:
            g = tuple(map(sigma.__getitem__, self.position))
            if is_digraph_automorphism(self.out_adj, self.in_adj, g):
                self.gens.append(g)
                self.jump = _branch_depth(self.prefix, self.first_path)
