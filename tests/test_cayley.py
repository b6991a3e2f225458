import random

import pytest

from bipcayley._search import (
    CanonicalSearch,
    _fixers,
    _individualize,
    _leaf_string,
    _orbit,
    _target_cell_index,
    is_digraph_automorphism,
    refine_partition,
)
from bipcayley.cayley import (
    bipartition_respected,
    build_cayley,
    canonical_form,
    connection_set,
    edge_list_text,
    root_component,
)
from bipcayley.errors import SetOutOfRange
from bipcayley.groups import (
    bits_of,
    build_group,
    generated_subgroup,
    involution_subgroup,
)


def test_directed_six_cycle():
    g = build_group([6])
    d = build_cayley(g, connection_set(g, [1]))
    assert sorted(d.arcs()) == [(0, 5), (1, 0), (2, 1), (3, 2), (4, 3), (5, 4)]
    assert not d.is_graph
    assert all(d.out_neighbors[v].bit_count() == 1 for v in range(6))
    assert all(d.in_neighbors[v].bit_count() == 1 for v in range(6))


def test_perfect_matching():
    g = build_group([2, 2])
    d = build_cayley(g, connection_set(g, [(0, 1)]))
    assert d.is_graph
    pairs = {frozenset((u, v)) for u, v in d.arcs()}
    assert len(pairs) == 2 and all(len(p) == 2 for p in pairs)


def test_complete_bipartite():
    g = build_group([6])
    d = build_cayley(g, connection_set(g, [1, 3, 5]))
    b = {0, 2, 4}
    for u, v in d.arcs():
        assert (u in b) != (v in b)
    assert sum(m.bit_count() for m in d.out_neighbors) == 18  # K_{3,3} arcs


def test_degrees_match_set_size(small_groups):
    rng = random.Random(3)
    for g in small_groups:
        bits = 0
        for a in g.elements():
            if rng.random() < 0.4:
                bits |= 1 << a
        d = build_cayley(g, connection_set(g, bits))
        k = bits.bit_count()
        assert all(m.bit_count() == k for m in d.out_neighbors)
        assert all(m.bit_count() == k for m in d.in_neighbors)


def test_right_translation_is_automorphism(small_groups):
    rng = random.Random(5)
    for g in small_groups:
        if g.size > 64:
            continue
        bits = 0
        for a in g.elements():
            if rng.random() < 0.5:
                bits |= 1 << a
        d = build_cayley(g, connection_set(g, bits))
        for t in g.elements():
            for u, v in d.arcs():
                assert (d.out_neighbors[g.add(u, t)] >> g.add(v, t)) & 1


def test_graph_iff_inverse_closed():
    g = build_group([6])
    assert connection_set(g, [1, 2]).negated == (1 << 5) | (1 << 4)
    assert not connection_set(g, [1]).inverse_closed
    assert connection_set(g, [1, 5]).inverse_closed
    assert connection_set(g, [3]).inverse_closed
    d = build_cayley(g, connection_set(g, [1, 5]))
    arcs = set(d.arcs())
    assert all((v, u) in arcs for u, v in arcs)


def test_set_out_of_range():
    g = build_group([4])
    with pytest.raises(SetOutOfRange):
        connection_set(g, 1 << 4)


def test_is_connected():
    def connected(group, elements):
        return root_component(build_cayley(
            group, connection_set(group, elements))).bit_count() == group.size

    g = build_group([6])
    assert not connected(g, [])
    assert connected(g, [1])
    g2 = build_group([4, 2])
    assert not connected(g2, [(2, 0)])


def test_root_component_is_the_generated_subgroup(small_groups):
    """Both routes of ``root_component``: the union of the rows of 0 and of
    S past n/2 elements, and the search over rows."""
    rng = random.Random(5)
    for g in small_groups + [build_group([2, 30]), build_group([2] * 6)]:
        for density in (0.02, 0.1, 0.5):
            for _ in range(6):
                bits = sum(1 << a for a in g.elements()
                           if rng.random() < density)
                d = build_cayley(g, connection_set(g, bits))
                assert root_component(d) \
                    == generated_subgroup(g, list(bits_of(bits))).bits


def test_bipartition_respected():
    g = build_group([6])
    b = generated_subgroup(g, [2])
    assert bipartition_respected(build_cayley(g, connection_set(g, [1, 3])), b)
    assert not bipartition_respected(build_cayley(g, connection_set(g, [2])), b)

    g2 = build_group([4, 2])
    a2 = involution_subgroup(g2)
    d = build_cayley(g2, connection_set(g2, [(1, 0), (3, 0)]))
    assert bipartition_respected(d, a2)


def test_canonical_form_examples():
    g = build_group([6])
    f1 = canonical_form(build_cayley(g, connection_set(g, [1])))
    f5 = canonical_form(build_cayley(g, connection_set(g, [5])))
    f2 = canonical_form(build_cayley(g, connection_set(g, [2])))
    assert f1 == f5          # reversal via inversion
    assert f1 != f2          # connected vs not

    g2 = build_group([2, 2])
    fa = canonical_form(build_cayley(g2, connection_set(g2, [(0, 1)])))
    fb = canonical_form(build_cayley(g2, connection_set(g2, [(1, 0)])))
    assert fa == fb          # coordinate swap


def test_canonical_form_relabel_invariance():
    rng = random.Random(11)
    g = build_group([8])
    for _ in range(10):
        bits = 0
        for a in g.elements():
            if rng.random() < 0.5:
                bits |= 1 << a
        d = build_cayley(g, connection_set(g, bits))
        base = CanonicalSearch(d.out_neighbors, d.in_neighbors).run()
        perm = list(range(8))
        rng.shuffle(perm)
        out = [0] * 8
        for u in range(8):
            m = 0
            for v in range(8):
                if (d.out_neighbors[u] >> v) & 1:
                    m |= 1 << perm[v]
            out[perm[u]] = m
        inn = [0] * 8
        for u in range(8):
            for v in range(8):
                if (out[u] >> v) & 1:
                    inn[v] |= 1 << u
        assert CanonicalSearch(out, inn).run() == base


def test_canonical_form_invariant_under_conjugation():
    from bipcayley.autos import enumerate_automorphisms
    g = build_group([4, 2])
    bits = (1 << g.encode((1, 0))) | (1 << g.encode((0, 1))) \
        | (1 << g.encode((3, 1)))
    base = canonical_form(build_cayley(g, connection_set(g, bits)))
    for alpha in enumerate_automorphisms(g):
        conj = alpha.apply_to_set(bits)
        assert canonical_form(build_cayley(g, connection_set(g, conj))) == base


def test_canonical_form_separates_nonisomorphic():
    g = build_group([8])
    forms = {canonical_form(build_cayley(g, connection_set(g, bits)))
             for bits in [0b10, 0b100, 0b1010, 0b10010, 0b11110, 0b10101010]}
    # directed cycles of different structure plus others all distinct
    assert len(forms) == 6


def test_exports():
    g = build_group([4])
    d = build_cayley(g, connection_set(g, [1]))
    text = edge_list_text(d)
    assert text.startswith("p digraph 4 4")
    assert "a 1 0" in text  # arc (1, 0): 1 - 0 = 1 in S


def reference_rows(group, bits):
    """Element-wise rows: out[g] = {g - s} and in[h] = {h + s}, s in S."""
    n = group.size
    out, inn = [0] * n, [0] * n
    for s in bits_of(bits):
        for g in range(n):
            out[g] |= 1 << group.add(g, group.neg(s))
            inn[g] |= 1 << group.add(g, s)
    return out, inn


def assert_rows_match(group, bits):
    d = build_cayley(group, connection_set(group, bits))
    assert (d.out_neighbors, d.in_neighbors) == reference_rows(group, bits)


def test_rows_match_reference_on_small_groups(small_groups):
    rng = random.Random(13)
    for g in small_groups:
        if g.size <= 8:
            masks = range(1 << g.size)
        else:
            masks = [rng.getrandbits(g.size) for _ in range(40)]
        for bits in masks:
            assert_rows_match(g, bits)
            assert_rows_match(g, bits | g.negate_set(bits))


def test_rows_match_reference_on_mixed_radix_groups():
    rng = random.Random(17)
    for orders in ([2, 30], [4, 2, 2, 2], [2] * 6, [3, 4, 5]):
        g = build_group(orders)
        for _ in range(20):
            bits = rng.getrandbits(g.size)
            assert_rows_match(g, bits)
            undirected = bits | g.negate_set(bits)
            assert connection_set(g, undirected).inverse_closed
            assert_rows_match(g, undirected)


def _leaf_string_bit_by_bit(out_adj, sigma, n):
    """Reference for ``_leaf_string``: bit i*n + j, MSB first, is set when
    sigma[j] is an out-neighbor of sigma[i]."""
    bits = bytearray((n * n + 7) // 8)
    pos = 0
    for i in range(n):
        row = out_adj[sigma[i]]
        for j in range(n):
            if (row >> sigma[j]) & 1:
                bits[pos >> 3] |= 0x80 >> (pos & 7)
            pos += 1
    return bytes(bits)


def test_leaf_string_matches_bit_by_bit_reference():
    rng = random.Random(3)
    for n in (1, 7, 8, 9, 16, 63, 64, 65, 70):
        for _ in range(20):
            out = [rng.getrandbits(n) for _ in range(n)]
            sigma = rng.sample(range(n), n)
            assert _leaf_string(out, sigma, n) \
                == _leaf_string_bit_by_bit(out, sigma, n)


class _CanonicalWithoutBackjump:
    """Frozen copy of the canonical walker before backjumping: the minimal
    leaf string with orbit pruning only."""

    def __init__(self, out_adj, in_adj):
        self.out_adj, self.in_adj, self.n = out_adj, in_adj, len(out_adj)
        self.best = self.best_leaf = None
        self.gens, self.prefix = [], []

    def run(self):
        self._descend(refine_partition(self.out_adj, self.in_adj,
                                       [(1 << self.n) - 1]))
        return self.best

    def _descend(self, cells):
        idx = _target_cell_index(cells)
        if idx < 0:
            return self._leaf(cells)
        covered = 0
        for u in bits_of(cells[idx]):
            if (covered >> u) & 1:
                continue
            self.prefix.append(u)
            self._descend(_individualize(self.out_adj, self.in_adj, cells,
                                         idx, u))
            self.prefix.pop()
            covered |= _orbit(_fixers(self.gens, self.prefix), u)

    def _leaf(self, cells):
        sigma = [cell.bit_length() - 1 for cell in cells]
        s = _leaf_string(self.out_adj, sigma, self.n)
        if self.best is None or s < self.best:
            self.best, self.best_leaf = s, sigma
        elif s == self.best:
            g = [0] * self.n
            for a, b in zip(self.best_leaf, sigma):
                g[a] = b
            if is_digraph_automorphism(self.out_adj, self.in_adj, g):
                self.gens.append(tuple(g))


def _rows_and_columns(out):
    n = len(out)
    return out, [sum(1 << a for a in range(n) if (out[a] >> b) & 1)
                 for b in range(n)]


def _unions_of_copies(rng, count):
    """Random digraphs made of 2 or 3 copies of a small random digraph and
    one more, shuffled: automorphisms swap the copies, and unlike Cayley
    digraphs they need not be vertex-transitive."""
    def piece(n, symmetric):
        out = [0] * n
        for a in range(n):
            for b in range(n):
                if a != b and (not symmetric or a < b) and rng.random() < 0.5:
                    out[a] |= 1 << b
                    out[b] |= symmetric << a
        return out
    for _ in range(count):
        symmetric = rng.random() < 0.5
        parts = [piece(rng.randint(2, 4), symmetric)] * rng.randint(2, 3)
        parts.append(piece(rng.randint(1, 4), symmetric))
        rng.shuffle(parts)
        out = []
        for part in parts:
            out += [row << len(out) for row in part]
        perm = list(range(len(out)))
        rng.shuffle(perm)
        shuffled = [0] * len(out)
        for u, row in enumerate(out):
            for v in bits_of(row):
                shuffled[perm[u]] |= 1 << perm[v]
        yield shuffled


def test_canonical_form_unchanged_by_backjumping(small_groups):
    """Backjumping skips only leaves whose strings an automorphism maps
    from leaves already seen, so the minimal string does not move: every
    set of each group of order <= 8, 300 seeded random sets of the larger
    ones, and 1000 unions of copies (where a jump one level too shallow
    changes the form)."""
    rng = random.Random(5)
    digraphs = []
    for g in small_groups:
        masks = range(1 << g.size) if g.size <= 8 else \
            [rng.getrandbits(g.size) for _ in range(300)]
        for mask in masks:
            d = build_cayley(g, connection_set(g, mask))
            digraphs.append((d.out_neighbors, d.in_neighbors))
    digraphs += map(_rows_and_columns, _unions_of_copies(random.Random(0),
                                                         1000))
    for out, inn in digraphs:
        assert CanonicalSearch(out, inn).run() \
            == _CanonicalWithoutBackjump(out, inn).run()
