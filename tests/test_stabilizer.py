import io
import json
import random
from math import factorial

import pytest
from hypothesis import given, strategies as st

from bipcayley import _search
from bipcayley._search import (
    AutomorphismSearch,
    StabChain,
    _fixers,
    _individualize,
    _orbit,
    _orbits,
    _target_cell_index,
    _transpose,
    is_digraph_automorphism,
    perm_invert,
    perm_on_set,
    refine_partition,
)
from bipcayley.autos import enumerate_automorphisms, index2_subgroups
from bipcayley.cayley import build_cayley, connection_set, root_component
from bipcayley.cli import main
from bipcayley.errors import FalsificationError
from bipcayley.groups import bits_of, build_group, generated_subgroup
from bipcayley.stabilizer import (
    _Quotient,
    brute_force_stabilizer_order,
    closed_form_order,
    minimal_graph_index_target,
    stabilizer_order_bounded,
    vertex_stabilizer,
)
from bipcayley.survey import monte_carlo_proportion

try:
    from sympy import combinatorics
except ImportError:
    combinatorics = None


def test_directed_cycle_stabilizer():
    g = build_group([6])
    d = build_cayley(g, connection_set(g, [1]))
    rep = vertex_stabilizer(d)
    assert rep.cayley_index == 1


def test_k33_stabilizer():
    g = build_group([6])
    d = build_cayley(g, connection_set(g, [1, 3, 5]))
    rep = vertex_stabilizer(d)
    assert rep.cayley_index == 12  # |Sym(3) wr Sym(2)| / 6
    assert rep.cayley_index == brute_force_stabilizer_order(d)


def test_four_cycle_stabilizer():
    g = build_group([2, 2])
    d = build_cayley(g, connection_set(g, [(0, 1), (1, 0)]))
    rep = vertex_stabilizer(d)
    assert rep.cayley_index == 2   # dihedral of order 8 over |A|=4
    assert brute_force_stabilizer_order(d) == 2


def test_cayley_index_examples():
    def index(g, conn):
        return vertex_stabilizer(build_cayley(g, conn)).cayley_index

    g = build_group([2, 2])
    assert index(g, connection_set(g, [(0, 1)])) == 2
    assert index(g, connection_set(g, [(0, 1), (1, 1)])) == 2
    g6 = build_group([6])
    assert index(g6, connection_set(g6, [1])) == 1  # a DRR


def test_inversion_forces_index_two():
    g = build_group([6])
    conn = connection_set(g, [1, 5])
    assert conn.inverse_closed
    d = build_cayley(g, conn)
    rep = vertex_stabilizer(d)
    assert rep.cayley_index >= 2
    iota = tuple(g.neg(a) for a in g.elements())
    assert any(gen == iota for gen in rep.stabilizer_generators) \
        or rep.cayley_index >= 2
    assert minimal_graph_index_target(g) == 2
    assert minimal_graph_index_target(build_group([2, 2])) == 1


def test_is_minimal_graph_index():
    g = build_group([6])
    d = build_cayley(g, connection_set(g, [1, 5]))
    assert vertex_stabilizer(d).cayley_index == minimal_graph_index_target(g)


def test_generators_preserve_arcs():
    g = build_group([6])
    d = build_cayley(g, connection_set(g, [1, 3, 5]))
    rep = vertex_stabilizer(d)
    for gen in rep.stabilizer_generators:
        assert gen[0] == 0
        for a in range(d.n):
            assert perm_on_set(gen, d.out_neighbors[a]) == d.out_neighbors[gen[a]]


def test_conjugate_sets_same_index():
    g = build_group([4, 2])
    bits = (1 << g.encode((1, 0))) | (1 << g.encode((1, 1)))
    base = vertex_stabilizer(build_cayley(g, bits)).cayley_index
    for alpha in enumerate_automorphisms(g):
        assert vertex_stabilizer(
            build_cayley(g, alpha.apply_to_set(bits))).cayley_index == base


def test_brute_force_cross_validation():
    rng = random.Random(2)
    for orders in ([6], [8], [4, 2], [2, 2, 2]):
        g = build_group(orders)
        for _ in range(6):
            bits = 0
            for a in g.elements():
                if rng.random() < 0.5:
                    bits |= 1 << a
            d = build_cayley(g, connection_set(g, bits))
            assert vertex_stabilizer(d).cayley_index == \
                brute_force_stabilizer_order(d)


def test_nonidentity_base_vertex():
    """Vertex-transitive, so the stabilizer of any vertex is that of 0
    moved by translation.  K33 is periodic; the other two digraphs are
    connected and aperiodic, one directed and one a graph seeded by
    inversion.  The generators at 0, moved to 3, fix 3, preserve arcs and
    generate a group of the same order."""
    for orders, conn, order in (([6], [1, 3, 5], 12),
                                ([4, 2], [(0, 1), (1, 0), (3, 0)], 6),
                                ([8], [1, 2, 6, 7], 2)):
        g = build_group(orders)
        d = build_cayley(g, connection_set(g, conn))
        rep = vertex_stabilizer(d)
        assert rep.cayley_index == order
        _assert_stabilizer_generators(d, 0, rep.stabilizer_generators)
        moved = _moved(g, rep.stabilizer_generators, 3)
        _assert_stabilizer_generators(d, 3, moved)
        assert _closure_order(moved) == order


def test_chain_order_against_sympy_on_search_output():
    sympy = pytest.importorskip("sympy.combinatorics")
    g = build_group([2, 2, 3])
    d = build_cayley(g, connection_set(g, [(0, 1, 0), (1, 0, 0)]))
    rep = vertex_stabilizer(d)
    if rep.stabilizer_generators:
        ref = sympy.PermutationGroup(
            [sympy.Permutation(list(p)) for p in rep.stabilizer_generators])
        assert ref.order() == rep.cayley_index


def test_bounded_search_abort():
    g = build_group([2, 2, 2])
    d = build_cayley(g, connection_set(g, []))
    order, exact = stabilizer_order_bounded(d, abort_order=10)
    assert not exact and order >= 10
    order, exact = stabilizer_order_bounded(d, abort_order=None)
    assert exact and order == 5040


def test_search_cap(monkeypatch):
    # vertex_stabilizer takes no cap: the index command refuses the search
    # on a group over BIPCAYLEY_SEARCH_CAP before it starts.
    from bipcayley.cli import main
    argv = ["index", "--group", "C2^3", "--subgroup", "index:0",
            "--set", "1,0,0", "--no-timing"]
    monkeypatch.setenv("BIPCAYLEY_SEARCH_CAP", "8")
    assert main(argv, out=io.StringIO()) == 0
    monkeypatch.setenv("BIPCAYLEY_SEARCH_CAP", "4")
    out = io.StringIO()
    assert main(argv, out=out) == 3
    assert out.getvalue() == ""


def test_search_timeout():
    from bipcayley.errors import Timeout
    g = build_group([2, 2, 2, 2])
    d = build_cayley(g, connection_set(g, []))
    with pytest.raises(Timeout):
        vertex_stabilizer(d, timeout=0.0)


def test_report_json_shape():
    out = io.StringIO()
    assert main(["index", "--group", "C6", "--subgroup", "index:0",
                 "--set", "1", "--no-timing"], out=out) == 0
    rep = json.loads(out.getvalue())["result"]
    assert rep["group"] == "C6"
    assert rep["cayley_index"] == 1 and rep["is_drr"]
    assert rep["connection_set"] == [[1]]
    assert rep["elapsed_ms"] == 0.0
    assert isinstance(rep["generators"], list)


def test_stab_chain_incremental():
    chain = StabChain(5)
    assert chain.order() == 1
    cyc = (1, 2, 3, 4, 0)
    assert chain.add_generator(cyc)
    assert chain.order() == 5
    assert not chain.add_generator(cyc)
    swap = (1, 0, 2, 3, 4)
    assert chain.add_generator(swap)


def _closure_order(gens):
    """Independent oracle: BFS closure of the generated permutation group."""
    from bipcayley._search import perm_compose
    n = len(gens[0])
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = perm_compose(g, p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return len(seen)


def test_stab_chain_fuzz_against_closure():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 7)
        gens = []
        for _ in range(rng.randint(1, 3)):
            p = list(range(n))
            rng.shuffle(p)
            gens.append(tuple(p))
        lazy = StabChain(n)
        for g in gens:
            lazy.add_generator(g)
        assert lazy.order() <= _closure_order(gens)  # certified lower bound


def _fuzz_digraphs():
    """60 seeded random digraphs on 2..7 vertices, directed and symmetric,
    as (out rows, in rows)."""
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 7)
        symmetric = rng.random() < 0.5
        out = [0] * n
        for a in range(n):
            for b in range(n):
                if a != b and rng.random() < 0.4 \
                        and (not symmetric or a < b):
                    out[a] |= 1 << b
                    if symmetric:
                        out[b] |= 1 << a
        yield out, _in_rows(out)


def test_search_order_fuzz_against_closure():
    """A completed search's first-path order equals the order of the group
    its kept generators generate, on random digraphs (directed and
    symmetric)."""
    for out, inn in _fuzz_digraphs():
        search = AutomorphismSearch(out, inn).run()
        truth = _closure_order(search.gens) if search.gens else 1
        assert search.order() == truth


def _assert_one_automorphism_per_branch(search, seeds=0):
    """Each found automorphism (seeds aside) moves a first first-path
    vertex, first_path[j], to some image; after a backjump no two share
    (j, image), so at most |orbit_j| - 1 are found from depth j."""
    path = search.first_path
    pairs = set()
    for g in search.found[seeds:]:
        j = next(i for i, p in enumerate(path) if g[p] != p)
        assert (j, g[path[j]]) not in pairs
        pairs.add((j, g[path[j]]))
    bound = sum(_orbit(_fixers(search.found, path[:j]), p).bit_count() - 1
                for j, p in enumerate(path))
    assert len(pairs) <= bound


def test_backjump_finds_one_automorphism_per_first_path_branch():
    for k in range(1, 7):  # Cay(C2^k, {e1}): a perfect matching
        g = build_group([2] * k)
        d = build_cayley(g, connection_set(g, [(1,) + (0,) * (k - 1)]))
        search = AutomorphismSearch(d.out_neighbors, d.in_neighbors).run()
        _assert_one_automorphism_per_branch(search)
        assert len(search.found) == 2 ** (k - 1) - 1
    for out, inn in _fuzz_digraphs():
        _assert_one_automorphism_per_branch(
            AutomorphismSearch(out, inn).run())


def test_perfect_matching_stabilizer_is_exact_and_quick():
    """Cay(C2^6, {e1}) is 32 disjoint edges: the stabilizer of a vertex is
    C2 wr S_31, of order 2^31 * 31!.  Without backjumping the search walked
    931 automorphisms here; it now finds 31.  The walker runs on the whole
    digraph, which ``vertex_stabilizer`` would reduce to one edge."""
    g = build_group([2] * 6)
    d = build_cayley(g, connection_set(g, [(1, 0, 0, 0, 0, 0)]))
    search = AutomorphismSearch(d.out_neighbors, d.in_neighbors).run()
    assert search.order() == 2 ** 31 * factorial(31)
    assert len(search.found) == 31


def _moved(g, gens, v):
    """``gens`` conjugated by the translation by ``v``: x -> gen(x - v) + v,
    which fixes v when gen fixes 0."""
    return [tuple(g.add(gen[g.add(x, g.neg(v))], v) for x in g.elements())
            for gen in gens]


def _assert_stabilizer_generators(d, v, gens):
    for gen in gens:
        assert gen[v] == v
        assert is_digraph_automorphism(d.out_neighbors, d.in_neighbors, gen)


def test_closed_form_of_a_perfect_matching_on_512_vertices():
    """Cay(C2^9, {e1}): 256 copies of an edge, of stabilizer order
    2^255 * 255!, from a search on one edge; the whole digraph took the
    walker 71 s."""
    g = build_group([2] * 9)
    d = build_cayley(g, connection_set(g, [(1,) + (0,) * 8]))
    rep = vertex_stabilizer(d)
    assert rep.cayley_index == 2 ** 255 * factorial(255)
    _assert_stabilizer_generators(d, 0, rep.stabilizer_generators)


def test_closed_form_of_the_empty_set():
    """S = {} has period A but <S> = {0}: n isolated vertices, whose
    stabilizer is Sym(n - 1), generated by a transposition and a cycle."""
    for orders in ([2, 2, 2], [3, 4]):
        g = build_group(orders)
        d = build_cayley(g, connection_set(g, []))
        rep = vertex_stabilizer(d)
        assert rep.cayley_index == factorial(g.size - 1)
        assert len(rep.stabilizer_generators) == 2
        _assert_stabilizer_generators(d, 0, rep.stabilizer_generators)


def test_closed_form_needs_the_full_period():
    """S, three cosets of P = <(2, 0, 0), (0, 1, 0)> in C4xC2^2, has full
    period P, and its quotient by P is K4.  Its quotient by the partial
    period <(2, 0, 0)> still has vertices sharing rows, and the closed form
    over that quotient undercounts."""
    g = build_group([4, 2, 2])
    period = {g.encode(p) for p in ((0, 0, 0), (2, 0, 0), (0, 1, 0),
                                    (2, 1, 0))}
    d = build_cayley(g, connection_set(g, [
        g.add(c, p) for c in map(g.encode, ((0, 0, 1), (1, 0, 0), (1, 0, 1)))
        for p in period]))
    truth = AutomorphismSearch(d.out_neighbors, d.in_neighbors).run().order()
    assert truth == 497664 == closed_form_order(6, 16, 1, 4)
    rep = vertex_stabilizer(d)
    assert rep.cayley_index == truth
    _assert_stabilizer_generators(d, 0, rep.stabilizer_generators)
    half = [min(a, g.add(a, g.encode((2, 0, 0)))) for a in g.elements()]
    reps = sorted(set(half))
    label = [reps.index(h) for h in half]
    rows = [perm_on_set(label, d.out_neighbors[r]) for r in reps]
    assert len(set(rows)) < len(rows)
    partial = AutomorphismSearch(rows, rows).run().order()
    assert closed_form_order(partial, 16, 1, 2) == 6144


def _structured_sets():
    """Seeded random periodic (unions of cosets of a subgroup H), disconnected
    (subsets of a proper subgroup K) and mixed (unions of cosets of H inside
    K) connection sets, directed and inverse-closed, over groups of order at
    most 64, each with a random base vertex."""
    rng = random.Random(97)
    for orders in ([4, 2, 2], [2] * 4, [3, 6], [2, 12], [4, 2, 2, 2],
                   [2] * 5, [4, 4, 2], [2, 30], [2, 2, 4, 4]):
        g = build_group(orders)
        full = (1 << g.size) - 1

        def subgroup(inside, count):
            return generated_subgroup(
                g, rng.sample(list(bits_of(inside)), count)).bits

        for kind in ("periodic", "disconnected", "mixed"):
            for graph in (False, True):
                for _ in range(2):
                    k = full
                    while kind != "periodic" and k in (1, full):
                        k = subgroup(full, rng.randint(1, 2))
                    h = 1
                    while kind != "disconnected" and h == 1:
                        h = subgroup(k, 1)
                    conn = covered = 0
                    for a in bits_of(k):
                        if not (covered >> a) & 1:
                            coset = g.translate_set(h, a)
                            covered |= coset
                            conn |= coset if rng.random() < 0.5 else 0
                    if graph:
                        conn |= g.negate_set(conn)
                    yield g, conn, rng.randrange(g.size)


def test_closed_forms_against_the_walker_on_structured_sets():
    """On periodic, disconnected and mixed sets: the order is the walker's
    on the whole digraph; the generators fix 0 and preserve arcs, and so
    do they moved to the base vertex; on at most 16 vertices they generate
    a group of that order, by closure or, past 50,000 elements, by sympy
    when it is installed; and a bounded call is exact or a bound in
    [threshold, order], at thresholds around the least order the closed
    form gives."""
    for g, conn, v in _structured_sets():
        d = build_cayley(g, connection_set(g, conn))
        truth = AutomorphismSearch(d.out_neighbors,
                                   d.in_neighbors).run().order()
        rep = vertex_stabilizer(d)
        assert rep.cayley_index == truth
        gens = rep.stabilizer_generators
        _assert_stabilizer_generators(d, 0, gens)
        _assert_stabilizer_generators(d, v, _moved(g, gens, v))
        if g.size <= 16 and truth <= 50_000:
            assert (_closure_order(gens) if gens else 1) == truth
        elif g.size <= 16 and combinatorics is not None:
            assert combinatorics.PermutationGroup(
                [combinatorics.Permutation(list(p)) for p in gens]
            ).order() == truth
        for threshold in (1, 2, 3, _Quotient(d).lift(1), truth, truth + 1):
            order, exact = stabilizer_order_bounded(d, threshold)
            if exact:
                assert order == truth
            else:
                assert threshold <= order <= truth


def test_bipartite_complement_has_the_same_index():
    """The automorphisms of a connected bipartite digraph preserve its parts
    {B, A - B}, so they map the non-arcs between the parts to non-arcs
    between the parts: when Cay(A, S) and Cay(A, (A - B) - S) are both
    connected, they have the same stabilizer order.  Seeded random S inside
    A - B, directed and inverse-closed, over groups of order at most 32."""
    rng = random.Random(26)
    checked = 0
    for orders in ([6], [4, 2], [2, 2, 2], [8], [2, 6], [4, 4], [2, 2, 4],
                   [2, 8], [2] * 4, [2, 2, 6], [4, 2, 2, 2], [2] * 5):
        g = build_group(orders)
        subs = index2_subgroups(g)
        for b in rng.sample(subs, min(2, len(subs))):
            odd = b.complement_bits()
            for graph in (False, True):
                for _ in range(3):
                    conn = sum(1 << a for a in bits_of(odd)
                               if rng.random() < 0.5)
                    if graph:
                        conn |= g.negate_set(conn)
                    pair = [build_cayley(g, connection_set(g, c))
                            for c in (conn, odd & ~conn)]
                    if any(root_component(d).bit_count() < d.n
                           for d in pair):
                        continue
                    order = vertex_stabilizer(pair[0]).cayley_index
                    assert vertex_stabilizer(pair[1]).cayley_index \
                        == order
                    for d in pair:
                        assert stabilizer_order_bounded(d, order + 1) \
                            == (order, True)
                    checked += 1
    assert checked >= 50


def _oracle_sets():
    """Every connection set of every group of order <= 6, and 24 seeded
    random sets of each group of order 8."""
    for orders in ([2], [3], [4], [2, 2], [5], [6]):
        g = build_group(orders)
        for mask in range(1 << g.size):
            yield g, mask
    rng = random.Random(8)
    for orders in ([8], [4, 2], [2, 2, 2]):
        g = build_group(orders)
        for _ in range(24):
            yield g, rng.getrandbits(g.size)


def test_search_against_brute_force_on_all_small_sets():
    """Exact order against the brute-force filter; the kept generators
    generate a group of exactly that order; and a bounded search at each
    abort threshold is either exact or stopped at a lower bound that has
    reached the threshold."""
    for g, mask in _oracle_sets():
        d = build_cayley(g, connection_set(g, mask))
        truth = brute_force_stabilizer_order(d)
        rep = vertex_stabilizer(d)
        assert rep.cayley_index == truth
        gens = rep.stabilizer_generators
        assert (_closure_order(gens) if gens else 1) == truth
        for threshold in range(1, truth + 2):
            order, exact = stabilizer_order_bounded(d, threshold)
            if exact:
                assert order == truth
            else:
                assert threshold <= order <= truth
        assert stabilizer_order_bounded(d, truth + 1) == (truth, True)


def test_first_path_order_needs_every_found_automorphism():
    """On this C2xC12 set the generators the chain keeps, restricted to
    first-path prefix fixers, give orbits whose product is 8, not 16."""
    g = build_group([2, 12])
    d = build_cayley(g, connection_set(g, 15007582))
    assert vertex_stabilizer(d).cayley_index == 16


@pytest.mark.parametrize("orders, mask, order", [
    ([4, 4, 2], 2129589762, 4),
    ([4, 4, 2], 4202151578, 4),
    ([4, 4, 2], 2109469954, 4),
    ([4, 4, 2], 3199990476, 8),
    ([2, 4, 4], 1000008420, 2),
    ([2, 4, 4], 4059786186, 32),
    ([2, 4, 4], 3149882826, 2),
    ([4, 4, 4], 18012141194728830206, 512),
    ([4, 4, 4], 18442187057305485296, 8),
])
def test_stabilizer_on_sets_with_unequal_cell_sizes_off_the_first_path(
        orders, mask, order):
    """Inverse-closed sets whose search trees have nodes with other cell
    sizes than the first-path node at the same depth.  No automorphism maps
    such a node onto the first path, so its subtree adds no generator, and
    walking it leaves the order exact."""
    g = build_group(orders)
    rep = vertex_stabilizer(build_cayley(g, connection_set(g, mask)))
    assert rep.cayley_index == order
    assert _closure_order(rep.stabilizer_generators) == order


def _refine_reference(out_adj, in_adj, cells, splitters=None,
                      all_parts=False, fifo=False):
    """Reference refinement: one dict key per vertex of every non-singleton
    cell, for every splitter.  Splitters are popped from a stack, the given
    ones first in their order, or first in, first out with ``fifo``.  A
    split queues every part but the first largest, or every part with
    ``all_parts``."""
    cells = list(cells)
    queue = list(cells if splitters is None else splitters)[::-1]
    while queue:
        w = queue.pop()
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
                    big = max(parts, key=int.bit_count)
                    new = [q for q in parts if all_parts or q is not big]
                    if fifo:  # under every splitter already queued
                        queue[:0] = new[::-1]
                    else:
                        queue += new
                    i += len(parts)
                    continue
            i += 1
    return cells


def _in_rows(out):
    n = len(out)
    return [sum(1 << a for a in range(n) if (out[a] >> b) & 1)
            for b in range(n)]


def _random_partition(rng, n):
    verts = list(range(n))
    rng.shuffle(verts)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
    return [sum(1 << v for v in verts[a:b])
            for a, b in zip([0] + cuts, cuts + [n])]


def _random_splitters(rng, cells, n):
    choice = rng.randrange(3)
    if choice == 0:
        return None
    picked = [rng.choice(cells) for _ in range(rng.randint(0, 3))]
    if choice == 2:
        picked += [rng.getrandbits(n) for _ in range(rng.randint(1, 2))]
    return picked


def _assert_matches_reference(out, inn, cells, splitters=None,
                              refined=None, sound=True):
    """``refined``, by default ``refine_partition``'s result, has the cells
    of the stack reference in the same order.  When the input is ``sound``,
    equitable wrt every cell the splitters do not account for, as
    ``refine_partition`` requires, the order of the splitters cannot change
    the cells as sets: they are those of the first-in-first-out reference."""
    if refined is None:
        refined = refine_partition(out, inn, cells, splitters)
    assert refined == _refine_reference(out, inn, cells, splitters)
    if sound:
        assert set(refined) == set(
            _refine_reference(out, inn, cells, splitters, fifo=True))
    return refined


def _check_against_reference(rng, out, inn):
    n = len(out)
    root = [[1, ((1 << n) - 1) ^ 1]] if n > 1 else []
    for cells in [[(1 << n) - 1], *root,
                  _random_partition(rng, n), _random_partition(rng, n)]:
        splitters = _random_splitters(rng, cells, n)
        _assert_matches_reference(out, inn, cells, splitters,
                                  sound=splitters is None)


def _random_digraph(rng, n):
    """Directed, symmetric with one shared row list, or symmetric with two
    equal lists."""
    p = rng.random()
    out = [sum(1 << b for b in range(n) if rng.random() < p)
           for _ in range(n)]
    kind = rng.randrange(3)
    if kind:
        out = [out[a] | sum(1 << b for b in range(n) if (out[b] >> a) & 1)
               for a in range(n)]
    return out, (_in_rows(out) if kind != 1 else out)


def test_refinement_matches_reference_on_random_digraphs():
    """Same cells in the same order as the dict-keyed reference."""
    rng = random.Random(23)
    for _ in range(400):
        n = rng.randint(1, 12)
        _check_against_reference(rng, *_random_digraph(rng, n))


def test_refinement_matches_reference_on_cayley_digraphs(small_groups):
    rng = random.Random(29)
    for g in small_groups:
        for _ in range(12):
            d = build_cayley(g, connection_set(g, rng.getrandbits(g.size)))
            _check_against_reference(rng, d.out_neighbors, d.in_neighbors)


def _regular_digraph(rng, n):
    """a -> b iff r(a) + c(b) lies in K mod n, for random permutations r, c
    and a random K: every out- and in-degree is |K|, and with r != c the
    digraph is in general not vertex-transitive."""
    r, c = rng.sample(range(n), n), rng.sample(range(n), n)
    k = set(rng.sample(range(n), rng.randint(0, n)))
    out = [sum(1 << b for b in range(n) if (r[a] + c[b]) % n in k)
           for a in range(n)]
    return out, _in_rows(out)


def test_refinement_without_splitters_matches_reference_on_regular_digraphs():
    """With ``splitters=None`` a regular digraph's last cell is not queued;
    the cells still equal the reference's, which queues every cell."""
    rng = random.Random(53)
    for _ in range(300):
        n = rng.randint(1, 12)
        out, inn = (_regular_digraph if rng.random() < 0.7
                    else _random_digraph)(rng, n)
        root = [[1, ((1 << n) - 1) ^ 1]] if n > 1 else []
        for cells in [[(1 << n) - 1], *root, _random_partition(rng, n),
                      _random_partition(rng, n)]:
            _assert_matches_reference(out, inn, cells)


def _random_set(rng, g, undirected):
    """A random subset of the group, of a random size so that sparse sets,
    whose root refinement stays coarse, are drawn as well as dense ones."""
    bits = sum(1 << a for a in rng.sample(range(g.size),
                                          rng.randint(1, g.size // 2)))
    return bits | g.negate_set(bits) if undirected else bits


def test_refinement_matches_reference_at_benchmark_scale():
    """Same cells in the same order as the reference on the groups the
    sample and C2^6 workloads search, in the three call shapes the searches
    use: the root cells with ``splitters=None``, the same cells with the
    {a, -a} pairs final, and one vertex individualized in a refined
    partition with ``splitters=[1 << v]``."""
    rng = random.Random(79)
    for orders, modes in (([2, 30], (False, True)), ([2] * 6, (True,))):
        g = build_group(orders)
        full = (1 << g.size) - 1
        iota = _iota_orbits(g)
        for undirected in modes:
            for _ in range(10):
                d = build_cayley(g, connection_set(
                    g, _random_set(rng, g, undirected)))
                out, inn = d.out_neighbors, d.in_neighbors
                root = [1, full ^ 1]
                refined = _assert_matches_reference(out, inn, root)
                if undirected:
                    assert refine_partition(out, inn, root,
                                            final=iota) == refined
                for cells in ([full], refined):
                    idx = _target_cell_index(cells)
                    if idx < 0:
                        continue
                    v = rng.choice(list(bits_of(cells[idx])))
                    child = (cells[:idx] + [1 << v, cells[idx] ^ (1 << v)]
                             + cells[idx + 1:])
                    _assert_matches_reference(
                        out, inn, child, [1 << v],
                        _individualize(out, inn, cells, idx, v))


def _assert_label_independent(pi, out, inn, cells, splitters=None,
                              final=frozenset()):
    """Relabel the vertices by the permutation pi, and the cells, splitters
    and final cells with them: the refinement is pi applied to the
    original's, cell by cell and in the same order.  So the splitter order
    depends on no vertex label, and any such order gives the cells of the
    coarsest equitable refinement."""

    def moved(masks):
        return [perm_on_set(pi, m) for m in masks]

    inverse = perm_invert(pi)
    out_pi = moved(out[a] for a in inverse)
    inn_pi = out_pi if inn is out else moved(inn[a] for a in inverse)
    assert refine_partition(
        out_pi, inn_pi, moved(cells),
        None if splitters is None else moved(splitters),
        frozenset(moved(final))) \
        == moved(refine_partition(out, inn, cells, splitters, final))


def test_refinement_equivariant_under_relabeling_on_cayley_digraphs():
    """The call shapes of the searches: the root cells with
    ``splitters=None``, the same with the {a, -a} pairs final, and one
    vertex individualized in the refined root."""
    rng = random.Random(97)
    for orders in ([2, 30], [2] * 6):
        g = build_group(orders)
        root = [1, ((1 << g.size) - 1) ^ 1]
        for undirected in (False, True):
            for _ in range(8):
                d = build_cayley(g, connection_set(
                    g, _random_set(rng, g, undirected)))
                out, inn = d.out_neighbors, d.in_neighbors
                pi = rng.sample(range(g.size), g.size)
                _assert_label_independent(pi, out, inn, root)
                if undirected:
                    _assert_label_independent(pi, out, inn, root,
                                              final=_iota_orbits(g))
                cells = refine_partition(out, inn, root)
                idx = _target_cell_index(cells)
                if idx < 0:
                    continue
                v = rng.choice(list(bits_of(cells[idx])))
                child = (cells[:idx] + [1 << v, cells[idx] ^ (1 << v)]
                         + cells[idx + 1:])
                _assert_label_independent(pi, out, inn, child, [1 << v])


def test_empty_and_repeated_splitters():
    """An empty splitter splits nothing, and a splitter queued twice gives
    the reference's cells: ``_planes`` reads no row for ``w == 0``."""
    assert _search._planes([5, 6, 7], 0) == []
    assert _search._planes([5, 6, 7], 2) == [6]
    rng = random.Random(83)
    digraphs = [_random_digraph(rng, rng.randint(1, 12)) for _ in range(100)]
    g = build_group([2, 30])
    for undirected in (False, True):
        d = build_cayley(g, connection_set(g, _random_set(rng, g, undirected)))
        digraphs.append((d.out_neighbors, d.in_neighbors))
    for out, inn in digraphs:
        n = len(out)
        cells = refine_partition(out, inn, _random_partition(rng, n))
        assert refine_partition(out, inn, cells, [0]) == cells
        start = _random_partition(rng, n)
        w = rng.choice(start)
        for splitters in ([w, w], [0, w, 0, w], [w, rng.getrandbits(n)] * 2):
            assert refine_partition(out, inn, start, splitters) \
                == _refine_reference(out, inn, start, splitters)


def _undirected_sets(g):
    """Every inverse-closed subset of the group, as a bitset."""
    pairs = sorted({(1 << a) | (1 << g.neg(a)) for a in g.elements()})
    for mask in range(1 << len(pairs)):
        yield sum(p for i, p in enumerate(pairs) if (mask >> i) & 1)


def _iota_orbits(g):
    return frozenset((1 << a) | (1 << g.neg(a)) for a in g.elements()
                     if g.neg(a) != a)


def _assert_final_changes_nothing(d, final):
    cells = [1, ((1 << d.n) - 1) ^ 1]  # the root 0 and the rest
    assert refine_partition(d.out_neighbors, d.in_neighbors, cells,
                            final=final) \
        == refine_partition(d.out_neighbors, d.in_neighbors, cells)


def test_inversion_orbits_as_final_cells_change_no_root_refinement(
        small_groups):
    """Cells that are one {a, -a} pair are left whole at the root; the
    refinement is the same, cell for cell and in order, on every undirected
    Cayley graph of the small groups and on random ones of larger groups."""
    for g in small_groups:
        final = _iota_orbits(g)
        for bits in _undirected_sets(g):
            _assert_final_changes_nothing(
                build_cayley(g, connection_set(g, bits)), final)
    rng = random.Random(59)
    for orders in ([2, 30], [4, 2, 2, 2]):
        g = build_group(orders)
        final = _iota_orbits(g)
        assert final
        for _ in range(40):
            bits = rng.getrandbits(g.size)
            d = build_cayley(g, connection_set(g, bits | g.negate_set(bits)))
            _assert_final_changes_nothing(d, final)


def test_stabilizer_orbits_as_final_cells_change_no_root_refinement(
        small_groups):
    """The orbits of the root-fixing generators a stabilizer search returns
    are final too; directed and undirected sets."""
    rng = random.Random(61)
    for g in small_groups + [build_group([2, 30]), build_group([4, 2, 2, 2])]:
        for _ in range(8):
            d = build_cayley(g, connection_set(g, rng.getrandbits(g.size)))
            gens = vertex_stabilizer(d).stabilizer_generators
            final = _orbits(tuple(_fixers(gens, [0])), d.n)
            assert final or not gens
            _assert_final_changes_nothing(d, final)


def _count_rows(monkeypatch):
    """Wrap ``_search._planes`` to count the rows it sums, and its calls."""
    summed = [0, 0]
    planes = _search._planes

    def counting(rows, w):
        summed[0] += w.bit_count()
        summed[1] += 1
        return planes(rows, w)

    monkeypatch.setattr(_search, "_planes", counting)
    return summed


def test_regular_digraph_whole_partition_sums_no_row(monkeypatch):
    summed = _count_rows(monkeypatch)
    for orders, directed in (([2, 30], True), ([4, 2, 2, 2], False)):
        g = build_group(orders)
        bits = random.Random(67).getrandbits(g.size)
        d = build_cayley(g, connection_set(
            g, bits if directed else bits | g.negate_set(bits)))
        full = (1 << g.size) - 1
        assert refine_partition(d.out_neighbors, d.in_neighbors, [full]) \
            == [full]
    assert summed[0] == 0


def test_inversion_orbits_save_rows_at_the_root(monkeypatch):
    """On one undirected Cay(C2xC30, S) the root refinement ends with the
    {a, -a} pairs and the involutions as its cells; with the pairs final it
    sums fewer rows."""
    g = build_group([2, 30])
    bits = random.Random(71).getrandbits(g.size) & ~1
    d = build_cayley(g, connection_set(g, bits | g.negate_set(bits)))
    cells = [1, ((1 << g.size) - 1) ^ 1]
    summed = _count_rows(monkeypatch)
    plain = refine_partition(d.out_neighbors, d.in_neighbors, cells)
    rows_plain, summed[0] = summed[0], 0
    final = _iota_orbits(g)
    assert refine_partition(d.out_neighbors, d.in_neighbors, cells,
                            final=final) == plain
    assert all(c in final or not c & (c - 1) for c in plain)  # the pairs
    assert summed[0] < rows_plain


def test_sample_draws_pin_their_splitter_passes(monkeypatch):
    """The first 100 draws per mode of the C2xC30 proportion estimate, seed
    12345, call ``_planes`` 3,050 times directed and 3,182 undirected.
    Taking splitters first in, first out, as before, cost 5,942 and 3,842:
    most splitters then came after the cells they could split were
    singletons.  A larger count means an extra splitter pass is back."""
    summed = _count_rows(monkeypatch)
    g = build_group([2, 30])
    sub = index2_subgroups(g)[0]
    calls = []
    for mode in ("directed", "undirected"):
        summed[1] = 0
        monte_carlo_proportion(g, sub, mode, samples=100, seed=12345)
        calls.append(summed[1])
    assert calls == [3050, 3182]


def _assert_equitable(out_adj, in_adj, cells):
    for x in cells:
        for y in cells:
            assert len({((out_adj[v] & y).bit_count(),
                         (in_adj[v] & y).bit_count())
                        for v in bits_of(x)}) == 1


def _check_cells_as_sets(rng, out, inn):
    """The two call shapes the searches use give the cells of the all-parts
    refinement, as sets: a whole partition with ``splitters=None``, and one
    vertex individualized in an equitable partition."""
    n = len(out)
    root = [[1, ((1 << n) - 1) ^ 1]] if n > 1 else []
    for cells in [[(1 << n) - 1], *root, _random_partition(rng, n)]:
        refined = refine_partition(out, inn, cells)
        assert set(refined) == set(
            _refine_reference(out, inn, cells, all_parts=True))
        _assert_equitable(out, inn, refined)
        idx = _target_cell_index(refined)
        if idx < 0:
            continue
        v = rng.choice(list(bits_of(refined[idx])))
        child = _individualize(out, inn, refined, idx, v)
        rest = refined[idx] ^ (1 << v)
        assert set(child) == set(_refine_reference(
            out, inn, refined[:idx] + [1 << v, rest] + refined[idx + 1:],
            [1 << v, rest], all_parts=True))
        _assert_equitable(out, inn, child)


def test_refinement_cells_match_all_parts_on_random_digraphs():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 12)
        _check_cells_as_sets(rng, *_random_digraph(rng, n))


def test_refinement_cells_match_all_parts_on_cayley_digraphs(small_groups):
    rng = random.Random(37)
    larger = [build_group(orders)
              for orders in ([2, 30], [2] * 6, [4, 2, 2, 2])]
    for g in small_groups + larger:
        for _ in range(4 if g.size > 16 else 12):
            conn = connection_set(g, rng.getrandbits(g.size))
            d = build_cayley(g, conn)
            _check_cells_as_sets(rng, d.out_neighbors, d.in_neighbors)


@given(st.data())
def test_refinement_equivariant_under_relabeling(data):
    """With no splitters, and with given ones that need not be cells."""
    n = data.draw(st.integers(1, 12))
    out = data.draw(st.lists(st.integers(0, (1 << n) - 1),
                             min_size=n, max_size=n))
    if data.draw(st.booleans()):
        out = [out[a] | sum(1 << b for b in range(n) if (out[b] >> a) & 1)
               for a in range(n)]
        inn = out
    else:
        inn = _in_rows(out)
    labels = data.draw(st.permutations(range(n)))
    ids = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    cells = [c for c in (sum(1 << v for v in range(n) if ids[v] == k)
                         for k in range(4)) if c]
    splitters = data.draw(st.none() | st.lists(
        st.sampled_from(cells) | st.integers(0, (1 << n) - 1), max_size=4))
    _assert_label_independent(labels, out, inn, cells, splitters)


def test_transpose_matches_naive_and_is_an_involution():
    rng = random.Random(41)
    for n in [0, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 65, 127, 128,
              129, 255, 256, 257, 300] + [rng.randint(1, 300)
                                          for _ in range(10)]:
        rows = [rng.getrandbits(n) for _ in range(n)]
        cols = [sum(((rows[a] >> c) & 1) << a for a in range(n))
                for c in range(n)]
        assert _transpose(rows) == cols
        assert _transpose(cols) == rows


def _is_automorphism_by_rows(out, g):
    return all(perm_on_set(g, out[a]) == out[g[a]] for a in range(len(out)))


def _with_transposition(rng, g):
    g = list(g)
    if len(g) > 1:
        i, j = rng.sample(range(len(g)), 2)
        g[i], g[j] = g[j], g[i]
    return tuple(g)


def _assert_leaf_check(rng, out, inn, auts):
    """Genuine automorphisms, each also spoilt by one transposition, and
    random permutations: the check agrees with the per-row definition."""
    n = len(out)
    maps = list(auts) + [_with_transposition(rng, g) for g in auts]
    maps += [tuple(rng.sample(range(n), n)) for _ in range(4)]
    for g in maps:
        assert is_digraph_automorphism(out, inn, g) \
            == _is_automorphism_by_rows(out, g)
    assert all(is_digraph_automorphism(out, inn, g) for g in auts)


def _invariant_digraph(rng, n, p, symmetric):
    """A random digraph with the permutation ``p`` among its automorphisms:
    the union of the <p>-orbits of random arcs."""
    out = [0] * n
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.randrange(n), rng.randrange(n)
        while not (out[a] >> b) & 1:
            out[a] |= 1 << b
            out[b] |= symmetric << a
            a, b = p[a], p[b]
    return out, (out if symmetric else _in_rows(out))


def test_leaf_check_matches_definition_on_random_digraphs():
    rng = random.Random(43)
    for n in (1, 2, 7, 8, 9, 16, 17, 33, 64, 65):
        for symmetric in (False, True):
            for _ in range(3):
                p = tuple(rng.sample(range(n), n))
                out, inn = _invariant_digraph(rng, n, p, symmetric)
                assert symmetric or n < 16 or out != inn
                _assert_leaf_check(rng, out, inn, [tuple(range(n)), p])


def test_leaf_check_matches_definition_on_cayley_digraphs():
    rng = random.Random(47)
    for orders in ([2] * 6, [2, 30], [3, 4, 5]):
        g = build_group(orders)
        for directed in (True, False):
            bits = rng.getrandbits(g.size) & ~1
            if not directed:
                bits |= g.negate_set(bits)
            d = build_cayley(g, connection_set(g, bits))
            assert d.is_graph != directed or g.exponent == 2
            shifts = [tuple(g.add(x, t) for x in g.elements())
                      for t in rng.sample(range(g.size), 3)]
            auts = shifts + list(vertex_stabilizer(d).stabilizer_generators)
            _assert_leaf_check(rng, d.out_neighbors, d.in_neighbors, auts)


def test_known_maps_must_fix_zero_and_the_connection_set():
    """A seed map is checked before the search: one that moves 0, or that
    moves S, is refused.  On C2^4 the element indices are the coordinate
    bits, so swapping two bits is an automorphism of A."""
    g = build_group([2] * 4)
    mask = sum(1 << a for a in (1, 2, 4, 8, 7))  # the basis and e1+e2+e3
    d = build_cayley(g, mask)

    def swap(i, j):  # exchange coordinate bits i and j of every element
        return tuple(a ^ ((a >> i ^ a >> j) & 1) * (1 << i | 1 << j)
                     for a in range(16))

    index = vertex_stabilizer(d).cayley_index
    assert stabilizer_order_bounded(d, known=[swap(0, 1)]) == (index, True)
    moves_zero = list(range(16))
    moves_zero[0], moves_zero[3] = 3, 0  # fixes S, 3 is not in it
    for bad in (swap(0, 3), tuple(moves_zero)):  # swap(0, 3) moves 7 to 14
        with pytest.raises(FalsificationError):
            stabilizer_order_bounded(d, known=[bad])
