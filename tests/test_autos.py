import functools
import itertools
import math
import random

import pytest

from bipcayley.autos import (
    Automorphism,
    automorphism_from_generator_images,
    automorphism_generators,
    enumerate_automorphisms,
    example1_automorphism,
    example2_automorphism,
    index2_subgroup,
    index2_subgroup_count,
    index2_subgroups,
    inversion_automorphism,
    is_exceptional_pair,
    prime_index_subgroups,
    prime_order_subgroups,
)
from bipcayley.bounds import admissible_units, iter_unit_subsets
from bipcayley.errors import BadParameter
from bipcayley.groups import (
    bits_of,
    build_group,
    factor_multisets,
    generated_subgroup,
    involution_subgroup,
)


def brute_force_automorphism_count(group):
    """Filter all vertex permutations for the homomorphism property."""
    count = 0
    elements = list(group.elements())
    for perm in itertools.permutations(elements[1:]):
        image = (0,) + perm
        ok = True
        for a in elements:
            if not ok:
                break
            for b in elements:
                if image[group.add(a, b)] != group.add(image[a], image[b]):
                    ok = False
                    break
        count += ok
    return count


def test_inversion_examples():
    g = build_group([2, 2, 2])
    assert inversion_automorphism(g).is_identity

    g = build_group([4, 2])
    iota = inversion_automorphism(g)
    assert iota(g.encode((1, 1))) == g.encode((3, 1))

    g = build_group([6])
    iota = inversion_automorphism(g)
    assert not iota.is_identity
    assert all(iota(iota(a)) == a for a in g.elements())  # order 2


@pytest.mark.parametrize("orders,count", [
    ([6], 2),          # phi(6)
    ([4, 2], 8),
    ([2, 2, 2], 168),  # |GL_3(2)|
    ([2, 2], 6),
    ([3, 6], 48),      # C3^2 x C2, so |GL_2(3)|
])
def test_enumeration_counts(orders, count):
    g = build_group(orders)
    assert automorphism_generators(g)[1] == count


@pytest.mark.parametrize("orders", [[6], [2, 2], [4, 2], [2, 2, 2]])
def test_enumeration_matches_brute_force(orders):
    g = build_group(orders)
    assert automorphism_generators(g)[1] == brute_force_automorphism_count(g)


def test_enumeration_unique_and_homomorphic():
    g = build_group([4, 2])
    seen = set()
    for alpha in enumerate_automorphisms(g):
        assert alpha.image not in seen
        seen.add(alpha.image)
        for a in g.elements():
            for b in g.elements():
                assert alpha(g.add(a, b)) == g.add(alpha(a), alpha(b))
            assert g.element_order(alpha(a)) == g.element_order(a)


def test_aut_order_bound(small_groups):
    for g in small_groups:
        n = g.size
        assert automorphism_generators(g)[1] <= n ** math.floor(math.log2(n))


def test_stabilizing_automorphisms_examples():
    g = build_group([4, 2])
    a2 = involution_subgroup(g)
    # A2 is characteristic: every automorphism fixes it
    assert len(list(enumerate_automorphisms(g, (a2.bits,)))) == 8

    g6 = build_group([6])
    b = generated_subgroup(g6, [2])
    assert len(list(enumerate_automorphisms(g6, (b.bits,)))) == 2

    g22 = build_group([2, 2])
    b = generated_subgroup(g22, [g22.encode((1, 0))])
    assert len(list(enumerate_automorphisms(g22, (b.bits,)))) == 2
    assert automorphism_generators(g22)[1] == 6


def _closure_images(group, gens):
    """Every product of ``gens``, as image tuples."""
    ident = tuple(range(group.size))
    seen = {ident}
    frontier = [ident]
    while frontier:
        img = frontier.pop()
        for alpha in gens:
            prod = tuple(alpha.image[x] for x in img)
            if prod not in seen:
                seen.add(prod)
                frontier.append(prod)
    return seen


def test_generators_match_constrained_stream(small_groups):
    """The generated group is exactly the constrained stream, its order is
    the stream's length, and every generator fixes each bitset."""
    for g in small_groups:
        for fixing in [()] + [(b.bits,) for b in index2_subgroups(g)]:
            stream = [alpha.image
                      for alpha in enumerate_automorphisms(g, fixing=fixing)]
            gens, order = automorphism_generators(g, fixing)
            assert order == len(stream) == len(set(stream))
            assert _closure_images(g, gens) == set(stream)
            for alpha in gens:
                assert all(alpha.fixes_set(mask) for mask in fixing)


def test_constrained_stream_is_filtered_full_stream(small_groups):
    """Pruning keeps the full stream's order: the constrained stream is the
    full one filtered, element for element (here fixing B and a set S)."""
    for g in small_groups:
        full = list(enumerate_automorphisms(g))
        for b in index2_subgroups(g):
            a = (b.complement_bits() & -b.complement_bits()).bit_length() - 1
            for s_bits in (1 << a, (1 << a) | (1 << g.neg(a))):
                fixing = (b.bits, s_bits)
                want = [alpha.image for alpha in full
                        if all(alpha.fixes_set(m) for m in fixing)]
                got = [alpha.image
                       for alpha in enumerate_automorphisms(g, fixing=fixing)]
                assert got == want


@pytest.mark.parametrize("orders", [[2, 2, 2, 2], [2, 2, 4], [2, 8]])
def test_constrained_stream_is_filtered_full_stream_on_sweep_groups(orders):
    """The same on the groups where the A2 scan of the classifier works
    hardest: every index-2 B with seeded random admissible sets S, directed
    and inverse-closed, and the generator-image prefix of the full stream."""
    g = build_group(orders)
    full = list(enumerate_automorphisms(g))
    rng = random.Random(1991)
    for b in index2_subgroups(g):
        fixing_b = [alpha for alpha in full if alpha.fixes_set(b.bits)]
        for mode in ("directed", "undirected"):
            units = admissible_units(g, b.complement_bits(), mode)
            for _ in range(6):
                s_bits = 0
                for unit in rng.sample(units, rng.randint(1, len(units))):
                    s_bits |= unit
                want = [alpha.image for alpha in fixing_b
                        if alpha.fixes_set(s_bits)]
                got = [alpha.image for alpha in
                       enumerate_automorphisms(g, fixing=(b.bits, s_bits))]
                assert got == want
    for alpha in full[::max(1, len(full) // 50)]:
        images = [alpha(x) for x in g.generators()]
        assert automorphism_from_generator_images(g, images) == alpha


def test_stream_order_is_lexicographic_in_generator_images():
    """Not identity first: for C2 x C6 the first image of the C2 generator
    is the first involution, (0, 3)."""
    g = build_group([2, 6])
    first = next(enumerate_automorphisms(g))
    assert g.decode(first(g.generators()[0])) == (0, 3)
    keys = [[alpha(x) for x in g.generators()]
            for alpha in enumerate_automorphisms(g)]
    assert keys == sorted(keys)


@pytest.mark.parametrize("index", [0, 30])
def test_c2_5_index2_stabilizer_order(index):
    g = build_group([2] * 5)
    b = index2_subgroups(g)[index]
    gens, order = automorphism_generators(g, (b.bits,))
    assert order == 322_560  # |AGL4(2)| = 2^4 |GL4(2)|
    assert len(gens) <= 7
    assert all(alpha.stabilizes(b) for alpha in gens)


def test_c2_6_stabilizer_order_matches_c26_subclaim_constant():
    from bipcayley.survey import _gl2_order, subgroup_of_type

    g = build_group([2] * 6)
    b = subgroup_of_type(g, "C2^5")
    assert automorphism_generators(g, (b.bits,))[1] == _gl2_order(6) // 63


def test_index2_subgroups():
    g = build_group([6])
    subs = index2_subgroups(g)
    assert len(subs) == 1 and subs[0].order == 3

    g = build_group([4, 2])
    subs = index2_subgroups(g)
    assert len(subs) == 3
    assert sorted(s.invariant_factors() for s in subs) == [(2, 2), (4,), (4,)]

    g = build_group([2, 2, 2])
    assert len(index2_subgroups(g)) == 7

    assert index2_subgroups(build_group([3, 3])) == []


def test_single_index2_kernel_matches_the_character_list():
    for n in range(2, 33):
        for orders in factor_multisets(n):
            g = build_group(list(orders))
            subs = index2_subgroups(g)
            assert len(subs) == index2_subgroup_count(g)
            even = [i for i, m in enumerate(orders) if m % 2 == 0]
            for k, sub in enumerate(subs):
                single = index2_subgroup(g, k)
                assert (single.bits, single.generators) == \
                    (sub.bits, sub.generators)
                # character k + 1 adds up the coordinates its bits select
                picked = [p for j, p in enumerate(even) if (k + 1) >> j & 1]
                assert sub.bits == sum(
                    1 << a for a in g.elements()
                    if sum(g.decode(a)[p] for p in picked) % 2 == 0)


def test_prime_order_and_index_subgroups():
    g = build_group([6])
    po = prime_order_subgroups(g)
    assert sorted(s.order for s in po) == [2, 3]
    pi = prime_index_subgroups(g)
    assert sorted(s.index for s in pi) == [2, 3]

    g = build_group([4])
    assert len(prime_order_subgroups(g)) == 1

    g = build_group([2, 2])
    assert len(prime_order_subgroups(g)) == 3

    for g in (build_group([4, 2]), build_group([3, 6])):
        assert len(prime_order_subgroups(g)) <= g.size
        assert len(prime_index_subgroups(g)) <= g.size


def test_example1_fix_invert():
    group, sub, alpha = example1_automorphism(1)
    fixed = sum(1 << a for a in group.elements() if alpha(a) == a)
    inverted = sum(1 << a for a in group.elements()
                   if alpha(a) == group.neg(a))
    assert fixed.bit_count() == 4 and inverted.bit_count() == 4
    # T1 = <x*y1>, T-1 = <x>
    assert fixed == generated_subgroup(group, [group.encode((1, 1))]).bits
    assert inverted == generated_subgroup(group, [group.encode((1, 0))]).bits


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_example1_invariants(ell):
    group, sub, alpha = example1_automorphism(ell)
    iota = inversion_automorphism(group)
    assert all(alpha(alpha(a)) == a for a in group.elements())
    assert not alpha.is_identity and alpha.image != iota.image
    assert alpha.stabilizes(sub)
    assert sub.index == 2
    for a in bits_of(sub.complement_bits()):
        pair = (1 << a) | (1 << group.neg(a))
        assert alpha.apply_to_set(pair) == pair


@pytest.mark.parametrize("ell", [0, 1, 2])
def test_example2_invariants(ell):
    group, sub, alpha = example2_automorphism(ell)
    iota = inversion_automorphism(group)
    assert all(alpha(alpha(a)) == a for a in group.elements())
    assert not alpha.is_identity and alpha.image != iota.image
    assert alpha.stabilizes(sub)
    assert sub.index == 2
    for a in bits_of(sub.complement_bits()):
        pair = (1 << a) | (1 << group.neg(a))
        assert alpha.apply_to_set(pair) == pair


def test_example2_inverts_x1x2():
    group, _, alpha = example2_automorphism(0)
    x1x2 = group.encode((1, 1))
    assert alpha(x1x2) == group.neg(x1x2)


@pytest.mark.parametrize("builder,ell", [(example1_automorphism, 3),
                                         (example2_automorphism, 1)])
def test_examples_fix_every_inverse_closed_set(builder, ell):
    group, sub, alpha = builder(ell)
    units = admissible_units(group, sub.complement_bits(), "undirected")
    for bits in iter_unit_subsets(units):
        assert alpha.apply_to_set(bits) == bits


def test_example_bad_parameters():
    with pytest.raises(BadParameter):
        example1_automorphism(0)
    with pytest.raises(BadParameter):
        example2_automorphism(-1)


def test_is_exceptional_pair():
    g = build_group([4, 2])
    assert is_exceptional_pair(g, involution_subgroup(g))
    c4 = generated_subgroup(g, [g.encode((1, 0))])
    assert not is_exceptional_pair(g, c4)

    g6 = build_group([6])
    assert not is_exceptional_pair(g6, generated_subgroup(g6, [2]))

    g44 = build_group([4, 4])
    b = generated_subgroup(g44, [g44.encode((2, 0)), g44.encode((0, 1))])
    assert b.order == 8 and is_exceptional_pair(g44, b)

    ex1 = example1_automorphism(2)
    assert is_exceptional_pair(ex1[0], ex1[1])
    ex2 = example2_automorphism(1)
    assert is_exceptional_pair(ex2[0], ex2[1])


def test_two_aut_orbits_on_index2_subgroups():
    """The exceptional-family groups have exactly two orbits of index-2
    subgroups (checked empirically at small rank)."""
    for orders, expected in ([(4, 2), 2], [(4, 2, 2), 2],
                             [(4, 4), 1], [(4, 4, 2), 2]):
        group = build_group(list(orders))
        subs = index2_subgroups(group)
        auts = list(enumerate_automorphisms(group))
        seen = set()
        orbits = 0
        for s in subs:
            if s.bits in seen:
                continue
            orbits += 1
            orbit = {s.bits}
            frontier = [s.bits]
            while frontier:
                nxt = []
                for bts in frontier:
                    for alpha in auts:
                        im = alpha.apply_to_set(bts)
                        if im not in orbit:
                            orbit.add(im)
                            nxt.append(im)
                frontier = nxt
            seen |= orbit
        assert orbits == expected


def test_automorphism_from_generator_images_validation():
    g = build_group([4, 2])
    with pytest.raises(BadParameter):
        automorphism_from_generator_images(g, [g.encode((1, 0))])
    with pytest.raises(BadParameter):
        # x -> order-2 element cannot be a bijection on C4 x C2
        automorphism_from_generator_images(
            g, [g.encode((2, 0)), g.encode((0, 1))])


@pytest.mark.parametrize("orders", [[2, 2, 2, 2], [4, 2, 2], [2, 6]])
def test_stream_without_addition_table_equals_table_stream(monkeypatch,
                                                           orders):
    """Groups above the addition-table cap add by coordinates: the full
    stream and a (B, S)-constrained stream are the same without the table."""
    g = build_group(orders)
    b = index2_subgroups(g)[0]
    a = (b.complement_bits() & -b.complement_bits()).bit_length() - 1
    s_bits = (1 << a) | (1 << g.neg(a))
    fixings = [(), (b.bits, s_bits)]
    want = [[alpha.image for alpha in enumerate_automorphisms(g, fixing)]
            for fixing in fixings]
    monkeypatch.setattr(g, "_add", None)
    got = [[alpha.image for alpha in enumerate_automorphisms(g, fixing)]
           for fixing in fixings]
    assert got == want
    assert len(want[0]) == automorphism_generators(g)[1] and want[1]


@functools.lru_cache(maxsize=None)
def _order_only_levels(group):
    """The backtrack's levels as they were before typing: the candidates of
    g_i are all the elements of order n_i."""
    by_order = {}
    for a in group.elements():
        by_order.setdefault(group.element_order(a), []).append(a)
    levels = []
    span = 1
    for n, w in zip(group.orders, group._weights):
        levels.append((tuple(by_order.get(n, ())),
                       tuple(((q * n + c) * w - w, (q * n + c) * w)
                             for c in range(1, n) for q in range(span))))
        span *= n
    return tuple(levels)


def _streams_and_generators(g, fixings, cap=None):
    """Per fixing: the stream (its first ``cap`` automorphisms), the
    generating set and the order."""
    out = []
    for fixing in fixings:
        gens, order = automorphism_generators(g, fixing)
        stream = itertools.islice(enumerate_automorphisms(g, fixing), cap)
        out.append(([alpha.image for alpha in stream],
                    [alpha.image for alpha in gens], order))
    return out


def _seeded_fixings(g, rng):
    """(), and per index-2 B: (B,) and (B, S) for a random directed S."""
    fixings = [()]
    for b in index2_subgroups(g):
        units = admissible_units(g, b.complement_bits(), "directed")
        s_bits = 0
        for unit in rng.sample(units, rng.randint(1, len(units))):
            s_bits |= unit
        fixings += [(b.bits,), (b.bits, s_bits)]
    return fixings


def test_typed_levels_keep_the_order_only_stream_and_generators(monkeypatch):
    """Typing the candidates (order and membership of every dA) drops only
    images no automorphism takes: the streams fixing (), each index-2 B and
    seeded (B, S), the generating sets and the orders are those of the
    order-only levels, on every abelian group of order <= 32, in invariant
    factor order and reversed (the layout of the table groups).  Where
    typing leaves the levels as they were (elementary abelian and cyclic
    groups among others) the walk is the same, so only the 20 layouts whose
    levels it prunes are walked twice."""
    from bipcayley import autos
    from bipcayley.groups import abelian_isomorphism_classes
    rng = random.Random(33)
    pruned = 0
    for n in range(2, 33):
        for factors in abelian_isomorphism_classes(n):
            for orders in {factors, factors[::-1]}:
                g = build_group(list(orders))
                if autos._levels(g) == _order_only_levels(g):
                    continue
                pruned += 1
                fixings = _seeded_fixings(g, rng)
                got = _streams_and_generators(g, fixings)
                with monkeypatch.context() as patch:
                    patch.setattr(autos, "_levels", _order_only_levels)
                    assert _streams_and_generators(g, fixings) == got, orders
    assert pruned == 20


def test_typed_level_candidates_hold_every_image_of_the_generator():
    """By brute force over every homomorphism, on every abelian group of
    order <= 16: each bijective one maps g_i into level i's candidates."""
    from bipcayley.autos import _levels
    from bipcayley.groups import abelian_isomorphism_classes
    for n in range(2, 17):
        for factors in abelian_isomorphism_classes(n):
            for orders in {factors, factors[::-1]}:
                g = build_group(list(orders))
                gens = g.generators()
                images = [set() for _ in gens]
                # img: the image of the span of the generators placed so far
                stack = [((), [0])]
                while stack:
                    ts, img = stack.pop()
                    if len(ts) == len(gens):
                        if len(set(img)) == g.size:
                            for i, t in enumerate(ts):
                                images[i].add(t)
                        continue
                    m = g.orders[len(ts)]
                    for t in g.elements():
                        if g.scalar_mul(m, t) == 0:
                            stack.append((ts + (t,), [
                                g.add(y, g.scalar_mul(c, t))
                                for c in range(m) for y in img]))
                levels = _levels(g)
                for i, seen in enumerate(images):
                    assert seen <= set(levels[i][0]), (orders, i)


def _layouts(largest):
    """Every abelian group of order <= ``largest``, in invariant factor
    order and reversed (the layout of the table groups)."""
    from bipcayley.groups import abelian_isomorphism_classes
    for n in range(2, largest + 1):
        for factors in abelian_isomorphism_classes(n):
            for orders in sorted({factors, factors[::-1]}):
                yield build_group(list(orders))


def _kernel_by_decoding(group, positions, coeffs, p):
    """``_character_kernel`` as it was: decode every element."""
    from bipcayley.groups import subgroup_from_bits
    bits = 0
    for a in group.elements():
        coords = group.decode(a)
        if sum(c * coords[q] for c, q in zip(coeffs, positions)) % p == 0:
            bits |= 1 << a
    return subgroup_from_bits(group, bits)


def _exceptional_by_counting(group, sub):
    """``is_exceptional_pair`` as it was: B typed by counting elements."""
    from bipcayley.groups import invariant_factors_of_orders
    fa = invariant_factors_of_orders(group.orders)
    fb = sub.invariant_factors()
    if fa and fa[-1] == 4 and all(f == 2 for f in fa[:-1]):
        ell = len(fa) - 1
        if ell >= 1 and fb == (2,) * (ell + 1):
            return True
    if len(fa) >= 2 and fa[-1] == 4 and fa[-2] == 4 \
            and all(f == 2 for f in fa[:-2]):
        ell = len(fa) - 2
        if fb == (2,) * (ell + 1) + (4,):
            return True
    return False


def test_index2_type_is_the_counted_type_of_the_kernel():
    """The formula (n_j halved) types every index-2 subgroup of every
    layout of even order <= 128 as counting its p^k-torsion does, and
    ``is_exceptional_pair`` answers as it did by counting: 1,587 pairs."""
    from bipcayley.autos import index2_type
    from bipcayley.groups import subgroup_invariant_factors
    pairs = exceptional = 0
    for g in _layouts(128):
        for k, b in enumerate(index2_subgroups(g)):
            assert index2_type(g, k) == subgroup_invariant_factors(g, b), \
                (g.orders, k)
            assert is_exceptional_pair(g, b) == _exceptional_by_counting(g, b)
            pairs += 1
            exceptional += is_exceptional_pair(g, b)
    assert pairs == 1587 and exceptional > 0


def test_character_kernels_equal_the_decoded_kernels(monkeypatch):
    """Every index-2 and prime-index kernel of every layout of order <= 96,
    built from residue bitsets, has the bits and generators that decoding
    every element gave."""
    from bipcayley import autos
    for g in _layouts(96):
        got = [(s.bits, s.generators) for s in
               index2_subgroups(g) + prime_index_subgroups(g)]
        with monkeypatch.context() as patch:
            patch.setattr(autos, "_character_kernel", _kernel_by_decoding)
            want = [(s.bits, s.generators) for s in
                    index2_subgroups(g) + prime_index_subgroups(g)]
        assert got == want, g.orders


def test_level_candidates_are_the_orbits_of_the_generators(monkeypatch):
    """Level i offers exactly {alpha(g_i) : alpha in Aut(A)}, on every
    layout of order <= 64 with at most 30,000 automorphisms.  Aut(A) is
    walked over the order-only levels, which hold every image, so the
    check does not lean on the levels it checks.  The candidates also lie
    in those of the earlier types (order and membership of each dA)."""
    from bipcayley import autos
    from bipcayley.groups import _closure
    walked = 0
    for g in _layouts(64):
        gens, exp = g.generators(), g.exponent
        multiples = [_closure(g, [g.scalar_mul(d, x) for x in gens])
                     for d in range(2, exp) if exp % d == 0]
        old = [(g.element_order(a), [m >> a & 1 for m in multiples])
               for a in g.elements()]
        levels = autos._levels(g)
        for i, x in enumerate(gens):
            assert all(old[t] == old[x] for t in levels[i][0]), g.orders
        if automorphism_generators(g)[1] > 30_000:
            continue
        walked += 1
        images = [set() for _ in gens]
        with monkeypatch.context() as patch:
            patch.setattr(autos, "_levels", _order_only_levels)
            for alpha in enumerate_automorphisms(g):
                for i, x in enumerate(gens):
                    images[i].add(alpha(x))
        assert [set(cands) for cands, _ in levels] == images, g.orders
    assert walked == 145


def _unfiltered_automorphisms(group, fixing, prefix=()):
    """``autos._automorphisms`` as it was before its candidates were
    filtered by membership: every candidate of a level is tried."""
    from bipcayley.autos import _levels
    table, add = group._add, group.add
    sig = [0] * group.size
    for j, mask in enumerate(fixing):
        for a in bits_of(mask):
            sig[a] |= 1 << j
    levels = _levels(group)
    img = [0] * group.size
    used = [1] * len(levels)
    choices = [prefix[i:i + 1] if i < len(prefix) else cands
               for i, (cands, _) in enumerate(levels)]
    todo = [iter(c) for c in choices]
    i = 0
    while i >= 0:
        for t in todo[i]:
            row = table[t] if table is not None else None
            u = used[i]
            for src, pos in levels[i][1]:
                y = row[img[src]] if row is not None else add(img[src], t)
                if (u >> y) & 1 or sig[y] != sig[pos]:
                    break
                u |= 1 << y
                img[pos] = y
            else:
                if i + 1 < len(levels):
                    used[i + 1] = u
                    i += 1
                    break
                yield Automorphism(group, tuple(img))
        else:
            todo[i] = iter(choices[i])
            i -= 1


def test_membership_filter_keeps_the_unfiltered_stream_and_generators(
        monkeypatch):
    """Offering a level only the candidates with g_i's membership drops
    only candidates the first step would drop: the streams (their first
    500 automorphisms) fixing (), each index-2 B and a seeded (B, S), the
    generating sets and the orders are those of the unfiltered walk, on
    every layout of order <= 32; and on C2xC300, above the addition-table
    cap, the streams under each prefix (an image of g_0) are the same."""
    from bipcayley import autos
    rng = random.Random(35)
    for g in _layouts(32):
        fixings = _seeded_fixings(g, rng)
        got = _streams_and_generators(g, fixings, 500)
        with monkeypatch.context() as patch:
            patch.setattr(autos, "_automorphisms", _unfiltered_automorphisms)
            assert _streams_and_generators(g, fixings, 500) == got, g.orders
    g = build_group([2, 300])
    assert g._add is None
    for fixing in _seeded_fixings(g, rng):
        for t in autos._levels(g)[0][0]:
            want = [alpha.image for alpha in
                    _unfiltered_automorphisms(g, fixing, [t])]
            assert [alpha.image for alpha in autos._automorphisms(
                g, fixing, [t])] == want, (fixing, t)
