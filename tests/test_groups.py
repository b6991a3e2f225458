import math
import random

import pytest
from hypothesis import given, strategies as st

from bipcayley.errors import (
    BadSubgroup,
    EmptyOrders,
    GroupSpecError,
    OrderBelowTwo,
    SizeCapExceeded,
)
from bipcayley.groups import (
    _ADD_TABLE_CAP,
    abelian_isomorphism_classes,
    bits_of,
    build_group,
    coset_decompose,
    factor_multisets,
    format_group_spec,
    generated_subgroup,
    invariant_factors_of_orders,
    involution_subgroup,
    parse_group_spec,
    subgroup_from_bits,
    subgroup_invariant_factors,
    trivial_subgroup,
)

orders_strategy = st.lists(st.integers(2, 9), min_size=1, max_size=4).filter(
    lambda o: math.prod(o) <= 200)


def test_build_group_examples():
    g = build_group([4, 2])
    assert g.size == 8 and g.exponent == 4
    g = build_group([2, 2, 2])
    assert g.size == 8 and g.exponent == 2
    g = build_group([3, 6])
    assert g.size == 18 and g.exponent == 6


def test_build_group_errors():
    with pytest.raises(EmptyOrders):
        build_group([])
    with pytest.raises(OrderBelowTwo):
        build_group([4, 1])
    with pytest.raises(SizeCapExceeded):
        build_group([2] * 21)
    build_group([2] * 8, size_cap=256)
    with pytest.raises(SizeCapExceeded):
        build_group([2] * 9, size_cap=256)


@given(orders_strategy)
def test_codec_roundtrip(orders):
    g = build_group(orders)
    for idx in range(g.size):
        assert g.encode(g.decode(idx)) == idx
    assert g.decode(0) == (0,) * len(orders)


@given(orders_strategy, st.integers(0, 10 ** 6))
def test_inverse_involution(orders, raw):
    g = build_group(orders)
    a = raw % g.size
    assert g.neg(g.neg(a)) == a
    assert g.add(a, g.neg(a)) == 0
    assert g.element_order(g.neg(a)) == g.element_order(a)


def test_element_order_examples():
    g = build_group([4, 2])
    assert g.element_order(0) == 1
    assert g.element_order(g.encode((2, 1))) == 2
    assert g.element_order(g.encode((1, 1))) == 4


def test_element_order_matches_repeated_addition(small_groups):
    for g in small_groups:
        for a in g.elements():
            x, count = a, 1
            while x != 0:
                x = g.add(x, a)
                count += 1
            assert count == g.element_order(a)


def test_addition_table_matches_coordinatewise_addition(small_groups):
    extra = [parse_group_spec(spec) for spec in ("C2^6", "C4^3", "C3^2xC6")]
    for g in small_groups + [build_group(orders) for orders in extra]:
        assert g._add == [[g._add_slow(a, b) for b in g.elements()]
                          for a in g.elements()], g.orders


def test_involution_subgroup_examples():
    g = build_group([4, 2])
    a2 = involution_subgroup(g)
    assert a2.order == 4
    assert all(g.decode(a)[0] % 2 == 0 for a in a2.elements())

    g = build_group([2, 2, 2])
    assert involution_subgroup(g).order == 8

    g = build_group([3, 6])
    a2 = involution_subgroup(g)
    assert a2.order == 2
    assert sorted(g.decode(a) for a in a2.elements()) == [(0, 0), (0, 3)]


def test_involution_subgroup_order_formula(small_groups):
    for g in small_groups:
        expected = math.prod(math.gcd(n, 2) for n in g.orders)
        assert involution_subgroup(g).order == expected


def test_generated_subgroup_examples():
    g = build_group([4, 2])
    assert generated_subgroup(g, []).order == 1
    assert generated_subgroup(g, [g.encode((1, 0))]).order == 4
    assert generated_subgroup(g, [g.encode((1, 0)), g.encode((0, 1))]).order == 8


def test_generated_subgroup_order_of_single_element(small_groups):
    for g in small_groups:
        for a in g.elements():
            assert generated_subgroup(g, [a]).order == g.element_order(a)


def test_subgroup_bits_closed(small_groups):
    for g in small_groups:
        for a in g.elements():
            sub = generated_subgroup(g, [a])
            members = list(sub.elements())
            for x in members:
                for y in members:
                    assert sub.contains(g.add(x, y))
                assert sub.contains(g.neg(x))
            assert g.size % sub.order == 0


def test_subgroup_from_bits_validation():
    g = build_group([6])
    sub = subgroup_from_bits(g, 0b010101)  # {0, 2, 4}
    assert sub.order == 3
    with pytest.raises(BadSubgroup):
        subgroup_from_bits(g, 0b000110)  # not containing identity... {1,2}
    with pytest.raises(BadSubgroup):
        subgroup_from_bits(g, 0b000011)  # {0,1} not closed


def test_coset_decompose_examples():
    g = build_group([6])
    h = generated_subgroup(g, [2])
    assert coset_decompose(g, h, 0)
    assert coset_decompose(g, h, (1 << 1) | (1 << 3) | (1 << 5))
    assert not coset_decompose(g, h, 1 << 1)
    assert coset_decompose(g, trivial_subgroup(g), (1 << 1) | (1 << 4))


def test_parse_group_spec():
    assert parse_group_spec("C4xC2^3") == [4, 2, 2, 2]
    assert parse_group_spec(" c3 X c6 ") == [3, 6]
    assert parse_group_spec("C12") == [12]
    with pytest.raises(GroupSpecError) as err:
        parse_group_spec("C4yC2")
    assert err.value.position == 2
    with pytest.raises(GroupSpecError):
        parse_group_spec("")
    with pytest.raises(GroupSpecError):
        parse_group_spec("4x2")


def test_format_group_spec_roundtrip():
    for spec in ("C4xC2^3", "C2^2", "C3xC6", "C12"):
        assert format_group_spec(parse_group_spec(spec)) == spec


def test_invariant_factors_of_orders():
    assert invariant_factors_of_orders([2, 30]) == (2, 30)
    assert invariant_factors_of_orders([4, 2]) == (2, 4)
    assert invariant_factors_of_orders([3, 6]) == (3, 6)
    assert invariant_factors_of_orders([3, 4]) == (12,)
    assert invariant_factors_of_orders([6, 6, 2]) == (2, 6, 6)


def test_subgroup_invariant_factors_against_whole_group(small_groups):
    for g in small_groups:
        full = generated_subgroup(g, list(g.generators()))
        assert subgroup_invariant_factors(g, full) == \
            invariant_factors_of_orders(g.orders)


def test_subgroup_invariant_factors_examples():
    g = build_group([4, 2])
    assert generated_subgroup(g, [g.encode((1, 0))]).invariant_factors() == (4,)
    assert involution_subgroup(g).invariant_factors() == (2, 2)
    g = build_group([4, 4])
    sub = generated_subgroup(g, [g.encode((2, 1))])
    assert sub.invariant_factors() == (4,)


def test_factor_multisets():
    assert factor_multisets(12) == [(2, 2, 3), (2, 6), (3, 4), (12,)]
    assert factor_multisets(8) == [(2, 2, 2), (2, 4), (8,)]
    assert abelian_isomorphism_classes(8) == [(2, 2, 2), (2, 4), (8,)]
    assert abelian_isomorphism_classes(12) == [(2, 6), (12,)]


def test_translate_and_negate_set():
    g = build_group([6])
    mask = (1 << 1) | (1 << 2)
    assert g.translate_set(mask, 3) == (1 << 4) | (1 << 5)
    assert g.negate_set(mask) == (1 << 5) | (1 << 4)


def test_translates_are_translate_set_in_index_order(small_groups):
    """Every abelian group of order <= 64, with its factors in both orders,
    so that the last factor, which ``translates`` rotates on its own, is
    sometimes the smallest and sometimes the largest; other factor orders;
    and two groups past the addition table, whose ``translate_set`` adds
    coordinatewise."""
    rng = random.Random(41)
    shapes = [shape for n in range(2, 65)
              for inv in abelian_isomorphism_classes(n)
              for shape in dict.fromkeys((inv, inv[::-1]))]
    larger = [build_group(orders) for orders in ([1024], [2, 512])]
    assert all(g.size > _ADD_TABLE_CAP for g in larger)
    for g in (small_groups + [build_group(o) for o in shapes + [(3, 4, 5)]]
              + larger):
        sparse = sum(1 << a for a in rng.sample(range(g.size), g.size // 8))
        for mask in (0, 1, sparse, rng.getrandbits(g.size)):
            assert g.translates(mask) == [g.translate_set(mask, a)
                                          for a in g.elements()]


def test_bits_of():
    assert list(bits_of(0b101001)) == [0, 3, 5]
    assert list(bits_of(0)) == []


def _greedy_generators_reference(group, bits):
    """The greedy loop that recomputes the span from the trivial subgroup
    after every new generator."""
    from bipcayley.groups import _closure
    gens = []
    span = 1
    for a in bits_of(bits):
        if not (span >> a) & 1:
            gens.append(a)
            span = _closure(group, gens)
            if span == bits:
                break
    return tuple(gens)


def test_incremental_greedy_generators_match_reference(small_groups):
    from bipcayley.groups import all_subgroups
    for g in small_groups:
        for sub in all_subgroups(g):
            want = _greedy_generators_reference(g, sub.bits)
            assert subgroup_from_bits(g, sub.bits).generators == want
            assert generated_subgroup(g, bits_of(sub.bits)).generators == want


def _table_layouts():
    """Every layout of order <= 64, in invariant factor order and reversed,
    and the largest addition tables, where one factor has 256 or 512
    elements."""
    layouts = [orders for n in range(2, 65)
               for factors in abelian_isomorphism_classes(n)
               for orders in {factors, factors[::-1]}]
    return [build_group(list(orders))
            for orders in layouts + [(512,), (2, 256), (256, 2)]]


def test_rotated_addition_table_matches_coordinatewise_addition():
    for g in _table_layouts():
        assert g._add == [[g._add_slow(a, b) for b in g.elements()]
                          for a in g.elements()], g.orders


def test_inverse_table_built_per_factor_matches_coordinatewise_negation():
    for g in _table_layouts():
        assert g._neg == [g._neg_slow(a) for a in g.elements()], g.orders
