"""Finite abelian groups with dense element indexing and bitset subgroups.

A group is a product of cyclic factors C_{n_1} x ... x C_{n_k} given by its
factor orders (not necessarily in invariant-factor form).  Elements are
integers in [0, size) under a mixed-radix codec: the first factor is the most
significant digit and the identity is index 0.  Subsets of the group are
plain Python ints used as bitsets over element indices, which keeps subgroup
and connection-set manipulation at native speed.  The addition table of a
small group is built factor by factor, the last first: row (0, a) is row a so
far shifted by y into each block y, and row (x, a) is it rotated by x blocks.
The inverse table is built the same way: -(x, a) is ((-x) mod n, -a).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, Sequence

from .errors import (
    BadSubgroup,
    EmptyOrders,
    GroupSpecError,
    OrderBelowTwo,
    SizeCapExceeded,
)

SIZE_CAP = 1 << 20
_ADD_TABLE_CAP = 512       # full size^2 addition table below this size
_NEG_TABLE_CAP = 1 << 16   # inverse table below this size


def bits_of(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    return mask.bit_count()


class AbelianGroup:
    """C_{n_1} x ... x C_{n_k} with mixed-radix element indexing."""

    __slots__ = ("orders", "size", "exponent", "_weights", "_neg", "_add")

    def __init__(self, orders: Sequence[int]):
        self.orders = tuple(int(n) for n in orders)
        self.size = math.prod(self.orders)
        self.exponent = reduce(math.lcm, self.orders)
        weights = [1] * len(self.orders)
        for i in range(len(self.orders) - 2, -1, -1):
            weights[i] = weights[i + 1] * self.orders[i + 1]
        self._weights = tuple(weights)
        self._neg = None
        if self.size <= _NEG_TABLE_CAP:
            self._neg = [0]
            for n in reversed(self.orders):  # digit x -> (-x) mod n
                w = len(self._neg)
                self._neg = [-x % n * w + c for x in range(n) for c in self._neg]
        if self.size <= _ADD_TABLE_CAP:
            add = [[0]]
            for n in reversed(self.orders):
                w = len(add)
                flat = [[y * w + c for y in range(n) for c in row]
                        for row in add]
                add = [f[x * w:] + f[:x * w] for x in range(n) for f in flat]
            self._add = add
        else:
            self._add = None

    # -- codec -------------------------------------------------------------

    def encode(self, coords: Sequence[int]) -> int:
        if len(coords) != len(self.orders):
            raise ValueError(
                f"expected {len(self.orders)} coordinates, got {len(coords)}")
        idx = 0
        for c, n, w in zip(coords, self.orders, self._weights):
            idx += (c % n) * w
        return idx

    def decode(self, idx: int) -> tuple[int, ...]:
        coords = []
        for n, w in zip(self.orders, self._weights):
            coords.append((idx // w) % n)
        return tuple(coords)

    # -- arithmetic ---------------------------------------------------------

    def _add_slow(self, a: int, b: int) -> int:
        idx = 0
        for n, w in zip(self.orders, self._weights):
            idx += (((a // w) + (b // w)) % n) * w
        return idx

    def _neg_slow(self, a: int) -> int:
        idx = 0
        for n, w in zip(self.orders, self._weights):
            idx += (-(a // w) % n) * w
        return idx

    def add(self, a: int, b: int) -> int:
        if self._add is not None:
            return self._add[a][b]
        return self._add_slow(a, b)

    def neg(self, a: int) -> int:
        if self._neg is not None:
            return self._neg[a]
        return self._neg_slow(a)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def scalar_mul(self, m: int, a: int) -> int:
        idx = 0
        for n, w in zip(self.orders, self._weights):
            idx += ((m * (a // w)) % n) * w
        return idx

    def elements(self) -> range:
        return range(self.size)

    def generators(self) -> list[int]:
        """Standard generating tuple: one unit element per cyclic factor."""
        return [w for w in self._weights]

    # -- conveniences ---------------------------------------------------

    def element_order(self, a: int) -> int:
        o = 1
        for n, w in zip(self.orders, self._weights):
            c = (a // w) % n
            o = math.lcm(o, n // math.gcd(n, c))
        return o

    def translate_set(self, mask: int, g: int) -> int:
        """Image of a bitset under addition of ``g``."""
        out = 0
        for b in bits_of(mask):
            out |= 1 << self.add(b, g)
        return out

    def negate_set(self, mask: int) -> int:
        if self.exponent == 2:
            return mask
        out = 0
        for b in bits_of(mask):
            out |= 1 << self.neg(b)
        return out

    def translates(self, mask: int) -> list[int]:
        """``[translate_set(mask, g) for g in elements()]``, by rotations:
        adding e_i shifts by w_i the bits whose digit i is below n_i - 1 and
        wraps the rest down by (n_i - 1) * w_i.  Each coordinate, from the
        last, rotates the rows built so far n_i - 1 times; the last one has
        only ``mask`` to rotate, and rotates it in a plain loop."""
        full = (1 << self.size) - 1
        rows = [mask]
        for n, w in zip(reversed(self.orders), reversed(self._weights)):
            wrap = (n - 1) * w
            high = ((1 << w) - 1 << wrap) * (full // ((1 << n * w) - 1))
            low = full ^ high
            if w == 1:  # the last coordinate: one row so far
                for _ in range(n - 1):
                    mask = (mask & low) << 1 | (mask & high) >> wrap
                    rows.append(mask)
                continue
            block = rows
            for _ in range(n - 1):
                block = [(x & low) << w | (x & high) >> wrap for x in block]
                rows += block
        return rows

    def __eq__(self, other) -> bool:
        return isinstance(other, AbelianGroup) and self.orders == other.orders

    def __hash__(self) -> int:
        return hash(self.orders)

    def __repr__(self) -> str:
        return f"AbelianGroup({format_group_spec(self.orders)})"


def build_group(orders: Sequence[int], size_cap: int = SIZE_CAP) -> AbelianGroup:
    """Construct a group from cyclic factor orders, failing loudly on bad input."""
    orders = list(orders)
    if not orders:
        raise EmptyOrders("a group needs at least one cyclic factor")
    for n in orders:
        if int(n) < 2:
            raise OrderBelowTwo(f"cyclic factor order {n} is below 2")
    if math.prod(orders) > size_cap:
        raise SizeCapExceeded(
            f"|A|={math.prod(orders)} exceeds BIPCAYLEY_SIZE_CAP={size_cap}")
    return AbelianGroup(orders)


# -- group spec grammar -----------------------------------------------------

_FACTOR_RE = re.compile(r"C(\d+)(?:\^(\d+))?", re.IGNORECASE)
_MAX_FACTORS = 64  # each >= 2, so more make |A| > 2^64, which nothing indexes


def parse_group_spec(spec: str) -> list[int]:
    """Parse ``C<n>`` factors joined by ``x``, with ``^k`` repetition.

    Whitespace-insensitive; e.g. ``C4xC2^3`` -> [4, 2, 2, 2].
    """
    compact = "".join(spec.split())
    if not compact:
        raise GroupSpecError("empty group spec", 0)
    orders: list[int] = []
    pos = 0
    while True:
        m = _FACTOR_RE.match(compact, pos)
        if not m:
            raise GroupSpecError(
                f"expected a factor like 'C4' in {spec!r}", pos)
        digits, rep = m.group(1), m.group(2) or "1"
        if len(digits) > 19 or len(rep) > 2 \
                or len(orders) + int(rep) > _MAX_FACTORS:
            raise GroupSpecError(f"more than {_MAX_FACTORS} factors, or one of"
                                 f" 20 digits or more, in {spec!r}", pos)
        n, rep = int(digits), int(rep)
        if rep < 1:
            raise GroupSpecError(f"repetition must be >= 1 in {spec!r}", pos)
        orders.extend([n] * rep)
        pos = m.end()
        if pos == len(compact):
            return orders
        if compact[pos] not in ("x", "X", "*"):
            raise GroupSpecError(
                f"expected 'x' between factors in {spec!r}", pos)
        pos += 1


def format_group_spec(orders: Sequence[int]) -> str:
    parts = []
    i = 0
    orders = list(orders)
    while i < len(orders):
        j = i
        while j < len(orders) and orders[j] == orders[i]:
            j += 1
        rep = j - i
        parts.append(f"C{orders[i]}" + (f"^{rep}" if rep > 1 else ""))
        i = j
    return "x".join(parts)


# -- subgroups ----------------------------------------------------------------


@dataclass(frozen=True)
class Subgroup:
    """Subgroup as a membership bitset plus a small generating set."""

    group: AbelianGroup
    bits: int
    order: int
    generators: tuple[int, ...]

    @property
    def index(self) -> int:
        return self.group.size // self.order

    def contains(self, a: int) -> bool:
        return bool((self.bits >> a) & 1)

    def elements(self) -> Iterator[int]:
        return bits_of(self.bits)

    def complement_bits(self) -> int:
        return ((1 << self.group.size) - 1) ^ self.bits

    def invariant_factors(self) -> tuple[int, ...]:
        return subgroup_invariant_factors(self.group, self)

    def __repr__(self) -> str:
        gens = ";".join(",".join(map(str, self.group.decode(g)))
                        for g in self.generators)
        return f"Subgroup(order={self.order}, gens=[{gens}])"


def _closure(group: AbelianGroup, gens: Iterable[int], bits: int = 1) -> int:
    """Membership bitset of the subgroup generated by ``gens`` together with
    the subgroup ``bits`` (the trivial subgroup by default)."""
    for g in gens:
        if (bits >> g) & 1:
            continue
        # extend the current subgroup H by the cosets H+g, H+2g, ...
        sub = bits
        step = g
        while not (sub >> step) & 1:
            bits |= group.translate_set(sub, step)
            step = group.add(step, g)
    return bits


def _greedy_generators(group: AbelianGroup, bits: int) -> tuple[int, ...]:
    gens: list[int] = []
    span = 1
    for a in bits_of(bits):
        if not (span >> a) & 1:
            gens.append(a)
            span = _closure(group, (a,), span)
            if span == bits:
                break
    return tuple(gens)


def generated_subgroup(group: AbelianGroup, gens: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing ``gens`` (breadth-first closure)."""
    gens = list(gens)
    for g in gens:
        if not 0 <= g < group.size:
            raise BadSubgroup(f"element index {g} outside group")
    bits = _closure(group, gens)
    return Subgroup(group, bits, popcount(bits), _greedy_generators(group, bits))


def subgroup_from_bits(group: AbelianGroup, bits: int) -> Subgroup:
    """Wrap a membership bitset, verifying it really is a subgroup."""
    if not (bits & 1):
        raise BadSubgroup("subgroup must contain the identity")
    gens = _greedy_generators(group, bits)
    if _closure(group, gens) != bits:
        raise BadSubgroup("bitset is not closed under the group operation")
    return Subgroup(group, bits, popcount(bits), gens)


def trivial_subgroup(group: AbelianGroup) -> Subgroup:
    return Subgroup(group, 1, 1, ())


def involution_subgroup(group: AbelianGroup) -> Subgroup:
    """The subgroup of elements of order at most 2."""
    bits = 0
    for a in group.elements():
        if group.add(a, a) == 0:
            bits |= 1 << a
    return Subgroup(group, bits, popcount(bits),
                    _greedy_generators(group, bits))


def all_subgroups(group: AbelianGroup,
                  inside: Subgroup | None = None) -> list[Subgroup]:
    """Every subgroup (every subgroup of ``inside``, when given), by
    breadth-first closure over added generators."""
    pool = (1 << group.size) - 1 if inside is None else inside.bits
    found = {1: trivial_subgroup(group)}
    frontier = [found[1]]
    while frontier:
        nxt = []
        for sub in frontier:
            for a in bits_of(pool & ~sub.bits):
                bigger = generated_subgroup(group, list(sub.generators) + [a])
                if bigger.bits not in found:
                    found[bigger.bits] = bigger
                    nxt.append(bigger)
        frontier = nxt
    return sorted(found.values(), key=lambda s: (s.order, s.bits))


def coset_decompose(group: AbelianGroup, sub: Subgroup, mask: int) -> bool:
    """True iff ``mask`` is a union of full cosets of ``sub``."""
    seen = 0
    for x in bits_of(mask):
        if (seen >> x) & 1:
            continue
        coset = group.translate_set(sub.bits, x)
        if coset & mask != coset:
            return False
        seen |= coset
    return True


def check_index2(sub: Subgroup) -> None:
    if sub.order * 2 != sub.group.size:
        raise BadSubgroup(
            f"subgroup of order {sub.order} does not have index 2 in a group "
            f"of size {sub.group.size}")


# -- isomorphism types --------------------------------------------------------


def _prime_factorization(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _assemble_invariant_factors(prime_powers: dict[int, list[int]]) -> tuple[int, ...]:
    """Combine per-prime exponent multisets into the d_1 | d_2 | ... chain."""
    if not prime_powers:
        return ()
    width = max(len(v) for v in prime_powers.values())
    factors = [1] * width
    for p, exps in prime_powers.items():
        exps = sorted(exps, reverse=True)
        for i, e in enumerate(exps):
            factors[i] *= p ** e
    return tuple(sorted(factors))


def invariant_factors_of_orders(orders: Sequence[int]) -> tuple[int, ...]:
    """Invariant factors (ascending, each dividing the next) of a product
    of cyclic groups given by arbitrary factor orders."""
    prime_powers: dict[int, list[int]] = {}
    for n in orders:
        for p, e in _prime_factorization(n).items():
            prime_powers.setdefault(p, []).append(e)
    return _assemble_invariant_factors(prime_powers)


def subgroup_invariant_factors(group: AbelianGroup, sub: Subgroup) -> tuple[int, ...]:
    """Invariant factors of a subgroup, from counts of elements killed by p^k.

    If the p-part is a direct sum of C_{p^{lam_i}}, the number of elements x
    with p^k * x = 0 equals prod_i p^{min(lam_i, k)}, so the partition
    (lam_i) is recovered from successive count ratios.
    """
    members = list(bits_of(sub.bits))
    prime_powers: dict[int, list[int]] = {}
    for p in _prime_factorization(sub.order):
        prev = 1
        k = 1
        exps: list[int] = []
        while True:
            pk = p ** k
            cnt = sum(1 for x in members if group.scalar_mul(pk, x) == 0)
            if cnt == prev:
                break
            ratio = cnt // prev
            parts_ge_k = 0
            while ratio > 1:
                ratio //= p
                parts_ge_k += 1
            exps.append(parts_ge_k)
            prev = cnt
            k += 1
        # exps[k-1] = number of cyclic factors with exponent >= k
        lam: list[int] = []
        for i, cnt_ge in enumerate(exps):
            while len(lam) < cnt_ge:
                lam.append(0)
            for j in range(cnt_ge):
                lam[j] = i + 1
        prime_powers[p] = lam
    return _assemble_invariant_factors(prime_powers)


# -- enumeration of small groups ---------------------------------------------


def factor_multisets(n: int) -> list[tuple[int, ...]]:
    """All multisets of integers >= 2 whose product is ``n`` (sorted tuples)."""
    if n == 1:
        return [()]
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, minimum: int, acc: list[int]) -> None:
        if remaining == 1:
            out.append(tuple(acc))
            return
        d = minimum
        while d * d <= remaining:
            if remaining % d == 0:
                acc.append(d)
                rec(remaining // d, d, acc)
                acc.pop()
            d += 1
        acc.append(remaining)
        out.append(tuple(acc))
        acc.pop()

    rec(n, 2, [])
    return sorted(set(out))


def abelian_isomorphism_classes(n: int) -> list[tuple[int, ...]]:
    """Invariant-factor tuples of all abelian groups of order ``n``."""
    classes = {invariant_factors_of_orders(ms) for ms in factor_multisets(n)}
    return sorted(classes)
