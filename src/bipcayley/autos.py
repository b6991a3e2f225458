"""Automorphisms of finite abelian groups and related subgroup machinery.

Enumeration is by backtracking over images of the standard generating tuple
(one unit per cyclic factor), pruning by element order and by injectivity of
the partial map.  This is brute force on purpose: at the scales this package
targets it is fast enough, and it needs no structure theory beyond the
mixed-radix codec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import AutCapExceeded, BadParameter
from .groups import (
    AbelianGroup,
    Subgroup,
    _closure,
    _prime_factorization,
    bits_of,
    build_group,
    check_index2,
    generated_subgroup,
    invariant_factors_of_orders,
    popcount,
    subgroup_from_bits,
)

AUT_CAP = 1 << 12


@dataclass(frozen=True)
class Automorphism:
    """A group automorphism as a permutation of element indices."""

    group: AbelianGroup
    image: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.image[a]

    @property
    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self.image))

    def compose(self, other: "Automorphism") -> "Automorphism":
        """Map x -> self(other(x))."""
        return Automorphism(self.group,
                            tuple(self.image[v] for v in other.image))

    def inverse(self) -> "Automorphism":
        inv = [0] * len(self.image)
        for i, v in enumerate(self.image):
            inv[v] = i
        return Automorphism(self.group, tuple(inv))

    def order(self) -> int:
        o = 1
        for start in range(len(self.image)):
            # cycle length of each point; lcm over a vertex orbit scan
            length = 1
            x = self.image[start]
            while x != start:
                x = self.image[x]
                length += 1
            o = math.lcm(o, length)
        return o

    def apply_to_set(self, mask: int) -> int:
        out = 0
        for b in bits_of(mask):
            out |= 1 << self.image[b]
        return out

    def fixes_set(self, mask: int) -> bool:
        for b in bits_of(mask):
            if not (mask >> self.image[b]) & 1:
                return False
        return True

    def stabilizes(self, sub: Subgroup) -> bool:
        """Setwise stability; for subgroups it suffices to map generators in."""
        return all((sub.bits >> self.image[g]) & 1 for g in sub.generators)


def identity_automorphism(group: AbelianGroup) -> Automorphism:
    return Automorphism(group, tuple(range(group.size)))


def inversion_automorphism(group: AbelianGroup) -> Automorphism:
    """The map a -> -a; equal to the identity iff the exponent is 2."""
    return Automorphism(group, tuple(group.neg(a) for a in group.elements()))


def _hom_image_array(group: AbelianGroup, gen_images: Sequence[int]) -> list[int]:
    """Image array of the endomorphism sending the standard generators to
    ``gen_images`` (requires order(t_i) | n_i for well-definedness)."""
    arr = [0]
    for t, n in zip(gen_images, group.orders):
        mult = [0] * n
        for c in range(1, n):
            mult[c] = group.add(mult[c - 1], t)
        arr = [group.add(base, m) for base in arr for m in mult]
    return arr


def automorphism_from_generator_images(
        group: AbelianGroup, gen_images: Sequence[int]) -> Automorphism:
    """Build and validate the automorphism with the given generator images."""
    if len(gen_images) != len(group.orders):
        raise BadParameter("one image per cyclic factor required")
    for t, n in zip(gen_images, group.orders):
        if n % group.element_order(t) != 0:
            raise BadParameter(
                f"image order {group.element_order(t)} does not divide {n}")
    arr = _hom_image_array(group, gen_images)
    if len(set(arr)) != group.size:
        raise BadParameter("generator images do not define a bijection")
    return Automorphism(group, tuple(arr))


def enumerate_automorphisms(group: AbelianGroup,
                            cap: int = AUT_CAP) -> Iterator[Automorphism]:
    """Stream every automorphism exactly once (identity first).

    Backtracks over images of the standard generating tuple, pruning
    candidates that cannot preserve element orders or injectivity.
    """
    if group.size > cap:
        raise AutCapExceeded(
            f"automorphism enumeration cap {cap} exceeded by |A|={group.size}")
    k = len(group.orders)
    by_order: dict[int, list[int]] = {}
    for a in group.elements():
        by_order.setdefault(group.element_order(a), []).append(a)
    chosen = [0] * k

    def rec(i: int, span_bits: int, span_order: int) -> Iterator[Automorphism]:
        if i == k:
            if span_order == group.size:
                yield Automorphism(group,
                                   tuple(_hom_image_array(group, chosen)))
            return
        target = span_order * group.orders[i]
        for t in by_order.get(group.orders[i], ()):
            new_bits = _closure(group, [t], span_bits)
            if popcount(new_bits) == target:
                chosen[i] = t
                yield from rec(i + 1, new_bits, target)

    yield from rec(0, 1, 1)


def count_automorphisms(group: AbelianGroup, cap: int = AUT_CAP) -> int:
    return sum(1 for _ in enumerate_automorphisms(group, cap))


def stabilizing_automorphisms(group: AbelianGroup, sub: Subgroup,
                              cap: int = AUT_CAP,
                              limit: int | None = None) -> Iterator[Automorphism]:
    """Stream the automorphisms mapping ``sub`` onto itself setwise."""
    found = 0
    for alpha in enumerate_automorphisms(group, cap):
        if alpha.stabilizes(sub):
            yield alpha
            found += 1
            if limit is not None and found >= limit:
                return


# -- distinguished subgroups --------------------------------------------------


def index2_subgroups(group: AbelianGroup) -> list[Subgroup]:
    """Kernels of the surjective characters A -> C_2, in character order.

    Character k (k = 1 .. 2^r - 1) pairs bit j of k with the j-th even-order
    cyclic factor; the subgroup ``index:k-1`` on the CLI is the (k-1)-th entry
    of this list.
    """
    even_pos = [i for i, n in enumerate(group.orders) if n % 2 == 0]
    r = len(even_pos)
    subs: list[Subgroup] = []
    for eps in range(1, 1 << r):
        positions = [even_pos[j] for j in range(r) if (eps >> j) & 1]
        bits = 0
        for a in group.elements():
            coords = group.decode(a)
            if sum(coords[p] for p in positions) % 2 == 0:
                bits |= 1 << a
        subs.append(subgroup_from_bits(group, bits))
    return subs


def prime_order_subgroups(group: AbelianGroup) -> list[Subgroup]:
    """All subgroups of prime order (at most |A| of them)."""
    seen: set[int] = set()
    subs: list[Subgroup] = []
    for a in group.elements():
        o = group.element_order(a)
        if _prime_factorization(o) != {o: 1}:
            continue
        sub = generated_subgroup(group, [a])
        if sub.bits not in seen:
            seen.add(sub.bits)
            subs.append(sub)
    return subs


def prime_index_subgroups(group: AbelianGroup) -> list[Subgroup]:
    """All subgroups of prime index, via normalized characters A -> C_p."""
    subs: list[Subgroup] = []
    primes = sorted(set().union(*[_prime_factorization(n) for n in group.orders]))
    for p in primes:
        pos = [i for i, n in enumerate(group.orders) if n % p == 0]
        for eps in _normalized_vectors(p, len(pos)):
            bits = 0
            for a in group.elements():
                coords = group.decode(a)
                if sum(c * coords[q] for c, q in zip(eps, pos)) % p == 0:
                    bits |= 1 << a
            subs.append(subgroup_from_bits(group, bits))
    return subs


def _normalized_vectors(p: int, r: int) -> Iterator[tuple[int, ...]]:
    """Nonzero vectors in Z_p^r with first nonzero entry 1 (one per kernel)."""
    for lead in range(r):
        tail = r - lead - 1
        for rest in range(p ** tail):
            vec = [0] * lead + [1]
            x = rest
            for _ in range(tail):
                vec.append(x % p)
                x //= p
            yield tuple(vec)


# -- fixed / inverted decomposition -------------------------------------------


@dataclass(frozen=True)
class FixInvertDecomposition:
    """Subgroups of elements fixed (T1) and inverted (T-1) by an automorphism."""

    fixed: Subgroup
    inverted: Subgroup


def fix_invert_decomposition(group: AbelianGroup,
                             alpha: Automorphism) -> FixInvertDecomposition:
    fixed = 0
    inverted = 0
    for a in group.elements():
        img = alpha(a)
        if img == a:
            fixed |= 1 << a
        if img == group.neg(a):
            inverted |= 1 << a
    return FixInvertDecomposition(subgroup_from_bits(group, fixed),
                                  subgroup_from_bits(group, inverted))


# -- the two exceptional families ---------------------------------------------


def example1_automorphism(ell: int, size_cap: int | None = None
                          ) -> tuple[AbelianGroup, Subgroup, Automorphism]:
    """C4 x C2^ell with B of type C2^(ell+1) and the pair-preserving
    automorphism x -> x^-1, y1 -> x^2*y1, yi -> yi."""
    if ell < 1:
        raise BadParameter("ell must be >= 1")
    orders = [4] + [2] * ell
    group = build_group(orders, size_cap) if size_cap else build_group(orders)
    gens = group.generators()
    x, ys = gens[0], gens[1:]
    x2 = group.add(x, x)
    sub = generated_subgroup(group, [x2] + ys)
    images = [group.neg(x), group.add(x2, ys[0])] + ys[1:]
    alpha = automorphism_from_generator_images(group, images)
    _check_exceptional_automorphism(group, sub, alpha)
    return group, sub, alpha


def example2_automorphism(ell: int, size_cap: int | None = None
                          ) -> tuple[AbelianGroup, Subgroup, Automorphism]:
    """C4^2 x C2^ell with B of type C4 x C2^(ell+1) and the automorphism
    x1 -> x1, x2 -> x1^2*x2^-1, yi -> yi."""
    if ell < 0:
        raise BadParameter("ell must be >= 0")
    orders = [4, 4] + [2] * ell
    group = build_group(orders, size_cap) if size_cap else build_group(orders)
    gens = group.generators()
    x1, x2, ys = gens[0], gens[1], gens[2:]
    x1sq = group.add(x1, x1)
    sub = generated_subgroup(group, [x1sq, x2] + ys)
    images = [x1, group.add(x1sq, group.neg(x2))] + ys
    alpha = automorphism_from_generator_images(group, images)
    _check_exceptional_automorphism(group, sub, alpha)
    return group, sub, alpha


def _check_exceptional_automorphism(group: AbelianGroup, sub: Subgroup,
                                    alpha: Automorphism) -> None:
    iota = inversion_automorphism(group)
    assert not alpha.is_identity and alpha.image != iota.image
    assert alpha.stabilizes(sub)
    for a in bits_of(sub.complement_bits()):
        pair = (1 << a) | (1 << group.neg(a))
        assert alpha.apply_to_set(pair) == pair


def is_exceptional_pair(group: AbelianGroup, sub: Subgroup) -> bool:
    """True iff (A, B) is C4 x C2^ell with B of type C2^(ell+1) (ell >= 1),
    or C4^2 x C2^ell with B of type C4 x C2^(ell+1) (ell >= 0)."""
    check_index2(sub)
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
