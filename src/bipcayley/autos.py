"""Automorphisms of finite abelian groups and related subgroup machinery.

One backtrack over the images of the standard generators (one unit per
cyclic factor) streams Aut(A), or the automorphisms fixing given bitsets (B;
B and S), and finds a generating set of that group with its exact order.  A
generator's images are its Aut(A)-orbit (the elements whose multiples have
its heights) with the generator's membership of the bitsets; a partial map
is cut off once it breaks injectivity or a bitset's membership on the span
placed so far (Leon's partition backtrack in miniature), in one iterative
walk over level tables built once per group.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from ._search import _orbit, perm_on_set
from .errors import BadParameter
from .groups import (
    AbelianGroup,
    Subgroup,
    _prime_factorization,
    bits_of,
    build_group,
    check_index2,
    generated_subgroup,
    invariant_factors_of_orders,
    subgroup_from_bits,
)


@dataclass(frozen=True, slots=True)
class Automorphism:
    """A group automorphism as a permutation of element indices."""

    group: AbelianGroup
    image: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.image[a]

    @property
    def is_identity(self) -> bool:
        return self.image == tuple(range(len(self.image)))

    def compose(self, other: "Automorphism") -> "Automorphism":
        """Map x -> self(other(x))."""
        return Automorphism(self.group,
                            tuple(self.image[v] for v in other.image))

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
        return perm_on_set(self.image, mask)

    def fixes_set(self, mask: int) -> bool:
        for b in bits_of(mask):
            if not (mask >> self.image[b]) & 1:
                return False
        return True

    def stabilizes(self, sub: Subgroup) -> bool:
        """Setwise stability; for subgroups it suffices to map generators in."""
        return all((sub.bits >> self.image[g]) & 1 for g in sub.generators)


@functools.lru_cache(maxsize=64)
def inversion_automorphism(group: AbelianGroup) -> Automorphism:
    """The map a -> -a; equal to the identity iff the exponent is 2."""
    return Automorphism(group, tuple(group.neg(a) for a in group.elements()))


def automorphism_from_generator_images(
        group: AbelianGroup, gen_images: Sequence[int]) -> Automorphism:
    """Build and validate the automorphism with the given generator images."""
    if len(gen_images) != len(group.orders):
        raise BadParameter("one image per cyclic factor required")
    for t, n in zip(gen_images, group.orders):
        if n % group.element_order(t) != 0:
            raise BadParameter(
                f"image order {group.element_order(t)} does not divide {n}")
    alpha = next(_automorphisms(group, (), gen_images), None)
    if alpha is None:
        raise BadParameter("generator images do not define a bijection")
    return alpha


@functools.lru_cache(maxsize=64)
def _levels(group: AbelianGroup) -> tuple:
    """Per level i: the candidate images of g_i (by index, the elements of
    g_i's type) and the (source, position) steps that extend the image
    array from <g_0..g_{i-1}> to <g_0..g_i>: position (q*n_i + c)*w_i, for
    c = 1..n_i - 1 and q < |<g_0..g_{i-1}>|, takes img[position - w_i] + t.
    An element's type is whether p^k*a lies in p^hA, one bit per prime
    p | exp(A) and 0 <= k < h <= v_p(exp(A)) (d*a in eA for every d, e
    follows): the heights of its multiples, its order among them, which
    part A into its Aut(A)-orbits.  A digit passes iff p^k*a_i is a
    multiple of gcd(p^h, n_i), so the types are ANDed factor by factor."""
    pairs = [(p ** k, p ** h)
             for p, v in _prime_factorization(group.exponent).items()
             for h in range(1, v + 1) for k in range(h)]
    types = [-1]
    for n in group.orders:
        digits = [sum(1 << j for j, (d, e) in enumerate(pairs)
                      if d * x % math.gcd(e, n) == 0) for x in range(n)]
        types = [t & u for t in types for u in digits]
    by_type: dict[int, list[int]] = {}
    for a, key in enumerate(types):
        by_type.setdefault(key, []).append(a)
    levels = []
    span = 1
    for n, w in zip(group.orders, group._weights):
        levels.append((tuple(by_type[types[w]]),
                       tuple(((q * n + c) * w - w, (q * n + c) * w)
                             for c in range(1, n) for q in range(span))))
        span *= n
    return tuple(levels)


def _automorphisms(group: AbelianGroup, fixing: Sequence[int],
                   prefix: Sequence[int] = ()) -> Iterator[Automorphism]:
    """The backtrack behind every automorphism search of this module.

    One iterative walk over ``_levels``; its stack holds, per level, the
    candidate iterator and the mask of the images placed above it.  img[a]
    is the image of element a.  Level i tries each candidate t (only
    ``prefix[i]`` while i < len(prefix)) as the image of g_i and writes
    img[source] + t at each position of its steps, t itself first.  t is
    dropped at the first image that repeats or whose membership of the
    ``fixing`` bitsets (sig) differs from that of its position.  Past the
    prefix, no t is offered whose sig is not g_i's (its first position).
    """
    table, add = group._add, group.add
    sig = [0] * group.size  # bit j set iff the element lies in fixing[j]
    for j, mask in enumerate(fixing):
        for a in bits_of(mask):
            sig[a] |= 1 << j
    levels = _levels(group)
    img = [0] * group.size
    used = [1] * len(levels)
    choices = [prefix[i:i + 1] if i < len(prefix)
               else [t for t in levels[i][0] if sig[t] == sig[w]]
               for i, w in enumerate(group._weights)]
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
        else:  # level i is exhausted: rewind it and backtrack
            todo[i] = iter(choices[i])
            i -= 1


def enumerate_automorphisms(group: AbelianGroup, fixing: Sequence[int] = ()
                            ) -> Iterator[Automorphism]:
    """Stream, exactly once each, the automorphisms mapping every bitset of
    ``fixing`` onto itself (all of Aut(A) when it is empty), lexicographic
    in the generator images as element indices: the identity need not come
    first (it does not for ``C2xC6``).  The stream equals the full one
    filtered, but pruning means it never walks all of Aut(A)."""
    yield from _automorphisms(group, fixing)


def automorphism_generators(group: AbelianGroup, fixing: Sequence[int] = ()
                            ) -> tuple[list[Automorphism], int]:
    """A generating set of the automorphisms fixing every bitset of
    ``fixing``, and the exact order of the group they generate.

    The base g_0..g_{k-1} is walked deepest first.  At level i, for each
    image t of g_i outside the orbit of g_i under the kept automorphisms,
    the first automorphism fixing g_0..g_{i-1} with g_i -> t is kept, if
    any.  The order is the product of the final orbit lengths."""
    base = group.generators()
    gens: list[Automorphism] = []
    order = 1
    for i in reversed(range(len(base))):
        orbit = _orbit([alpha.image for alpha in gens], base[i])
        for t in _levels(group)[i][0]:
            if not (orbit >> t) & 1:
                alpha = next(_automorphisms(group, fixing, base[:i] + [t]),
                             None)
                if alpha is not None:
                    gens.append(alpha)
                    orbit = _orbit([a.image for a in gens], base[i])
        order *= orbit.bit_count()
    return gens, order


def count_automorphisms(group: AbelianGroup) -> int:
    return automorphism_generators(group)[1]


def stabilizing_automorphisms(group: AbelianGroup, sub: Subgroup
                              ) -> Iterator[Automorphism]:
    """Stream the automorphisms mapping ``sub`` onto itself setwise."""
    return enumerate_automorphisms(group, (sub.bits,))


# -- distinguished subgroups --------------------------------------------------


def _character_kernel(group: AbelianGroup, positions: list[int],
                      coeffs: list[int], p: int) -> Subgroup:
    """Kernel of the character a -> sum(c * a[q]) mod p over the pairs
    (c, q) of ``coeffs`` and ``positions``, built factor by factor from the
    last: rows[r] is the bitset of the elements so far of residue r, and
    digit x of the next factor (more significant) shifts it by x*w into
    residue r + c*x."""
    coef = dict(zip(positions, coeffs))
    rows, w = [1] + [0] * (p - 1), 1
    for q in reversed(range(len(group.orders))):
        n, c, new = group.orders[q], coef.get(q, 0), [0] * p
        for x in range(n):
            for r in range(p):
                new[(r + c * x) % p] |= rows[r] << x * w
        rows, w = new, w * n
    return subgroup_from_bits(group, rows[0])


def index2_subgroup_count(group: AbelianGroup) -> int:
    """2^r - 1 surjective characters A -> C_2 for r even-order factors."""
    return (1 << sum(n % 2 == 0 for n in group.orders)) - 1


def index2_subgroup(group: AbelianGroup, k: int) -> Subgroup:
    """The kernel of character k + 1, which pairs bit j of k + 1 with the
    j-th even-order cyclic factor: ``index:k`` on the CLI."""
    even_pos = [i for i, n in enumerate(group.orders) if n % 2 == 0]
    return _character_kernel(group, even_pos,
                             [(k + 1) >> j & 1 for j in range(len(even_pos))],
                             2)


def index2_subgroups(group: AbelianGroup) -> list[Subgroup]:
    """Every index-2 subgroup, in character order (see ``index2_subgroup``)."""
    return [index2_subgroup(group, k)
            for k in range(index2_subgroup_count(group))]


def index2_type(group: AbelianGroup, k: int) -> tuple[int, ...]:
    """Invariant factors of ``index2_subgroup(group, k)``, without building
    it.  Of the factors J whose g_i the character maps to 1, let j be the
    first whose n_j has the least 2-adic valuation.  The kernel is A with
    n_j halved: for m the odd part of n_j, the g_i + m*g_j (i in J - {j})
    have order n_i, and with 2*g_j and the g_i outside J span the kernel."""
    orders = list(group.orders)
    even_pos = [i for i, n in enumerate(orders) if n % 2 == 0]
    j = min((q for b, q in enumerate(even_pos) if (k + 1) >> b & 1),
            key=lambda i: orders[i] & -orders[i])
    orders[j] //= 2
    return invariant_factors_of_orders(orders)


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
            subs.append(_character_kernel(group, pos, eps, p))
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


def example1_automorphism(
        ell: int) -> tuple[AbelianGroup, Subgroup, Automorphism]:
    """C4 x C2^ell with B of type C2^(ell+1) and the pair-preserving
    automorphism x -> x^-1, y1 -> x^2*y1, yi -> yi."""
    if ell < 1:
        raise BadParameter("ell must be >= 1")
    group = build_group([4] + [2] * ell)
    gens = group.generators()
    x, ys = gens[0], gens[1:]
    x2 = group.add(x, x)
    sub = generated_subgroup(group, [x2] + ys)
    images = [group.neg(x), group.add(x2, ys[0])] + ys[1:]
    alpha = automorphism_from_generator_images(group, images)
    _check_exceptional_automorphism(group, sub, alpha)
    return group, sub, alpha


def example2_automorphism(
        ell: int) -> tuple[AbelianGroup, Subgroup, Automorphism]:
    """C4^2 x C2^ell with B of type C4 x C2^(ell+1) and the automorphism
    x1 -> x1, x2 -> x1^2*x2^-1, yi -> yi."""
    if ell < 0:
        raise BadParameter("ell must be >= 0")
    group = build_group([4, 4] + [2] * ell)
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
    or C4^2 x C2^ell with B of type C4 x C2^(ell+1) (ell >= 0).  B's type
    is ``index2_type`` of its character, read off the g_i outside B."""
    check_index2(sub)
    fa = invariant_factors_of_orders(group.orders)
    evens = [g for g, n in zip(group.generators(), group.orders) if n % 2 == 0]
    fb = index2_type(group, sum(1 << j for j, g in enumerate(evens)
                                if not sub.contains(g)) - 1)
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
