"""Brute-force oracles, deliberately formula-free.

Everything here recomputes a quantity from first principles so the fast
implementations have something independent to be judged against:
automorphism counts by explicit endomorphism enumeration where the
candidate space is small, and by Moebius counting over the explicitly
built subgroup lattice where it is not; quotients by walking every
subgroup; class numbers by scanning coefficient boxes; the order of a
form by powering it to each cofactor of h.  Two retired fast paths stay
here as oracles for the routes that replaced them: class-group
structure from the projection of every form into each Sylow subgroup, and
reduced forms enumerated one leading coefficient at a time.

Groups of order up to 64 are modeled concretely: elements are indexed
0..n-1, the addition table is materialized, and subgroups live as int
bitmasks so lattice work is cheap bit arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import gcd, isqrt

import numpy as np

from quadclass.abelian import _CheckedGroup
from quadclass.forms import QuadForm, form_pow, principal_form
from quadclass.ntheory import factorize


# ----------------------------------------------------- concrete group model


class SmallGroup:
    """prod C_d for an invariant-factor tuple, materialized: element
    list, addition table, element orders, and the full subgroup lattice
    as bitmasks."""

    def __init__(self, factors: tuple[int, ...]):
        self.factors = factors
        self.elements = list(product(*(range(d) for d in factors))) or [()]
        self.n = len(self.elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.add = [
            [
                self.index[tuple((a + b) % d for a, b, d in zip(x, y, factors))]
                for y in self.elements
            ]
            for x in self.elements
        ]
        self.order = [self._element_order(i) for i in range(self.n)]
        self.full_mask = (1 << self.n) - 1

    def _element_order(self, i: int) -> int:
        acc, k = i, 1
        while acc != 0:
            acc = self.add[acc][i]
            k += 1
        return k

    def span(self, mask: int, g: int) -> int:
        """The subgroup generated by the subgroup `mask` and element g,
        as a union of cosets mask + i*g."""
        out = mask
        shift = g
        while True:
            coset = 0
            for h in _bits(mask):
                coset |= 1 << self.add[h][shift]
            if coset & out == coset:
                return out
            out |= coset
            shift = self.add[shift][g]

    @lru_cache(maxsize=None)
    def subgroups(self) -> tuple[int, ...]:
        """Every subgroup bitmask, smallest first."""
        trivial = 1
        found = {trivial}
        frontier = [trivial]
        while frontier:
            mask = frontier.pop()
            for g in range(1, self.n):
                if mask >> g & 1:
                    continue
                new = self.span(mask, g)
                if new not in found:
                    found.add(new)
                    frontier.append(new)
        return tuple(sorted(found, key=lambda m: (m.bit_count(), m)))

    def coset_order(self, g: int, mask: int) -> int:
        """Order of g in G / (subgroup mask)."""
        acc, k = g, 1
        while not mask >> acc & 1:
            acc = self.add[acc][g]
            k += 1
        return k


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=None)
def small_group(factors: tuple[int, ...]) -> SmallGroup:
    return SmallGroup(factors)


# ------------------------------------------------------ automorphism counts


def aut_order_by_enumeration(factors: tuple[int, ...]) -> int:
    """Count bijective endomorphisms by walking all generator-image
    tuples.  A tuple is a homomorphism iff each image's order divides
    the matching generator's order (the presentation has no other
    relations); it is bijective iff the images span the whole group.
    Practical while the candidate space stays around 2^16."""
    if not factors:
        return 1
    G = small_group(factors)
    candidates = [
        [i for i in range(G.n) if d % G.order[i] == 0] for d in factors
    ]
    count = 0
    for images in product(*candidates):
        mask = 1
        for g in images:
            mask = G.span(mask, g)
        if mask == G.full_mask:
            count += 1
    return count


def aut_order_by_moebius(factors: tuple[int, ...]) -> int:
    """#Aut(G) = #Sur(G, G) by Moebius inversion over the subgroup
    lattice: sum_H mu(H, G) * #Hom(G, H), with mu computed by its
    defining top-down recursion and #Hom counted per generator as the
    number of elements of H of compatible order.  No closed formulas."""
    if not factors:
        return 1
    G = small_group(factors)
    subs = G.subgroups()
    by_size = sorted(subs, key=lambda m: -m.bit_count())
    mu = {}
    for idx, H in enumerate(by_size):
        if idx == 0:
            mu[H] = 1
            continue
        # strict supersets have strictly larger popcount, so they all
        # sit earlier in the descending list
        mu[H] = -sum(mu[K] for K in by_size[:idx] if K & H == H)
    total = 0
    for H in subs:
        m = mu[H]
        if m == 0:
            continue
        hom = 1
        for d in factors:
            hom *= sum(1 for i in _bits(H) if d % G.order[i] == 0)
        total += m * hom
    return total


# ------------------------------------------------------- quotient questions


@lru_cache(maxsize=None)
def cyclic_quotient_orders(factors: tuple[int, ...]) -> frozenset[int]:
    """All orders of cyclic quotients G/H, by checking every subgroup H
    and looking for a coset of full order in the quotient."""
    G = small_group(factors)
    out = set()
    for H in G.subgroups():
        q = G.n // H.bit_count()
        if q in out:
            continue
        if any(G.coset_order(g, H) == q for g in range(G.n)):
            out.add(q)
    return frozenset(out)


def suitable_by_enumeration(factors: tuple[int, ...], p: int) -> bool:
    return any(
        h % p != 0 and (p * p - 1) % h != 0
        for h in cyclic_quotient_orders(factors)
    )


# ------------------------------------------------------------ class numbers


@lru_cache(maxsize=None)
def class_number_by_box_scan(D: int) -> int:
    """h(D) by scanning the (a, b) box for reduced positive definite
    primitive forms; no composition, no divisor walk, no sieve."""
    assert D < 0 and D % 4 in (0, 1)
    count = 0
    for a in range(1, isqrt(-D // 3) + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if c == a and b < 0:
                continue
            if gcd(a, gcd(abs(b), c)) != 1:
                continue
            count += 1
    return count


def partition_count(v: int) -> int:
    """p(v) by Euler's pentagonal-number recurrence."""
    P = [1] + [0] * v
    for m in range(1, v + 1):
        total, k = 0, 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * P[m - g1]
            if g2 <= m:
                total += sign * P[m - g2]
            k += 1
        P[m] = total
    return P[v]


# ---------------------------------------------------------- form orders


def element_order(f: QuadForm, group_order: int) -> int:
    """Order of a form in a class group of known size, by powering it
    to each cofactor of the group order."""
    ident = principal_form(f.discriminant)
    order = group_order
    for p in factorize(group_order):
        while order % p == 0 and form_pow(f, order // p) == ident:
            order //= p
    return order


# ------------------------------------------------------ retired fast paths


def enumerate_reduced_per_a(D: int) -> list[QuadForm]:
    """Primitive reduced forms of discriminant D, ordered by (a, b), with
    one numpy pass over b for each leading coefficient a."""
    absD = -D
    forms = []
    parity = absD & 1
    for a in range(1, isqrt(absD // 3) + 1):
        bs = np.arange(parity, a + 1, 2, dtype=np.int64)
        num = bs * bs + absD
        sel = num % (4 * a) == 0
        bs, num = bs[sel], num[sel]
        cs = num // (4 * a)
        sel = cs >= a
        bs, cs = bs[sel], cs[sel]
        if not len(bs):
            continue
        prim = np.gcd(np.gcd(bs, a), cs) == 1
        for b, c in zip(bs[prim].tolist(), cs[prim].tolist()):
            if 0 < b < a and c > a:
                forms.append(QuadForm(a, -b, c))
            forms.append(QuadForm(a, b, c))
    return sorted(forms, key=lambda f: (f.a, f.b))


def sylow_sets_by_projection(group: _CheckedGroup) -> dict[int, list[tuple]]:
    """Each Sylow p-subgroup, sorted, as the image of every element under
    x -> x^(h/p^v)."""
    h = len(group.elements)
    return {
        p: sorted({group.pow(f, h // p**v) for f in group.elements})
        for p, v in sorted(factorize(h).items())
    }


def _basis_by_powers(group: _CheckedGroup, sylow: list[tuple], p: int):
    """Basis of a p-group from coset orders found by powering each
    element again at every step."""
    span = {group.identity: ()}
    basis, orders = [], []
    while len(span) < len(sylow):
        best_t, best_chain = 0, None
        for x in sylow:
            if x in span:
                continue
            chain = [x]
            while chain[-1] not in span:
                chain.append(group.pow(chain[-1], p))
            if len(chain) - 1 > best_t:
                best_t, best_chain = len(chain) - 1, chain
        g, q = best_chain[0], p**best_t
        adjust = group.identity
        for b, ordb, ci in zip(basis, orders, span[best_chain[-1]]):
            assert ci % min(q, ordb) == 0
            if ordb > q and (ci // q) % ordb:
                adjust = group.mul(adjust, group.pow(b, (ci // q) % ordb))
        g = group.mul(g, group.inverse(adjust))
        new_span = {}
        for k in range(q):
            gk = group.pow(g, k)
            for s, vec in span.items():
                key = group.mul(s, gk)
                assert key not in new_span
                new_span[key] = vec + (k,)
        span = new_span
        basis.append(g)
        orders.append(q)
    return basis, orders


def structure_by_projection(forms: list[QuadForm]) -> tuple[tuple[int, ...], list]:
    """Invariant factors and (generator, order) pairs, ascending, from
    the Sylow sets of ``sylow_sets_by_projection``."""
    group = _CheckedGroup(forms)
    per_prime = {}
    for p, sylow in sylow_sets_by_projection(group).items():
        basis, orders = _basis_by_powers(group, sylow, p)
        ranked = sorted(range(len(orders)), key=lambda i: -orders[i])
        per_prime[p] = [(basis[i], orders[i]) for i in ranked]
    slots = max((len(pairs) for pairs in per_prime.values()), default=0)
    combined = []
    for slot in range(slots):
        gen, order = group.identity, 1
        for pairs in per_prime.values():
            if slot < len(pairs):
                gen = group.mul(gen, pairs[slot][0])
                order *= pairs[slot][1]
        combined.append((QuadForm(*gen), order))
    combined.reverse()
    return tuple(order for _, order in combined), combined
