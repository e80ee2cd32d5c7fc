"""Structure of finite abelian groups, given either as invariant factors or
as a set of reduced forms under composition.

The suitability test here is the gate for everything dihedral: a group
qualifies for a prime p exactly when the prime-to-p part of its exponent
does not divide p^2 - 1.  That law is written once, in ``_within_bound``,
and the order screen of ``density`` uses it too.

Structure from forms composes the ``QuadForm`` tuples through the private
kernel of ``forms``, which validates nothing inside the loops.  It costs
O(h) checked products plus one p-th power per element of each Sylow
p-subgroup (after Teske, Math. Comp. 67, 1998, and Buchmann–Schmidt,
Math. Comp. 74, 2005).  Every group table is built by one coset walk,
``_extend``, which stores each element at a position whose mixed-radix
digits over the generator orders are its coordinates:

- the sorted forms are walked once, growing the subgroup they generate
  coset by coset until it has h elements; the forms that extended it are
  a generating set;
- for each p^v || h those generators, raised to h/p^v, are closed coset by
  coset into the Sylow p-subgroup, which must have exactly p^v elements;
- one p-th power map per Sylow set serves both the basis walk, which reads
  span coordinates off walk positions, and the torsion-count cross-check;
- ``dihedral.make_character`` walks the record's generators the same way
  and reads a character off the last coordinate.

Every certificate is kept: each product must land in the input set, the
walks must reach their sizes without a coset collision, each basis element
must return to the span after exactly its order, the basis span must cover
the Sylow set, and each p^j-torsion count must match the basis orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .forms import QuadForm, _compose, _reduce, principal_form
from .ntheory import divisors, factorize, power, prime_to_p_part


@dataclass(frozen=True)
class AbelianGroup:
    """Invariant factors d_1 | d_2 | ... | d_k, ascending; () is trivial."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        fs = self.invariant_factors
        if any(d < 2 for d in fs):
            raise ValueError(f"invariant factors must be >= 2: {fs}")
        if any(fs[i + 1] % fs[i] for i in range(len(fs) - 1)):
            raise ValueError(f"not a divisor chain: {fs}")

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def p_partition(self, p: int) -> list[int]:
        """Exponents of p in the invariant factors, ascending, zeros dropped."""
        out = []
        for d in self.invariant_factors:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            if e:
                out.append(e)
        return out

    def __repr__(self):
        if not self.invariant_factors:
            return "AbelianGroup(trivial)"
        return "AbelianGroup(" + "x".join(f"C{d}" for d in self.invariant_factors) + ")"


@dataclass(frozen=True)
class SuitabilityReport:
    p: int
    suitable: bool
    witness_h: int | None


def has_cyclic_quotient(G: AbelianGroup, h: int) -> bool:
    """True iff G surjects onto a cyclic group of order h.

    Criterion: h | exponent(G).  Validated against brute-force quotient
    enumeration in the test suite before being trusted in scans.
    """
    if h < 1:
        raise ValueError("h must be positive")
    return G.exponent % h == 0


def _within_bound(e: int, p: int) -> bool:
    """Whether the prime-to-p part of e divides p^2 - 1.  A group of
    exponent e is p-suitable exactly when this fails; the one place the
    law is written."""
    return (p * p - 1) % prime_to_p_part(e, p) == 0


def is_p_suitable(G: AbelianGroup, p: int) -> SuitabilityReport:
    """Whether G has a cyclic quotient of order h with p not dividing h and
    h not dividing p^2 - 1; witness_h is the smallest such h.
    """
    if _within_bound(G.exponent, p):
        return SuitabilityReport(p=p, suitable=False, witness_h=None)
    e_prime = prime_to_p_part(G.exponent, p)
    witness = min(h for h in divisors(e_prime) if not _within_bound(h, p))
    return SuitabilityReport(p=p, suitable=True, witness_h=witness)


def aut_order(G: AbelianGroup) -> int:
    """#Aut(G), prime by prime from the partition of exponents.

    For a p-group with ascending exponents e_1 <= ... <= e_n the count is
    prod_k (p^{d_k} - p^{k-1}) * prod_j p^{e_j (n - d_j)}
         * prod_i p^{(e_i - 1)(n - c_i + 1)}
    with d_k = max{l : e_l = e_k} and c_k = min{l : e_l = e_k}.

    >>> aut_order(AbelianGroup((3, 3)))
    48
    >>> aut_order(AbelianGroup((2, 4)))
    8
    """
    total = 1
    for p in factorize(G.order):
        es = G.p_partition(p)
        n = len(es)
        d = [max(l + 1 for l in range(n) if es[l] == es[k]) for k in range(n)]
        c = [min(l + 1 for l in range(n) if es[l] == es[k]) for k in range(n)]
        for k in range(1, n + 1):
            total *= p ** d[k - 1] - p ** (k - 1)
        for j in range(1, n + 1):
            total *= p ** (es[j - 1] * (n - d[j - 1]))
        for i in range(1, n + 1):
            total *= p ** ((es[i - 1] - 1) * (n - c[i - 1] + 1))
    return total


class _CheckedGroup:
    """Composition restricted to a fixed element set; leaving it means the
    input was not a full class group.  Elements are (a, b, c) tuples, and
    the checks here validate the input of ``structure_from_forms``."""

    def __init__(self, forms: list[QuadForm]):
        if not forms:
            raise ValueError("empty form list")
        disc = forms[0].discriminant
        if any(f.discriminant != disc for f in forms):
            raise ValueError("forms of mixed discriminant")
        self.disc = disc
        self.elements = frozenset(forms)
        self.order = len(forms)
        if len(self.elements) != self.order:
            raise ValueError("duplicate forms")
        self.identity = principal_form(disc)
        if self.identity not in self.elements:
            raise ValueError("principal form missing from input")

    def mul(self, f: tuple, g: tuple) -> tuple:
        r = _compose(f, g, self.disc)
        if r not in self.elements:
            raise ValueError(f"composition left the input set: {f} * {g} = {r}")
        return r

    def pow(self, f: tuple, n: int) -> tuple:
        """f^n for n >= 0, every product checked by mul."""
        return power(f, n, self.mul) if n else self.identity

    def inverse(self, f: tuple) -> tuple:
        a, b, c = f
        return _reduce(a, -b, c, self.disc)


def _extend(index: dict, g, mul, order: int | None = None) -> None:
    """Grow the subgroup H held in index (element -> position, identity at
    0) by g, in place.

    Appends the cosets H*g, H*g^2, ... up to the first power of g that lies
    in H, putting s*g^k at position k*|H| + index[s]; so after walks over
    g_1, ..., g_n, whose orders over the span before them are o_1, ...,
    o_n, the digits of a position in mixed radix (o_1, ..., o_n), least
    significant first, are the coordinates of its element.  Each new
    element costs one product.  A coset that meets what is already there
    means the input is not a group, and so does a g whose order over H is
    not the order given.
    """
    old = len(index)
    subgroup = list(index)
    y, k = g, 1  # y = g^k
    while index.get(y, old) >= old:  # y is not in H yet
        # subgroup[0] is the identity, whose product with y is y
        for x in [y] + [mul(s, y) for s in subgroup[1:]]:
            if x in index:
                raise RuntimeError("coset collision; input is not a group")
            index[x] = len(index)
        y = mul(y, g)
        k += 1
    if order is not None and k != order:
        raise RuntimeError(
            f"span collision; generator of stated order {order} has order {k} over the span"
        )


def _close(group: _CheckedGroup, gens, size: int | None = None):
    """The subgroup generated by gens, grown by ``_extend`` until it has
    size elements.  Returns its position index and the generators that
    extended it, both in the order found."""
    index = {group.identity: 0}
    used = []
    for g in gens:
        if len(index) == size:
            break
        if g not in index:
            _extend(index, g, group.mul)
            used.append(g)
    return index, used


def _sylow_set(group: _CheckedGroup, gens: list[tuple], p: int, v: int) -> list[tuple]:
    """The Sylow p-subgroup of order p^v, sorted: the closure of the
    generators raised to the cofactor h/p^v, which must have exactly p^v
    elements."""
    cof = group.order // p**v
    sylow, _ = _close(group, [group.pow(g, cof) for g in gens])
    if len(sylow) != p**v:
        raise ValueError(f"{p}-part has {len(sylow)} elements, expected {p**v}")
    return sorted(sylow)


def _sylow_basis(group: _CheckedGroup, sylow: list[tuple], p: int, pmap: dict[tuple, tuple]):
    """Basis of an abelian p-group given as its sorted element list and
    its p-th power map.

    Repeatedly splits off a generator of maximal order in the current
    quotient (maximal coset order relative to the span so far), adjusting it
    by a p^t-th root from the span so that the new generator meets the span
    only in the identity.  Coset orders come from walking pmap, with no
    product, and the coordinates of a span element are the digits of its
    ``_extend`` position.  The span must end up covering every element
    exactly once.
    """
    span = {group.identity: 0}
    basis: list[tuple] = []
    orders: list[int] = []
    size = len(sylow)
    while len(span) < size:
        best, best_t, best_chain = None, 0, None
        for x in sylow:
            if x in span:
                continue
            chain = [x]
            while chain[-1] not in span:
                chain.append(pmap[chain[-1]])
            t = len(chain) - 1
            if t > best_t:
                best, best_t, best_chain = x, t, chain
        g, t = best, best_t
        pos = span[best_chain[-1]]
        # root of g^{p^t} inside the span: solve p^t * d_i = c_i mod ord_i
        adjust = group.identity
        for b, ordb in zip(basis, orders):
            pos, ci = divmod(pos, ordb)
            if ci % min(p**t, ordb):
                raise RuntimeError("basis adjustment failed; input is not a group")
            di = (ci // p**t) % ordb if ordb > p**t else 0
            if di:
                adjust = group.mul(adjust, group.pow(b, di))
        if adjust != group.identity:
            g = group.mul(g, group.inverse(adjust))
        _extend(span, g, group.mul, p**t)
        basis.append(g)
        orders.append(p**t)
    return basis, orders


def _check_torsion(group: _CheckedGroup, pmap: dict[tuple, tuple], p: int, orders: list[int]):
    """Independent cross-check of a Sylow basis: for each j, up to the
    first at which it is the whole Sylow set, the p^j-torsion count must be
    the product of min(p^j, o) over the basis orders o.  These counts
    determine the partition, so they certify the one the basis found."""
    powers = list(pmap)  # x^(p^j) for each x of the Sylow set, j = 0, 1, ...
    q = 1
    while True:
        q *= p
        powers = [pmap[x] for x in powers]
        nj = powers.count(group.identity)
        if nj != prod(min(q, o) for o in orders):
            raise RuntimeError(f"{q}-torsion count {nj} disagrees with basis orders {orders}")
        if nj == len(pmap):
            return


def structure_from_forms(
    forms: list[QuadForm],
) -> tuple[AbelianGroup, list[tuple[QuadForm, int]]]:
    """Invariant factors of the class group given as its full list of
    reduced forms, and a (generator, order) pair per invariant factor,
    ascending with the factors.

    The sorted forms are walked once to grow the whole group coset by
    coset; the forms that extended it form a generating set.  For each
    p^v || h those generators, raised to h/p^v, are closed into the Sylow
    p-subgroup, which must have p^v elements (when h = p^v it is the walk
    itself).  One p-th power map per Sylow set then serves both its basis
    (``_sylow_basis``) and the torsion-count cross-check.  Only the
    generators are raised to a cofactor, so the cost is O(h) checked
    products plus the p-th powers.

    Raises ValueError when composition leaves the input set and RuntimeError
    when the certified basis construction cannot cover the group (both mean
    the input was not the full form list of one discriminant).

    >>> from quadclass.forms import enumerate_reduced
    >>> structure_from_forms(enumerate_reduced(-11199))
    (AbelianGroup(C5xC20), [((12,-9,235), 5), ((35,-1,80), 20)])
    """
    group = _CheckedGroup(forms)
    h = group.order
    if h == 1:
        return AbelianGroup(()), []

    walk = sorted(group.elements)
    _, gens = _close(group, walk, size=h)
    ranked = []  # per prime, its (order, generator) pairs, largest order first
    for p, v in sorted(factorize(h).items()):
        sylow = walk if p**v == h else _sylow_set(group, gens, p, v)
        pmap = {x: group.pow(x, p) for x in sylow}
        basis, orders = _sylow_basis(group, sylow, p, pmap)
        _check_torsion(group, pmap, p, orders)
        ranked.append(sorted(zip(orders, basis), key=lambda pair: pair[0], reverse=True))

    combined: list[tuple[QuadForm, int]] = []
    for slot in range(max(map(len, ranked))):  # slot 0 holds the largest factor
        gen = group.identity
        order = 1
        for pairs in ranked:
            if slot < len(pairs):
                o, b = pairs[slot]
                gen = group.mul(gen, b)
                order *= o
        combined.append((QuadForm._make(gen), order))
    combined.reverse()  # ascending, aligned with invariant factors
    return AbelianGroup(tuple(order for _, order in combined)), combined
