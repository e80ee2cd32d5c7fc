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
Math. Comp. 74, 2005):

- the sorted forms are walked once, growing the subgroup they generate
  coset by coset until it has h elements; the forms that extended it are
  a generating set;
- for each p^v || h those generators, raised to h/p^v, are closed coset by
  coset into the Sylow p-subgroup, which must have exactly p^v elements;
- one p-th power map per Sylow set serves both the basis walk and the
  torsion-count cross-check.

Every certificate is kept: each product must land in the input set, the
closures must reach their sizes without a coset collision, the basis span
must cover the Sylow set exactly once, and the torsion counts must give the
same partition as the basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .forms import QuadForm, _compose, _pow, _reduce, principal_form
from .ntheory import divisors, factorize, prime_to_p_part


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
        return _pow(f, n, self.mul) if n else self.identity

    def inverse(self, f: tuple) -> tuple:
        a, b, c = f
        return _reduce(a, -b, c, self.disc)


def _close(group: _CheckedGroup, gens, size: int | None = None):
    """The subgroup generated by gens, grown coset by coset.

    A generator g outside the subgroup H found so far adds the cosets
    H*g, H*g^2, ... up to the first power of g that lies in H, so each new
    element costs one checked product.  A coset that meets what is already
    there means the input is not a group.  The walk stops once the
    subgroup has size elements.  Returns the elements and the generators
    that extended the subgroup, both in the order found.
    """
    index = {group.identity: 0}
    elements = [group.identity]
    used = []
    for g in gens:
        if len(elements) == size:
            break
        if g in index:
            continue
        old = len(elements)
        y = g
        while index.get(y, old) >= old:  # y = g^k is not in H yet
            # elements[0] is the identity, whose product with y is y
            for x in [y] + [group.mul(s, y) for s in elements[1:old]]:
                if x in index:
                    raise RuntimeError("coset collision; input is not a group")
                index[x] = len(elements)
                elements.append(x)
            y = group.mul(y, g)
        used.append(g)
    return elements, used


def _sylow_set(group: _CheckedGroup, gens: list[tuple], p: int, v: int) -> list[tuple]:
    """The Sylow p-subgroup of order p^v, sorted: the closure of the
    generators raised to the cofactor h/p^v, which must have exactly p^v
    elements."""
    cof = group.order // p**v
    sylow, _ = _close(group, [group.pow(g, cof) for g in gens])
    if len(sylow) != p**v:
        raise ValueError(f"{p}-part has {len(sylow)} elements, expected {p**v}")
    return sorted(sylow)


def _extend_span(span: dict, g, order: int, mul) -> dict:
    """The span table extended by <g>, g of the given order: each s*g^k
    (k < order) maps to the coordinates of s followed by k.  Meeting an
    element twice means g was not independent of the span, so the input
    was not a group."""
    out = {}
    for s, vec in span.items():
        key = s  # s * g^k
        for k in range(order):
            if k:
                key = mul(key, g)
            if key in out:
                raise RuntimeError("span collision; input is not a group")
            out[key] = vec + (k,)
    return out


def _sylow_basis(group: _CheckedGroup, sylow: list[tuple], p: int, pmap: dict[tuple, tuple]):
    """Basis of an abelian p-group given as its sorted element list and
    its p-th power map.

    Repeatedly splits off a generator of maximal order in the current
    quotient (maximal coset order relative to the span so far), adjusting it
    by a p^t-th root from the span so that the new generator meets the span
    only in the identity.  Coset orders come from walking pmap, with no
    product.  The span table doubles as a certificate: it must end up
    covering every element exactly once.
    """
    span = {group.identity: ()}
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
        coeffs = span[best_chain[-1]]
        # root of g^{p^t} inside the span: solve p^t * d_i = c_i mod ord_i
        adjust = group.identity
        for b, ordb, ci in zip(basis, orders, coeffs):
            if ci % min(p**t, ordb):
                raise RuntimeError("basis adjustment failed; input is not a group")
            di = (ci // p**t) % ordb if ordb > p**t else 0
            if di:
                adjust = group.mul(adjust, group.pow(b, di))
        if adjust != group.identity:
            g = group.mul(g, group.inverse(adjust))
        span = _extend_span(span, g, p**t, group.mul)
        basis.append(g)
        orders.append(p**t)
    return basis, orders


def _check_torsion(group: _CheckedGroup, pmap: dict[tuple, tuple], p: int, orders: list[int]):
    """Independent cross-check of a Sylow basis: the multiset of orders
    read off the p^j-torsion counts must reproduce the partition that the
    basis found."""
    counts = []
    powers = list(pmap)  # x^(p^j) for each x of the Sylow set, j = 0, 1, ...
    j = 0
    while True:
        j += 1
        powers = [pmap[x] for x in powers]
        nj = powers.count(group.identity)
        if p ** _ilog(nj, p) != nj:
            raise RuntimeError(f"{p}^{j}-torsion count {nj} is not a power of {p}")
        counts.append(nj)
        if nj == len(pmap):
            break
    expo = [0] + [_ilog(c, p) for c in counts]
    conj = [expo[i + 1] - expo[i] for i in range(len(counts))]  # parts >= j
    partition = []
    for length in range(1, len(conj) + 1):
        nxt = conj[length] if length < len(conj) else 0
        partition += [length] * (conj[length - 1] - nxt)
    if sorted(partition) != sorted(_ilog(o, p) for o in orders):
        raise RuntimeError("basis orders disagree with torsion counts")


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
    """
    group = _CheckedGroup(forms)
    h = group.order
    if h == 1:
        return AbelianGroup(()), []

    walk = sorted(group.elements)
    _, gens = _close(group, walk, size=h)
    per_prime: dict[int, tuple[list[tuple], list[int]]] = {}
    for p, v in sorted(factorize(h).items()):
        sylow = walk if p**v == h else _sylow_set(group, gens, p, v)
        pmap = {x: group.pow(x, p) for x in sylow}
        basis, orders = _sylow_basis(group, sylow, p, pmap)
        _check_torsion(group, pmap, p, orders)
        per_prime[p] = (basis, orders)

    k = max(len(orders) for _, orders in per_prime.values())
    combined: list[tuple[QuadForm, int]] = []
    for slot in range(k):  # slot 0 holds the largest factor
        gen = group.identity
        order = 1
        for p, (basis, orders) in per_prime.items():
            idx = sorted(range(len(orders)), key=lambda i: -orders[i])
            if slot < len(orders):
                i = idx[slot]
                gen = group.mul(gen, basis[i])
                order *= orders[i]
        combined.append((QuadForm._make(gen), order))
    combined.reverse()  # ascending, aligned with invariant factors
    return AbelianGroup(tuple(order for _, order in combined)), combined


def _ilog(n: int, p: int) -> int:
    e = 0
    while n > 1:
        n //= p
        e += 1
    return e
