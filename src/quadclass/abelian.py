"""Structure of finite abelian groups, given either as invariant factors or
as a set of reduced forms under composition.

The suitability test here is the gate for everything dihedral: a group
qualifies for a prime p exactly when the prime-to-p part of its exponent
does not divide p^2 - 1.  That law is written once, in ``_within_bound``,
and the order screen of ``density`` uses it too.

Structure from forms composes the ``QuadForm`` tuples through the private
kernel of ``forms``, which validates nothing inside the loops, and costs
one checked product per class plus one per combined generator (after
Teske, Math. Comp. 67, 1998, and Buchmann–Schmidt, Math. Comp. 74, 2005):

- one walk: the sorted forms are walked once by the coset walk
  ``_extend``, growing the subgroup they generate coset by coset until it
  has h elements.  Each class sits at a position whose mixed-radix digits
  over the generator orders o_i are its coordinates, and each generator's
  walk stops on a relation, g_i^(o_i) = the class at an earlier position;
- Smith coordinates: those relations are the rows of a lower-triangular
  matrix of determinant h.  Its Smith normal form diag(d) = U R V
  (Cohen, *A Course in Computational Algebraic Number Theory*,
  Alg. 2.4.14) maps every position at once to y = digits V mod d, in which
  the group is Z/d_1 + ... + Z/d_k;
- for each p^v || h the Sylow p-subgroup is the positions whose every y_j
  is a multiple of the prime-to-p part of d_j.  Its members are coded in
  mixed radix over the p-parts of d, where the group law adds digits with
  no carries, so its basis, and the p-th power map that the basis and the
  torsion-count cross-check read, cost no form product;
- only the generators, one per invariant factor, are composed from the
  Sylow basis elements as forms again.

``dihedral.make_character`` walks the record's generators with the same
``_extend`` and reads a character off the last coordinate.

Every certificate is kept: each product must land in the input set, the
walk must reach h elements without a coset collision, each basis element
must return to the span after exactly its order, the basis span must cover
the Sylow set, each p^j-torsion count must match the basis orders, and the
invariant factors the Sylow bases assemble must be the Smith form's d.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from math import prod

import numpy as np

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


class _DigitGroup:
    """Z/q_1 + ... + Z/q_k on int codes: the digits of a code in mixed
    radix over (q_1, ..., q_k), least significant first, are its
    components, so the law adds digits with no carries.  A Sylow set in
    Smith coordinates is one of these, and its basis walk composes no
    forms."""

    identity = 0

    def __init__(self, radix: list[int]):
        self.radix = radix

    def _combine(self, x: int, y: int, m: int) -> int:
        """The code of x + m * y, digit by digit."""
        out, stride = 0, 1
        for q in self.radix:
            x, a = divmod(x, q)
            y, b = divmod(y, q)
            out += (a + m * b) % q * stride
            stride *= q
        return out

    def mul(self, x: int, y: int) -> int:
        return self._combine(x, y, 1)

    def pow(self, x: int, n: int) -> int:
        return self._combine(0, x, n)

    def inverse(self, x: int) -> int:
        return self._combine(0, x, -1)


def _extend(index: dict, g, mul, order: int | None = None) -> tuple[int, int]:
    """Grow the subgroup H held in index (element -> position, identity at
    0) by g, in place, and return the relation that closes the walk:
    (o, r) with g^o the element at position r < |H|.

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
    return k, index[y]


def _close(group: _CheckedGroup, gens, size: int | None = None):
    """The subgroup generated by gens, grown by ``_extend`` until it has
    size elements.  Returns its position index and the relation (o, r)
    of each generator that extended it, in the order found."""
    index = {group.identity: 0}
    relations = []
    for g in gens:
        if len(index) == size:
            break
        if g not in index:
            relations.append(_extend(index, g, group.mul))
    return index, relations


def _smith_form(rel: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Smith normal form of a nonsingular square integer matrix R: the
    divisor chain d_1 | ... | d_n (all positive) and a unimodular V with
    U R V = diag(d) for some unimodular U (Cohen, Alg. 2.4.14).  Row
    operations go into U, which is not kept; column operations go into V.

    Read as relations among n generators, the rows of R span the kernel of
    Z^n -> G, and x -> x V mod d is then an isomorphism from G onto
    Z/d_1 + ... + Z/d_n.

    With g^2 = 1 and k^4 = g, G is cyclic of order 8, and the last column
    of V sends g to 4 and k to 1 in Z/8:

    >>> _smith_form([[2, 0], [-1, 4]])
    ([1, 8], [[-1, 4], [0, 1]])
    """
    n = len(rel)
    a = [list(row) for row in rel]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def column_op(j: int, k: int, q: int) -> None:  # column j -= q * column k
        for m in (a, v):
            for row in m:
                row[j] -= q * row[k]

    for t in range(n):
        while True:
            # the smallest entry of the trailing block becomes the pivot
            _, i, j = min((abs(a[i][j]), i, j) for i in range(t, n) for j in range(t, n) if a[i][j])
            a[t], a[i] = a[i], a[t]
            for m in (a, v):
                for row in m:
                    row[t], row[j] = row[j], row[t]
            pivot = a[t][t]
            for i in range(t + 1, n):
                q = a[i][t] // pivot
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            for j in range(t + 1, n):
                column_op(j, t, a[t][j] // pivot)
            if any(a[i][t] for i in range(t + 1, n)) or any(a[t][j] for j in range(t + 1, n)):
                continue  # a remainder smaller than the pivot is left
            # the pivot must divide the trailing block, or a row is folded in
            bad = next(
                (i for i in range(t + 1, n) if any(x % pivot for x in a[i][t + 1 :])), None
            )
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
        if a[t][t] < 0:
            column_op(t, t, 2)  # negate column t
    return [a[t][t] for t in range(n)], v


def _relation_matrix(relations: list[tuple[int, int]]) -> list[list[int]]:
    """The lower-triangular relation matrix of a walk, one row per
    generator: with (o_i, r_i) as ``_extend`` returns them, g_i^(o_i) is
    the element at position r_i, whose digits r_ij in mixed radix over
    o_1, ..., o_(i-1) make the row o_i e_i - sum_j r_ij e_j.  Its
    determinant is the walk's size, prod(o_i)."""
    orders = [o for o, _ in relations]
    rel = []
    for i, (o, r) in enumerate(relations):
        row = [0] * len(orders)
        for j in range(i):
            r, digit = divmod(r, orders[j])
            row[j] = -digit
        row[i] = o
        rel.append(row)
    return rel


def _smith_coordinates(relations: list[tuple[int, int]], positions) -> tuple[np.ndarray, list[int]]:
    """Smith coordinates of walk positions, and the Smith factors d_j > 1
    they are taken modulo, ascending.

    relations holds the (o_i, r_i) of each generator of a walk of h
    elements, as ``_extend`` returns them.  With the Smith form
    diag(d) = U R V of their ``_relation_matrix`` R, each position, as
    digits over (o_1, ..., o_n), maps to y = digits V mod d, one row of
    the result, all positions in one int64 product.  Column j of V is
    reduced mod d_j first, so every entry of the product is below n h^2,
    far inside int64 for any h of |D| <= MAX_ENUMERATED_DISC.
    """
    orders = [o for o, _ in relations]
    n = len(orders)
    d, v = _smith_form(_relation_matrix(relations))
    keep = [j for j in range(n) if d[j] > 1]
    v = np.array([[v[i][j] % d[j] for j in keep] for i in range(n)], dtype=np.int64)
    pos = np.asarray(positions, dtype=np.int64)
    digits = np.empty((len(pos), n), dtype=np.int64)
    for i, o in enumerate(orders):
        pos, digits[:, i] = np.divmod(pos, o)
    d = [d[j] for j in keep]
    return digits @ v.reshape(n, len(d)) % np.array(d, dtype=np.int64), d


def _sylow_codes(y: np.ndarray, d: list[int], p: int):
    """The Sylow p-subgroup in the Smith coordinates y over d: the rows
    whose every y_j is a multiple of c_j, the prime-to-p part of d_j,
    ascending.  Returns those rows, their codes (digits y_j / c_j in mixed
    radix over the p-parts q_j = d_j / c_j > 1), the p-th power map on the
    codes, and that radix."""
    c = np.array([prime_to_p_part(dj, p) for dj in d], dtype=np.int64)
    rows = np.flatnonzero((y % c == 0).all(axis=1))
    code = np.zeros(len(rows), dtype=np.int64)
    pcode = np.zeros_like(code)
    radix, stride = [], 1
    for j, dj in enumerate(d):
        q = dj // int(c[j])
        if q > 1:
            digit = y[rows, j] // c[j]
            code += digit * stride
            pcode += digit * p % q * stride
            radix.append(q)
            stride *= q
    codes = code.tolist()
    return rows.tolist(), codes, dict(zip(codes, pcode.tolist())), radix


def _sylow_basis(group, sylow: list, p: int, pmap: dict):
    """Basis of an abelian p-group given as its element list and its
    p-th power map.

    Repeatedly splits off the first element, in list order, of maximal
    order in the current quotient (maximal coset order relative to the
    span so far), adjusting it by a p^t-th root from the span so that the
    new generator meets the span only in the identity.  Coset orders come
    from walking pmap, and the coordinates of a span element are the
    digits of its ``_extend`` position.  The span must end up covering
    every element exactly once.
    """
    span = {group.identity: 0}
    basis: list = []
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


def _check_torsion(group, pmap: dict, p: int, orders: list[int]):
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


def _sylow_bases(y: np.ndarray, d: list[int]) -> list[list[tuple[int, int]]]:
    """Per prime p of prod(d), ascending, a basis of the Sylow p-subgroup
    as (order, row of y) pairs, largest order first.

    Each Sylow set is read off the Smith coordinates y over d by
    ``_sylow_codes``; ``_sylow_basis`` and ``_check_torsion`` run on its
    codes in row order.  The invariant factors the bases assemble, the
    slot-wise products of their orders, must be d itself.
    """
    ranked = []
    for p in sorted(factorize(d[-1])):
        rows, codes, pmap, radix = _sylow_codes(y, d, p)
        group = _DigitGroup(radix)
        basis, orders = _sylow_basis(group, codes, p, pmap)
        _check_torsion(group, pmap, p, orders)
        row_of = dict(zip(codes, rows))
        pairs = [(o, row_of[b]) for o, b in zip(orders, basis)]
        ranked.append(sorted(pairs, key=lambda pair: pair[0], reverse=True))
    slots = max(map(len, ranked))  # slot 0 holds the largest factor
    factors = [prod(pairs[s][0] for pairs in ranked if s < len(pairs)) for s in range(slots)]
    if factors[::-1] != d:
        raise RuntimeError(f"Sylow bases give invariant factors {factors[::-1]}, Smith form {d}")
    return ranked


def structure_from_forms(
    forms: list[QuadForm],
) -> tuple[AbelianGroup, list[tuple[QuadForm, int]]]:
    """Invariant factors of the class group given as its full list of
    reduced forms, and a (generator, order) pair per invariant factor,
    ascending with the factors.

    The sorted forms are walked once to grow the whole group coset by
    coset, which gives every form a walk position and the relations that
    closed the walk.  Their Smith form maps all positions to Smith
    coordinates (``_smith_coordinates``); the Sylow sets, their bases and
    the torsion cross-check are read off those coordinates with no form
    product (``_sylow_bases``).  Only the walk, about one checked product
    per class, and the products that combine each slot's Sylow basis
    elements into one generator compose forms.

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
    index, relations = _close(group, walk, size=h)
    y, d = _smith_coordinates(relations, [index[f] for f in walk])
    combined: list[tuple[QuadForm, int]] = []
    for slot in zip_longest(*_sylow_bases(y, d)):  # slot 0 holds the largest factor
        gen, order = group.identity, 1
        for o, row in filter(None, slot):
            gen = group.mul(gen, walk[row])
            order *= o
        combined.append((QuadForm._make(gen), order))
    combined.reverse()  # ascending, aligned with invariant factors
    return AbelianGroup(tuple(d)), combined
