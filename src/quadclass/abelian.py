"""Structure of finite abelian groups, given either as invariant factors or
as a set of reduced forms under composition.

The suitability test here is the gate for everything dihedral: a group
qualifies for a prime p exactly when the prime-to-p part of its exponent
does not divide p^2 - 1.

Structure from forms works on plain ``(a, b, c)`` tuples through the
private kernel of ``forms``; ``QuadForm`` objects appear only at the edges,
where the input list is read and the generators are returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .forms import QuadForm, _compose, _pow, _reduce, form_pow, principal_form
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

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

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


def is_p_suitable(G: AbelianGroup, p: int) -> SuitabilityReport:
    """Whether G has a cyclic quotient of order h with p not dividing h and
    h not dividing p^2 - 1; witness_h is the smallest such h.
    """
    e_prime = prime_to_p_part(G.exponent, p)
    bound = p * p - 1
    if bound % e_prime == 0:
        return SuitabilityReport(p=p, suitable=False, witness_h=None)
    witness = min(h for h in divisors(e_prime) if bound % h)
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


def element_order(f: QuadForm, group_order: int) -> int:
    """Order of a form in a class group of known size."""
    ident = principal_form(f.discriminant)
    order = group_order
    for p in factorize(group_order):
        while order % p == 0 and form_pow(f, order // p) == ident:
            order //= p
    return order


class _CheckedGroup:
    """Composition restricted to a fixed element set; leaving it means the
    input was not a full class group.  Elements are (a, b, c) tuples."""

    def __init__(self, forms: list[QuadForm]):
        if not forms:
            raise ValueError("empty form list")
        disc = forms[0].discriminant
        if any(f.discriminant != disc for f in forms):
            raise ValueError("forms of mixed discriminant")
        self.disc = disc
        self.elements = frozenset((f.a, f.b, f.c) for f in forms)
        if len(self.elements) != len(forms):
            raise ValueError("duplicate forms")
        e = principal_form(disc)
        self.identity = (e.a, e.b, e.c)
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


def _sylow_basis(group: _CheckedGroup, sylow: list[tuple], p: int):
    """Basis of an abelian p-group given as an explicit element list.

    Repeatedly splits off a generator of maximal order in the current
    quotient (maximal coset order relative to the span so far), adjusting it
    by a p^t-th root from the span so that the new generator meets the span
    only in the identity.  The span table doubles as a certificate: it must
    end up covering every element exactly once.
    """
    span = {group.identity: ()}
    basis: list[tuple] = []
    orders: list[int] = []
    size = len(sylow)
    while len(span) < size:
        best, best_t, best_chain = None, 0, None
        for x in sorted(sylow):
            if x in span:
                continue
            chain = [x]
            while chain[-1] not in span:
                chain.append(group.pow(chain[-1], p))
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
        new_span = {}
        gk = group.identity
        for k in range(p**t):
            if k:
                gk = group.mul(gk, g)
            for s, vec in span.items():
                key = group.mul(s, gk) if k else s
                if key in new_span:
                    raise RuntimeError("span collision; input is not a group")
                new_span[key] = vec + (k,)
        span = new_span
        basis.append(g)
        orders.append(p**t)
    return basis, orders


def structure_from_forms(forms: list[QuadForm], with_generators: bool = False):
    """Invariant factors of the class group given as its full list of
    reduced forms; optionally also a generator per invariant factor.

    Raises ValueError when composition leaves the input set and RuntimeError
    when the certified basis construction cannot cover the group (both mean
    the input was not the full form list of one discriminant).
    """
    group = _CheckedGroup(forms)
    h = len(forms)
    if h == 1:
        result = AbelianGroup(())
        return (result, []) if with_generators else result

    per_prime: dict[int, tuple[list[tuple], list[int]]] = {}
    for p, v in sorted(factorize(h).items()):
        cof = h // p**v
        sylow = sorted({group.pow(f, cof) for f in group.elements})
        if len(sylow) != p**v:
            raise ValueError(f"{p}-part has {len(sylow)} elements, expected {p**v}")
        basis, orders = _sylow_basis(group, sylow, p)

        # independent cross-check: multiset of orders from counting
        # p^j-torsion must reproduce the partition found by the basis
        counts = []
        powers = sylow  # x^(p^j) for each x, j = 0, 1, ...
        j = 0
        while True:
            j += 1
            powers = [group.pow(x, p) for x in powers]
            nj = powers.count(group.identity)
            if p ** _ilog(nj, p) != nj:
                raise RuntimeError(f"{p}^{j}-torsion count {nj} is not a power of {p}")
            counts.append(nj)
            if nj == p**v:
                break
        expo = [0] + [_ilog(c, p) for c in counts]
        conj = [expo[i + 1] - expo[i] for i in range(len(counts))]  # parts >= j
        partition = []
        for length in range(1, len(conj) + 1):
            nxt = conj[length] if length < len(conj) else 0
            partition += [length] * (conj[length - 1] - nxt)
        if sorted(partition) != sorted(_ilog(o, p) for o in orders):
            raise RuntimeError("basis orders disagree with torsion counts")

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
        combined.append((QuadForm(*gen), order))
    combined.reverse()  # ascending, aligned with invariant factors
    result = AbelianGroup(tuple(order for _, order in combined))
    return (result, combined) if with_generators else result


def _ilog(n: int, p: int) -> int:
    e = 0
    while n > 1:
        n //= p
        e += 1
    return e
