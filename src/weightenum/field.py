"""Arithmetic in small finite fields F_q with q = p^m <= 16.

An element is its index in [0, q).  The element with coefficient vector
(a_0, ..., a_{m-1}) over F_p in the power basis 1, lam, ..., lam^(m-1), where
lam is the residue class of x modulo the defining polynomial, has index

    index(a) = sum_j a_j * p**j,

a bijection onto [0, q): index 0 is zero, index 1 is one and, for m > 1,
index p is lam.  All arithmetic is lookups in FieldSpec's tables, and every
other module orders field elements, polynomial variables and composition
cells by this index.

Defining polynomials are written constant term first and must be monic and
primitive: lam generates the multiplicative group.  A monic f of degree m
with f(0) != 0 is primitive exactly when x has order p^m - 1 modulo f, and
such an f is irreducible (Lidl & Niederreiter, Finite Fields, ch. 3).  So
one walk over the powers of lam, run at construction time for the built-in
defaults too, both checks f and lists the field: its log and antilog lists
give multiplication and inverses, while addition and negation act digit-wise
on the index.  A prime field takes no polynomial; its walk runs over the
powers of the least primitive root mod p.
"""

from __future__ import annotations

from .capacity import CapacityError

MAX_FIELD_SIZE = 16

# Default defining polynomials, constant term first.
DEFAULT_POLYS = {
    4: (1, 1, 1),         # x^2 + x + 1
    8: (1, 1, 0, 1),      # x^3 + x + 1
    9: (2, 1, 1),         # x^2 + x + 2
    16: (1, 1, 0, 0, 1),  # x^4 + x + 1
}


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, int(p**0.5) + 1))


class FieldSpec:
    """F_q given by characteristic p, degree m and a defining polynomial
    (m > 1 only; DEFAULT_POLYS[q] when none is given).

    Immutable once constructed.  The tables come from one walk over the
    powers of the generator, lam for m > 1 and the least primitive root for
    m = 1; a polynomial whose walk does not return to 1 after exactly q - 1
    steps is refused.  Elements are indices in [0, q), and all arithmetic
    on them goes through dense lookup tables indexed by element index:

        add_table[i][j], mul_table[i][j], neg_table[i], inv_table[i]
        alpha0_table[i]  -- constant coordinate of element i

    inv_table[0] is None: zero has no inverse.
    """

    def __init__(self, p: int, m: int, defining_poly=None):
        # is_prime(p) and p**m are unbounded in p and m: bound both first.
        if isinstance(p, int) and p > MAX_FIELD_SIZE:
            raise CapacityError(f"p = {p} exceeds the supported maximum q = {MAX_FIELD_SIZE}")
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"m = {m} is not a positive integer")
        if m >= MAX_FIELD_SIZE.bit_length():  # p >= 2, so p**m >= 2**m > MAX
            raise CapacityError(
                f"q = p^m with p = {p}, m = {m} exceeds the supported maximum {MAX_FIELD_SIZE}"
            )
        q = p**m
        if q > MAX_FIELD_SIZE:
            raise CapacityError(f"q = {q} exceeds the supported maximum {MAX_FIELD_SIZE}")
        self.p = p
        self.m = m
        self.q = q

        if m == 1:
            if defining_poly is not None:
                raise ValueError(f"the prime field F_{p} takes no defining polynomial")
            # Placeholder for __eq__ and __hash__: elements are residues mod p.
            # The walk multiplies by the least primitive root g, the root of x - g.
            self.defining_poly = (0, 1)
            g = 1
            while len({g**k % p for k in range(1, p)}) != p - 1:
                g += 1
            poly = (-g % p, 1)
        else:
            if defining_poly is None:
                if q not in DEFAULT_POLYS:
                    raise ValueError(f"no default defining polynomial for q = {q}")
                defining_poly = DEFAULT_POLYS[q]
            poly = tuple(int(c) for c in defining_poly)
            if len(poly) != m + 1:
                raise ValueError(f"defining polynomial must have degree {m}")
            if any(c < 0 or c >= p for c in poly):
                raise ValueError("defining polynomial coefficients must lie in [0, p)")
            if poly[-1] != 1:
                raise ValueError("defining polynomial must be monic")
            self.defining_poly = poly
        self._build_tables(poly)

    def _build_tables(self, poly):
        """Every table from one walk e_0 = 1, e_{k+1} = x * e_k modulo poly,
        which must return to 1 after exactly q - 1 steps: x then generates the
        multiplicative group, so poly is primitive, hence irreducible.  If
        poly(0) = 0, x is no unit and the walk never returns to 1."""
        p, m, q = self.p, self.m, self.q
        places = [p**j for j in range(m)]
        self.add_table = tuple(
            tuple(
                sum((i // w + j // w) % p * w for w in places)
                for j in range(q)
            )
            for i in range(q)
        )
        self.neg_table = tuple(sum(-(i // w) % p * w for w in places) for i in range(q))
        self.alpha0_table = tuple(i % p for i in range(q))
        # x * e shifts e's digits up a place; the digit t shifted out of place
        # m - 1 comes back as t * x^m = -t * (poly_0 + ... + poly_{m-1} x^{m-1}).
        top = places[-1]
        carry = [sum(-t * c % p * w for c, w in zip(poly, places)) for t in range(p)]
        antilog = [1]
        for _ in range(q - 1):
            e = antilog[-1]
            antilog.append(self.add_table[e % top * p][carry[e // top]])
        if antilog.pop() != 1 or 1 in antilog[1:]:
            raise ValueError(
                f"polynomial {poly} is reducible or not primitive over F_{p}: "
                f"x does not have order {q - 1} modulo it"
            )
        mul = [[0] * q for _ in range(q)]
        inv: list[int | None] = [None] * q
        for i, a in enumerate(antilog):
            inv[a] = antilog[-i % (q - 1)]
            for j, b in enumerate(antilog):
                mul[a][b] = antilog[(i + j) % (q - 1)]
        self.mul_table = tuple(map(tuple, mul))
        self.inv_table = tuple(inv)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (self.p, self.m, self.defining_poly) == (other.p, other.m, other.defining_poly)

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.defining_poly))

    def __repr__(self) -> str:
        if self.m == 1:
            return f"FieldSpec(p={self.p}, m=1)"
        return f"FieldSpec(p={self.p}, m={self.m}, poly={self.defining_poly})"


def field_for_q(q: int, defining_poly=None) -> FieldSpec:
    """Build the field of order q, factoring q as p^m."""
    if q < 2:
        raise ValueError(f"q = {q} is not a prime power")
    if q > MAX_FIELD_SIZE:  # before the trial division, which takes time linear in q
        raise CapacityError(f"q = {q} exceeds the supported maximum {MAX_FIELD_SIZE}")
    p = next((d for d in range(2, q + 1) if q % d == 0), q)
    m, t = 0, q
    while t % p == 0:
        t //= p
        m += 1
    if t != 1:
        raise ValueError(f"q = {q} is not a prime power")
    return FieldSpec(p, m, defining_poly)
