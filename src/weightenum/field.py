"""Arithmetic in small finite fields F_q with q = p^m <= 16.

An element is a coefficient vector (a_0, ..., a_{m-1}) over F_p in the power
basis 1, lam, ..., lam^(m-1), where lam is the residue class of x modulo the
defining polynomial.  Its canonical position is

    index(a) = sum_j a_j * p**j,

a bijection onto [0, q).  Every other module orders field elements,
polynomial variables and composition cells by this index; index 0 is zero.

Defining polynomials are written constant term first and must be monic,
irreducible and primitive (the residue class of x generates the
multiplicative group).  All three properties are checked at construction
time, including for the built-in defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _poly_trim(coeffs: list[int]) -> list[int]:
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_mul(p: int, a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(p: int, a: list[int], mod: list[int]) -> list[int]:
    # mod is monic
    a = list(a)
    d = len(mod) - 1
    while len(a) > d or (len(a) == d + 1 and a[-1] != 0):
        if len(a) <= d:
            break
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - d
            for j in range(d + 1):
                a[shift + j] = (a[shift + j] - lead * mod[j]) % p
        a.pop()
    return _poly_trim(a)


def _poly_is_irreducible(p: int, poly: tuple[int, ...]) -> bool:
    """Exhaustive factor search: no monic divisor of degree 1..m//2."""
    m = len(poly) - 1
    for d in range(1, m // 2 + 1):
        for code in range(p**d):
            cand = []
            t = code
            for _ in range(d):
                cand.append(t % p)
                t //= p
            cand.append(1)  # monic degree d
            if _poly_mod(p, list(poly), cand) == [0]:
                return False
    return True


class FieldSpec:
    """F_q given by characteristic p, degree m and a defining polynomial.

    Immutable once constructed.  Exposes dense lookup tables indexed by
    element index for the hot enumeration loops:

        add_table[i][j], mul_table[i][j], neg_table[i], inv_table[i]
        alpha0_table[i]  -- constant coordinate of element i

    inv_table[0] is None.
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
            # Placeholder, unused: elements are residues mod p.
            self.defining_poly = (0, 1)
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
            if not _poly_is_irreducible(p, poly):
                raise ValueError(f"polynomial {poly} is reducible over F_{p}")
            self.defining_poly = poly

        self._build_tables()

        if m > 1 and self._order_of(p) != q - 1:
            raise ValueError(
                f"polynomial {self.defining_poly} is not primitive: "
                f"x has order {self._order_of(p)}, expected {q - 1}"
            )

    # -- construction helpers ------------------------------------------------

    def _coeffs_of(self, index: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.m):
            out.append(index % self.p)
            index //= self.p
        return tuple(out)

    def _index_of(self, coeffs) -> int:
        out = 0
        for c in reversed(coeffs):
            out = out * self.p + c
        return out

    def _build_tables(self):
        p, m, q = self.p, self.m, self.q
        coeff_list = [self._coeffs_of(i) for i in range(q)]
        mod = list(self.defining_poly)

        add = [[0] * q for _ in range(q)]
        mul = [[0] * q for _ in range(q)]
        for i in range(q):
            for j in range(q):
                add[i][j] = self._index_of(
                    tuple((a + b) % p for a, b in zip(coeff_list[i], coeff_list[j]))
                )
                prod = _poly_mul(p, list(coeff_list[i]), list(coeff_list[j]))
                if m > 1:
                    prod = _poly_mod(p, prod, mod)
                else:
                    prod = [prod[0] % p]
                prod = prod + [0] * (m - len(prod))
                mul[i][j] = self._index_of(prod)
        neg = [self._index_of(tuple((-a) % p for a in coeff_list[i])) for i in range(q)]
        inv: list[int | None] = [None] * q
        for i in range(1, q):
            inv[i] = next(j for j in range(1, q) if mul[i][j] == 1)

        self.add_table = tuple(tuple(r) for r in add)
        self.mul_table = tuple(tuple(r) for r in mul)
        self.neg_table = tuple(neg)
        self.inv_table = tuple(inv)
        self.alpha0_table = tuple(c[0] for c in coeff_list)
        self.elements = tuple(FieldElement(self, c) for c in coeff_list)

    def _order_of(self, index: int) -> int:
        k, x = 1, index
        while x != 1:
            x = self.mul_table[x][index]
            k += 1
            if k > self.q:
                raise ValueError("element order iteration did not close")
        return k

    # -- public API ----------------------------------------------------------

    def element(self, index: int) -> FieldElement:
        return self.elements[index]

    def element_order(self) -> list[FieldElement]:
        """The canonical list w_0 = 0, w_1, ..., w_{q-1}, sorted by index."""
        return list(self.elements)

    @property
    def zero(self) -> FieldElement:
        return self.elements[0]

    @property
    def one(self) -> FieldElement:
        return self.elements[1]

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


@dataclass(frozen=True)
class FieldElement:
    """One element of F_q: coefficient vector in the power basis of lam."""

    spec: FieldSpec
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.spec.m:
            raise ValueError(f"expected {self.spec.m} coefficients, got {len(self.coeffs)}")
        if any(c < 0 or c >= self.spec.p for c in self.coeffs):
            raise ValueError("coefficients must be reduced mod p")

    @property
    def index(self) -> int:
        return self.spec._index_of(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _same_spec(self, other: FieldElement):
        if self.spec != other.spec:
            raise ValueError("field mismatch between operands")

    def __add__(self, other: FieldElement) -> FieldElement:
        self._same_spec(other)
        return self.spec.elements[self.spec.add_table[self.index][other.index]]

    def __neg__(self) -> FieldElement:
        return self.spec.elements[self.spec.neg_table[self.index]]

    def __sub__(self, other: FieldElement) -> FieldElement:
        return self + (-other)

    def __mul__(self, other: FieldElement) -> FieldElement:
        self._same_spec(other)
        return self.spec.elements[self.spec.mul_table[self.index][other.index]]

    def inverse(self) -> FieldElement:
        if self.is_zero():
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.spec.elements[self.spec.inv_table[self.index]]

    def __repr__(self) -> str:
        return f"FieldElement({self.index} of F_{self.spec.q})"
