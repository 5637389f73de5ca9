"""Exact arithmetic in Q(zeta_p) for prime p.

A value is stored as its coordinate tuple in the power basis
{1, zeta, ..., zeta^(p-2)}, with the relation

    zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))

applied eagerly, so equality of coordinate tuples decides equality of
values and a zero test is exact.  Coordinates are rationals.

The additive character of F_q lives here: chi(a) = zeta_p ** a_0, where a_0
is the constant coordinate of a in the power basis of the field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .field import FieldElement, FieldSpec, is_prime

# -- raw coordinate-tuple helpers ---------------------------------------------


def _vec_zero(p: int) -> tuple:
    return (0,) * (p - 1)


def _zeta_vec(p: int, k: int) -> tuple:
    """Coordinates of zeta_p ** k, reduced into the power basis."""
    k %= p
    if k == p - 1:
        return (-1,) * (p - 1)
    return tuple(1 if i == k else 0 for i in range(p - 1))


def _vec_add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def _vec_scale(a: tuple, c) -> tuple:
    return tuple(c * x for x in a)


def _vec_mul(p: int, a: tuple, b: tuple) -> tuple:
    # convolution in exponents 0..2p-4, then fold with zeta^p = 1 and the
    # basis relation for exponent p-1
    conv = [0] * (2 * p - 3)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    conv[i + j] += x * y
    out = [0] * (p - 1)
    for e, c in enumerate(conv):
        if not c:
            continue
        e %= p
        if e == p - 1:
            for t in range(p - 1):
                out[t] -= c
        else:
            out[e] += c
    return tuple(out)


# -- public value type --------------------------------------------------------


@dataclass(frozen=True)
class CyclotomicNumber:
    p: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if len(self.coeffs) != self.p - 1:
            raise ValueError(f"expected {self.p - 1} coordinates")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    @classmethod
    def zero(cls, p: int) -> CyclotomicNumber:
        return cls(p, _vec_zero(p))

    @classmethod
    def one(cls, p: int) -> CyclotomicNumber:
        return cls.from_rational(p, 1)

    @classmethod
    def from_rational(cls, p: int, value) -> CyclotomicNumber:
        return cls(p, (Fraction(value),) + (Fraction(0),) * (p - 2))

    def _same_p(self, other: CyclotomicNumber):
        if self.p != other.p:
            raise ValueError(f"cyclotomic order mismatch: {self.p} vs {other.p}")

    def __add__(self, other: CyclotomicNumber) -> CyclotomicNumber:
        self._same_p(other)
        return CyclotomicNumber(self.p, _vec_add(self.coeffs, other.coeffs))

    def __neg__(self) -> CyclotomicNumber:
        return CyclotomicNumber(self.p, tuple(-c for c in self.coeffs))

    def __sub__(self, other: CyclotomicNumber) -> CyclotomicNumber:
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, CyclotomicNumber):
            self._same_p(other)
            return CyclotomicNumber(self.p, _vec_mul(self.p, self.coeffs, other.coeffs))
        if isinstance(other, (int, Fraction)):
            return CyclotomicNumber(self.p, _vec_scale(self.coeffs, Fraction(other)))
        return NotImplemented

    def __rmul__(self, other):
        return self * other

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def to_strings(self) -> list[str]:
        """Serialize as "<num>/<den>" strings, lowest terms, positive denominator."""
        return [f"{c.numerator}/{c.denominator}" for c in self.coeffs]

    def __repr__(self) -> str:
        return f"CyclotomicNumber(p={self.p}, {self.to_strings()})"


def zeta_pow(p: int, k: int) -> CyclotomicNumber:
    """zeta_p ** k in reduced basis form."""
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    return CyclotomicNumber(p, _zeta_vec(p, k))


def chi(spec: FieldSpec, a: FieldElement) -> CyclotomicNumber:
    """Additive character: zeta_p raised to the constant coordinate of a."""
    if a.spec != spec:
        raise ValueError("element does not belong to the given field")
    return zeta_pow(spec.p, a.coeffs[0])
