"""Exact arithmetic in Z[zeta_p] for prime p, packed into Python ints.

A value is an element of Z[x]/(x^p - 1), which maps onto Z[zeta_p] by
x -> zeta_p, stored as the one int sum_k c_k * 2^(B*k): coordinate c_k is
a balanced B-bit digit, so signed values add, and multiply by each other
and by integers, as plain ints.  B is fixed once per computation from a
bound on the size of every coordinate it will meet, unfolded products
included, so no digit spills into its neighbour.  Since
1 + zeta + ... + zeta^(p-1) = 0, a value is 0 in Z[zeta_p] exactly when
its p coordinates agree, and rational exactly when coordinates 1..p-1
agree.  For p = 2, zeta = -1 and values are plain ints.

The additive character of F_q lives here: chi(a) = zeta_p ** alpha_0(a),
where alpha_0(a) is the constant coordinate of a in the power basis of
the field.
"""

from __future__ import annotations

from .field import FieldSpec


def packing(p: int, bound: int) -> tuple:
    """(zeta, reduce, value) for values whose coordinates stay at most
    bound in size.  zeta[k] is zeta_p ** k for k < p; reduce(v) folds a sum
    or product of values back onto x^0..x^(p-1), and is 0 exactly when v is
    0 in Z[zeta_p]; value(v) is the integer v equals, and a non-rational v
    raises RuntimeError."""
    if p == 2:
        return (1, -1), int, int
    # bound < 2^(B-2): digits stay clear of the sign bit of their B bits.
    B = bound.bit_length() + 2
    half, mask, top = 1 << (B - 1), (1 << B) - 1, B * p
    ones = sum(1 << (B * k) for k in range(p))
    off, low = half * ones, (1 << top) - 1

    def reduce(v):
        # Fold onto x^0..x^(p-1); 0 when all p coordinates agree (0 in Z[zeta_p]).
        while (w := ((v + off) & low) - off) != v:
            v = w + ((v - w) >> top)
        return 0 if v == (((v + off) & mask) - half) * ones else v

    def value(v):
        # Rational exactly when coordinates 1..p-1 agree: then c_0 - c_1.
        v = reduce(v)
        if -half < (w := v - ((((v + off) >> B) & mask) - half) * ones) < half:
            return w
        raise RuntimeError("a packed Z[zeta_p] value that must be rational is not; "
                           "this indicates an arithmetic bug")

    return [1 << (B * k) for k in range(p)], reduce, value


def chi(spec: FieldSpec, zeta) -> list:
    """The additive character by element index, chi[a] = zeta[alpha_0(a)],
    from the zeta powers of a packing for spec.p."""
    return [zeta[k] for k in spec.alpha0_table]


def _vec_mul(img: dict, form, reduce) -> dict:
    """The product of a sparse polynomial {key: value} and a linear form of
    (key, value) pairs, keys adding as ints: coefficients are reduced and
    the terms that cancel in Z[zeta_p] dropped."""
    prod: dict = {}
    for k, x in img.items():
        for k2, y in form:
            prod[k + k2] = prod.get(k + k2, 0) + x * y
    return {k: r for k, x in prod.items() if (r := reduce(x))}
