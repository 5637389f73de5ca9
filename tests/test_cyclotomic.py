"""The packed Z[zeta_p] values of weightenum.cyclotomic and the character chi."""

import pytest

from weightenum import FieldSpec, chi, field_for_q, packing
from weightenum.cyclotomic import _vec_mul

PRIMES = (2, 3, 5, 7, 11, 13)
ALL_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def test_zeta_pow_examples():
    for p in PRIMES:
        zeta, reduce, value = packing(p, 2 * p)
        assert zeta[0] == 1 and len(zeta) == p
        for k in range(3 * p):
            assert reduce(zeta[1] ** k - zeta[k % p]) == 0, (p, k)
        # 1 + zeta + ... + zeta^(p-1) = 0, and no proper part of it cancels.
        assert reduce(sum(zeta)) == 0 and value(sum(zeta)) == 0
        assert all(reduce(sum(zeta[:j])) for j in range(1, p))
    zeta, reduce, value = packing(3, 4)
    # zeta_3^2 = -1 - zeta_3
    assert reduce(zeta[2] - (-1 - zeta[1])) == 0


def test_chi_examples():
    f2, f3, f4 = FieldSpec(2, 1), FieldSpec(3, 1), FieldSpec(2, 2)
    assert chi(f2, packing(2, 1)[0]) == [1, -1]
    assert chi(f4, packing(2, 1)[0])[2] == 1  # alpha_0(lam) = 0
    zeta = packing(3, 1)[0]
    assert chi(f3, zeta) == zeta
    assert len(chi(field_for_q(16), packing(2, 1)[0])) == 16


def test_ring_op_examples():
    # (1 + s X)(1 + zeta^(p-1) X) with s = 1 + zeta + ... + zeta^(p-2): the
    # X coefficient s + zeta^(p-1) is 0 in Z[zeta_p], though not as an int.
    for p in PRIMES:
        zeta, reduce, value = packing(p, p)
        s = sum(zeta[:-1])
        prod = _vec_mul({0: 1, 1: s}, [(0, 1), (1, zeta[-1])], reduce)
        assert sorted(prod) == [0, 2], p
        assert value(prod[0]) == 1
        assert reduce(prod[2] - s * zeta[-1]) == 0
    assert _vec_mul({0: 3}, [(5, 0)], int) == {}


def test_scalar_multiplication():
    # Integer multiples and products of values with negative coordinates.
    for p in PRIMES:
        zeta, reduce, value = packing(p, 1000)
        one = -sum(zeta[1:])  # 1, written with p - 1 coordinates of -1
        for c in (-7, -1, 0, 3):
            assert value(c * one) == c
            assert reduce(c * zeta[1] * one - c * zeta[1]) == 0
        assert value((2 - 3 * one) * (one + 4)) == -5
    zeta, reduce, value = packing(3, 100)
    # (1 + 2 zeta)(3 - zeta) = 3 + 5 zeta - 2 zeta^2 = 5 + 7 zeta in Z[zeta_3]
    assert reduce((1 + 2 * zeta[1]) * (3 - zeta[1]) - (5 + 7 * zeta[1])) == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_serialization_round_trip(p):
    # A signed integer packs as itself, and reads back through value() from
    # any representative: c + t * (1 + zeta + ... + zeta^(p-1)) for every t.
    bound = 50
    zeta, reduce, value = packing(p, bound)
    for c in range(-bound // 2, bound // 2 + 1):
        for t in (-bound // 2, -1, 0, 1, bound // 2):
            assert value(c + t * sum(zeta)) == c, (c, t)


def test_validation():
    # value() refuses a non-rational value rather than read off a coordinate.
    for p in PRIMES[1:]:
        zeta, reduce, value = packing(p, 10)
        for v in (zeta[1], 1 + zeta[1], 2 - zeta[p - 1], sum(zeta[1:]) - zeta[1]):
            with pytest.raises(RuntimeError, match="must be rational"):
                value(v)


@pytest.mark.parametrize("q", ALL_Q)
def test_character_additivity_exhaustive(q):
    spec = field_for_q(q)
    zeta, reduce, _ = packing(spec.p, 1)
    ch = chi(spec, zeta)
    for a in range(q):
        for b in range(q):
            assert reduce(ch[spec.add_table[a][b]] - ch[a] * ch[b]) == 0


@pytest.mark.parametrize("q", ALL_Q)
def test_character_orthogonality_exhaustive(q):
    # sum over omega of chi(omega * alpha) is q for alpha = 0 and 0 otherwise
    spec = field_for_q(q)
    zeta, reduce, value = packing(spec.p, q)
    ch = chi(spec, zeta)
    for alpha in range(q):
        total = sum(ch[spec.mul_table[omega][alpha]] for omega in range(q))
        if alpha == 0:
            assert value(total) == q
        else:
            assert reduce(total) == 0
