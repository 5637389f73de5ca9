from fractions import Fraction

import pytest

from weightenum import CyclotomicNumber, FieldSpec, chi, field_for_q, zeta_pow


def test_zeta_pow_examples():
    assert zeta_pow(2, 1).coeffs == (Fraction(-1),)
    assert zeta_pow(3, 3) == CyclotomicNumber.one(3)
    # zeta_3^2 reduces to -1 - zeta_3
    assert zeta_pow(3, 2).coeffs == (Fraction(-1), Fraction(-1))
    assert zeta_pow(5, 7) == zeta_pow(5, 2)


def test_chi_examples():
    f2, f3, f4 = FieldSpec(2, 1), FieldSpec(3, 1), FieldSpec(2, 2)
    assert chi(f2, f2.element(1)) == zeta_pow(2, 1)
    assert chi(f4, f4.element(2)) == CyclotomicNumber.one(2)  # alpha_0(lam) = 0
    assert chi(f3, f3.element(2)) == zeta_pow(3, 2)
    with pytest.raises(ValueError):
        chi(f2, f3.element(1))


def test_ring_op_examples():
    assert zeta_pow(3, 1) * zeta_pow(3, 2) == CyclotomicNumber.one(3)
    assert zeta_pow(2, 1) * zeta_pow(2, 1) == CyclotomicNumber.one(2)
    x = CyclotomicNumber(5, (1, 1, 0, 0))
    assert (x + (-x)).is_zero()
    assert (x - x).is_zero()
    with pytest.raises(ValueError):
        zeta_pow(2, 1) + zeta_pow(3, 1)


def test_scalar_multiplication():
    x = zeta_pow(3, 1)
    assert (2 * x).coeffs == (Fraction(0), Fraction(2))
    assert (x * Fraction(1, 2)).coeffs == (Fraction(0), Fraction(1, 2))


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_character_additivity_exhaustive(q):
    spec = field_for_q(q)
    for a in spec.element_order():
        for b in spec.element_order():
            assert chi(spec, a + b) == chi(spec, a) * chi(spec, b)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_character_orthogonality_exhaustive(q):
    # sum over omega of chi(omega * alpha) is q for alpha = 0 and 0 otherwise
    spec = field_for_q(q)
    for alpha in spec.element_order():
        total = CyclotomicNumber.zero(spec.p)
        for omega in spec.element_order():
            total = total + chi(spec, omega * alpha)
        if alpha.is_zero():
            assert total == CyclotomicNumber.from_rational(spec.p, q)
        else:
            assert total.is_zero()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_serialization_round_trip(p):
    values = [
        CyclotomicNumber.zero(p),
        CyclotomicNumber.one(p),
        zeta_pow(p, 1),
        CyclotomicNumber(p, tuple(Fraction(i - 1, 3) for i in range(p - 1))),
    ]
    for v in values:
        strings = v.to_strings()
        assert all("/" in s for s in strings)
        assert CyclotomicNumber(p, strings) == v


def test_validation():
    with pytest.raises(ValueError):
        CyclotomicNumber(4, (1, 1, 1))
    with pytest.raises(ValueError):
        CyclotomicNumber(3, (1,))
