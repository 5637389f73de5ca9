import pytest

from weightenum import CapacityError, FieldElement, FieldSpec, field_for_q, is_prime


def test_element_order_examples():
    assert [e.index for e in FieldSpec(2, 1).element_order()] == [0, 1]
    assert [e.index for e in FieldSpec(3, 1).element_order()] == [0, 1, 2]
    # F_4 with x^2+x+1: 0, 1, lam, lam+1
    f4 = FieldSpec(2, 2)
    assert [e.coeffs for e in f4.element_order()] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert f4.element_order()[0].is_zero()


def test_add_examples():
    f2, f3, f4 = FieldSpec(2, 1), FieldSpec(3, 1), FieldSpec(2, 2)
    assert (f2.element(1) + f2.element(1)).index == 0
    assert (f3.element(2) + f3.element(2)).index == 1
    lam, lam1 = f4.element(2), f4.element(3)
    assert (lam + lam1).index == 1


def test_mul_examples():
    f3, f4 = FieldSpec(3, 1), FieldSpec(2, 2)
    # lam * lam reduces to lam + 1 modulo x^2+x+1
    lam = f4.element(2)
    assert (lam * lam).coeffs == (1, 1)
    assert (f3.element(2) * f3.element(2)).index == 1
    for spec in (f3, f4):
        for e in spec.element_order():
            assert e * spec.one == e


def test_inv_examples():
    f2, f3, f4 = FieldSpec(2, 1), FieldSpec(3, 1), FieldSpec(2, 2)
    assert f3.element(2).inverse().index == 2
    assert f4.element(2).inverse().index == 3  # lam * (lam+1) = 1
    assert f2.element(1).inverse().index == 1
    with pytest.raises(ZeroDivisionError):
        f3.element(0).inverse()


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4), (5, 1), (7, 1), (11, 1), (13, 1)])
def test_construction(p, m):
    spec = FieldSpec(p, m)
    assert spec.q == p**m
    assert len(spec.elements) == spec.q


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FieldSpec(4, 1)
    with pytest.raises(ValueError):
        FieldSpec(1, 1)
    with pytest.raises(ValueError):
        FieldSpec(2, 0)
    with pytest.raises(CapacityError):
        FieldSpec(2, 5)  # q = 32 over the cap
    with pytest.raises(CapacityError):
        FieldSpec(5, 2)  # q = 25 over the cap
    # p and m are bounded before p**m or a primality test runs on them
    with pytest.raises(CapacityError, match="p = 2, m = 10000000"):
        FieldSpec(2, 10**7)
    with pytest.raises(CapacityError, match="p = 10000000000000000000000000000057"):
        FieldSpec(10**31 + 57, 1)


def test_rejects_bad_polynomials():
    # not monic
    with pytest.raises(ValueError):
        FieldSpec(3, 2, (1, 1, 2))
    # reducible: x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (1, 0, 1))
    # irreducible but not primitive: x^2 + 1 over F_3 (x has order 4, not 8)
    with pytest.raises(ValueError):
        FieldSpec(3, 2, (1, 0, 1))
    # wrong degree
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (1, 1))
    # coefficients not reduced
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (3, 1, 1))


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_field_axioms_exhaustive(q):
    spec = field_for_q(q)
    elems = spec.element_order()
    for a in elems:
        for b in elems:
            assert (a + b) == (b + a)
            assert (a * b) == (b * a)
            for c in elems:
                assert ((a + b) + c) == (a + (b + c))
                assert ((a * b) * c) == (a * (b * c))
                assert (a * (b + c)) == (a * b + a * c)
    for a in elems[1:]:
        assert (a * a.inverse()) == spec.one


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16])
def test_index_bijection_and_lam_order(q):
    spec = field_for_q(q)
    assert [e.index for e in spec.element_order()] == list(range(q))
    if spec.m > 1:
        # lam is the element with coefficient vector (0, 1, 0, ...)
        lam = spec.element(spec.p)
        k, x = 1, lam
        while x != spec.one:
            x = x * lam
            k += 1
        assert k == q - 1


def test_spec_mismatch_errors():
    f2, f3 = FieldSpec(2, 1), FieldSpec(3, 1)
    with pytest.raises(ValueError):
        f2.element(1) + f3.element(1)
    with pytest.raises(ValueError):
        f2.element(1) * f3.element(1)


def test_element_validation():
    f4 = FieldSpec(2, 2)
    with pytest.raises(ValueError):
        FieldElement(f4, (1,))
    with pytest.raises(ValueError):
        FieldElement(f4, (2, 0))


def test_field_for_q():
    assert field_for_q(4).p == 2 and field_for_q(4).m == 2
    assert field_for_q(9).p == 3 and field_for_q(9).m == 2
    with pytest.raises(ValueError):
        field_for_q(12)
    with pytest.raises(ValueError):
        field_for_q(1)
    with pytest.raises(CapacityError):  # refused before factoring q
        field_for_q(10**18 + 9)


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
