import hashlib
import itertools
import math

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
    # x^2 + x over F_2: x is no unit, so its powers never return to 1
    with pytest.raises(ValueError, match="not primitive"):
        FieldSpec(2, 2, (0, 1, 1))


def test_prime_fields_take_no_polynomial():
    # F_p is the residues mod p, so a polynomial given for it is an error.
    for call in (lambda: FieldSpec(3, 1, (9, 9, 9)), lambda: field_for_q(5, (1,))):
        with pytest.raises(ValueError, match="takes no defining polynomial"):
            call()
    assert FieldSpec(3, 1).defining_poly == (0, 1)  # the placeholder __eq__ and __hash__ read


# Every monic polynomial of degree m that is primitive over F_p, constant term
# first: phi(q - 1) / m of them.
PRIMITIVE = {
    (2, 2): [(1, 1, 1)],
    (2, 3): [(1, 0, 1, 1), (1, 1, 0, 1)],
    (3, 2): [(2, 1, 1), (2, 2, 1)],
    (2, 4): [(1, 0, 0, 1, 1), (1, 1, 0, 0, 1)],
}


@pytest.mark.parametrize("p,m", sorted(PRIMITIVE))
def test_accepts_exactly_the_primitive_polynomials(p, m):
    q = p**m
    assert len(PRIMITIVE[p, m]) == sum(math.gcd(k, q - 1) == 1 for k in range(1, q)) // m
    accepted = []
    for low in itertools.product(range(p), repeat=m):
        try:
            FieldSpec(p, m, low + (1,))
        except ValueError:
            continue
        accepted.append(low + (1,))
    assert accepted == PRIMITIVE[p, m]


# sha256 of repr((add, mul, neg, inv, alpha0)) tables, taken from the field
# module when it still multiplied polynomials and searched for factors.
TABLE_DIGESTS = [
    (2, None, "7e43dd5779c06803dc55a5135d4a43acd86b3b20da03afefd7b43f5170277dd8"),
    (3, None, "71844c40727720d03c9cab5c8c63eeda958942ffa27561b705802b680ff20680"),
    (4, None, "550043cb5aa786ed31c0fa919a125385dbf93ac5db3dacd91c2645dcc590b8ca"),
    (5, None, "dcdb1a0ad55ea60115a0ddb48d03fd6b618c0322a6e90a98a733e3666a50f50b"),
    (7, None, "e9ce1397274fc801d71acb23dc38cce6da7f35e82a4186a9000d5311bef49e89"),
    (8, None, "e52e856715a8f37427cd3f85d2125d39994171318ffd8af08b41a684edbcc024"),
    (9, None, "0a372fa6418725697d0d968dc2807b06852dea499478fddd698bdd914431abce"),
    (11, None, "c139f64ff0d8af9c07251672ffe8d00e3b2280c09d408f426898a39b2327f45b"),
    (13, None, "077a0d437b872a702be38867134e101f078e0cbd84402078a7dffbfd956c6aa6"),
    (16, None, "9bed0dd56c649ae606a21cf37912fb52fe3e9de0422fb53d96334b6880ba06af"),
    (8, (1, 0, 1, 1), "7123ac638c3a73e796abb945dd78c42f0f33d9a2b3f7f26926ed3f925212dd09"),
    (16, (1, 0, 0, 1, 1), "897a831fad0406c8fbf05c966d16565b2385553343a4e66ce95e4be30fdb9dcf"),
    (9, (2, 2, 1), "23552463c8ac00ad8aed8c4f925c0c9d8bf2ee3208a233e7a1c6af184dbf9903"),
]


@pytest.mark.parametrize("q,poly,digest", TABLE_DIGESTS)
def test_field_tables_are_pinned(q, poly, digest):
    spec = field_for_q(q, poly)
    tables = (spec.add_table, spec.mul_table, spec.neg_table, spec.inv_table, spec.alpha0_table)
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == digest


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
