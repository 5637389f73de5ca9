import hashlib
import itertools
import math

import pytest

from weightenum import CapacityError, FieldSpec, field_for_q, is_prime


ALL_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)


def coeffs(spec, i):
    """The coefficient vector (a_0, ..., a_{m-1}) of element index i."""
    return tuple(i // spec.p**j % spec.p for j in range(spec.m))


def test_canonical_order_examples():
    # F_4 with x^2+x+1: indices 0, 1, 2, 3 are 0, 1, lam, lam+1
    f4 = FieldSpec(2, 2)
    assert [coeffs(f4, i) for i in range(f4.q)] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert [coeffs(FieldSpec(3, 1), i) for i in range(3)] == [(0,), (1,), (2,)]


def test_add_examples():
    f2, f3, f4 = FieldSpec(2, 1), FieldSpec(3, 1), FieldSpec(2, 2)
    assert f2.add_table[1][1] == 0
    assert f3.add_table[2][2] == 1
    assert f4.add_table[2][3] == 1  # lam + (lam+1) = 1


def test_mul_examples():
    f3, f4 = FieldSpec(3, 1), FieldSpec(2, 2)
    # lam * lam reduces to lam + 1 modulo x^2+x+1
    assert f4.mul_table[2][2] == 3 and coeffs(f4, 3) == (1, 1)
    assert f3.mul_table[2][2] == 1
    for spec in (f3, f4):
        assert [spec.mul_table[e][1] for e in range(spec.q)] == list(range(spec.q))


def test_inv_examples():
    f2, f3, f4 = FieldSpec(2, 1), FieldSpec(3, 1), FieldSpec(2, 2)
    assert f3.inv_table[2] == 2
    assert f4.inv_table[2] == 3  # lam * (lam+1) = 1
    assert f2.inv_table[1] == 1
    assert f3.inv_table[0] is None


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4), (5, 1), (7, 1), (11, 1), (13, 1)])
def test_construction(p, m):
    spec = FieldSpec(p, m)
    assert spec.q == p**m
    assert len(spec.add_table) == len(spec.mul_table) == len(spec.inv_table) == spec.q


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


@pytest.mark.parametrize("q", ALL_Q)
def test_field_axioms_exhaustive(q):
    spec = field_for_q(q)
    add, mul, neg, inv = spec.add_table, spec.mul_table, spec.neg_table, spec.inv_table
    elems = range(q)
    for a in elems:
        assert add[a][0] == a and mul[a][1] == a and mul[a][0] == 0
        assert add[a][neg[a]] == 0
        for b in elems:
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
            for c in elems:
                assert add[add[a][b]][c] == add[a][add[b][c]]
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
    assert inv[0] is None
    for a in elems[1:]:
        assert mul[a][inv[a]] == 1


@pytest.mark.parametrize("q", ALL_Q)
def test_index_bijection_and_lam_order(q):
    spec = field_for_q(q)
    # index(a) = sum_j a_j p^j inverts the coefficient vector
    assert [sum(c * spec.p**j for j, c in enumerate(coeffs(spec, i))) for i in range(q)] == list(range(q))
    assert len({coeffs(spec, i) for i in range(q)}) == q
    assert spec.alpha0_table == tuple(coeffs(spec, i)[0] for i in range(q))
    if spec.m > 1:
        # lam is the element with coefficient vector (0, 1, 0, ...): index p
        lam = spec.p
        assert coeffs(spec, lam) == (0, 1) + (0,) * (spec.m - 2)
        k, x = 1, lam
        while x != 1:
            x = spec.mul_table[x][lam]
            k += 1
        assert k == q - 1


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
