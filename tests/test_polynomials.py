import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from weightenum import (
    CapacityError,
    EnumeratorPolynomial,
    FieldSpec,
    LinearCode,
    all_codes,
    avg_cjwe_bruteforce,
    census,
    cjwe,
    cwe,
    field_for_q,
    gfold_cjwe,
    macwilliams_transform,
    random_code,
)
from weightenum.polynomials import _FIBER_IMAGES, TRANSFORM_VARIANTS

F2 = FieldSpec(2, 1)
F3 = FieldSpec(3, 1)

REP2 = LinearCode(F2, 2, [(1, 1)])      # {00, 11}
SEL2 = LinearCode(F2, 2, [(0, 1)])      # {00, 01}
ZERO2 = LinearCode(F2, 2, [])
SPAN3 = LinearCode(F3, 2, [(1, 1)])


def test_cwe_examples():
    assert cwe(REP2).terms == {(2, 0): 1, (0, 2): 1}
    assert cwe(LinearCode(F2, 4, [])).terms == {(4, 0): 1}
    assert cwe(SPAN3).terms == {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}


def test_cwe_matches_census():
    for code in all_codes(F3, 2):
        poly = cwe(code)
        cen = census([code])
        assert {e: int(c) for e, c in poly.terms.items()} == cen


def test_cjwe_examples():
    assert cjwe(REP2, REP2).terms == {
        (2, 0, 0, 0): 1,
        (0, 2, 0, 0): 1,
        (0, 0, 2, 0): 1,
        (0, 0, 0, 2): 1,
    }
    assert cjwe(REP2, SEL2).terms == {
        (2, 0, 0, 0): 1,
        (1, 1, 0, 0): 1,
        (0, 0, 2, 0): 1,
        (0, 0, 1, 1): 1,
    }


def test_cjwe_against_zero_code_collapses_to_cwe():
    joint = cjwe(SPAN3, LinearCode(F3, 2, []))
    # only cells (alpha, 0), at indices 3 * alpha, occur; dropping the
    # second index gives the cwe's terms
    assert all(e[i] == 0 for e in joint.terms for i in range(9) if i % 3)
    assert {e[::3]: c for e, c in joint.terms.items()} == cwe(SPAN3).terms


def test_gfold_examples():
    assert gfold_cjwe([SPAN3]) == cwe(SPAN3)
    assert gfold_cjwe([REP2, SEL2]) == cjwe(REP2, SEL2)
    zero = LinearCode(F2, 3, [])
    triple = gfold_cjwe([zero, zero, zero])
    assert triple.terms == {(3, 0, 0, 0, 0, 0, 0, 0): 1}


def test_cjwe_coefficients_are_pair_counts():
    c2 = LinearCode(F3, 2, [(1, 2)])
    poly = cjwe(SPAN3, c2)
    cen = census([SPAN3, c2])
    assert {e: int(c) for e, c in poly.terms.items()} == cen
    assert poly.evaluate_at_ones() == SPAN3.size * c2.size


def test_serialization_round_trip_is_bit_exact():
    for poly in (cwe(SPAN3), cjwe(REP2, SEL2), cwe(LinearCode(F2, 3, []))):
        text = poly.to_text()
        again = EnumeratorPolynomial.from_text(text)
        assert again == poly
        assert again.to_text() == text


def test_serialized_document_shape():
    doc = json.loads(cwe(REP2).to_text())
    assert doc == {
        "fold": 1,
        "q": 2,
        "n": 2,
        "terms": [
            {"exp": [0, 2], "coef": "1/1"},
            {"exp": [2, 0], "coef": "1/1"},
        ],
    }


def test_pretty_rendering():
    text = cwe(REP2).pretty()
    assert "x[0]^2" in text and "x[1]^2" in text
    joint = cjwe(REP2, SEL2).pretty()
    assert "x[0,0]" in joint
    half = cwe(REP2).scale(Fraction(1, 2)).pretty()
    assert "1/2" in half


def test_polynomial_validation():
    with pytest.raises(ValueError):
        EnumeratorPolynomial(F2, 1, 2, {(1,): 1})
    with pytest.raises(ValueError):
        EnumeratorPolynomial(F2, 1, 2, {(1, 0): 1})
    with pytest.raises(ValueError):
        cwe(REP2) + cwe(LinearCode(F2, 3, []))


def test_exponent_cells_must_be_non_negative_ints():
    doc = {"fold": 1, "q": 2, "n": 2, "terms": [{"exp": [1.0, 1.0], "coef": "1/1"}]}
    with pytest.raises(TypeError):
        EnumeratorPolynomial(F2, 1, 2, {(1.0, 1.0): 1})
    with pytest.raises(TypeError):
        EnumeratorPolynomial.from_doc(doc)
    # The header is held to ints too: n = 2.5 is not truncated to 2.
    doc = {"fold": 1, "q": 2, "n": 2.5, "terms": [{"exp": [1, 1], "coef": "1/1"}]}
    with pytest.raises(TypeError):
        EnumeratorPolynomial.from_doc(doc)


def test_bool_exponent_cells_become_ints():
    poly = EnumeratorPolynomial(F2, 1, 2, {(True, True): 1})
    assert [type(e) for e in next(iter(poly.terms))] == [int, int]
    assert json.loads(poly.to_text())["terms"][0]["exp"] == [1, 1]
    assert "true" not in poly.to_text()
    text = '{"fold": 1, "q": 2, "n": 2, "terms": [{"exp": [true, true], "coef": "1/1"}]}'
    assert EnumeratorPolynomial.from_text(text).to_text() == poly.to_text()


def test_negative_exponent_cells_are_rejected():
    text = '{"fold": 1, "q": 2, "n": 2, "terms": [{"exp": [3, -1], "coef": "1/1"}]}'
    with pytest.raises(ValueError, match="negative"):
        EnumeratorPolynomial(F2, 1, 2, {(3, -1): 1})
    with pytest.raises(ValueError, match="negative"):
        EnumeratorPolynomial.from_text(text)


# -- character-sum transforms ---------------------------------------------------


def test_transform_frozen_examples():
    # self-dual first argument: the transform reproduces the enumerator
    base = cjwe(REP2, SEL2)
    out = macwilliams_transform(base, "first", (REP2.size, SEL2.size))
    assert out == base

    # zero against zero, both slots, sizes (1, 1): every character value is 1
    zz = cjwe(ZERO2, ZERO2)
    out = macwilliams_transform(zz, "both", (1, 1))
    full = LinearCode(F2, 2, [(1, 0), (0, 1)])
    assert out == cjwe(full, full)

    # fold-1 analogue: transform of the full-space enumerator is the zero-code one
    full1 = LinearCode(F2, 1, [(1,)])
    out = macwilliams_transform(cwe(full1), "first", (2,))
    assert out == cwe(LinearCode(F2, 1, []))


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_transform_matches_brute_force_duals(q, n):
    spec = field_for_q(q)
    codes = list(all_codes(spec, n))
    for c1 in codes:
        for c2 in codes:
            base = cjwe(c1, c2)
            sizes = (c1.size, c2.size)
            assert macwilliams_transform(base, "first", sizes) == cjwe(c1.dual(), c2)
            assert macwilliams_transform(base, "second", sizes) == cjwe(c1, c2.dual())
            assert macwilliams_transform(base, "both", sizes) == cjwe(c1.dual(), c2.dual())


def test_double_transform_returns_original():
    for c1, c2 in [(REP2, SEL2), (SPAN3, LinearCode(F3, 2, [(1, 2)]))]:
        base = cjwe(c1, c2)
        once = macwilliams_transform(base, "first", (c1.size, c2.size))
        twice = macwilliams_transform(once, "first", (c1.dual().size, c2.size))
        assert twice == base


def test_transform_preserves_homogeneity_and_mass():
    base = cjwe(SPAN3, SPAN3)
    out = macwilliams_transform(base, "both", (3, 3))
    assert all(sum(e) == base.n for e in out.terms)
    assert out == cjwe(SPAN3.dual(), SPAN3.dual())
    assert out.evaluate_at_ones() == SPAN3.dual().size ** 2


def test_capacity_limits():
    from weightenum import CapacityError

    full = LinearCode(F3, 2, [(1, 0), (0, 1)])
    with pytest.raises(CapacityError):
        cjwe(full, full, budget=10)
    with pytest.raises(CapacityError):
        macwilliams_transform(cjwe(REP2, SEL2), "both", (2, 2), budget=3)


def test_transform_argument_validation():
    base = cjwe(REP2, SEL2)
    with pytest.raises(ValueError):
        macwilliams_transform(base, "sideways", (2, 2))
    with pytest.raises(ValueError):
        macwilliams_transform(cwe(REP2), "second", (2, 2))
    with pytest.raises(ValueError):
        macwilliams_transform(base, "both", (2,))
    # Only the dualized slots' sizes are read: "second" ignores size 1.
    assert macwilliams_transform(base, "second", (None, SEL2.size)) == cjwe(REP2, SEL2.dual())
    # Any fold has slots 0 and 1: at g = 3 the passes dualize C1 and/or C2.
    c1, c2, c3 = SPAN3, LinearCode(F3, 2, [(1, 2)]), LinearCode(F3, 2, [(0, 1)])
    triple = gfold_cjwe([c1, c2, c3])
    sizes = (c1.size, c2.size, c3.size)
    assert macwilliams_transform(triple, "first", sizes) == gfold_cjwe([c1.dual(), c2, c3])
    assert macwilliams_transform(triple, "second", sizes) == gfold_cjwe([c1, c2.dual(), c3])
    assert macwilliams_transform(triple, "both", sizes) == gfold_cjwe([c1.dual(), c2.dual(), c3])


# Recorded from the seed kernel, which expanded one q^g-term linear form
# (q^2g terms for "both") per variable: (q, n, k1, k2, seed, averaged base,
# SHA-256 of to_text() for first, second, both).
_FROZEN_TRANSFORMS = [
    (3, 3, 1, 2, 11, False, (
        "52f5d6a1f537625637071d46f50e733f0c5987ef11f9ff94aa03784702504262",
        "505f1db750b580740ce73f5f9892024c197ec5a44cd84081888cd18e48ab3e91",
        "2d28cdf22bdd784971506371988d92ae1792a5a74232312960fd5641ca1fc28e")),
    (3, 3, 1, 1, 12, True, (
        "56e9ec8cd7190077c4768e8708cb3e9d1636e653c771374686136af860863dd1",
        "b967e2079b787773fffbec91970c95ce59615d7fbf1e0f223000d8de892bd9f8",
        "873d4677dcefe0b7ce14cfd4eff0907e77ff61324b207e057a1581efa3c4f24d")),
    (4, 3, 1, 2, 13, False, (
        "88f4921384a31e561b512050e8f0e5b8fc83e894eca5715ea1b21bba6bca01c9",
        "73553d189ff6476732d84ca8a8cb1896ae428e475de0883144cbbee6811066dd",
        "050ad5ae2e19394cb462970f10b659640b7f88f7d7fa515b863ea107ef1b38df")),
    (5, 2, 1, 1, 14, False, (
        "146d4043516211681631b6c07b05a4dc1d4c95fe83254b6c1b827f9eeec90ab7",
        "146d4043516211681631b6c07b05a4dc1d4c95fe83254b6c1b827f9eeec90ab7",
        "5b7a15ce234f206bb718a73140af6b7ffc33ab13dc7080464c9e208f7c768612")),
    (5, 3, 1, 1, 15, False, (
        "cee720707f360e632df9c39c83a6c4da2264fdc346689121ce91b4fac1a8ee16",
        "b6c3cd5dc2c0ace1688311757928ee01833a0493f958c5d85ad4e10f159d7466",
        "8f8e0a1b3c435370cfbf81a0d4c5f9ad90f612d67d39d8239a8ed5001f3e777a")),
    (7, 2, 1, 1, 16, False, (
        "0984ac2c3f90827244cfff95202bb4f2bdbfbe19a8e5019e83e8fd6dfa148744",
        "95577abe27617d2df60cda0ec3a87e84a5ef5e6d3ad96fbcd757530d98ceb734",
        "373fcdc8706bfd92af8fe0150f9990b107e35d0777ecf8eb079c5f7cc21094e0")),
    (8, 2, 1, 1, 17, False, (
        "689dc30504927d3268038e3e97d4745c7818f38a848b9ba42f55c728fb0971fe",
        "689dc30504927d3268038e3e97d4745c7818f38a848b9ba42f55c728fb0971fe",
        "8fc0a2fd0dc6087ec50dc326fe1d105950158a1ce6f8cd95df85c9bfb87227b9")),
    (9, 2, 1, 1, 18, False, (
        "98a22408ad83f198b59e1d59e8972b8f165e9a2d09afe7000b6fca7f43a9fdbd",
        "440a09bae035fd19f937e9aea27f9bc5ab317d9fdbcad866c623423376e07f81",
        "1ff632703a4e52b6967613e7250b225ac6c49785861122d3da26cd76786cdb40")),
]


@pytest.mark.parametrize("q,n,k1,k2,seed,averaged,digests", _FROZEN_TRANSFORMS)
def test_transform_frozen_digests(q, n, k1, k2, seed, averaged, digests):
    spec = field_for_q(q)
    c1, c2 = random_code(spec, n, k1, seed), random_code(spec, n, k2, seed + 1000)
    base = (avg_cjwe_bruteforce if averaged else cjwe)(c1, c2)
    assert averaged == any(c.denominator > 1 for c in base.terms.values())
    for variant, digest in zip(TRANSFORM_VARIANTS, digests):
        text = macwilliams_transform(base, variant, (c1.size, c2.size)).to_text()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, variant


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_transform_every_q(q):
    spec = field_for_q(q)
    rng = random.Random(7000 + q)
    for n in (1, 2):
        c1, c2 = (random_code(spec, n, rng.randrange(n + 1), rng.randrange(2**32)) for _ in "12")
        base = cjwe(c1, c2)
        for variant in TRANSFORM_VARIANTS:
            d1 = c1 if variant == "second" else c1.dual()
            d2 = c2 if variant == "first" else c2.dual()
            got = macwilliams_transform(base, variant, (c1.size, c2.size))
            assert got == cjwe(d1, d2), (q, n, c1.k, c2.k, variant)
            assert got.evaluate_at_ones() == d1.size * d2.size


def _pass_estimate(P, slot):
    """The step estimate one single-slot pass checks, recomputed from the
    exponent tuples: running products of fiber image sizes C(d + q - 1, d),
    fiber expansions, and the unpacking of the bounded output."""
    q, g, n = P.spec.q, P.fold, P.n
    ncells, stride = q**g, q ** (g - 1 - slot)
    m = [math.comb(d + q - 1, d) for d in range(n + 1)]
    steps = images = 0
    shapes = set()
    for e in P.terms:
        size = 1
        for b in range(ncells):
            fiber = e[b:b + q * stride:stride]
            if b // stride % q == 0 and sum(fiber):
                size *= m[sum(fiber)]
                steps += size
                shapes.add(fiber)
        images += size
    steps += sum(q * sum(t) * m[sum(t) - 1] for t in shapes)
    return steps + min(images, math.comb(n + ncells - 1, n)) * ncells


def _both_limit(c1, c2):
    """The budget "both" needs: the larger code's pass runs first (slot 0 on
    a tie), and the second pass is estimated on the first pass's actual
    terms, those of the enumerator with the larger code dualized."""
    if c2.size > c1.size:
        return max(_pass_estimate(cjwe(c1, c2), 1), _pass_estimate(cjwe(c1, c2.dual()), 0))
    return max(_pass_estimate(cjwe(c1, c2), 0), _pass_estimate(cjwe(c1.dual(), c2), 1))


@pytest.mark.parametrize("q,variant", [(2, "first"), (3, "second"), (4, "both"), (5, "both")])
def test_transform_budget_at_its_limit(q, variant):
    spec = field_for_q(q)
    c1, c2 = random_code(spec, 2, 1, q), random_code(spec, 2, 2 if q > 2 else 1, q + 1)
    base, sizes = cjwe(c1, c2), (c1.size, c2.size)
    if variant == "both":
        limit = _both_limit(c1, c2)
    else:
        limit = _pass_estimate(base, TRANSFORM_VARIANTS.index(variant))
    expected = macwilliams_transform(base, variant, sizes)
    assert macwilliams_transform(base, variant, sizes, budget=limit) == expected
    with pytest.raises(CapacityError):
        macwilliams_transform(base, variant, sizes, budget=limit - 1)


def test_both_dualizes_the_larger_code_first():
    # C1 = {0} is the smaller code, so the slot-1 pass runs first and the
    # intermediate is the enumerator of (C1, dual C2), over 8 word pairs,
    # not that of (dual C1, C2), over 512.
    spec = field_for_q(8)
    c1, c2 = LinearCode(spec, 2, []), random_code(spec, 2, 1, 3)
    base, sizes = cjwe(c1, c2), (c1.size, c2.size)
    limit = _both_limit(c1, c2)
    assert limit == max(_pass_estimate(base, 1), _pass_estimate(cjwe(c1, c2.dual()), 0))
    assert limit < _pass_estimate(cjwe(c1.dual(), c2), 1)  # slot 0 first would need this
    expected = cjwe(c1.dual(), c2.dual())
    assert macwilliams_transform(base, "both", sizes, budget=limit) == expected
    with pytest.raises(CapacityError):
        macwilliams_transform(base, "both", sizes, budget=limit - 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_both_passes_commute(q):
    # Swapping the sizes swaps the pass order and keeps the scale.  Dense
    # averaged enumerators (q^n > 81) and fold 3 past q = 5 take seconds.
    spec = field_for_q(q)
    rng = random.Random(8000 + q)
    for n in range(1, 4 if q <= 4 else 3):
        dims = [(0, 1), (1, 0), (1, 1)] + [(1, 2), (2, 1)] * (n == 3)
        for k1, k2 in dims:
            c1, c2, c3 = (random_code(spec, n, k, rng.randrange(2**32)) for k in (k1, k2, 1))
            a, b, c = c1.size, c2.size, c3.size
            cases = [(cjwe(c1, c2), (), cjwe(c1.dual(), c2.dual()))]
            if q**n <= 81:
                expected = avg_cjwe_bruteforce(c1.dual(), c2.dual())
                cases.append((avg_cjwe_bruteforce(c1, c2), (), expected))
            if q <= 5 and n <= 2:
                expected = gfold_cjwe([c1.dual(), c2.dual(), c3])
                cases.append((gfold_cjwe([c1, c2, c3]), (c,), expected))
            for base, rest, expected in cases:
                got = macwilliams_transform(base, "both", (a, b) + rest)
                assert got == macwilliams_transform(base, "both", (b, a) + rest), (n, k1, k2)
                assert got == expected, (n, k1, k2, base.fold)


@pytest.mark.parametrize("sizes", [(0, 9), (3, -3), (2.5, 3)])
def test_transform_rejects_bad_sizes_before_any_work(sizes):
    # A budget of 1 refuses any pass, so the ValueError comes first.
    bad = next(s for s in sizes if not (isinstance(s, int) and s > 0))
    with pytest.raises(ValueError, match=f"got {bad}$"):
        macwilliams_transform(cjwe(SPAN3, SPAN3), "both", sizes, budget=1)


# -- fiber images kept per field ----------------------------------------------


def _stored_terms(spec) -> int:
    return sum(len(img) for s, img in _FIBER_IMAGES[spec][4].items() if s)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_transform_text_is_independent_of_the_fiber_tables(q):
    # The same transforms at fold 2 and 3 with the field's images cleared,
    # stored, and rebuilt at a wider packing.
    spec = field_for_q(q)
    rng = random.Random(2800 + q)
    cases = []
    for g, n in ((2, 2), (3, 1)):
        codes = [random_code(spec, n, rng.randrange(n + 1), rng.randrange(2**32)) for _ in range(g)]
        expected = [
            gfold_cjwe([c.dual() if j in dualized else c for j, c in enumerate(codes)]).to_text()
            for dualized in ((0,), (1,), (0, 1))
        ]
        cases.append((gfold_cjwe(codes), [c.size for c in codes], expected))

    def check(state):
        for base, sizes, expected in cases:
            got = [macwilliams_transform(base, v, sizes).to_text() for v in TRANSFORM_VARIANTS]
            assert got == expected, (base.fold, state)

    _FIBER_IMAGES.clear()
    check("cold")
    width = _FIBER_IMAGES[spec][0]
    check("warm")
    # An averaged base times 2^64 has coefficients far over any above, so
    # for odd p its pass rebuilds the table at a wider packing.
    c1, zero = random_code(spec, 2, 1, q), LinearCode(spec, 2, [])
    wide = avg_cjwe_bruteforce(c1, zero).scale(1 << 64)
    got = macwilliams_transform(wide, "first", (c1.size, 1))
    assert got == avg_cjwe_bruteforce(c1.dual(), zero).scale(1 << 64)
    assert (_FIBER_IMAGES[spec][0] > width) == (spec.p > 2)
    check("wider")


@pytest.mark.parametrize("q,variant", [(2, "first"), (3, "second"), (4, "both"), (5, "both")])
def test_transform_budget_outcome_is_independent_of_the_fiber_tables(q, variant):
    # The limit of test_transform_budget_at_its_limit passes and one less
    # refuses, with the field's images cleared and with them stored.
    spec = field_for_q(q)
    c1, c2 = random_code(spec, 2, 1, q), random_code(spec, 2, 2 if q > 2 else 1, q + 1)
    base, sizes = cjwe(c1, c2), (c1.size, c2.size)
    if variant == "both":
        limit = _both_limit(c1, c2)
    else:
        limit = _pass_estimate(base, TRANSFORM_VARIANTS.index(variant))
    expected = macwilliams_transform(base, variant, sizes)
    for state in ("cold", "warm"):
        if state == "cold":
            _FIBER_IMAGES.clear()
        else:
            macwilliams_transform(avg_cjwe_bruteforce(c1, c2), variant, sizes)
        with pytest.raises(CapacityError):
            macwilliams_transform(base, variant, sizes, budget=limit - 1)
        assert macwilliams_transform(base, variant, sizes, budget=limit) == expected, state


def test_transform_rejects_non_rational_residue_when_warm():
    # The residue of test_transform_rejects_non_rational_residue is still
    # refused with x[1]'s image stored, and after a wider packing.
    bad = EnumeratorPolynomial(F3, 1, 1, {(0, 1, 0): 1})
    _FIBER_IMAGES.clear()
    for _ in range(2):
        with pytest.raises(RuntimeError):
            macwilliams_transform(bad, "first", (1,))
    macwilliams_transform(avg_cjwe_bruteforce(SPAN3, SPAN3), "both", (3, 3))
    assert 1 << 8 in _FIBER_IMAGES[F3][4]
    with pytest.raises(RuntimeError):
        macwilliams_transform(bad, "first", (1,))


def test_fiber_tables_hold_no_more_terms_than_the_last_budget():
    # A large pass stores many images; a pass with a small budget starts
    # the field's table afresh rather than keep them.
    spec = field_for_q(5)
    big = [random_code(spec, 4, 2, s) for s in (1, 2)]
    macwilliams_transform(cjwe(*big), "both", [c.size for c in big])
    small = random_code(spec, 1, 1, 3)
    base = cwe(small)
    limit = _pass_estimate(base, 0)
    assert _stored_terms(spec) > limit
    expected = macwilliams_transform(base, "first", (small.size,))
    assert macwilliams_transform(base, "first", (small.size,), budget=limit) == expected
    assert 0 < _stored_terms(spec) <= limit
    assert _FIBER_IMAGES[spec][5] == _stored_terms(spec)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_transform_is_linear_on_signed_coefficients(q):
    # A difference of enumerators has negative coefficients, which the
    # packed Z[zeta_p] coordinates carry as balanced digits.
    spec = field_for_q(q)
    a = [random_code(spec, 2, k, 40 + k) for k in (0, 1, 2)]
    left, right = cjwe(a[1], a[2]), cjwe(a[0], a[1]).scale(3)
    diff = left + right.scale(-1)
    assert any(c < 0 for c in diff.terms.values())
    for variant in TRANSFORM_VARIANTS:
        sizes = (q**2, q**2)
        expected = macwilliams_transform(left, variant, sizes) + macwilliams_transform(
            right, variant, sizes).scale(-1)
        assert macwilliams_transform(diff, variant, sizes) == expected


def test_transform_degree_at_the_byte_limit():
    # Exponents are packed one byte per cell: 255 is the largest degree.
    n = 255
    base = EnumeratorPolynomial(F2, 2, n, {(n, 0, 0, 0): 1})
    first = {(n - k, 0, k, 0): math.comb(n, k) for k in range(n + 1)}
    second = {(n - k, k, 0, 0): math.comb(n, k) for k in range(n + 1)}
    assert macwilliams_transform(base, "first", (1, 1)).terms == first
    assert macwilliams_transform(base, "second", (1, 1)).terms == second
    over = EnumeratorPolynomial(F2, 2, n + 1, {(n + 1, 0, 0, 0): 1})
    with pytest.raises(CapacityError):
        macwilliams_transform(over, "first", (1, 1))


def test_transform_rejects_non_rational_residue():
    # x[1] alone is no enumerator: its image x[0] + zeta x[1] + zeta^2 x[2]
    # is not rational, which the pass reports instead of truncating.
    with pytest.raises(RuntimeError):
        macwilliams_transform(EnumeratorPolynomial(F3, 1, 1, {(0, 1, 0): 1}), "first", (1,))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_transform_fold_three(q):
    spec = field_for_q(q)
    rng = random.Random(900 + q)
    for n in (1, 2):
        codes = [random_code(spec, n, rng.randrange(n + 1), rng.randrange(2**32)) for _ in "123"]
        base = gfold_cjwe(codes)
        sizes = [c.size for c in codes]
        for variant, dualized in (("first", (0,)), ("second", (1,)), ("both", (0, 1))):
            expected = gfold_cjwe([c.dual() if j in dualized else c for j, c in enumerate(codes)])
            assert macwilliams_transform(base, variant, sizes) == expected
