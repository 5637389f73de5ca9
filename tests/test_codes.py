import hashlib
import inspect
import itertools
import random
import re

import pytest

from weightenum import (
    CapacityError,
    CodeFileError,
    FieldSpec,
    LinearCode,
    MonomialMatrix,
    all_codes,
    apply_monomial_code,
    field_for_q,
    format_code_file,
    monomial_group,
    monomial_group_order,
    parse_code_file,
    random_code,
)

from weightenum.codes import _rref, code_at, code_count, monomial_at

from helpers import brute_dual_words, code_words, reference_rref, subspace_count

F2 = FieldSpec(2, 1)
F3 = FieldSpec(3, 1)


def test_rref_canonicalization():
    a = LinearCode(F2, 3, [(1, 1, 0), (0, 1, 1)])
    b = LinearCode(F2, 3, [(0, 1, 1), (1, 1, 0), (1, 0, 1)])  # dependent extra row
    assert a == b
    assert a.k == 2
    assert a.generators == ((1, 0, 1), (0, 1, 1))


def test_codeword_enumeration_examples():
    assert code_words(LinearCode(F2, 2, [(1, 1)])) == {(0, 0), (1, 1)}
    assert code_words(LinearCode(F3, 2, [(1, 1)])) == {(0, 0), (1, 1), (2, 2)}
    zero = LinearCode(F3, 4, [])
    assert code_words(zero) == {(0, 0, 0, 0)}
    full = LinearCode(F2, 2, [(1, 0), (0, 1)])
    assert full.size == 4 and len(code_words(full)) == 4


def test_codeword_order_is_deterministic():
    code = LinearCode(F3, 2, [(1, 0), (0, 1)])
    assert list(code.codewords()) == list(code.codewords())
    assert list(code.codewords())[0] == (0, 0)


def test_dual_frozen_examples():
    rep3 = LinearCode(F2, 3, [(1, 1, 1)])
    assert rep3.dual().generators == ((1, 0, 1), (0, 1, 1))
    self_dual = LinearCode(F2, 2, [(1, 1)])
    assert self_dual.dual() == self_dual
    full = LinearCode(F3, 2, [(1, 0), (0, 1)])
    assert full.dual().k == 0
    assert LinearCode(F3, 2, []).dual() == full


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_dual_against_brute_oracle(q, n):
    spec = field_for_q(q)
    for code in all_codes(spec, n):
        assert code_words(code.dual()) == brute_dual_words(code)


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_double_dual_and_size_product(q, n):
    spec = field_for_q(q)
    for code in all_codes(spec, n):
        assert code.dual().dual() == code
        assert code.size * code.dual().size == q**n


def test_dual_is_memoized_but_the_double_dual_is_recomputed():
    for code in all_codes(F3, 2):
        d = code.dual()
        assert code.dual() is d
        # The dual is never linked back to its code, so the double-dual
        # identity above compares a freshly computed code.
        assert d.dual() == code
        assert d.dual() is not code
        assert d.dual() is d.dual()


def test_apply_monomial_examples():
    ident = MonomialMatrix(F3, 2, (0, 1), (1, 1))
    assert ident.apply((1, 2)) == (1, 2)
    swap = MonomialMatrix(F3, 2, (1, 0), (1, 1))
    assert swap.apply((1, 2)) == (2, 1)
    scale = MonomialMatrix(F3, 2, (0, 1), (2, 2))
    assert scale.apply((1, 2)) == (2, 1)  # 2*2 = 4 = 1 mod 3


def test_apply_monomial_code_examples():
    c = LinearCode(F3, 2, [(1, 1)])
    ident = MonomialMatrix(F3, 2, (0, 1), (1, 1))
    assert apply_monomial_code(c, ident) == c
    scale = MonomialMatrix(F3, 2, (0, 1), (1, 2))
    assert apply_monomial_code(c, scale) == LinearCode(F3, 2, [(1, 2)])
    for M in monomial_group(F3, 2):
        assert apply_monomial_code(apply_monomial_code(c, M), M.inverse()) == c


def test_monomial_validation():
    with pytest.raises(ValueError):
        MonomialMatrix(F3, 2, (0, 0), (1, 1))
    with pytest.raises(ValueError):
        MonomialMatrix(F3, 2, (0, 1), (0, 1))
    M = MonomialMatrix(F3, 2, (0, 1), (1, 1))
    with pytest.raises(ValueError):
        M.apply((1, 2, 0))


def test_monomial_entries_must_be_integers():
    with pytest.raises(ValueError, match=re.escape("0.0")):
        MonomialMatrix(F3, 2, (0.0, 1), (1, 2))
    with pytest.raises(ValueError, match=re.escape("2.0")):
        MonomialMatrix(F3, 2, (0, 1), (1, 2.0))
    with pytest.raises(ValueError, match=re.escape("'1'")):
        MonomialMatrix(F3, 2, (0, 1), ("1", 2))
    M = MonomialMatrix(F3, 2, (True, False), (True, 2))
    assert (M.perm, M.diag) == ((1, 0), (1, 2))
    assert M.apply((1, 2)) == (2, 2)


def test_monomial_group_sizes():
    assert len(list(monomial_group(F2, 2))) == 2
    assert len(list(monomial_group(F3, 2))) == 8
    assert len(list(monomial_group(F3, 3))) == 48
    assert monomial_group_order(F3, 3) == 48
    with pytest.raises(CapacityError):
        list(monomial_group(F3, 3, budget=10))


def test_monomial_group_action_laws():
    # composing matrices matches composing actions, for every pair
    group = list(monomial_group(F3, 2))
    words = [(0, 1), (2, 2), (1, 0)]
    for m1 in group:
        for m2 in group:
            comp = m1.then(m2)
            for u in words:
                assert m2.apply(m1.apply(u)) == comp.apply(u)
    for m in group:
        assert m.then(m.inverse()) == MonomialMatrix(F3, 2, (0, 1), (1, 1))


def test_monomial_inverse_is_built_once_and_hidden():
    # The inverse is kept on the matrix; equality, hashing and repr ignore it.
    m = MonomialMatrix(F3, 3, (1, 2, 0), (2, 1, 2))
    fresh = MonomialMatrix(F3, 3, (1, 2, 0), (2, 1, 2))
    inv = m.inverse()
    assert m.inverse() is inv and inv.then(m) == MonomialMatrix(F3, 3, (0, 1, 2), (1, 1, 1))
    assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh)
    assert repr(m) == "MonomialMatrix(spec=%r, n=3, perm=(1, 2, 0), diag=(2, 1, 2))" % F3


def test_code_file_round_trip():
    code = LinearCode(F3, 2, [(1, 1)])
    text = format_code_file(code)
    assert text == "field p=3 m=1\nn=2\ngen 1 1\n"
    assert parse_code_file(text) == code
    f4 = FieldSpec(2, 2)
    code4 = LinearCode(f4, 3, [(1, 2, 3)])
    text4 = format_code_file(code4)
    assert "poly=1,1,1" in text4
    assert parse_code_file(text4) == code4


def test_code_file_comments_and_blank_lines():
    text = "# a comment\n\nfield p=2 m=1\n# another\nn=2\ngen 1 1\n"
    assert parse_code_file(text) == LinearCode(F2, 2, [(1, 1)])


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("n=2\ngen 1 1\n", "line 1"),
        ("field p=2 m=1\ngen 1 1\n", "line 2"),
        ("field p=2\nn=2\n", "line 1"),
        ("field p=2 m=1\nn=2\ngen 1\n", "line 3"),
        ("field p=2 m=1\nn=2\ngen 1 2\n", "line 3"),
        ("field p=2 m=1\nn=2\nrow 1 1\n", "line 3"),
        ("field p=4 m=1\nn=2\n", "line 1"),
        ("field p=3 m=1 poly=9,9,9\nn=2\n", "line 1: the prime field F_3 takes no"),
        ("", "line 1"),
    ],
)
def test_code_file_errors_carry_line_numbers(text, fragment):
    with pytest.raises(CodeFileError) as err:
        parse_code_file(text)
    assert fragment in str(err.value)


def test_code_files_share_the_field_of_one_field_line():
    text = "field p=2 m=2 poly=1,1,1\nn=2\ngen 1 2\n"
    a, b = parse_code_file(text), parse_code_file("# again\n" + text)
    assert a == b and a.spec is b.spec
    assert parse_code_file("field p=3 m=1\nn=1\n").spec is parse_code_file("field p=3 m=1\nn=2\n").spec
    # A bad poly= is refused with its line number on every parse, not kept.
    for _ in range(2):
        with pytest.raises(CodeFileError, match="line 2: .*reducible"):
            parse_code_file("# x^2 + 1\nfield p=2 m=2 poly=1,0,1\nn=2\n")


@pytest.mark.parametrize("n,error,message", [
    (0, ValueError, "code length must be positive, got 0"),
    (-3, ValueError, "code length must be positive, got -3"),
    (17, CapacityError, "code length 17 exceeds the cap 16"),
])
def test_built_codes_check_their_length(n, error, message):
    for build in (lambda: LinearCode(F2, n), lambda: LinearCode._from_rref(F2, n, ())):
        with pytest.raises(error, match=message):
            build()
    code = LinearCode._from_rref(F2, 3, ((1, 0, 1),))
    assert (code.n, code.k, code.size, code.dual().k) == (3, 1, 2, 2)


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2)])
def test_all_codes_counts(q, n):
    spec = field_for_q(q)
    codes = list(all_codes(spec, n))
    assert len(codes) == subspace_count(n, q)
    assert len(set(codes)) == len(codes)


# sha256 of repr([c.generators for c in all_codes(spec, n)]), taken from the
# nested-loop listing that all_codes was before it read each code through
# code_at: the pool order the sweeps' seeded draws index is pinned.
CODE_ORDER_DIGESTS = [
    (2, 1, "c14f40195e51b3bb2d00d4fcc8be4b54326c0f71c2beb8a8d1d1910f5718f26a"),
    (2, 2, "deb087604e8d7e9be4499c6129ee45e67180bc001d015458c44d9c1d08169346"),
    (2, 3, "b5b51dc356aff55b93b16017e521c60636b72429995f38c74e48e35ae82fda1e"),
    (2, 4, "d7cff1424c52de31878364b50fa3bf2cb4b78d41164dafa7aaf565d6ae7d8f93"),
    (2, 5, "16450a4990fe0b8c410d7b9f58fa8075992820aca45ce36d62325d81c1570093"),
    (2, 6, "f0fb3566db9908a47a582a5da00ec40683d16c04d9213ce234cbb04fa3f5d61f"),
    (3, 1, "c14f40195e51b3bb2d00d4fcc8be4b54326c0f71c2beb8a8d1d1910f5718f26a"),
    (3, 2, "962bed68a84a207100fbc7e22abb88b08cd21044dac7bacccf8165ec02a6679a"),
    (3, 3, "27f633d8a8e8be7a547cec0396bd714ec087ea073bbf7a4d218a51b1f803bb11"),
    (3, 4, "80a4ffb7ed4a1617ede38526c884fb1e65f360fb223f5ae552328d145a4caf59"),
    (4, 1, "c14f40195e51b3bb2d00d4fcc8be4b54326c0f71c2beb8a8d1d1910f5718f26a"),
    (4, 2, "a3fa376e6defa9c84463e67f8291383eaf20b663d730a786e7de7384ad3077f6"),
    (4, 3, "3a6d8e0f46164010aed9d68fb1818e47eacadaa46806e168cdc9cba5d03a2890"),
    (5, 1, "c14f40195e51b3bb2d00d4fcc8be4b54326c0f71c2beb8a8d1d1910f5718f26a"),
    (5, 2, "d9a2845e9f23b4eb15937a24482d721bdf41b0c5a08ac688092edeeed76876d9"),
    (5, 3, "08017b6c0869c5fb20415a93ba65da636e8e6456fee6b945d0539c1910abf942"),
    (7, 1, "c14f40195e51b3bb2d00d4fcc8be4b54326c0f71c2beb8a8d1d1910f5718f26a"),
    (7, 2, "056b7bebb95e80e8b004d2388b55b641f0f8cfb79bde9e80c40f2247b7c4c306"),
    (8, 1, "c14f40195e51b3bb2d00d4fcc8be4b54326c0f71c2beb8a8d1d1910f5718f26a"),
    (8, 2, "bf96d0220c7e7f9ef708aa693af502766e972d9d2cdb0c9e9f07d3a90bc56d83"),
    (9, 1, "c14f40195e51b3bb2d00d4fcc8be4b54326c0f71c2beb8a8d1d1910f5718f26a"),
    (9, 2, "740eaf5a9a57da719692b35384a63a936ca3309b2212f7e88117a4bf227c445b"),
    (11, 1, "c14f40195e51b3bb2d00d4fcc8be4b54326c0f71c2beb8a8d1d1910f5718f26a"),
    (11, 2, "89e441e078ba415641e24e1afa15f047c9af2a3591af7c8d6f1ef0b711584996"),
    (13, 1, "c14f40195e51b3bb2d00d4fcc8be4b54326c0f71c2beb8a8d1d1910f5718f26a"),
    (13, 2, "98314a97461c53140ebcfb8d011b5a517a9361b37e1bf8016a2dbb617ef89723"),
    (16, 1, "c14f40195e51b3bb2d00d4fcc8be4b54326c0f71c2beb8a8d1d1910f5718f26a"),
    (16, 2, "8a3eab723cb344a58483510f61f9b09f448ba6453bc55a02f4ebafde0d788bae"),
]


@pytest.mark.parametrize("q,n,digest", CODE_ORDER_DIGESTS)
def test_code_order_is_pinned_and_code_at_reads_it(q, n, digest):
    spec = field_for_q(q)
    listed = list(all_codes(spec, n))
    assert hashlib.sha256(repr([c.generators for c in listed]).encode()).hexdigest() == digest
    assert [code_at(spec, n, j) for j in range(len(listed))] == listed
    for j in (-1, code_count(spec, n)):
        with pytest.raises(IndexError):
            code_at(spec, n, j)


def test_code_at_reaches_both_ends_of_the_largest_pools():
    for q in (2, 16):
        spec = field_for_q(q)
        last = code_count(spec, 16) - 1
        assert code_at(spec, 16, 0) == LinearCode(spec, 16, [])
        assert code_at(spec, 16, last).k == 16
        with pytest.raises(IndexError):
            code_at(spec, 16, last + 1)


@pytest.mark.parametrize("q,n", [(q, n) for q in (2, 3, 4) for n in (1, 2, 3)] + [(2, 5)])
def test_pool_codes_are_built_in_rref(q, n):
    # code_at hands its rows to LinearCode as they are, without reducing
    # them, so they must already be the rref the checked path computes.
    spec = field_for_q(q)
    for code in all_codes(spec, n):
        assert _rref(spec, code.generators, n) == code.generators


def test_code_count_matches_the_gaussian_binomials():
    # The summed Gaussian binomials against the helpers' product formula, at
    # every field and length.
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        spec = field_for_q(q)
        assert [code_count(spec, n) for n in range(1, 17)] == [
            subspace_count(n, q) for n in range(1, 17)
        ]


def test_random_code_determinism():
    a = random_code(F3, 4, 2, seed=7)
    b = random_code(F3, 4, 2, seed=7)
    assert a == b and a.k == 2
    assert random_code(F3, 4, 2, seed=8) != a or True  # different seed may differ
    assert random_code(F3, 3, 0, seed=1).k == 0
    full = random_code(F2, 3, 3, seed=1)
    assert full.generators == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(ValueError):
        random_code(F2, 2, 3, seed=0)


def test_length_caps():
    with pytest.raises(ValueError):
        LinearCode(F2, 0, [])
    with pytest.raises(CapacityError):
        LinearCode(F2, 17, [])
    with pytest.raises(ValueError):
        LinearCode(F2, 2, [(1, 1, 1)])
    with pytest.raises(ValueError):
        LinearCode(F2, 2, [(1, 2)])


@pytest.mark.parametrize("entry", [1.5, "1", None, 2.0])
def test_generator_entries_must_be_integers(entry):
    with pytest.raises(ValueError, match=re.escape(repr(entry))):
        LinearCode(F3, 2, [[entry, 0]])


def test_bool_generator_entries_read_as_0_and_1():
    code = LinearCode(F3, 2, [[True, False], [False, True]])
    assert code.generators == ((1, 0), (0, 1))
    assert {type(e) for row in code.generators for e in row} == {int}


def test_rows_may_be_a_one_shot_iterable():
    assert LinearCode(F3, 2, (row for row in [(1, 1)])).generators == ((1, 1),)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_rref_matches_the_reference(q):
    # Random matrices with zero, repeated and dependent rows, and more rows
    # than columns, against the plain elimination kept in the helpers.
    spec = field_for_q(q)
    add, mul = spec.add_table, spec.mul_table
    rng = random.Random(q)
    for _ in range(400):
        n = rng.randint(1, 6)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(rng.randint(0, n + 2))]
        if rows and rng.random() < 0.3:
            rows.insert(rng.randrange(len(rows) + 1), [0] * n)
        if rows and rng.random() < 0.3:
            rows.append(list(rng.choice(rows)))
        if len(rows) >= 2 and rng.random() < 0.4:
            a, b, c = rng.choice(rows), rng.choice(rows), rng.randrange(q)
            rows.append([add[x][mul[c][y]] for x, y in zip(a, b)])
        rng.shuffle(rows)
        assert _rref(spec, rows, n) == reference_rref(spec, rows, n), (q, rows)


def test_canonical_keyword_is_gone():
    assert list(inspect.signature(LinearCode.__init__).parameters) == ["self", "spec", "n", "rows"]
    with pytest.raises(TypeError):
        LinearCode(F2, 2, [(1, 1)], _canonical=True)


def _same_code(built, checked):
    # Equal, and indistinguishable: int tuples, the same k, hash and repr.
    assert built == checked and hash(built) == hash(checked) and repr(built) == repr(checked)
    assert type(built.generators) is tuple
    assert all(type(row) is tuple and {type(e) for e in row} <= {int} for row in built.generators)


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (4, 2), (5, 1), (2, 4)])
def test_built_codes_equal_the_checked_constructor(q, n):
    # Pool codes, duals and monomial images skip the row checks; each must
    # be the code the public constructor makes of the same rows.
    spec = field_for_q(q)
    group = list(monomial_group(spec, n))
    for code in all_codes(spec, n):
        _same_code(code, LinearCode(spec, n, code.generators))
        _same_code(code.dual(), LinearCode(spec, n, sorted(brute_dual_words(code))))
        for M in group:
            rows = [M.apply(row) for row in code.generators]
            _same_code(apply_monomial_code(code, M), LinearCode(spec, n, rows))


@pytest.mark.parametrize("q,n", [(2, 5), (3, 3), (4, 2), (9, 3), (16, 2)])
def test_random_and_parsed_codes_equal_the_checked_constructor(q, n):
    spec = field_for_q(q)
    for k in range(n + 1):
        for seed in range(5):
            # The draw order: k rows of n entries, redrawn until independent.
            rng = random.Random(seed)
            while True:
                rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
                checked = LinearCode(spec, n, rows)
                if checked.k == k:
                    break
            code = random_code(spec, n, k, seed)
            _same_code(code, checked)
            _same_code(parse_code_file(format_code_file(code)), checked)
    # A file's rows are reduced as the public constructor reduces them.
    rows = [[1] * n, [0] * n, [1] * n]
    text = format_code_file(LinearCode(spec, n, [])) + "".join(
        "gen " + " ".join(map(str, row)) + "\n" for row in rows)
    _same_code(parse_code_file(text), LinearCode(spec, n, rows))


@pytest.mark.parametrize("q,n", [(q, n) for q in (2, 3, 4, 5) for n in (1, 2, 3, 4)])
def test_monomial_group_order_is_pinned(q, n):
    # Diagonals in index order outer, permutations in lexicographic order
    # inner, listed here by nested loops; monomial_group walks that order and
    # monomial_at(spec, n, j) decodes its j-th matrix.
    spec = field_for_q(q)
    expected = [
        (perm, diag)
        for diag in itertools.product(range(1, q), repeat=n)
        for perm in itertools.permutations(range(n))
    ]
    assert [(M.perm, M.diag) for M in monomial_group(spec, n)] == expected
    at = [monomial_at(spec, n, j) for j in range(len(expected))]
    assert [(M.perm, M.diag) for M in at] == expected
