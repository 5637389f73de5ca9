import hashlib
import itertools
import math
import operator
import random
import time
from fractions import Fraction

import pytest

from weightenum import (
    AverageReport,
    CapacityError,
    FieldSpec,
    LinearCode,
    MonomialMatrix,
    all_codes,
    avg_cjwe_bruteforce,
    avg_cjwe_closedform,
    avg_gfold_bruteforce,
    avg_gfold_closedform,
    avg_macwilliams,
    census,
    check_lemma31,
    check_lemma42,
    cjwe,
    compare,
    cwe,
    field_for_q,
    gfold_cjwe,
    macwilliams_transform,
    monomial_group,
    monomial_group_order,
    random_code,
)

from weightenum import averages, run_claim
from weightenum.averages import lemma42_results

from helpers import literal_closed_form, literal_group_average, literal_lemma42

F2 = FieldSpec(2, 1)
F3 = FieldSpec(3, 1)

REP2 = LinearCode(F2, 2, [(1, 1)])
SEL2 = LinearCode(F2, 2, [(0, 1)])
SPAN3 = LinearCode(F3, 2, [(1, 1)])
ZERO3 = LinearCode(F3, 2, [])


def test_avg_bruteforce_frozen_examples():
    # permutation-invariant first code: the average is the plain enumerator
    avg = avg_cjwe_bruteforce(REP2, SEL2)
    assert avg.terms == {
        (2, 0, 0, 0): 1,
        (1, 1, 0, 0): 1,
        (0, 0, 2, 0): 1,
        (0, 0, 1, 1): 1,
    }
    # the 8-matrix oracle over F_3 with a zero second code
    avg3 = avg_cjwe_bruteforce(SPAN3, ZERO3)
    assert avg3.terms == {
        (2, 0, 0, 0, 0, 0, 0, 0, 0): 1,
        (0, 0, 0, 2, 0, 0, 0, 0, 0): Fraction(1, 2),
        (0, 0, 0, 0, 0, 0, 2, 0, 0): Fraction(1, 2),
        (0, 0, 0, 1, 0, 0, 1, 0, 0): 1,
    }
    # zero first code is fixed by every monomial matrix
    zero_first = avg_cjwe_bruteforce(ZERO3, SPAN3)
    from weightenum import cjwe

    assert zero_first == cjwe(ZERO3, SPAN3)


def test_avg_closedform_frozen_examples():
    closed = avg_cjwe_closedform(REP2, SEL2)
    assert closed == avg_cjwe_bruteforce(REP2, SEL2)
    closed3 = avg_cjwe_closedform(SPAN3, ZERO3)
    assert closed3.terms == {
        (2, 0, 0, 0, 0, 0, 0, 0, 0): 1,
        (0, 0, 0, 2, 0, 0, 0, 0, 0): 1,
        (0, 0, 0, 0, 0, 0, 2, 0, 0): 1,
    }
    zero_pair = avg_cjwe_closedform(LinearCode(F3, 3, []), LinearCode(F3, 3, []))
    assert zero_pair.terms == {(3,) + (0,) * 8: 1}


def test_compare_reports():
    closed3 = avg_cjwe_closedform(SPAN3, ZERO3)
    brute3 = avg_cjwe_bruteforce(SPAN3, ZERO3)
    report = compare(closed3, brute3)
    assert not report.agreed
    exps = [exp for exp, _, _ in report.differences]
    assert exps == sorted(exps)
    assert len(report.differences) == 3

    same = compare(brute3, brute3)
    assert same.agreed and not same.differences

    ok = compare(avg_cjwe_closedform(REP2, SEL2), avg_cjwe_bruteforce(REP2, SEL2))
    assert ok.agreed

    with pytest.raises(ValueError):
        compare(brute3, avg_cjwe_bruteforce(REP2, SEL2))


def test_compare_difference_values():
    report = compare(
        avg_cjwe_closedform(SPAN3, ZERO3), avg_cjwe_bruteforce(SPAN3, ZERO3)
    )
    diffs = {exp: (l, r) for exp, l, r in report.differences}
    assert diffs[(0, 0, 0, 2, 0, 0, 0, 0, 0)] == (Fraction(1), Fraction(1, 2))
    assert diffs[(0, 0, 0, 0, 0, 0, 2, 0, 0)] == (Fraction(1), Fraction(1, 2))
    assert diffs[(0, 0, 0, 1, 0, 0, 1, 0, 0)] == (Fraction(0), Fraction(1))


def _sorted_union_walk(left, right):
    """The comparison walk before it skipped agreeing exponents: every
    exponent of either side, sorted, kept where the coefficients differ."""
    zero = Fraction(0)
    diffs = []
    for e in sorted(set(left.terms) | set(right.terms)):
        lv, rv = left.terms.get(e, zero), right.terms.get(e, zero)
        if lv != rv:
            diffs.append((e, lv, rv))
    return diffs


def test_compare_matches_sorted_union_walk():
    diverged = 0
    for seed in range(8):
        codes = _seeded_codes(3, 3, 2 + seed % 2, 500 + seed)
        closed, brute = avg_gfold_closedform(codes), avg_gfold_bruteforce(codes)
        for left, right in ((closed, brute), (brute, closed), (brute, brute)):
            report = compare(left, right)
            old = _sorted_union_walk(left, right)
            assert report.differences == old
            assert report.to_text() == AverageReport(old, not old).to_text()
        diverged += not compare(closed, brute).agreed
    assert diverged >= 2


def test_gfold_brute_examples():
    assert avg_gfold_bruteforce([SPAN3, ZERO3]) == avg_cjwe_bruteforce(SPAN3, ZERO3)
    full = LinearCode(F2, 2, [(1, 0), (0, 1)])
    assert avg_gfold_bruteforce([full]) == cwe(full)
    zero2 = LinearCode(F2, 2, [])
    triple = avg_gfold_bruteforce([REP2, zero2, zero2])
    assert triple.terms == {
        (2, 0, 0, 0, 0, 0, 0, 0): 1,
        (0, 0, 0, 0, 2, 0, 0, 0): 1,
    }


def test_gfold_closed_examples():
    assert avg_gfold_closedform([SPAN3, ZERO3]) == avg_cjwe_closedform(SPAN3, ZERO3)
    zero2 = LinearCode(F2, 2, [])
    triple = avg_gfold_closedform([REP2, zero2, zero2])
    assert triple == avg_gfold_bruteforce([REP2, zero2, zero2])
    zeros = avg_gfold_closedform([zero2, zero2, zero2])
    assert zeros.terms == {(2, 0, 0, 0, 0, 0, 0, 0): 1}


def _seeded_codes(q, g, n, seed):
    spec = field_for_q(q)
    rng = random.Random(seed)
    return [random_code(spec, n, rng.randrange(1, n + 1), rng.randrange(2**32)) for _ in range(g)]


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_closedform_mass_every_q(q, g):
    n = random.Random(q * 10 + g).randint(1, 3 if q**g <= 64 else 2 if q**g <= 729 else 1)
    codes = _seeded_codes(q, g, n, q * 10 + g)
    avg = avg_gfold_closedform(codes)
    assert avg.evaluate_at_ones() == math.prod(c.size for c in codes)


@pytest.mark.parametrize(
    "q,g,n,seed,digest",
    [
        (3, 2, 3, 1, "739650883f4ce6e8e95e4248596323c869e7cfab445412dce2df6d44ce47df54"),
        (3, 3, 3, 2, "174520ab1486539c2c89bc0c4ffd5674ff70ae9e9b74b232b4e0ddc6c0cd7476"),
        (4, 2, 3, 3, "bbe0020568f205e9602e7b25ba2777db04b2b0c2831c6b942211ec463a290851"),
        (4, 3, 2, 4, "362a3c977501351e2030bcbc9fecf4db8b3efb8bfa567470857fafff5788e400"),
        (5, 2, 3, 5, "19cd3280c74e27c8efa8c7c3964aab3f51289fd753d59f6264fcf4450f257ced"),
        (5, 3, 2, 6, "dee99b892ea59abc468915841ec851f59710653f61f57d1b81ec41097c749d32"),
    ],
)
def test_closedform_frozen_digests(q, g, n, seed, digest):
    # Recorded from the dense walk over every composition of n into q^g
    # cells.  The three g = 3 tuples differ from brute force (q > 2), so
    # this also pins the reported divergences.
    text = avg_gfold_closedform(_seeded_codes(q, g, n, seed)).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_closedform_budget_counts_tables():
    f9 = field_for_q(9)
    lines = [LinearCode(f9, 2, [(1, a)]) for a in (1, 2, 5)]
    assert avg_gfold_closedform(lines).evaluate_at_ones() == 729
    full = LinearCode(f9, 2, [(1, 0), (0, 1)])
    with pytest.raises(CapacityError):
        avg_gfold_closedform([full, full, full])


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_closedform_matches_literal_composition_walk(q, g):
    # The longest n <= 3 whose walk over the compositions of n into q^g
    # cells stays small.
    n = next(n for n in (3, 2, 1) if math.comb(n + q**g - 1, n) <= 20000)
    codes = _seeded_codes(q, g, n, q * 100 + g)
    assert avg_gfold_closedform(codes).terms == literal_closed_form(codes)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_kernel_results_share_equal_coefficients(q):
    # Every kernel builds one Fraction per distinct coefficient.
    spec = field_for_q(q)
    codes = [random_code(spec, 2, k, 70 + q) for k in (1, 2)]
    base = gfold_cjwe(codes)
    results = [base, avg_gfold_bruteforce(codes), avg_gfold_closedform(codes),
               macwilliams_transform(base, "first", [c.size for c in codes])]
    for poly in results:
        coefs = list(poly.terms.values())
        assert len(set(coefs)) < len(coefs)
        assert len(set(map(id, coefs))) == len(set(coefs))


@pytest.mark.parametrize("q,g,n,seed", [(3, 3, 3, 2), (4, 3, 3, 1), (2, 2, 6, 3)])
def test_closedform_lists_each_shape_once(monkeypatch, q, g, n, seed):
    # A shape is (nonzero row sums, nonzero column sums); every pair
    # (s1, tail) of that shape shares one listing of its tables.
    codes = _seeded_codes(q, g, n, seed)
    listed = []
    margin_tables = averages._margin_tables

    def counting(row_sums, col_sums, fact):
        listed.append((tuple(row_sums), tuple(col_sums)))
        return margin_tables(row_sums, col_sums, fact)

    monkeypatch.setattr(averages, "_margin_tables", counting)
    assert avg_gfold_closedform(codes).terms == literal_closed_form(codes)
    heads, tails = census(codes[:1]), census(codes[1:])
    shapes = {(tuple(filter(None, s1)), tuple(filter(None, t))) for s1 in heads for t in tails}
    assert sorted(listed) == sorted(shapes)
    assert len(listed) < len(heads) * len(tails)


def test_closedform_of_a_full_space_triple_is_fast():
    # 27,027 pairs (s1, tail) of 176 shapes give 169,911 terms; the text is
    # the one the per-pair listing wrote.
    spec = field_for_q(3)
    full = LinearCode(spec, 5, [tuple(int(i == j) for j in range(5)) for i in range(5)])
    start = time.perf_counter()
    avg = avg_gfold_closedform([full, full, full])
    assert time.perf_counter() - start < 1.0
    assert len(avg.terms) == 169911
    digest = "deecec63324394adc8da7a67e5c98bc2e39762cf5d0b749316e2ce7879bbf287"
    assert hashlib.sha256(avg.to_text().encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "q,g,n,seed,digest",
    [
        (3, 1, 4, 1, "89c638bd9ce2c05be9e83c6f28439a4d7b4bfc591ad9120860a36321abf02f57"),
        (3, 2, 6, 2, "b572cf1ce3079dc0db95e77db6cbc06cdc1ba20c7bc882f2699aa1dd6ca57d66"),
        (4, 2, 3, 3, "bbe0020568f205e9602e7b25ba2777db04b2b0c2831c6b942211ec463a290851"),
        (5, 3, 2, 5, "53640e9a5febc333da6cb44729f9ba4f8c7b91ae938d008ee1108b0748a1ffd6"),
        (7, 2, 2, 6, "ce895ada933bc6b4ab704be459b13d6daaf126c4ba8d271186fd3726e9d073cf"),
        (8, 3, 1, 7, "db8956dd245d0962272f16e8c59932a3a493b35e425fe5bfde9d24371365be5e"),
        (8, 2, 2, 7, "4f043c50717cd8baa11b3244134a258a785ea572ba1de28ac43a8c425574d4e2"),
        (9, 2, 2, 8, "b3674306b4f8e3c941eb3bbf3d5493606e35b1918bbadf2da5d95aec24c3f5ab"),
        (9, 1, 2, 9, "04f88fd3990eb449fc2c260471a723cb541f86f7aec2eb4392934856487c4a48"),
    ],
)
def test_bruteforce_frozen_digests(q, g, n, seed, digest):
    # Recorded from the sum that applied every monomial matrix to every
    # first-code word in turn.  (3, 2, 6, 2) has the shape of the heaviest
    # average-workload pairs.
    text = avg_gfold_bruteforce(_seeded_codes(q, g, n, seed)).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_bruteforce_matches_literal_group_walk(q, g):
    # The longest n <= 3, over four seeds, whose group walk stays small.
    for n, seed in itertools.product((3, 2, 1), range(4)):
        codes = _seeded_codes(q, g, n, q * 100 + g * 10 + seed)
        walk = monomial_group_order(codes[0].spec, n) * math.prod(c.size for c in codes)
        if walk <= 20000:
            break
    assert avg_gfold_bruteforce(codes).terms == literal_group_average(codes)


@pytest.mark.parametrize(
    "q,n,dims",
    [(2, 5, (2, 2)), (2, 6, (2, 2)), (3, 4, (2, 1)), (3, 5, (1, 1)), (3, 4, (0, 2)), (3, 1, (1, 1))],
)
def test_bruteforce_matches_literal_group_walk_at_workload_lengths(q, n, dims):
    # The lengths of the average workload's brute-force-bound pairs, where
    # the permutation and diagonal stages repeat words; also a zero first
    # code and n = 1.
    spec = field_for_q(q)
    codes = [random_code(spec, n, k, seed=q * 100 + n * 10 + i) for i, k in enumerate(dims)]
    assert [c.k for c in codes] == list(dims)
    assert avg_gfold_bruteforce(codes).terms == literal_group_average(codes)


def test_bruteforce_budget_at_its_limit():
    codes = _seeded_codes(3, 2, 3, 7)
    c1, n = codes[0], codes[0].n
    # The binding estimate is the largest of the three stage estimates;
    # stage 3 charges each (image, tail) pair n + q^g steps, as census does.
    words = c1.codeword_list()
    perms = list(itertools.permutations(range(n)))
    permuted = {tuple(u[p] for p in perm) for u in words for perm in perms}
    images = {M.apply(u) for M in monomial_group(c1.spec, n) for u in words}
    stages = (
        len(perms) * c1.size * n,
        (c1.spec.q - 1) ** n * len(permuted) * n,
        len(images) * codes[1].size * (n + c1.spec.q**2),
    )
    assert avg_gfold_bruteforce(codes, budget=max(stages)) == avg_gfold_bruteforce(codes)
    with pytest.raises(CapacityError):
        avg_gfold_bruteforce(codes, budget=max(stages) - 1)


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (4, 2)])
def test_one_first_code_against_many_partners_equals_fresh_codes(q, n):
    # C1 keeps one stage 1-2 tally for every fold: averages of one C1 object
    # at g = 2, then 3, then 2 equal the same averages of fresh objects.
    spec = field_for_q(q)
    pool = list(all_codes(spec, n))
    c1 = pool[len(pool) // 2]

    def fresh(code):
        return LinearCode(spec, n, code.generators)

    for g in (2, 3, 2):
        for partners in itertools.islice(itertools.product(pool, repeat=g - 1), 0, None, 3):
            kept = avg_gfold_bruteforce([c1, *partners])
            assert kept == avg_gfold_bruteforce([fresh(c) for c in (c1, *partners)])
            assert kept == avg_gfold_bruteforce([fresh(c1), *partners])


@pytest.mark.parametrize("tail_dim", [None, 0])
def test_kept_tally_still_checks_its_estimates(tail_dim):
    # A refusal does not depend on call history: once C1 keeps its tally,
    # budgets at and just under each stage estimate pass and fail as they
    # do on fresh objects.  With the zero code as tail, stage 3 profiles each
    # image once.
    codes = _seeded_codes(3, 2, 3, 7)
    if tail_dim is not None:
        codes[1] = random_code(codes[0].spec, codes[0].n, tail_dim, 0)
    _check_kept_tally_estimates(codes)


def test_kept_tally_still_checks_stage_2_when_it_binds():
    # Alone (g = 1, q cells a profile), the same C1 binds at stage 2.
    codes = _seeded_codes(3, 2, 3, 7)[:1]
    assert _check_kept_tally_estimates(codes) == 1


def _check_kept_tally_estimates(codes):
    """Run the kept-tally budget check; return the binding stage's index."""
    c1, n = codes[0], codes[0].n
    kept = avg_gfold_bruteforce(codes)
    words = c1.codeword_list()
    permuted = {p for u in words for p in itertools.permutations(u)}
    images = {M.apply(u) for M in monomial_group(c1.spec, n) for u in words}
    tails = math.prod(c.size for c in codes[1:])
    stages = (
        math.factorial(n) * c1.size * n,
        (c1.spec.q - 1) ** n * len(permuted) * n,
        len(images) * tails * (n + c1.spec.q ** len(codes)),
    )
    for budget in sorted({s + d for s in stages for d in (-1, 0)}):
        outcomes = []
        for tuple_ in (codes, [LinearCode(c.spec, c.n, c.generators) for c in codes]):
            try:
                outcomes.append(avg_gfold_bruteforce(tuple_, budget=budget))
            except CapacityError:
                outcomes.append(None)
        assert outcomes[0] == outcomes[1] == (kept if budget >= max(stages) else None)
    return stages.index(max(stages))


def test_yoshida_tallies_each_pool_code_once(monkeypatch):
    # yoshida --q 2 --n 3 averages 256 pairs over 16 pool codes: stage 1
    # (the permuted-word Counter) runs once per C1 object, so 16 times, and
    # 16 again in a second sweep, whose pool codes are new objects.
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return Counter(*args, **kwargs)

    Counter = averages.Counter
    monkeypatch.setattr(averages, "Counter", counted)
    first = run_claim("yoshida", q=2, n=3)
    assert first.equal_count == 256 and len(calls) == 16
    assert run_claim("yoshida", q=2, n=3).to_text() == first.to_text()
    assert len(calls) == 32


def test_one_tally_serves_every_fold(monkeypatch):
    # Stage 2 scales words by field elements only, so one C1 object averaged
    # at g = 2, then 3, then 2 runs stage 1 (the permuted-word Counter) once.
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return Counter(*args, **kwargs)

    Counter = averages.Counter
    monkeypatch.setattr(averages, "Counter", counted)
    codes = _seeded_codes(3, 3, 2, 5)
    kept = [avg_gfold_bruteforce(codes[:g]) for g in (2, 3, 2)]
    assert len(calls) == 1
    for g, poly in zip((2, 3, 2), kept):
        assert poly == avg_gfold_bruteforce([LinearCode(c.spec, c.n, c.generators) for c in codes[:g]])


def test_bruteforce_refuses_before_tallying():
    rep12 = LinearCode(F2, 12, [(1,) * 12])
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        avg_gfold_bruteforce([rep12, rep12])
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_images_are_the_words_of_the_first_codes_weights(q):
    # The group maps a word onto exactly the words of its weight, so stage 3
    # counts C1's images without listing them: sum over C1's weights w of
    # C(n, w) (q-1)^w.
    spec = field_for_q(q)
    for n in (1, 2, 3) if q <= 9 else (1, 2):
        for k in range(n + 1):
            c1 = random_code(spec, n, k, seed=q * 10 + n * 4 + k)
            avg_gfold_bruteforce([c1])
            weights = {n - u.count(0) for u in c1.codeword_list()}
            assert sum(math.comb(n, w) * (q - 1) ** w for w in weights) == len(c1._tally[0])


@pytest.mark.parametrize("other", [
    cjwe(SPAN3, SPAN3),  # q = 3
    cwe(REP2),  # fold 1
    cjwe(LinearCode(F2, 3, []), LinearCode(F2, 3, [])),  # n = 3
])
def test_compare_and_add_refuse_a_shape_mismatch(other):
    base = cjwe(REP2, SEL2)  # q = 2, fold 2, n = 2
    for op in (compare, operator.add):
        for left, right in ((base, other), (other, base)):
            with pytest.raises(ValueError, match=r"shape mismatch \(q, fold, n\)"):
                op(left, right)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_yoshida_regime_small(n):
    codes = list(all_codes(F2, n))
    for c1 in codes:
        for c2 in codes:
            assert avg_cjwe_closedform(c1, c2) == avg_cjwe_bruteforce(c1, c2)


def test_gfold_reduction_exhaustive_q3_n2():
    codes = list(all_codes(F3, 2))
    for c1 in codes[:4]:
        for c2 in codes[:4]:
            assert avg_gfold_bruteforce([c1, c2]) == avg_cjwe_bruteforce(c1, c2)
            assert avg_gfold_closedform([c1, c2]) == avg_cjwe_closedform(c1, c2)


def test_avg_macwilliams_examples():
    base = avg_cjwe_bruteforce(REP2, SEL2)
    sizes = (REP2.size, SEL2.size)
    assert avg_macwilliams(base, "first", sizes) == avg_cjwe_bruteforce(REP2.dual(), SEL2)

    zero2 = LinearCode(F2, 2, [])
    zz = avg_cjwe_bruteforce(zero2, zero2)
    full = LinearCode(F2, 2, [(1, 0), (0, 1)])
    assert avg_macwilliams(zz, "both", (1, 1)) == avg_cjwe_bruteforce(full, full)

    # symmetric F_3 instance, second slot
    base3 = avg_cjwe_bruteforce(SPAN3, SPAN3)
    out = avg_macwilliams(base3, "second", (SPAN3.size, SPAN3.size))
    assert out == avg_cjwe_bruteforce(SPAN3, SPAN3.dual())


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (3, 2)])
def test_avg_macwilliams_exhaustive(q, n):
    spec = field_for_q(q)
    codes = list(all_codes(spec, n))
    for c1 in codes:
        for c2 in codes:
            base = avg_cjwe_bruteforce(c1, c2)
            sizes = (c1.size, c2.size)
            assert avg_macwilliams(base, "first", sizes) == avg_cjwe_bruteforce(c1.dual(), c2)
            assert avg_macwilliams(base, "second", sizes) == avg_cjwe_bruteforce(c1, c2.dual())
            assert avg_macwilliams(base, "both", sizes) == avg_cjwe_bruteforce(c1.dual(), c2.dual())


def test_average_mass_and_denominators():
    for c1, c2 in [(REP2, SEL2), (SPAN3, ZERO3), (SPAN3, SPAN3)]:
        avg = avg_cjwe_bruteforce(c1, c2)
        assert avg.evaluate_at_ones() == c1.size * c2.size
        group = monomial_group_order(c1.spec, c1.n)
        for coef in avg.terms.values():
            assert group % coef.denominator == 0


def test_check_lemma31():
    C = LinearCode(F2, 3, [(1, 1, 0), (0, 0, 1)])
    ident = MonomialMatrix(F2, 3, (0, 1, 2), (1, 1, 1))
    assert check_lemma31(C, ident).equal

    # all monomial maps at q=2, n<=2 are involutions: the identity holds
    for n in (1, 2):
        for code in all_codes(F2, n):
            for M in monomial_group(F2, n):
                assert check_lemma31(code, M).equal

    # frozen counterexample at n=3: a 3-cycle on a code not fixed by its square
    M = MonomialMatrix(F2, 3, (1, 2, 0), (1, 1, 1))
    res = check_lemma31(C, M)
    assert not res.equal
    assert res.left.generators == ((1, 0, 1),)
    assert res.right.generators == ((0, 1, 1),)


def test_check_lemma42():
    # q = 2: only the identity scaling exists, both sides coincide
    for code in all_codes(F2, 2):
        for r in [(2, 0), (1, 1), (0, 2)]:
            res = check_lemma42(code, r)
            assert res.equal and res.lhs == res.rhs

    # the F_3 witness: lhs counts scaled codes containing (1,1)
    res = check_lemma42(SPAN3, (0, 2, 0))
    assert (res.lhs, res.rhs, res.equal) == (2, 4, False)

    # zero code: the zero word survives every scaling
    res = check_lemma42(ZERO3, (2, 0, 0))
    assert res.lhs == res.rhs == 4 and res.equal


LEMMA42_CELLS = [
    (q, n) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16) for n in ((1, 2, 3) if q <= 7 else (1, 2))
]


@pytest.mark.parametrize("q,n", LEMMA42_CELLS)
def test_lemma42_results_match_the_literal_oracle(q, n):
    # Every code where there are few, else a seeded code of every dimension.
    spec = field_for_q(q)
    if q**n <= 27:
        codes = list(all_codes(spec, n))
    else:
        codes = [random_code(spec, n, k, 1000 * q + 10 * n + k) for k in range(n + 1)]
    for code in codes:
        results = lemma42_results(code)
        expected = literal_lemma42(code)
        assert set(results) == set(expected)
        for r, (lhs, rhs) in expected.items():
            assert (results[r].lhs, results[r].rhs, results[r].equal) == (lhs, rhs, lhs == rhs)
            assert check_lemma42(code, r) == results[r]


@pytest.mark.parametrize("q,n,k", [(2, 3, 2), (3, 3, 2), (4, 2, 1), (5, 2, 2)])
def test_lemma42_budget_at_its_limit(q, n, k):
    # The kernel's one estimate, (q-1)^n * |C| * n, is the binding check.
    code = random_code(field_for_q(q), n, k, 7)
    estimate = (q - 1) ** n * code.size * n
    assert len(lemma42_results(code, budget=estimate)) == math.comb(n + q - 1, q - 1)
    with pytest.raises(CapacityError):
        lemma42_results(code, budget=estimate - 1)


@pytest.mark.parametrize("r", [(5, 0, 0), (1, 1), (3, 0, 0, 0)])
def test_check_lemma42_rejects_non_compositions(r):
    code = random_code(F3, 3, 1, 3)
    with pytest.raises(ValueError, match="not a composition of 3 into 3 cells"):
        check_lemma42(code, r)

