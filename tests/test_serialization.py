"""The canonical text writer against json.dumps(doc, indent=2).

EnumeratorPolynomial.to_text, AverageReport.to_text and ClaimCheck.to_text
write their JSON directly; these tests hold every text they write
byte-identical to the json.dumps rendering of the matching to_doc(), and
round-trip the polynomial texts.  The frozen SHA-256 pins in the other test
modules are the end-to-end check.
"""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from weightenum import (
    CLAIMS,
    AverageReport,
    EnumeratorPolynomial,
    FieldSpec,
    avg_gfold_bruteforce,
    avg_gfold_closedform,
    compare,
    field_for_q,
    gfold_cjwe,
    monomial_group_order,
    random_code,
    run_claim,
)
from weightenum.polynomials import _one_digit

F2 = FieldSpec(2, 1)
F3 = FieldSpec(3, 1)


def _assert_json_dumps_text(obj):
    # Compared line by line: a failure names the first differing line
    # instead of diffing two long strings.
    text = obj.to_text()
    assert text.split("\n") == (json.dumps(obj.to_doc(), indent=2) + "\n").split("\n")
    return text


def _check_poly(poly):
    text = _assert_json_dumps_text(poly)
    again = EnumeratorPolynomial.from_text(text, poly.spec)
    assert again == poly
    assert again.to_text() == text


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_writer_matches_json_dumps_every_q(q, g):
    spec = field_for_q(q)
    rng = random.Random(900 + q * 10 + g)
    # The longest n <= 3, over four draws, whose brute-force walk and
    # written cells (about q^g per codeword tuple) stay small.
    for n, _ in itertools.product((3, 2, 1), range(4)):
        codes = [random_code(spec, n, rng.randrange(n + 1), rng.randrange(2**32)) for _ in range(g)]
        tuples = math.prod(c.size for c in codes)
        if monomial_group_order(spec, n) * tuples <= 20000 and q**g * tuples <= 2**16:
            break
    closed = avg_gfold_closedform(codes)
    brute = avg_gfold_bruteforce(codes)
    for poly in (gfold_cjwe(codes), closed, brute):
        _check_poly(poly)
    _assert_json_dumps_text(compare(closed, brute))


def test_writer_on_the_empty_polynomial():
    for poly in (EnumeratorPolynomial(F2, 2, 3, {}), EnumeratorPolynomial(F3, 1, 0, {})):
        assert '"terms": []' in poly.to_text()
        _check_poly(poly)


def test_writer_on_signed_fractions_and_long_exponents():
    poly = EnumeratorPolynomial(F3, 1, 300, {
        (300, 0, 0): Fraction(-7, 3),
        (123, 77, 100): Fraction(10**30 + 1, 2**70),
        (0, 0, 300): -5,
        (1, 299, 0): Fraction(1, 10**9),
    })
    text = poly.to_text()
    assert '"coef": "-7/3"' in text and "\n        299,\n" in text
    _check_poly(poly)


@pytest.mark.parametrize("fold", [1, 2])
@pytest.mark.parametrize("n", [9, 10])
def test_writer_at_the_one_digit_boundary(n, fold):
    # At n = 9 every cell is one digit and the lists go through the
    # template; at n = 10 some cell reaches 10 and they are joined.
    spec, ncells = field_for_q(4), 4**fold
    rng = random.Random(100 * n + fold)
    ones = {tuple(n if i == j else 0 for i in range(ncells)) for j in range(ncells)}
    exps = set(ones)
    while len(exps) < 60:
        e = [0] * ncells
        for _ in range(n):
            e[rng.randrange(ncells)] += 1
        exps.add(tuple(e))
    exps = list(exps)
    rng.shuffle(exps)
    left = EnumeratorPolynomial(spec, fold, n, {e: Fraction(rng.randrange(1, 50), rng.randrange(1, 7)) for e in exps})
    right = EnumeratorPolynomial(spec, fold, n, {
        e: c + (e in ones or rng.random() < 0.3) for e, c in left.terms.items() if rng.random() < 0.9
    })
    assert list(left.terms) != sorted(left.terms)
    for poly in (left, right):
        _check_poly(poly)
    report = compare(left, right)
    exps = [e for e, _, _ in report.differences]
    assert exps == sorted(exps) and any(max(e) == n for e in exps)
    _assert_json_dumps_text(report)
    _assert_json_dumps_text(compare(right, left))


@pytest.mark.parametrize("rows,digits", [
    ([(0, 9), (4, 5), (9, 0)], True),
    ([(0, 9), (10, 0)], False),
    ([(3, 256), (1, 2)], False),
    ([(0, 9), (1, 2, 3), (4, 5)], False),
    ([(0, 9), (-1, 2)], False),
])
def test_report_writer_picks_its_path_per_list(rows, digits):
    # Any cell outside [0, 9], or rows of two lengths, send the whole list
    # down the join path; the text is the same either way.
    assert _one_digit(rows) is digits
    report = AverageReport([(e, Fraction(i), Fraction(-1, i + 2)) for i, e in enumerate(rows)], False)
    _assert_json_dumps_text(report)


def test_writer_on_reports_that_agree_and_differ():
    p = EnumeratorPolynomial(F2, 2, 2, {(2, 0, 0, 0): Fraction(1, 2), (1, 1, 0, 0): 3})
    r = EnumeratorPolynomial(F2, 2, 2, {(2, 0, 0, 0): Fraction(-1, 2), (0, 0, 1, 1): 1})
    same = compare(p, p)
    assert same.to_text() == '{\n  "agreed": true,\n  "differences": []\n}\n'
    _assert_json_dumps_text(same)
    differ = compare(p, r)
    assert len(differ.differences) == 3
    _assert_json_dumps_text(differ)


# Each claim's default grid, and one cell for each kind of instance member:
# transform variants, non-empty difference rows, a matrix, r/lhs/rhs, g in
# the parameters, and a seeded --trials cell.
_REPORTS = [(claim, {}) for claim in CLAIMS] + [
    ("macwilliams", dict(q=2, n=2)),
    ("thm43", dict(q=3, n=2)),
    ("lemma31", dict(q=2, n=3)),
    ("lemma42", dict(q=3, n=2)),
    ("thm52", dict(q=2, n=2, g=2)),
    ("thm33ii", dict(q=3, n=2, trials=4, seed=5)),
]


@pytest.mark.parametrize("claim,kwargs", _REPORTS)
def test_claim_report_writer_matches_json_dumps(claim, kwargs):
    _assert_json_dumps_text(run_claim(claim, **kwargs))
