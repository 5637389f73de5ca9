"""Monomial-group averages of joint enumerators, two independent ways.

The definitional route averages the joint enumerator of (C1*M, C2, ..., Cg)
over all (q-1)^n * n! monomial matrices M and is the ground truth here.
Since (u*M)_i = diag[i] * u[perm[i]], it tallies the images of every pair
(M, u): itertools.permutations lists each word under every permutation,
then itertools.product lists each distinct permuted word under every
diagonal, each distinct image carrying the number of pairs that give it.
Every (M, u) pair is visited once per C1 object, which keeps its tally for
later partners; no orbit or transitivity theorem is used.
The closed-form route evaluates a multinomial-ratio expression driven only
by the per-code composition censuses.  The two agree for binary codes; for
q > 2 they can differ, and the comparator makes any divergence a
first-class, reproducible output instead of guessing a correction.

Coefficient denominators of brute-force averages always divide
(q-1)^n * n!, so all arithmetic stays in exact rationals.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .capacity import DEFAULT_BUDGET, check_budget
from .codes import LinearCode, MonomialMatrix, apply_monomial_code, monomial_group_order
from .compositions import _code_shape, census, count_profiles, iter_compositions
from .polynomials import (
    EnumeratorPolynomial, _exp_key, _one_digit, _term_list_text, macwilliams_transform,
)


# -- brute-force averages -------------------------------------------------------


def avg_gfold_bruteforce(
    codes: list[LinearCode], *, budget: int = DEFAULT_BUDGET
) -> EnumeratorPolynomial:
    """Definitional average: the monomial group acts on the first code only,
    every other code stays fixed.  Every pair (M, u), u in the first code,
    is tallied by its image v = u*M.  Stage 1 counts the permuted words
    over every (perm, u), itertools.permutations(u) yielding u under every
    perm; stage 2 walks itertools.product over each permuted word's
    column of scaled values, which yields its image under every diagonal,
    and adds the word's count to m(v); stage 3 profiles each distinct v
    once against every tail with weight m(v), through count_profiles and
    charged as it says.  The m(v) sum to |G| * |C1|.  Stages 1-2 do not
    depend on the fold, so their result is kept on C1.  Each stage checks
    its own step estimate, also when stages 1-2 are skipped, and all three
    before stage 2 lists any image: the group maps a word onto exactly the
    words of its weight, so the images are the words of C1's weights."""
    spec, n = _code_shape(codes)
    q = spec.q
    g = len(codes)
    what = "brute-force average"
    c1 = codes[0]
    tally = c1._tally  # (images, distinct permuted words) once stages 1-2 ran
    check_budget(math.factorial(n) * c1.size * n, budget, what)
    words1 = c1.codeword_list(budget=budget)
    if tally is None:
        permuted = Counter(itertools.chain.from_iterable(map(itertools.permutations, words1)))
    distinct = len(permuted) if tally is None else tally[1]
    check_budget((q - 1) ** n * distinct * n, budget, what)
    image_count = sum(math.comb(n, w) * (q - 1) ** w for w in {n - u.count(0) for u in words1})
    check_budget(image_count * math.prod(c.size for c in codes[1:]) * (n + q**g), budget, what)
    if tally is None:
        # cols[x]: x times every nonzero scalar.
        cols = [[row[x] for row in spec.mul_table[1:]] for x in range(q)]
        images: dict[tuple[int, ...], int] = {}
        for w, m in permuted.items():
            for v in itertools.product(*map(cols.__getitem__, w)):
                images[v] = images.get(v, 0) + m
        tally = c1._tally = images, distinct
    tail_lists = [c.codeword_list(budget=budget) for c in codes[1:]]
    counts = count_profiles(tally[0].items(), tail_lists, q, n)
    group = monomial_group_order(spec, n)
    fracs = {c: Fraction(c, group) for c in set(counts.values())}
    terms = {e: fracs[c] for e, c in counts.items()}
    return EnumeratorPolynomial._from_kernel(spec, g, n, terms)


def avg_cjwe_bruteforce(
    c1: LinearCode, c2: LinearCode, *, budget: int = DEFAULT_BUDGET
) -> EnumeratorPolynomial:
    return avg_gfold_bruteforce([c1, c2], budget=budget)


# -- closed forms ------------------------------------------------------------------


def avg_gfold_closedform(
    codes: list[LinearCode], *, budget: int = DEFAULT_BUDGET
) -> EnumeratorPolynomial:
    """Closed-form average of g codes.  Read a fold-g exponent eta as a
    table with q rows z (the first coordinate) and q^(g-1) columns b (the
    fold-(g-1) cell of the rest), eta_{z,b} at cell z * q^(g-1) + b.  Its
    row sums s1 are a composition of the first code, its column sums tail a
    profile of the rest, and x^eta weighs

        A_{s1} * A_tail * prod_b mult(tail_b; column_b(eta)) / mult(n; s1)

    with A the census counts (for g = 1 the tail census is {(n,): 1}).  The
    weight is nonzero exactly when both counts are, so the walk runs over
    the two census supports: for each pair (s1, tail) it fills only the
    tables with those margins, column by column within the row capacity
    left, skipping empty rows and columns, and carries the product of the
    column multinomials down through one factorial table.  Every table
    reached is a term."""
    spec, n = _code_shape(codes)
    q = spec.q
    g = len(codes)
    ncells = q**g
    tail_cells = q ** (g - 1)
    cen1 = census([codes[0]], budget=budget)
    if g == 1:
        tail_counts = {(n,): 1}
    else:
        tail_counts = census(codes[1:], budget=budget)
    # Tables with different row sums are disjoint, so the tables with column
    # sums tail number at most the free fillings of its columns.
    tables = sum(
        math.prod(math.comb(t + q - 1, q - 1) for t in tail if t) for tail in tail_counts
    )
    check_budget(tables * ncells, budget, "closed-form average")

    fact = [math.factorial(i) for i in range(n + 1)]
    terms: dict[tuple[int, ...], Fraction] = {}
    for s1, a1 in cen1.items():
        rows = [z for z in range(q) if s1[z]]
        row_sums = [s1[z] for z in rows]
        offsets = [z * tail_cells for z in rows]
        denom = fact[n] // math.prod(map(fact.__getitem__, row_sums))
        for tail, a_tail in tail_counts.items():
            cols = [b for b in range(tail_cells) if tail[b]]
            for table, num in _margin_tables(row_sums, [tail[b] for b in cols], fact):
                eta = [0] * ncells
                for b, column in zip(cols, table):
                    for off, e in zip(offsets, column):
                        eta[off + b] = e
                terms[tuple(eta)] = Fraction(a1 * a_tail * num, denom)
    return EnumeratorPolynomial._from_kernel(spec, g, n, terms)


def _margin_tables(row_sums, col_sums, fact):
    """Every non-negative integer table with these positive row and column
    sums (equal totals), as (columns, prod_b mult(col_sums[b]; column b)),
    with fact[i] = i! up to the total.  Depth first, one column at a time;
    each column is a composition of its sum capped by the row capacity left,
    so every branch completes, and the last column takes what is left.  A
    branch carries the product of its entries' factorials, and the product
    of the column sums' factorials is divided by it once per table."""
    last = len(col_sums) - 1
    fac = fact.__getitem__
    top = math.prod(map(fac, col_sums))
    stack = [(0, tuple(row_sums), (), 1)]
    while stack:
        j, left, columns, den = stack.pop()
        if j == last:
            yield columns + (left,), top // (den * math.prod(map(fac, left)))
            continue
        for column in _capped_compositions(col_sums[j], left):
            rest = tuple(map(operator.sub, left, column))
            stack.append((j + 1, rest, columns + (column,), den * math.prod(map(fac, column))))


def _capped_compositions(total: int, caps):
    """Tuples of len(caps) parts summing to total with 0 <= part_i <= caps[i],
    given sum(caps) >= total."""
    if len(caps) == 1:
        yield (total,)
        return
    room = sum(caps) - caps[0]
    for first in range(max(0, total - room), min(total, caps[0]) + 1):
        for rest in _capped_compositions(total - first, caps[1:]):
            yield (first,) + rest


def avg_cjwe_closedform(
    c1: LinearCode, c2: LinearCode, *, budget: int = DEFAULT_BUDGET
) -> EnumeratorPolynomial:
    """Closed-form average of a pair: the g = 2 case of avg_gfold_closedform,
    where the weight of x^eta is Yoshida's A_r * A_s * prod_i mult(s_i;
    column_i(eta)) / mult(n; r) for the marginals r and s of eta."""
    return avg_gfold_closedform([c1, c2], budget=budget)


# -- averaged transforms -------------------------------------------------------------


def avg_macwilliams(
    P_avg: EnumeratorPolynomial, which: str, sizes, *, budget: int = DEFAULT_BUDGET
) -> EnumeratorPolynomial:
    """Character-sum transform of an averaged enumerator.  The substitution
    and prefactors are those of the plain transform; applied to the
    brute-force average of (C1, C2) it yields the brute-force average of the
    pair with the selected codes dualized."""
    return macwilliams_transform(P_avg, which, sizes, budget=budget)


# -- comparison -------------------------------------------------------------------


@dataclass
class AverageReport:
    """Exact term-by-term comparison of two enumerators of the same shape."""

    differences: list[tuple[tuple[int, ...], Fraction, Fraction]]
    agreed: bool

    def to_doc(self) -> dict:
        return {
            "agreed": self.agreed,
            "differences": [
                {
                    "exp": list(exp),
                    "left": f"{lv.numerator}/{lv.denominator}",
                    "right": f"{rv.numerator}/{rv.denominator}",
                }
                for exp, lv, rv in self.differences
            ],
        }

    def to_text(self) -> str:
        rows = [
            (e, f'"left": "{lv.numerator}/{lv.denominator}",\n'
                f'      "right": "{rv.numerator}/{rv.denominator}"')
            for e, lv, rv in self.differences
        ]
        digits = _one_digit([e for e, _, _ in self.differences])
        agreed = "true" if self.agreed else "false"
        return f'{{\n  "agreed": {agreed},\n  "differences": {_term_list_text(rows, digits)}\n}}\n'


def compare(left: EnumeratorPolynomial, right: EnumeratorPolynomial) -> AverageReport:
    left._same_shape(right)
    # One lookup per exponent; equal normalized Fractions have equal parts.
    # Only the differing exponents are sorted.
    lt, rt, zero = left.terms, right.terms, Fraction(0)
    diffs = [
        (e, lv, rv) for e, lv in lt.items()
        if (rv := rt.get(e, zero)).numerator != lv.numerator or rv.denominator != lv.denominator
    ]
    diffs += [(e, zero, rv) for e, rv in rt.items() if e not in lt and rv]
    key = _exp_key(left.n)
    diffs.sort(key=lambda d: key(d[0]))
    return AverageReport(diffs, not diffs)


# -- claim checkers -----------------------------------------------------------------


@dataclass
class Lemma31Result:
    """Both sides of: (dual of C) * M  equals  dual of (C * M^{-1})."""

    left: LinearCode
    right: LinearCode
    equal: bool


def check_lemma31(code: LinearCode, M: MonomialMatrix) -> Lemma31Result:
    left = apply_monomial_code(code.dual(), M)
    right = apply_monomial_code(code, M.inverse()).dual()
    return Lemma31Result(left, right, left == right)


@dataclass
class Lemma42Result:
    """Scaled-census sum against its claimed value (q-1)^n * A_r."""

    lhs: int
    rhs: int
    equal: bool


def lemma42_results(code: LinearCode, *, budget: int = DEFAULT_BUDGET) -> dict:
    """Lemma 4.2 for every composition r of n into q cells, as {r: result}:
    lhs counts the pairs (D, u), D an invertible diagonal matrix and u in C,
    with u*D of composition r (keyed sum_z r_z (n+1)^z); rhs is (q-1)^n times
    C's census count of r.  D is chosen one coordinate at a time: each u[i:]
    holds how many pairs (d_1..d_i, u) reach each partial key, so pairs that
    agree on what is left move together.  Every D and word is counted."""
    spec, n = code.spec, code.n
    q = spec.q
    scalings = (q - 1) ** n
    check_budget(scalings * code.size * n, budget, "diagonal scaling sweep")
    words = code.codeword_list(budget=budget)
    unit = [(n + 1) ** z for z in range(q)]
    scaled = [[unit[x] for x in row] for row in spec.mul_table[1:]]
    base: dict[int, int] = {}
    for key in (sum(map(unit.__getitem__, u)) for u in words):
        base[key] = base.get(key, 0) + 1
    states = {u: {0: 1} for u in words}
    for _ in range(n):
        reached: dict[tuple, dict[int, int]] = {}
        for u, keys in states.items():
            tally = reached.setdefault(u[1:], {})
            for row in scaled:
                step = row[u[0]]
                for key, m in keys.items():
                    key += step
                    tally[key] = tally.get(key, 0) + m
        states = reached
    results = {}
    for r in iter_compositions(n, q):
        key = sum(map(operator.mul, r, unit))
        lhs, rhs = states[()].get(key, 0), scalings * base.get(key, 0)
        results[r] = Lemma42Result(lhs, rhs, lhs == rhs)
    return results


def check_lemma42(code: LinearCode, r, *, budget: int = DEFAULT_BUDGET) -> Lemma42Result:
    """Lemma 4.2 at one composition r of n into q cells (see lemma42_results)."""
    results = lemma42_results(code, budget=budget)
    r = tuple(r)
    if r not in results:
        raise ValueError(f"{r} is not a composition of {code.n} into {code.spec.q} cells")
    return results[r]
