"""Monomial-group averages of joint enumerators, two independent ways.

The definitional route averages the joint enumerator of (C1*M, C2, ..., Cg)
over all (q-1)^n * n! monomial matrices M and is the ground truth here.
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
from dataclasses import dataclass
from fractions import Fraction

from .capacity import DEFAULT_BUDGET, check_budget
from .codes import LinearCode, MonomialMatrix, apply_monomial_code, monomial_group_order
from .compositions import (
    CompositionProfile,
    census,
    composition,
    count_profiles,
    iter_compositions,
    tail_indices,
)
from .polynomials import EnumeratorPolynomial, macwilliams_transform


def multinomial(n: int, parts) -> int:
    """n! / (parts_1! * ... * parts_m!), exact; the parts must sum to n."""
    parts = list(parts)
    if any(p < 0 for p in parts):
        raise ValueError(f"negative part in {parts}")
    if sum(parts) != n:
        raise ValueError(f"parts {parts} do not sum to {n}")
    out = math.factorial(n)
    for p in parts:
        out //= math.factorial(p)
    return out


# -- brute-force averages -------------------------------------------------------


def avg_gfold_bruteforce(
    codes: list[LinearCode], *, budget: int = DEFAULT_BUDGET
) -> EnumeratorPolynomial:
    """Definitional average: the monomial group acts on the first code only,
    every other code stays fixed."""
    if not codes:
        raise ValueError("need at least one code")
    spec = codes[0].spec
    n = codes[0].n
    if any(c.spec != spec or c.n != n for c in codes):
        raise ValueError("codes must share field and length")
    q = spec.q
    g = len(codes)
    group = monomial_group_order(spec, n)
    pair_count = 1
    for c in codes:
        pair_count *= c.size
    check_budget(group * pair_count * n, budget, "brute-force average")

    mul = spec.mul_table
    words1 = codes[0].codeword_list(budget=budget)
    stride = q ** (g - 1)
    tails = tail_indices([c.codeword_list(budget=budget) for c in codes[1:]], q, n)
    positions = range(n)
    # Every image u*M of a first-code word, diagonals outer, permutations
    # inner, as per-position cell offsets of the first coordinate.
    images = (
        [rows[i][u[perm[i]]] * stride for i in positions]
        for rows in ([mul[d] for d in diag] for diag in itertools.product(range(1, q), repeat=n))
        for perm in itertools.permutations(range(n))
        for u in words1
    )
    counts = count_profiles(images, tails, q**g)
    terms = {e: Fraction(c, group) for e, c in counts.items()}
    return EnumeratorPolynomial(spec, g, n, terms)


def avg_cjwe_bruteforce(
    c1: LinearCode, c2: LinearCode, *, budget: int = DEFAULT_BUDGET
) -> EnumeratorPolynomial:
    return avg_gfold_bruteforce([c1, c2], budget=budget)


# -- closed forms ------------------------------------------------------------------


def avg_gfold_closedform(
    codes: list[LinearCode], *, budget: int = DEFAULT_BUDGET
) -> EnumeratorPolynomial:
    """Closed-form average of g codes: iterate over fold-g profiles, reduce
    each to the composition of the first coordinate and the fold-(g-1)
    profile of the rest, and weight x^eta by

        A_{s1} * A_tail * prod_b mult(tail_b; column_b(eta)) / mult(n; s1)

    where column b collects the q cells (z, b) over the first coordinate."""
    if not codes:
        raise ValueError("need at least one code")
    spec = codes[0].spec
    n = codes[0].n
    if any(c.spec != spec or c.n != n for c in codes):
        raise ValueError("codes must share field and length")
    q = spec.q
    g = len(codes)
    ncells = q**g
    tail_cells = q ** (g - 1)
    profile_count = math.comb(n + ncells - 1, ncells - 1)
    check_budget(profile_count * ncells, budget, "closed-form average")

    cen1 = census([codes[0]], budget=budget).counts
    if g == 1:
        tail_counts = {(n,): 1}
    else:
        tail_counts = census(codes[1:], budget=budget).counts

    terms: dict[tuple[int, ...], Fraction] = {}
    for eta in iter_compositions(n, ncells):
        s1 = [0] * q
        tail = [0] * tail_cells
        for idx, e in enumerate(eta):
            s1[idx // tail_cells] += e
            tail[idx % tail_cells] += e
        a1 = cen1.get(tuple(s1), 0)
        if not a1:
            continue
        a_tail = tail_counts.get(tuple(tail), 0)
        if not a_tail:
            continue
        num = 1
        for b in range(tail_cells):
            num *= multinomial(tail[b], [eta[z * tail_cells + b] for z in range(q)])
        coef = Fraction(a1 * a_tail * num, multinomial(n, s1))
        if coef:
            terms[eta] = coef
    return EnumeratorPolynomial(spec, g, n, terms)


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

    left: EnumeratorPolynomial
    right: EnumeratorPolynomial
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
        import json

        return json.dumps(self.to_doc(), indent=2) + "\n"


def compare(left: EnumeratorPolynomial, right: EnumeratorPolynomial) -> AverageReport:
    if (left.spec.q, left.fold, left.n) != (right.spec.q, right.fold, right.n):
        raise ValueError("cannot compare polynomials of different shape")
    exps = sorted(set(left.terms) | set(right.terms))
    zero = Fraction(0)
    diffs = []
    for e in exps:
        lv = left.terms.get(e, zero)
        rv = right.terms.get(e, zero)
        if lv != rv:
            diffs.append((e, lv, rv))
    return AverageReport(left, right, diffs, not diffs)


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


def check_lemma42(
    code: LinearCode, r, *, budget: int = DEFAULT_BUDGET
) -> Lemma42Result:
    """lhs sums, over all (q-1)^n invertible diagonal matrices D, the number
    of codewords of C*D with composition r; rhs is (q-1)^n times the count
    for C itself."""
    spec, n = code.spec, code.n
    q = spec.q
    r_key = r.counts if isinstance(r, CompositionProfile) else tuple(r)
    scalings = (q - 1) ** n
    check_budget(scalings * code.size * n, budget, "diagonal scaling sweep")
    words = code.codeword_list(budget=budget)
    mul = spec.mul_table

    base = sum(1 for w in words if composition(spec, w).counts == r_key)
    lhs = 0
    for diag in itertools.product(range(1, q), repeat=n):
        rows = [mul[d] for d in diag]
        for w in words:
            counts = [0] * q
            for i in range(n):
                counts[rows[i][w[i]]] += 1
            if tuple(counts) == r_key:
                lhs += 1
    return Lemma42Result(lhs, scalings * base, lhs == scalings * base)
