"""Independent oracles used to freeze expected values.

These deliberately avoid the code paths they check: the dual oracle scans
all q^n vectors instead of doing Gaussian elimination, subspace counts come
from the Gaussian binomial product formula, and the group average and the
Lemma 4.2 sums visit one monomial matrix at a time; the closed form weighs
every composition of n into q^g cells.  reference_rref is the
package's earlier, plainer elimination, kept as the reference for the
faster one.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

from weightenum import (
    FieldSpec,
    LinearCode,
    MonomialMatrix,
    monomial_group,
    monomial_group_order,
)


def brute_dual_words(code: LinearCode) -> set[tuple[int, ...]]:
    """All vectors orthogonal to every codeword, by exhaustive scan."""
    spec, n = code.spec, code.n
    add, mul = spec.add_table, spec.mul_table
    words = code.codeword_list()
    out = set()
    for cand in itertools.product(range(spec.q), repeat=n):
        ok = True
        for w in words:
            acc = 0
            for a, b in zip(cand, w):
                acc = add[acc][mul[a][b]]
            if acc != 0:
                ok = False
                break
        if ok:
            out.add(cand)
    return out


def code_words(code: LinearCode) -> set[tuple[int, ...]]:
    return set(code.codeword_list())


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q**n - q**i
        den *= q**k - q**i
    return num // den


def subspace_count(n: int, q: int) -> int:
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def literal_group_average(codes) -> dict[tuple[int, ...], Fraction]:
    """Terms of the average joint enumerator of (C1*M, C2, ..., Cg) over the
    monomial group: every M applied to every first-code word with M.apply,
    and each profile counted here, keyed by its sorted cell list."""
    spec, n = codes[0].spec, codes[0].n
    q = spec.q
    rest = list(itertools.product(*(c.codeword_list() for c in codes[1:])))
    counts: dict[tuple[int, ...], int] = {}
    for M in monomial_group(spec, n):
        for u in codes[0].codeword_list():
            image = M.apply(u)
            for tail in rest:
                cells = []
                for i in range(n):
                    cell = 0
                    for word in (image,) + tail:
                        cell = cell * q + word[i]
                    cells.append(cell)
                key = tuple(sorted(cells))
                counts[key] = counts.get(key, 0) + 1
    order = monomial_group_order(spec, n)
    terms = {}
    for cells, c in counts.items():
        exp = [0] * q ** len(codes)
        for cell in cells:
            exp[cell] += 1
        terms[tuple(exp)] = Fraction(c, order)
    return terms


def literal_closed_form(codes) -> dict[tuple[int, ...], Fraction]:
    """Terms of the closed-form average of (C1, ..., Cg): the paper's weight

        A_{s1} * A_tail * prod_b mult(tail_b; column_b(eta)) / mult(n; s1)

    applied to every composition eta of n into q^g cells, read as a table
    with q rows z and q^(g-1) columns b, eta_{z,b} at cell z * q^(g-1) + b,
    row sums s1 and column sums tail.  The compositions are listed from
    multisets of n cells, and both censuses are counted here from the
    codewords (for g = 1 every word's tail is (n,))."""
    spec, n = codes[0].spec, codes[0].n
    q, g = spec.q, len(codes)
    width = q ** (g - 1)

    def mult(parts):
        return math.factorial(sum(parts)) // math.prod(map(math.factorial, parts))

    first = Counter(tuple(u.count(z) for z in range(q)) for u in codes[0].codeword_list())
    tails = Counter()
    for words in itertools.product(*(c.codeword_list() for c in codes[1:])):
        profile = [0] * width
        for i in range(n):
            cell = 0
            for word in words:
                cell = cell * q + word[i]
            profile[cell] += 1
        tails[tuple(profile)] += 1
    terms = {}
    for cells in itertools.combinations_with_replacement(range(q**g), n):
        eta, s1, tail = [0] * q**g, [0] * q, [0] * width
        for cell in cells:
            eta[cell] += 1
            s1[cell // width] += 1
            tail[cell % width] += 1
        count = first[tuple(s1)] * tails[tuple(tail)]
        if count:
            columns = math.prod(
                mult([eta[z * width + b] for z in range(q)]) for b in range(width) if tail[b]
            )
            terms[tuple(eta)] = Fraction(count * columns, mult(s1))
    return terms


def literal_lemma42(code) -> dict[tuple[int, ...], tuple[int, int]]:
    """Both sides of Lemma 4.2 at every composition r of n into q cells, as
    {r: (lhs, rhs)}: each invertible diagonal D is built as a MonomialMatrix
    with the identity permutation and applied to every codeword on its own,
    and every composition is counted here.  The compositions are listed from
    multisets of n values, not from the package's enumerator."""
    spec, n = code.spec, code.n
    q = spec.q

    def comp(word):
        counts = [0] * q
        for x in word:
            counts[x] += 1
        return tuple(counts)

    words = code.codeword_list()
    lhs: dict[tuple[int, ...], int] = {}
    for diag in itertools.product(range(1, q), repeat=n):
        D = MonomialMatrix(spec, n, tuple(range(n)), diag)
        for u in words:
            r = comp(D.apply(u))
            lhs[r] = lhs.get(r, 0) + 1
    base = [comp(u) for u in words]
    out = {}
    for values in itertools.combinations_with_replacement(range(q), n):
        r = comp(values)
        out[r] = (lhs.get(r, 0), (q - 1) ** n * base.count(r))
    return out


def make_code(spec: FieldSpec, n: int, rows) -> LinearCode:
    return LinearCode(spec, n, rows)


def reference_rref(spec: FieldSpec, rows, n: int) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form: first nonzero row at or below r as pivot,
    swapped up, scaled to 1 and cleared from every other row."""
    add, mul = spec.add_table, spec.mul_table
    neg, inv = spec.neg_table, spec.inv_table
    mat = [list(r) for r in rows]
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        scale = inv[mat[r][c]]
        mat[r] = [mul[scale][x] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = neg[mat[i][c]]
                row_r = mat[r]
                mat[i] = [add[x][mul[f][y]] for x, y in zip(mat[i], row_r)]
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r])
