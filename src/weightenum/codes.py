"""Linear codes over F_q and the monomial matrices acting on them.

A code is stored by its generator matrix in reduced row echelon form, so
two objects describe the same code exactly when their generator tuples are
equal.  Codewords and generator rows are tuples of element indices in
[0, q); the FieldSpec tables supply the arithmetic.  Rows from outside are
checked once, by LinearCode(spec, n, rows); rows the package builds are not.

A monomial matrix is a pair (perm, diag) acting by

    (u M)_i = diag[i] * u[perm[i]],

the single frozen reading of the scale-and-permute action.  Whole-group
averages do not depend on this choice, individual matrices do.

The code file format is line oriented:

    # comment
    field p=<p> m=<m> [poly=<c0,c1,...,cm>]
    n=<n>
    gen <e_1> <e_2> ... <e_n>

with one gen line per generator row and each element written as its index.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass, field

from .capacity import DEFAULT_BUDGET, CapacityError, check_budget
from .field import FieldSpec

MAX_CODE_LENGTH = 16


class CodeFileError(ValueError):
    """Malformed code file; the message carries the offending line number."""


def _rref(spec: FieldSpec, rows, n: int) -> tuple[tuple[int, ...], ...]:
    add, mul = spec.add_table, spec.mul_table
    neg, inv = spec.neg_table, spec.inv_table
    mat = [list(r) for r in rows]
    r = 0
    for c in range(n):
        if r == len(mat):
            break
        for i in range(r, len(mat)):
            if mat[i][c]:
                break
        else:
            continue
        mat[r], mat[i] = mat[i], mat[r]
        pivot = mat[r]
        if pivot[c] != 1:  # never at q = 2
            scale = mul[inv[pivot[c]]]
            pivot = mat[r] = [scale[x] for x in pivot]
        for i, row in enumerate(mat):
            if row[c] and i != r:
                scale = mul[neg[row[c]]]
                mat[i] = [add[x][scale[y]] for x, y in zip(row, pivot)]
        r += 1
    return tuple(map(tuple, mat[:r]))


def _indices(values, what: str) -> tuple[int, ...]:
    """values read through operator.index (bools read as 0 and 1); a
    ValueError names the first one that is not an integer."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        bad = next(v for v in values if not hasattr(v, "__index__"))
        raise ValueError(f"{what} must be integers, got {bad!r}") from None


class LinearCode:
    """A subspace of F_q^n, canonicalized to rref generators.  LinearCode(spec,
    n, rows) checks every entry of rows from outside, then reduces them; each
    code the package builds from its own rows comes from _from_rref."""

    __slots__ = ("spec", "n", "generators", "k", "_words", "_dual", "_tally")

    def __init__(self, spec: FieldSpec, n: int, rows=()):
        if n < 1:
            raise ValueError(f"code length must be positive, got {n}")
        if n > MAX_CODE_LENGTH:
            raise CapacityError(f"code length {n} exceeds the cap {MAX_CODE_LENGTH}")
        rows = [_indices(row, "generator entries") for row in rows]
        for row in rows:
            if len(row) != n:
                raise ValueError(f"generator row of length {len(row)}, expected {n}")
            if any(not (0 <= e < spec.q) for e in row):
                raise ValueError("generator entries must be element indices in [0, q)")
        self.spec, self.n = spec, n
        self.generators = _rref(spec, rows, n)
        self.k = len(self.generators)
        self._words = self._dual = None
        self._tally = None  # avg_gfold_bruteforce's stage 1-2 result for this code

    @classmethod
    def _from_rref(cls, spec: FieldSpec, n: int, generators: tuple) -> LinearCode:
        """The code of rref rows the package built (int tuples), kept as they
        are: __init__ runs on no rows, so only n is checked."""
        code = cls(spec, n)
        code.generators, code.k = generators, len(generators)
        return code

    @property
    def size(self) -> int:
        return self.spec.q**self.k

    def codewords(self, *, budget: int = DEFAULT_BUDGET):
        """All q^k codewords, message vectors taken in index order."""
        check_budget(self.size * max(self.n, 1), budget, "codeword enumeration")
        q = self.spec.q
        add, mul = self.spec.add_table, self.spec.mul_table
        for t in range(self.size):
            word = [0] * self.n
            msg = t
            for row in self.generators:
                c = msg % q
                msg //= q
                if c:
                    word = [add[w][mul[c][g]] for w, g in zip(word, row)]
            yield tuple(word)

    def codeword_list(self, *, budget: int = DEFAULT_BUDGET) -> tuple[tuple[int, ...], ...]:
        if self._words is None:
            self._words = tuple(self.codewords(budget=budget))
        return self._words

    def dual(self) -> LinearCode:
        """Null space of the generators under the standard inner product, memoized."""
        if self._dual is None:
            n, neg, gens = self.n, self.spec.neg_table, self.generators
            pivots = [row.index(1) for row in gens]  # an rref row's first nonzero entry, 1
            rows = []
            for f in range(n):
                if f in pivots:
                    continue
                h = [0] * n
                h[f] = 1
                for i, p_col in enumerate(pivots):
                    h[p_col] = neg[gens[i][f]]
                rows.append(h)
            self._dual = LinearCode._from_rref(self.spec, n, _rref(self.spec, rows, n))
        return self._dual

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return (self.spec, self.n, self.generators) == (other.spec, other.n, other.generators)

    def __hash__(self) -> int:
        return hash((self.spec, self.n, self.generators))

    def __repr__(self) -> str:
        return f"LinearCode(q={self.spec.q}, n={self.n}, k={self.k})"


@dataclass(frozen=True)
class MonomialMatrix:
    """Scale-and-permute map: applying to u gives diag[i] * u[perm[i]]."""

    spec: FieldSpec
    n: int
    perm: tuple[int, ...]
    diag: tuple[int, ...]
    _inverse: MonomialMatrix | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        perm = _indices(self.perm, "perm entries")
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"perm {self.perm} is not a permutation of range({self.n})")
        diag = _indices(self.diag, "diag entries")
        if len(diag) != self.n or any(not (1 <= d < self.spec.q) for d in diag):
            raise ValueError("diag entries must be nonzero element indices")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "diag", diag)

    def apply(self, word) -> tuple[int, ...]:
        if len(word) != self.n:
            raise ValueError(f"word of length {len(word)}, expected {self.n}")
        mul = self.spec.mul_table
        return tuple(mul[self.diag[i]][word[self.perm[i]]] for i in range(self.n))

    def then(self, other: MonomialMatrix) -> MonomialMatrix:
        """The single matrix whose action is: apply self, then other."""
        if self.spec != other.spec or self.n != other.n:
            raise ValueError("monomial matrices act on different spaces")
        mul = self.spec.mul_table
        perm = tuple(self.perm[other.perm[i]] for i in range(self.n))
        diag = tuple(mul[other.diag[i]][self.diag[other.perm[i]]] for i in range(self.n))
        return MonomialMatrix(self.spec, self.n, perm, diag)

    def inverse(self) -> MonomialMatrix:
        """The inverse matrix, built once per matrix object."""
        if self._inverse is None:
            inv_perm = [0] * self.n
            for i, p in enumerate(self.perm):
                inv_perm[p] = i
            inv = self.spec.inv_table
            diag = tuple(inv[self.diag[inv_perm[i]]] for i in range(self.n))
            inverse = MonomialMatrix(self.spec, self.n, tuple(inv_perm), diag)
            object.__setattr__(self, "_inverse", inverse)
        return self._inverse


def apply_monomial_code(code: LinearCode, M: MonomialMatrix) -> LinearCode:
    if code.spec != M.spec or code.n != M.n:
        raise ValueError("monomial matrix does not match the code")
    scales = [code.spec.mul_table[d] for d in M.diag]
    rows = [[s[row[p]] for s, p in zip(scales, M.perm)] for row in code.generators]
    return LinearCode._from_rref(code.spec, code.n, _rref(code.spec, rows, code.n))


def monomial_group_order(spec: FieldSpec, n: int) -> int:
    return (spec.q - 1) ** n * math.factorial(n)


def monomial_group(spec: FieldSpec, n: int, *, budget: int = DEFAULT_BUDGET):
    """All (q-1)^n * n! monomial matrices in monomial_at's order: diagonals
    in index order outer, permutations in lexicographic order inner."""
    check_budget(monomial_group_order(spec, n) * n, budget, "monomial group enumeration")
    for j in range(monomial_group_order(spec, n)):
        yield monomial_at(spec, n, j)


def monomial_at(spec: FieldSpec, n: int, j: int) -> MonomialMatrix:
    """monomial_group(spec, n)'s element j, from j's base q-1 and factorial digits."""
    d, p = divmod(j, math.factorial(n))
    diag, left, perm = [], list(range(n)), []
    for i in reversed(range(n)):
        d, x = divmod(d, spec.q - 1)
        diag.append(x + 1)
        k, p = divmod(p, math.factorial(i))
        perm.append(left.pop(k))
    return MonomialMatrix(spec, n, tuple(perm), tuple(reversed(diag)))


# -- code file format ---------------------------------------------------------


# parse_code_file's fields, one per valid (p, m, poly): FieldSpecs are
# immutable, q <= 16 leaves finitely many, and a refused one is not kept.
_file_field = functools.cache(FieldSpec)


def parse_code_file(text: str) -> LinearCode:
    spec = None
    n = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if spec is None:
            if tokens[0] != "field":
                raise CodeFileError(f"line {lineno}: expected a field line, got {line!r}")
            fields = {}
            for tok in tokens[1:]:
                if "=" not in tok:
                    raise CodeFileError(f"line {lineno}: bad field token {tok!r}")
                key, _, val = tok.partition("=")
                fields[key] = val
            try:
                p = int(fields["p"])
                m = int(fields["m"])
            except (KeyError, ValueError) as exc:
                raise CodeFileError(f"line {lineno}: field line needs integer p= and m=") from exc
            poly = None
            if "poly" in fields:
                try:
                    poly = tuple(int(c) for c in fields["poly"].split(","))
                except ValueError as exc:
                    raise CodeFileError(f"line {lineno}: bad poly= value") from exc
            try:
                spec = _file_field(p, m, poly)
            except ValueError as exc:
                raise CodeFileError(f"line {lineno}: {exc}") from exc
        elif n is None:
            if not line.startswith("n="):
                raise CodeFileError(f"line {lineno}: expected n=<length>, got {line!r}")
            try:
                n = int(line[2:])
            except ValueError as exc:
                raise CodeFileError(f"line {lineno}: bad length {line[2:]!r}") from exc
            if n < 1:
                raise CodeFileError(f"line {lineno}: length must be positive")
        else:
            if tokens[0] != "gen":
                raise CodeFileError(f"line {lineno}: expected a gen line, got {line!r}")
            try:
                row = [int(t) for t in tokens[1:]]
            except ValueError as exc:
                raise CodeFileError(f"line {lineno}: gen entries must be integers") from exc
            if len(row) != n:
                raise CodeFileError(f"line {lineno}: expected {n} entries, got {len(row)}")
            if any(not (0 <= e < spec.q) for e in row):
                raise CodeFileError(f"line {lineno}: entries must be element indices in [0, {spec.q})")
            rows.append(row)
    if spec is None:
        raise CodeFileError("line 1: missing field line")
    if n is None:
        raise CodeFileError("line 1: missing n= line")
    return LinearCode._from_rref(spec, n, _rref(spec, rows, n))


def format_code_file(code: LinearCode) -> str:
    return _file_head(code) + "".join(f"gen {' '.join(map(str, row))}\n" for row in code.generators)


def _file_head(code: LinearCode) -> str:
    """The field and n= lines a code's file opens with: all of the zero code's."""
    spec = code.spec
    poly = "" if spec.m == 1 else " poly=" + ",".join(map(str, spec.defining_poly))
    return f"field p={spec.p} m={spec.m}{poly}\nn={code.n}\n"


# -- code collections ----------------------------------------------------------


def all_codes(spec: FieldSpec, n: int):
    """Every subspace of F_q^n exactly once, in code_at's order."""
    for j in range(code_count(spec, n)):
        yield code_at(spec, n, j)


def code_at(spec: FieldSpec, n: int, j: int) -> LinearCode:
    """all_codes(spec, n)'s element j, without listing the codes before it.

    The order: dimension k ascending, then rref pivot columns in
    lexicographic order, then the free entries (row by row, columns
    ascending, pivot columns skipped) as base-q digits, the last entry
    fastest.  So j skips whole k-blocks of [n, k]_q codes, then pivot
    blocks of q^#free codes, and what is left are the free entries.
    """
    if j < 0:
        raise IndexError(f"code index {j} is negative")
    q = spec.q
    for k in range(n + 1):
        if j < (block := _subspaces(q, n, k)):
            break
        j -= block
    else:
        raise IndexError("code index out of range")
    for pivots in itertools.combinations(range(n), k):
        # row r has n - pivots[r] - 1 later columns, k - r - 1 of them pivots
        if j < (block := q ** sum(n - p - k + r for r, p in enumerate(pivots))):
            break
        j -= block
    rows = [[0] * n for _ in range(k)]
    for r, p in enumerate(pivots):
        rows[r][p] = 1
    free = [(r, c) for r in range(k) for c in range(pivots[r] + 1, n) if c not in pivots]
    for r, c in reversed(free):
        j, rows[r][c] = divmod(j, q)
    return LinearCode._from_rref(spec, n, tuple(map(tuple, rows)))


def _subspaces(q: int, n: int, k: int) -> int:
    """The Gaussian binomial [n, k]_q: the number of k-dimensional subspaces
    of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def code_count(spec: FieldSpec, n: int) -> int:
    """How many codes all_codes(spec, n) yields: [n, k]_q summed over k."""
    return sum(_subspaces(spec.q, n, k) for k in range(n + 1))


def random_code(spec: FieldSpec, n: int, k: int, seed: int) -> LinearCode:
    """Seeded random code of dimension exactly k (rows redrawn if singular)."""
    if not (0 <= k <= n):
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    rng = random.Random(seed)
    for _ in range(10_000):
        rows = _rref(spec, [[rng.randrange(spec.q) for _ in range(n)] for _ in range(k)], n)
        if len(rows) == k:
            return LinearCode._from_rref(spec, n, rows)
    raise RuntimeError("failed to draw a full-rank matrix")
