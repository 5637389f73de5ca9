"""Sparse enumerator polynomials with exact coefficients.

A fold-g enumerator of length-n codes lives in q^g variables, one per cell
of F_q^g in canonical order.  A term is an exponent tuple of length q^g
summing to n (the profile of some codeword tuple) mapped to its exact
rational coefficient; zero coefficients are never stored.

The character-sum transforms substitute each variable by a linear
combination of variables weighted by values of the additive character,
expand exactly, and rescale by the inverse code sizes.  The expansion runs
over integer coordinate tuples in Q(zeta_p) and only converts to rationals
at the end; a non-rational residue is mathematically impossible and is
reported as an internal error.

Serialized form (canonical, bit-exact round trip):

    {"fold": g, "q": q, "n": n,
     "terms": [{"exp": [e_0, ..., e_{q^g-1}], "coef": "<num>/<den>"}, ...]}

with terms sorted lexicographically by exponent tuple.  The pretty renderer
names variables x[i] / x[i,j] / x[i1,...,ig] by element indices.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .capacity import DEFAULT_BUDGET, check_budget
from .codes import LinearCode
from .compositions import census
from .cyclotomic import _vec_add, _vec_is_rational, _vec_mul, _vec_scale, _zeta_vec
from .field import FieldSpec, field_for_q

TRANSFORM_VARIANTS = ("first", "second", "both")


class EnumeratorPolynomial:
    """Homogeneous sparse polynomial in the q^fold cell variables."""

    __slots__ = ("spec", "fold", "n", "terms")

    def __init__(self, spec: FieldSpec, fold: int, n: int, terms: dict):
        ncells = spec.q**fold
        clean: dict[tuple[int, ...], Fraction] = {}
        for exp, coef in terms.items():
            exp = tuple(exp)
            if len(exp) != ncells:
                raise ValueError(f"exponent vector needs {ncells} cells, got {len(exp)}")
            if sum(exp) != n:
                raise ValueError(f"term {exp} is not homogeneous of degree {n}")
            coef = Fraction(coef)
            if coef:
                clean[exp] = coef
        self.spec = spec
        self.fold = fold
        self.n = n
        self.terms = clean

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items())

    def coefficient(self, exp) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    def evaluate_at_ones(self) -> Fraction:
        """Value at x = (1, ..., 1): the total mass of the enumerator."""
        return sum(self.terms.values(), Fraction(0))

    def scale(self, factor) -> EnumeratorPolynomial:
        factor = Fraction(factor)
        return EnumeratorPolynomial(
            self.spec, self.fold, self.n,
            {e: c * factor for e, c in self.terms.items()},
        )

    def __add__(self, other: EnumeratorPolynomial) -> EnumeratorPolynomial:
        self._same_shape(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return EnumeratorPolynomial(self.spec, self.fold, self.n, out)

    def _same_shape(self, other: EnumeratorPolynomial):
        if (self.spec.q, self.fold, self.n) != (other.spec.q, other.fold, other.n):
            raise ValueError("polynomial shape mismatch (q, fold, n)")

    def __eq__(self, other) -> bool:
        if not isinstance(other, EnumeratorPolynomial):
            return NotImplemented
        return (
            self.spec.q == other.spec.q
            and self.fold == other.fold
            and self.n == other.n
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        return (
            f"EnumeratorPolynomial(q={self.spec.q}, fold={self.fold}, "
            f"n={self.n}, {len(self.terms)} terms)"
        )

    # -- serialization --------------------------------------------------------

    def to_doc(self) -> dict:
        return {
            "fold": self.fold,
            "q": self.spec.q,
            "n": self.n,
            "terms": [
                {"exp": list(e), "coef": f"{c.numerator}/{c.denominator}"}
                for e, c in self.sorted_terms()
            ],
        }

    def to_text(self) -> str:
        return json.dumps(self.to_doc(), indent=2) + "\n"

    @classmethod
    def from_doc(cls, doc: dict, spec: FieldSpec | None = None) -> EnumeratorPolynomial:
        q = int(doc["q"])
        if spec is None:
            spec = field_for_q(q)
        elif spec.q != q:
            raise ValueError(f"document is over F_{q}, spec is F_{spec.q}")
        terms = {
            tuple(item["exp"]): Fraction(item["coef"]) for item in doc["terms"]
        }
        return cls(spec, int(doc["fold"]), int(doc["n"]), terms)

    @classmethod
    def from_text(cls, text: str, spec: FieldSpec | None = None) -> EnumeratorPolynomial:
        return cls.from_doc(json.loads(text), spec)

    def pretty(self) -> str:
        if not self.terms:
            return "0"
        q, g = self.spec.q, self.fold
        parts = []
        for exp, coef in self.sorted_terms():
            factors = []
            for idx, e in enumerate(exp):
                if not e:
                    continue
                cell = []
                t = idx
                for _ in range(g):
                    cell.append(t % q)
                    t //= q
                name = "x[" + ",".join(str(a) for a in reversed(cell)) + "]"
                factors.append(name if e == 1 else f"{name}^{e}")
            body = " ".join(factors) if factors else "1"
            if coef == 1 and factors:
                parts.append(body)
            else:
                c = f"{coef.numerator}/{coef.denominator}" if coef.denominator != 1 else str(coef.numerator)
                parts.append(f"{c} {body}" if factors else c)
        return " + ".join(parts)


# -- constructors ---------------------------------------------------------------


def cwe(code: LinearCode, *, budget: int = DEFAULT_BUDGET) -> EnumeratorPolynomial:
    """Complete weight enumerator: one monomial per codeword composition."""
    return gfold_cjwe([code], budget=budget)


def cjwe(c1: LinearCode, c2: LinearCode, *, budget: int = DEFAULT_BUDGET) -> EnumeratorPolynomial:
    """Complete joint weight enumerator of a pair of codes."""
    return gfold_cjwe([c1, c2], budget=budget)


def gfold_cjwe(codes: list[LinearCode], *, budget: int = DEFAULT_BUDGET) -> EnumeratorPolynomial:
    """Joint enumerator of g codes: sum over codeword tuples of the monomial
    recording their fold-g composition profile, counted by the census."""
    cen = census(codes, budget=budget)
    terms = {e: Fraction(c) for e, c in cen.counts.items()}
    return EnumeratorPolynomial(codes[0].spec, cen.fold, cen.n, terms)


# -- character-sum transforms -----------------------------------------------------


def _substitution(spec: FieldSpec, fold: int, which: str) -> list[list[tuple[int, int]]]:
    """Per-variable substitution: for each cell, the (target cell, character
    exponent) pairs of the weighted linear combination replacing it."""
    q = spec.q
    mul, add, a0 = spec.mul_table, spec.add_table, spec.alpha0_table
    if fold == 1:
        if which != "first":
            raise ValueError("fold-1 polynomials only admit the 'first' transform")
        return [[(w, a0[mul[w][alpha]]) for w in range(q)] for alpha in range(q)]
    if fold != 2:
        raise ValueError("transforms are defined for fold 1 and 2 polynomials")
    table = []
    for alpha in range(q):
        for beta in range(q):
            if which == "first":
                row = [(w * q + beta, a0[mul[w][alpha]]) for w in range(q)]
            elif which == "second":
                row = [(alpha * q + w, a0[mul[beta][w]]) for w in range(q)]
            elif which == "both":
                row = [
                    (w2 * q + w1, a0[add[mul[w2][alpha]][mul[w1][beta]]])
                    for w2 in range(q)
                    for w1 in range(q)
                ]
            else:
                raise ValueError(f"unknown transform variant {which!r}")
            table.append(row)
    return table


def _prefactor(which: str, sizes) -> Fraction:
    sizes = tuple(sizes)
    if which == "first":
        return Fraction(1, sizes[0])
    if which == "second":
        if len(sizes) < 2:
            raise ValueError("the 'second' transform needs both code sizes")
        return Fraction(1, sizes[1])
    if which == "both":
        if len(sizes) < 2:
            raise ValueError("the 'both' transform needs both code sizes")
        return Fraction(1, sizes[0] * sizes[1])
    raise ValueError(f"unknown transform variant {which!r}")


def macwilliams_transform(
    P: EnumeratorPolynomial,
    which: str,
    sizes,
    *,
    budget: int = DEFAULT_BUDGET,
) -> EnumeratorPolynomial:
    """Character-sum substitution sending an enumerator to the enumerator of
    the dualized pair, scaled by the inverse size of each dualized code.

    which selects the dualized slot: "first", "second" or "both".  sizes is
    (|C1|,) or (|C1|, |C2|) of the codes the input enumerator was built from.
    The exact expansion must cancel all irrational parts; a residue raises
    RuntimeError since it can only mean an arithmetic bug.
    """
    spec = P.spec
    p, q = spec.p, spec.q
    subst = _substitution(spec, P.fold, which)
    width = len(subst[0])
    check_budget(max(len(P.terms), 1) * width**P.n, budget, "enumerator transform")

    ncells = q**P.fold
    scalar = p == 2  # zeta_2 = -1: coordinates are plain integers

    if scalar:
        zeta = lambda k: 1 if k % 2 == 0 else -1
        cmul = lambda a, b: a * b
        cadd = lambda a, b: a + b
    else:
        zeta = lambda k: _zeta_vec(p, k)
        cmul = lambda a, b: _vec_mul(p, a, b)
        cadd = _vec_add

    # Linear form replacing each variable, as a sparse polynomial.
    def one_hot(cell: int) -> tuple[int, ...]:
        return tuple(1 if i == cell else 0 for i in range(ncells))

    linear = [
        {one_hot(target): zeta(k) for target, k in subst[cell]}
        for cell in range(ncells)
    ]

    def poly_mul(A: dict, B: dict) -> dict:
        out: dict = {}
        for ea, ca in A.items():
            for eb, cb in B.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                c = cmul(ca, cb)
                if e in out:
                    out[e] = cadd(out[e], c)
                else:
                    out[e] = c
        return out

    power_cache: dict[tuple[int, int], dict] = {}

    def lin_pow(cell: int, e: int) -> dict:
        key = (cell, e)
        cached = power_cache.get(key)
        if cached is not None:
            return cached
        if e == 1:
            result = linear[cell]
        else:
            result = poly_mul(lin_pow(cell, e - 1), linear[cell])
        power_cache[key] = result
        return result

    acc: dict[tuple[int, ...], object] = {}
    unit_exp = (0,) * ncells
    for exp, coef in P.terms.items():
        factors = [(cell, e) for cell, e in enumerate(exp) if e]
        if not factors:
            prod = {unit_exp: 1 if scalar else _zeta_vec(p, 0)}
        else:
            prod = lin_pow(*factors[0])
            for cell, e in factors[1:]:
                prod = poly_mul(prod, lin_pow(cell, e))
        if scalar:
            for e_t, c_t in prod.items():
                acc[e_t] = acc.get(e_t, 0) + coef * c_t
        else:
            for e_t, c_t in prod.items():
                scaled = _vec_scale(c_t, coef)
                prev = acc.get(e_t)
                acc[e_t] = scaled if prev is None else _vec_add(prev, scaled)

    factor = _prefactor(which, sizes)
    out_terms: dict[tuple[int, ...], Fraction] = {}
    for e_t, v in acc.items():
        if scalar:
            value = Fraction(v)
        else:
            if not _vec_is_rational(v):
                raise RuntimeError(
                    "transform produced a non-rational coefficient; "
                    "this indicates an arithmetic bug"
                )
            value = Fraction(v[0])
        value *= factor
        if value:
            out_terms[e_t] = value
    return EnumeratorPolynomial(spec, P.fold, P.n, out_terms)


# -- substitutions ---------------------------------------------------------------


def specialize(P: EnumeratorPolynomial, subs: dict, fold: int | None = None) -> EnumeratorPolynomial:
    """Substitute variables by variables of a (possibly lower) fold or by
    exact constants.

    subs maps source cells (index tuples over F_q^fold) to either a target
    cell tuple or a constant.  Cells left out are kept as themselves, which
    is only possible when the fold does not change.  The result must stay
    homogeneous; mixing constants and variables that would break that is
    rejected.
    """
    spec = P.spec
    q = spec.q
    g = P.fold

    norm: dict[int, tuple[str, object]] = {}
    target_folds = set()
    for cell, target in subs.items():
        idx = cell if isinstance(cell, int) else _cell_to_index(q, cell, g)
        if isinstance(target, tuple):
            target_folds.add(len(target))
            norm[idx] = ("var", target)
        else:
            norm[idx] = ("const", Fraction(target))
    if len(target_folds) > 1:
        raise ValueError(f"substitution targets mix folds {sorted(target_folds)}")
    if fold is None:
        fold = target_folds.pop() if target_folds else g
    elif target_folds and target_folds != {fold}:
        raise ValueError("substitution targets do not match the requested fold")

    ncells_in = q**g
    ncells_out = q**fold
    identity_ok = fold == g
    out: dict[tuple[int, ...], Fraction] = {}
    degree = None
    for exp, coef in P.terms.items():
        new_exp = [0] * ncells_out
        value = coef
        for idx in range(ncells_in):
            e = exp[idx]
            if not e:
                continue
            action = norm.get(idx)
            if action is None:
                if not identity_ok:
                    raise ValueError(
                        f"cell index {idx} has no substitution but the fold changes"
                    )
                new_exp[idx] += e
            elif action[0] == "var":
                new_exp[_cell_to_index(q, action[1], fold)] += e
            else:
                value *= action[1] ** e
        deg = sum(new_exp)
        if degree is None:
            degree = deg
        elif deg != degree:
            raise ValueError("substitution does not preserve homogeneity")
        if value:
            key = tuple(new_exp)
            acc = out.get(key, Fraction(0)) + value
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
    if degree is None:
        degree = 0 if P.n else P.n
    return EnumeratorPolynomial(spec, fold, degree, out)


def _cell_to_index(q: int, cell: tuple, fold: int) -> int:
    if len(cell) != fold:
        raise ValueError(f"cell {cell} does not have fold {fold}")
    idx = 0
    for a in cell:
        if not (0 <= a < q):
            raise ValueError(f"cell entry {a} out of range for q = {q}")
        idx = idx * q + a
    return idx
