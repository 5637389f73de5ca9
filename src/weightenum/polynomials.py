"""Sparse enumerator polynomials with exact coefficients.

A fold-g enumerator of length-n codes lives in q^g variables, one per cell
of F_q^g in canonical order.  A term is an exponent tuple of length q^g
summing to n (the profile of some codeword tuple) mapped to its exact
rational coefficient; zero coefficients are never stored.

The character-sum transforms substitute each variable by a linear
combination of variables weighted by values of the additive character,
expand exactly, and rescale by the inverse code sizes.  Every transform is
a composition of single-slot passes, one per dualized slot: chi(w2*a +
w1*b) = chi(w2*a) * chi(w1*b), so the "both" character matrix is the
tensor product of the two one-slot matrices, and the passes commute.  They
run larger code first, so the intermediate of "both" is the enumerator
with the smaller dual, not the larger one.  A pass expands with coefficients
in Z[zeta_p], in the packed form of weightenum.cyclotomic, checks its own
step estimate before it runs, and must leave rational coefficients; a
non-rational residue is mathematically impossible and is reported as an
internal error.  The image of a fiber (generalized Krawtchouk coefficients)
depends only on the field, so each field keeps the images its passes build;
outputs, estimates and refusals do not depend on what is kept.

Serialized form (canonical, bit-exact round trip):

    {"fold": g, "q": q, "n": n,
     "terms": [{"exp": [e_0, ..., e_{q^g-1}], "coef": "<num>/<den>"}, ...]}

with terms sorted lexicographically by exponent tuple (below n = 256 as
the exponents' bytes, which sort the same way).  The canonical text is
written directly and is byte-identical to json.dumps(doc, indent=2) + "\n"
of that document; one term-list writer serves enumerators and comparison
reports.  It picks its path once per list.  Exponents of one length and
one-digit cells (every list when n <= 9) have a fixed layout: each
overwrites the digit bytes of one template of q^g "0" cells with its bytes
translated to digits.  In any other list each exponent is joined cell by
cell with str.join.  The pretty renderer names variables x[i] / x[i,j] /
x[i1,...,ig] by element indices.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from fractions import Fraction

from .capacity import DEFAULT_BUDGET, CapacityError, check_budget
from .codes import LinearCode
from .compositions import census
from .cyclotomic import _vec_mul, chi, packing
from .field import FieldSpec, field_for_q

TRANSFORM_VARIANTS = ("first", "second", "both")


class EnumeratorPolynomial:
    """Homogeneous sparse polynomial in the q^fold cell variables."""

    __slots__ = ("spec", "fold", "n", "terms")

    def __init__(self, spec: FieldSpec, fold: int, n: int, terms: dict):
        fold, n = operator.index(fold), operator.index(n)
        ncells = spec.q**fold
        clean: dict[tuple[int, ...], Fraction] = {}
        for exp, coef in terms.items():
            exp = tuple(map(operator.index, exp))
            if len(exp) != ncells:
                raise ValueError(f"exponent vector needs {ncells} cells, got {len(exp)}")
            if min(exp) < 0:
                raise ValueError(f"term {exp} has a negative exponent")
            if sum(exp) != n:
                raise ValueError(f"term {exp} is not homogeneous of degree {n}")
            coef = Fraction(coef)
            if coef:
                clean[exp] = coef
        self.spec = spec
        self.fold = fold
        self.n = n
        self.terms = clean

    @classmethod
    def _from_kernel(cls, spec: FieldSpec, fold: int, n: int, terms: dict) -> EnumeratorPolynomial:
        """Wrap kernel-built terms (valid exponent tuples -> nonzero Fractions) unchecked."""
        self = cls.__new__(cls)
        self.spec, self.fold, self.n, self.terms = spec, fold, n, terms
        return self

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
        rows = sorted(zip(map(_exp_key(self.n), self.terms), self.terms.values()))
        terms = _term_list_text(
            [(e, f'"coef": "{c.numerator}/{c.denominator}"') for e, c in rows], self.n <= 9
        )
        return (
            f'{{\n  "fold": {self.fold},\n  "q": {self.spec.q},\n  "n": {self.n},\n'
            f'  "terms": {terms}\n}}\n'
        )

    @classmethod
    def from_doc(cls, doc: dict, spec: FieldSpec | None = None) -> EnumeratorPolynomial:
        q = operator.index(doc["q"])
        if spec is None:
            spec = field_for_q(q)
        elif spec.q != q:
            raise ValueError(f"document is over F_{q}, spec is F_{spec.q}")
        terms = {
            tuple(item["exp"]): Fraction(item["coef"]) for item in doc["terms"]
        }
        return cls(spec, doc["fold"], doc["n"], terms)

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
    terms = {e: Fraction(c) for e, c in census(codes, budget=budget).items()}
    return EnumeratorPolynomial._from_kernel(codes[0].spec, len(codes), codes[0].n, terms)


# -- character-sum transforms -----------------------------------------------------

# The slots each variant dualizes, in slot order; their passes commute and
# run larger code first.
_SLOTS = {"first": (0,), "second": (1,), "both": (0, 1)}


def macwilliams_transform(
    P: EnumeratorPolynomial,
    which: str,
    sizes,
    *,
    budget: int = DEFAULT_BUDGET,
) -> EnumeratorPolynomial:
    """Character-sum substitution sending an enumerator to the enumerator of
    the dualized tuple, scaled by the inverse size of each dualized code.

    which selects the dualized slots: "first" (slot 0), "second" (slot 1)
    or "both" (slots 0 and 1).  sizes holds the positive sizes of the codes
    the input was built from, up to the largest dualized slot; any fold
    that has that slot is accepted.  One _slot_pass per slot runs, in
    decreasing order of code size (ties in slot order), on coefficients
    scaled to integers by their common denominator; the denominator times
    the code sizes divides them at the end.  Exponents are packed one byte
    per cell in each pass's fiber order: from the input, between passes,
    and back to tuples at the end.
    """
    slots = _SLOTS.get(which)
    if slots is None:
        raise ValueError(f"unknown transform variant {which!r}")
    if max(slots) >= P.fold:
        raise ValueError("fold-1 polynomials only admit the 'first' transform")
    sizes = tuple(sizes)
    if len(sizes) <= max(slots):
        raise ValueError(f"the {which!r} transform needs the size of code {max(slots) + 1}")
    for s in map(sizes.__getitem__, slots):
        if not hasattr(s, "__index__") or operator.index(s) < 1:
            raise ValueError(f"code sizes must be positive integers, got {s!r}")
    if P.n > 255:  # code lengths are capped far lower; no code reaches this
        raise CapacityError(f"transform packs exponents in bytes; degree {P.n} is over 255")
    q, ncells, order = P.spec.q, P.spec.q**P.fold, sys.byteorder
    denom = math.lcm(*(c.denominator for c in P.terms.values()))
    rows = ((e, c.numerator * (denom // c.denominator)) for e, c in P.terms.items())
    at = range(ncells)  # the byte of each cell in the current keys
    for slot in sorted(slots, key=lambda j: -sizes[j]):
        stride = q ** (P.fold - 1 - slot)  # a fiber: q cells, stride apart
        cells = [h + j + a * stride for h in range(0, ncells, q * stride)
                 for j in range(stride) for a in range(q)]
        get = operator.itemgetter(*[at[c] for c in cells])
        terms = {int.from_bytes(bytes(get(e)), order): c for e, c in rows}
        terms = _slot_pass(P.spec, ncells, P.n, terms, budget)
        at = sorted(range(ncells), key=cells.__getitem__)
        rows = ((k.to_bytes(ncells, order), c) for k, c in terms.items())
    denom *= math.prod(sizes[j] for j in slots)
    fracs = {c: Fraction(c, denom) for c in set(terms.values())}
    get = operator.itemgetter(*at)
    return EnumeratorPolynomial._from_kernel(
        P.spec, P.fold, P.n, {get(raw): fracs[c] for raw, c in rows})


# Each field's fiber images, built on first use: FieldSpec -> [width,
# reduce, value, forms, images, size].  images maps a fiber exponent (one
# byte per cell) to its image, packed for bounds of width bits (0 for p = 2);
# size counts the stored image terms.
_FIBER_IMAGES: dict = {}


def _slot_pass(spec: FieldSpec, ncells: int, n: int, terms: dict, budget: int) -> dict:
    """x_a -> sum_w chi(w * a_slot) x_{a with a_slot := w} on integer terms
    keyed by exponents packed one byte per cell in fiber order: a fiber is
    the q cells differing only in the slot coordinate, and byte a of a fiber
    holds the cell whose slot coordinate is a.  Each linear form stays in its
    fiber, so combining fibers is integer addition; a term waits in the
    bucket of its next nonzero fiber, where equal exponents merge and cancel
    early.  A fiber exponent's image depends only on the field, so it is
    read from the field's _FIBER_IMAGES entry, or built there from the image
    with its first nonzero exponent lowered by one, one cyclotomic._vec_mul
    per step; coefficients are Z[zeta_p] values packed by the entry's
    cyclotomic.packing.  A pass rebuilds the entry at its own bound when it
    needs a wider packing (a wider one is as exact; p = 2 has one), or when
    the stored image terms plus those it may add would pass its budget.
    The estimate bounds the products (every fiber expansion, stored or not,
    then each term's running product of fiber image sizes) plus the q^g-cell
    unpacking of a bound on the output; its walk also places each term in
    its first bucket.  The result is keyed in the same fiber order."""
    p, q = spec.p, spec.q
    m = [math.comb(d + q - 1, q - 1) for d in range(n + 1)]
    # m[a] * m[b] >= m[a + b]: each term costs m[n] or more, so refuse early.
    check_budget(len(terms) * m[n], budget, "enumerator transform")
    order, fbits, nfib = sys.byteorder, 8 * q, ncells // q
    fiber = (1 << fbits) - 1

    def first(k):  # the index of k's first nonzero fiber, nfib for 0
        return ((k & -k).bit_length() - 1) // fbits if k else nfib

    buckets: list = [{} for _ in range(nfib + 1)]
    steps = images = 0
    degree: dict = {}  # distinct fiber exponents, by degree
    for k, c in terms.items():
        buckets[first(k)][k] = c
        size = 1
        while k:
            shift = fbits * first(k)
            k ^= (part := (k >> shift) & fiber) << shift
            if (d := degree.get(part)) is None:
                d = degree[part] = sum(part.to_bytes(q, order))
            size *= m[d]
            steps += size
        images += size
    # A degree-d fiber adds at most d images of m[d - 1] * q terms or fewer.
    steps += (grow := sum(q * d * m[d - 1] for d in degree.values()))
    steps += min(images, math.comb(n + ncells - 1, ncells - 1)) * ncells
    check_budget(steps, budget, "enumerator transform")

    # Every coordinate stays at most sum|c| * q^n in size.
    bound = sum(map(abs, terms.values())) * q**n
    width = bound.bit_length() if p > 2 else 0
    entry = _FIBER_IMAGES.get(spec)
    if entry is None or entry[0] < width or entry[5] + grow > budget:
        zeta, reduce, value = packing(p, bound)
        mul, ch = spec.mul_table, chi(spec, zeta)
        forms = [[(1 << (8 * w), ch[mul[w][a]]) for w in range(q)] for a in range(q)]
        entry = _FIBER_IMAGES[spec] = [width, reduce, value, forms, {0: {0: 1}}, 0]
    _, reduce, value, forms, local, _ = entry

    def expand(s):
        chain = []
        while s not in local:
            a = ((s & -s).bit_length() - 1) // 8
            chain.append((s, a))
            s -= 1 << (8 * a)
        img = local[s]
        for s, a in reversed(chain):
            img = local[s] = _vec_mul(img, forms[a], reduce)
            entry[5] += len(img)
        return img

    placed: dict = {}
    for i in range(nfib):
        shift, later = fbits * i, -1 << (fbits * (i + 1))
        for k, c in buckets[i].items():
            if not (c := reduce(c)):
                continue
            part = k & (fiber << shift)
            if (img := placed.get(part)) is None:
                img = placed[part] = [(x << shift, y) for x, y in expand(part >> shift).items()]
            rest = k ^ part
            target = buckets[first(rest & later)]
            get = target.get
            for k2, y in img:
                key = rest + k2
                target[key] = get(key, 0) + c * y
        buckets[i] = None
    return {k: v for k, c in buckets[nfib].items() if (v := value(c))}


# -- canonical text -------------------------------------------------------------

# The layout json.dumps(..., indent=2) gives a list of {"exp": [...], ...}
# objects that is the value of a top-level key: objects at indent 4, their
# keys at 6, exponent cells at 8.
_CELL_SEP = ",\n        "
_TERM_SEP = '\n    },\n    {\n      "exp": [\n        '
_EXP_END = "\n      ],\n      "


class _CellText(dict):
    def __missing__(self, cell):
        text = self[cell] = str(cell)
        return text


def _exp_key(n: int):
    """Sort key of degree-n exponents: bytes below 256 (same order as tuples)."""
    return bytes if n < 256 else tuple


# bytes.translate table: a cell in [0, 9] becomes its digit, a larger one a
# byte that ASCII decoding refuses.
_DIGITS = bytes(range(48, 58)).ljust(256, b"\x80")


def _one_digit(exps) -> bool:
    """Whether exps (tuples) have one length and every cell in [0, 9]."""
    return len(set(map(len, exps))) == 1 and set().union(*exps).issubset(range(10))


def _term_list_text(rows, digits: bool) -> str:
    """Indent-2 JSON text of a term list from a list of (exp, rest) rows: exp
    a tuple or bytes of int cells, rest the object's other members already
    written ('"coef": "1/2"'), free of characters JSON escapes.  With digits
    set (see _one_digit) the exponents overwrite the digits of one template;
    otherwise each is joined cell by cell."""
    if not rows:
        return "[]"
    if digits:
        step = 1 + len(_CELL_SEP)
        template = bytearray(_CELL_SEP.join("0" * len(rows[0][0])), "ascii")
        items = []
        for e, rest in rows:
            template[::step] = bytes(e).translate(_DIGITS)
            items.append(f"{template.decode('ascii')}{_EXP_END}{rest}")
    else:
        cell = _CellText().__getitem__
        items = [f"{_CELL_SEP.join(map(cell, e))}{_EXP_END}{rest}" for e, rest in rows]
    return f'[\n    {{\n      "exp": [\n        {_TERM_SEP.join(items)}\n    }}\n  ]'
