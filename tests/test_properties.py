"""Hypothesis property tests.  The profile loaded in conftest.py keeps them
derandomized and bounded."""

import itertools
import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from weightenum import ClaimCheck, EnumeratorPolynomial, compare, field_for_q  # noqa: E402

# (q, fold) shapes with at most 16 cells.
_SHAPES = [(2, 1), (3, 1), (4, 1), (5, 1), (7, 1), (16, 1), (2, 2), (3, 2), (4, 2), (2, 3)]
_COEFS = st.builds(
    Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**12)
).filter(bool)


@st.composite
def _polynomial_pairs(draw):
    """Two polynomials of one random shape: terms with random exponents
    (cells up to 255, the degree cap) and signed, non-unit rational
    coefficients."""
    q, fold = draw(st.sampled_from(_SHAPES))
    ncells = q**fold
    cells = st.lists(st.integers(0, 255), min_size=ncells, max_size=ncells)
    exps = []
    for e in draw(st.lists(cells, max_size=12)):
        # Cap the running sum at 255: cells past the cap shrink.
        ends = [min(s, 255) for s in itertools.accumulate(e, initial=0)]
        exps.append([b - a for a, b in zip(ends, ends[1:])])
    # Top each exponent up in its last cell to the common degree n.
    n = max((sum(e) for e in exps), default=draw(st.integers(0, 5)))
    exps = [tuple(e[:-1]) + (e[-1] + n - sum(e),) for e in exps]
    return _pair(draw, q, fold, n, exps)


def _pair(draw, q, fold, n, exps):
    spec = field_for_q(q)
    # Each side keeps a random subset; a shared term keeps or redraws its coefficient.
    left = {e: draw(_COEFS) for e in exps if draw(st.booleans())}
    right = {
        e: left[e] if e in left and draw(st.booleans()) else draw(_COEFS)
        for e in exps
        if draw(st.booleans())
    }
    return EnumeratorPolynomial(spec, fold, n, left), EnumeratorPolynomial(spec, fold, n, right)


@st.composite
def _sparse_pairs(draw):
    """Two polynomials of degree 0-12 over up to 64 cells: an exponent puts
    a drawn share of its n units in one cell and the rest one by one in
    drawn cells, so most cells are 0 and some reach 10 or more."""
    q, fold = draw(st.sampled_from([(2, 1), (5, 1), (3, 2), (4, 3), (8, 2), (2, 6)]))
    ncells, n = q**fold, draw(st.integers(0, 12))
    cell = st.integers(0, ncells - 1)
    exps = []
    for _ in range(draw(st.integers(0, 10))):
        exp = [0] * ncells
        heavy = draw(st.integers(0, n))
        exp[draw(cell)] += heavy
        for c in draw(st.lists(cell, min_size=n - heavy, max_size=n - heavy)):
            exp[c] += 1
        exps.append(tuple(exp))
    return _pair(draw, q, fold, n, exps)


def _check_texts(pair):
    for poly in pair:
        text = poly.to_text()
        assert text == json.dumps(poly.to_doc(), indent=2) + "\n"
        again = EnumeratorPolynomial.from_text(text)
        assert again == poly and again.to_text() == text
    report = compare(*pair)
    assert report.to_text() == json.dumps(report.to_doc(), indent=2) + "\n"


@given(_polynomial_pairs())
def test_canonical_text_is_json_dumps_and_round_trips(pair):
    _check_texts(pair)


@given(_sparse_pairs())
def test_sparse_texts_across_the_one_digit_boundary(pair):
    _check_texts(pair)


# Report strings: any text (quotes, backslashes, non-ASCII), and code-file
# texts, which always hold newlines.
_TEXT = st.text(max_size=10)
_CODE_TEXT = st.text(alphabet="field p=m12357\ngn ,", max_size=30).map(lambda t: t + "\n")
_INTS = st.lists(st.integers(-5, 300), max_size=4)
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**30), 10**30) | _TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=4,
)
_INSTANCES = st.fixed_dictionaries(
    {"description": _TEXT, "codes": st.lists(_CODE_TEXT, max_size=3), "equal": st.booleans()},
    optional={
        "variants": st.dictionaries(st.sampled_from(["first", "second", "both"]), st.booleans()),
        "differences": st.lists(
            st.fixed_dictionaries({"exp": _INTS, "left": _TEXT, "right": _TEXT}), max_size=3
        ),
        "matrix": st.fixed_dictionaries({"perm": _INTS, "diag": _INTS}),
        "r": _INTS,
        "lhs": st.integers(0, 10**12),
        "rhs": st.integers(0, 10**12),
        "other": _VALUES,
    },
)
_PARAMETERS = st.fixed_dictionaries(
    {
        "q": st.none() | st.integers(2, 16),
        "n": st.none() | st.integers(1, 16),
        "trials": st.none() | st.integers(1, 100),
        "seed": st.integers(-(2**40), 2**40),
        "cells": st.lists(st.lists(st.integers(1, 16), min_size=2, max_size=2), max_size=4),
    },
    optional={"g": st.integers(1, 5)},
)


@given(_TEXT, _PARAMETERS, st.lists(_INSTANCES, max_size=3), st.booleans(), st.booleans())
def test_claim_report_text_is_json_dumps(claim, parameters, instances, assertive, passed):
    equal = sum(1 for inst in instances if inst["equal"])
    check = ClaimCheck(claim, parameters, instances, equal, len(instances) - equal, assertive, passed)
    assert check.to_text() == json.dumps(check.to_doc(), indent=2) + "\n"
