"""Hypothesis property tests.  The profile loaded in conftest.py keeps them
derandomized and bounded."""

import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st  # noqa: E402

from weightenum import EnumeratorPolynomial, compare, field_for_q  # noqa: E402

# (q, fold) shapes with at most 16 cells.
_SHAPES = [(2, 1), (3, 1), (4, 1), (5, 1), (7, 1), (16, 1), (2, 2), (3, 2), (4, 2), (2, 3)]
_COEFS = st.builds(
    Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**12)
).filter(bool)


@st.composite
def _polynomial_pairs(draw):
    """Two polynomials of one random shape: terms with random exponents
    (up to a few hundred) and signed, non-unit rational coefficients."""
    q, fold = draw(st.sampled_from(_SHAPES))
    ncells = q**fold
    cells = st.lists(st.integers(0, 300), min_size=ncells, max_size=ncells)
    exps = draw(st.lists(cells, max_size=12))
    # Top each exponent up in its last cell to the common degree n.
    n = max((sum(e) for e in exps), default=draw(st.integers(0, 5)))
    exps = [tuple(e[:-1]) + (e[-1] + n - sum(e),) for e in exps]
    spec = field_for_q(q)
    # Each side keeps a random subset; a shared term keeps or redraws its coefficient.
    left = {e: draw(_COEFS) for e in exps if draw(st.booleans())}
    right = {
        e: left[e] if e in left and draw(st.booleans()) else draw(_COEFS)
        for e in exps
        if draw(st.booleans())
    }
    return EnumeratorPolynomial(spec, fold, n, left), EnumeratorPolynomial(spec, fold, n, right)


@given(_polynomial_pairs())
def test_canonical_text_is_json_dumps_and_round_trips(pair):
    for poly in pair:
        text = poly.to_text()
        assert text == json.dumps(poly.to_doc(), indent=2) + "\n"
        again = EnumeratorPolynomial.from_text(text)
        assert again == poly and again.to_text() == text
    report = compare(*pair)
    assert report.to_text() == json.dumps(report.to_doc(), indent=2) + "\n"
