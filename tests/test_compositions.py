import math
import time

import pytest

from weightenum import (
    FieldSpec,
    LinearCode,
    all_codes,
    census,
    field_for_q,
    iter_compositions,
)

F2 = FieldSpec(2, 1)
F3 = FieldSpec(3, 1)


def test_census_examples():
    rep = LinearCode(F2, 2, [(1, 1)])
    cen = census([rep])
    assert cen == {(2, 0): 1, (0, 2): 1}
    single = census([LinearCode(F3, 2, [])])
    assert single == {(2, 0, 0): 1}
    span = census([LinearCode(F3, 2, [(1, 1)])])
    assert span == {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}


def test_census_totals_and_b_view():
    c1 = LinearCode(F3, 2, [(1, 1)])
    c2 = LinearCode(F3, 2, [(1, 2)])
    cen = census([c1, c2])
    assert sum(cen.values()) == c1.size * c2.size
    # one position in cell (1, 1), one in (1, 2): ((1, 1), (1, 2)) and ((1, 1), (2, 1))
    eta = (0, 0, 0, 0, 1, 1, 0, 0, 0)
    assert cen.get(eta, 0) == 2
    assert cen.get((0, 0, 0, 0, 2, 0, 0, 0, 0), 0) == 0


def test_census_consistency_with_code_pairs():
    for code in all_codes(F2, 3):
        cen = census([code])
        assert sum(cen.values()) == code.size
        for word in code.codeword_list():
            assert cen.get((word.count(0), word.count(1)), 0) >= 1


@pytest.mark.parametrize("total,cells", [(0, 1), (3, 2), (2, 4), (4, 3), (1, 2000)])
def test_iter_compositions(total, cells):
    seen = list(iter_compositions(total, cells))
    assert len(seen) == math.comb(total + cells - 1, cells - 1)
    assert all(sum(t) == total for t in seen)
    assert seen == sorted(seen)
    assert len(set(seen)) == len(seen)


def test_census_mismatched_codes():
    with pytest.raises(ValueError):
        census([LinearCode(F2, 2, []), LinearCode(F3, 2, [])])
    with pytest.raises(ValueError):
        census([])


def test_census_capacity():
    from weightenum import CapacityError

    full = LinearCode(F3, 2, [(1, 0), (0, 1)])
    with pytest.raises(CapacityError):
        census([full, full], budget=10)


def test_census_budget_at_its_limit():
    from weightenum import CapacityError

    full = LinearCode(F3, 2, [(1, 0), (0, 1)])
    line = LinearCode(F3, 2, [(1, 2)])
    # Every pair walks n positions and builds a q^g-cell key.
    estimate = full.size * line.size * (2 + 3**2)
    assert sum(census([full, line], budget=estimate).values()) == 27
    with pytest.raises(CapacityError):
        census([full, line], budget=estimate - 1)


def test_census_counts_the_profile_keys():
    from weightenum import CapacityError

    # 16^2 * 16^3 word pairs with 256-cell keys: about 2.7e8 steps, refused
    # before any codeword is listed.
    f16 = field_for_q(16)
    plane = LinearCode(f16, 3, [(1, 0, 0), (0, 1, 0)])
    space = LinearCode(f16, 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    start = time.perf_counter()
    with pytest.raises(CapacityError):
        census([plane, space])
    assert time.perf_counter() - start < 0.5
