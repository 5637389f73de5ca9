"""Composition profiles: per-position value counts for words and tuples.

A fold-g profile counts, for each cell a in F_q^g, the positions i where
the g words take the joint value a.  Cells are ordered lexicographically in
element indices, so cell (a_1, ..., a_g) sits at index

    a_1 * q^(g-1) + a_2 * q^(g-2) + ... + a_g,

and a profile is a plain dense tuple of q^g counts in that order.  The
same tuples index enumerator polynomial variables and census keys: a
census is a {profile: count} dict.  count_profiles is the one loop that
counts profiles of word tuples, for the census and for the brute-force
average.
"""

from __future__ import annotations

import itertools

from .capacity import DEFAULT_BUDGET, check_budget
from .codes import LinearCode
from .field import FieldSpec


def iter_compositions(total: int, cells: int):
    """All tuples of `cells` non-negative integers summing to `total`,
    in lexicographic order (stars and bars).  The cells - 1 bar positions
    come in lexicographic order, and the part sizes between them inherit it."""
    end = total + cells - 1
    for bars in itertools.combinations(range(end), cells - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (end,)))


def tail_indices(word_lists, q: int, n: int) -> list[list[int]]:
    """Per-position partial cell index of every tuple in the product of
    word_lists, in product order (one all-zero entry for no lists)."""
    tails = []
    for combo in itertools.product(*word_lists):
        t = [0] * n
        for w in combo:
            for i in range(n):
                t[i] = t[i] * q + w[i]
        tails.append(t)
    return tails


def count_profiles(heads, tails, ncells: int) -> dict[tuple[int, ...], int]:
    """Weighted profile counts of all (head, tail) pairs, heads outer: heads
    are (head, weight) pairs, position i of a pair lies in cell head[i] +
    tail[i], and each pair adds its head's weight.  The package's one
    profile loop."""
    counts: dict[tuple[int, ...], int] = {}
    for head, weight in heads:
        positions = range(len(head))
        for tail in tails:
            key = [0] * ncells
            for i in positions:
                key[head[i] + tail[i]] += 1
            key_t = tuple(key)
            counts[key_t] = counts.get(key_t, 0) + weight
    return counts


def _code_shape(codes) -> tuple[FieldSpec, int]:
    """(spec, n) of a non-empty tuple of codes over one field and length."""
    if not codes:
        raise ValueError("need at least one code")
    spec, n = codes[0].spec, codes[0].n
    if any(c.spec != spec or c.n != n for c in codes):
        raise ValueError("codes must share field and length")
    return spec, n


def census(codes: list[LinearCode], *, budget: int = DEFAULT_BUDGET) -> dict[tuple[int, ...], int]:
    """Joint profile census of tuples from the product of the given codes:
    {profile: number of codeword tuples with it}, absent profiles at 0."""
    spec, n = _code_shape(codes)
    q = spec.q
    g = len(codes)
    total = 1
    for c in codes:
        total *= c.size
    # Each tuple walks n positions and builds and hashes a q^g-cell key.
    check_budget(total * (n + q**g), budget, "census")
    word_lists = [c.codeword_list(budget=budget) for c in codes]
    stride = q ** (g - 1)
    heads = [([a * stride for a in w], 1) for w in word_lists[0]]
    return count_profiles(heads, tail_indices(word_lists[1:], q, n), q**g)
