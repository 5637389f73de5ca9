"""Composition profiles: per-position value counts for words and tuples.

A fold-g profile counts, for each cell a in F_q^g, the positions i where
the g words take the joint value a.  Cells are ordered lexicographically in
element indices, so cell (a_1, ..., a_g) sits at index

    a_1 * q^(g-1) + a_2 * q^(g-2) + ... + a_g,

and a profile is a plain dense tuple of q^g counts in that order.  The
same tuples index enumerator polynomial variables and census keys: a
census is a {profile: count} dict.  count_profiles is the one loop that
counts profiles of word tuples, for the census and for the brute-force
average: it lays out the cells, and each (word, tail tuple) pair it counts
costs n + q^g steps (n positions, then one q^g-cell key built and hashed),
which its callers charge before calling it.
"""

from __future__ import annotations

import itertools
import math

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


def count_profiles(heads, tail_lists, q: int, n: int) -> dict[tuple[int, ...], int]:
    """Weighted profile counts of every pair of a head and a tuple from the
    product of tail_lists, heads outer and tuples in product order.  Heads
    are (word, weight) pairs and tail_lists the word lists of the other
    g - 1 codes, all in element indices; each pair adds its head's weight to
    its fold-g profile.  The head takes the first coordinate: position i
    lies in cell head[i] * q^(g-1) + t_i, t_i the fold-(g-1) cell of the
    tail tuple there.  The package's one profile loop; its callers charge
    pairs * (n + q^g) steps before calling it."""
    stride = q ** len(tail_lists)
    ncells = stride * q
    tails = []  # per-position fold-(g-1) cell index of each tail tuple
    for combo in itertools.product(*tail_lists):
        t = [0] * n
        for w in combo:
            for i in range(n):
                t[i] = t[i] * q + w[i]
        tails.append(t)
    positions = range(n)
    counts: dict[tuple[int, ...], int] = {}
    for word, weight in heads:
        head = [a * stride for a in word]
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
    tuples = math.prod(c.size for c in codes)
    check_budget(tuples * (n + spec.q ** len(codes)), budget, "census")
    word_lists = [c.codeword_list(budget=budget) for c in codes]
    return count_profiles(((w, 1) for w in word_lists[0]), word_lists[1:], spec.q, n)
