"""Claim sweeps: run both computation routes over a grid of instances.

Each claim is checked instance by instance (a code, a code pair, or a code
tuple plus whatever else the claim needs) and the verdicts are collected in
a ClaimCheck whose serialization embeds the instance code files, so any
reported discrepancy can be replayed from the report alone.

Assertive claims are expected to hold on every instance (the plain and
averaged character-sum identities, and the closed form at q = 2); the
remaining claims are report-only: their sweeps document what the two routes
produce without asserting agreement.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

from .capacity import DEFAULT_BUDGET
from .averages import (
    avg_cjwe_bruteforce,
    avg_gfold_bruteforce,
    avg_gfold_closedform,
    check_lemma31,
    compare,
    lemma42_results,
)
from .codes import (
    LinearCode,
    all_codes,
    format_code_file,
    monomial_at,
    monomial_group,
    monomial_group_order,
    random_code,
)
from .compositions import iter_compositions
from .field import field_for_q
from .polynomials import TRANSFORM_VARIANTS, cjwe, macwilliams_transform

CLAIMS = (
    "macwilliams",
    "thm33i",
    "thm33ii",
    "thm33iii",
    "yoshida",
    "thm43",
    "thm52",
    "lemma31",
    "lemma42",
)

DEFAULT_GRID_Q = (2, 3, 4)
DEFAULT_GRID_N = (1, 2, 3)

# Exhaustive sweeps above this estimated step count fall back to seeded
# random sampling of this many instances per cell.
_EXHAUSTIVE_STEP_CAP = 2_000_000
_AUTO_TRIALS = 10

_VARIANT_OF = {"thm33i": "first", "thm33ii": "second", "thm33iii": "both"}


@dataclass
class ClaimCheck:
    claim: str
    parameters: dict
    instances: list = field(default_factory=list)
    equal_count: int = 0
    unequal_count: int = 0
    assertive: bool = False
    passed: bool = True

    def add(self, description: str, codes: list[LinearCode], equal: bool, **extra):
        entry = {
            "description": description,
            "codes": [format_code_file(c) for c in codes],
            "equal": equal,
        }
        entry.update(extra)
        self.instances.append(entry)
        if equal:
            self.equal_count += 1
        else:
            self.unequal_count += 1

    def finish(self, assertive: bool):
        self.assertive = assertive
        self.passed = (self.unequal_count == 0) if assertive else True

    def to_doc(self) -> dict:
        return {
            "claim": self.claim,
            "parameters": self.parameters,
            "aggregate": {
                "instances": len(self.instances),
                "equal": self.equal_count,
                "unequal": self.unequal_count,
                "assertive": self.assertive,
                "passed": self.passed,
            },
            "instances": self.instances,
        }

    def to_text(self) -> str:
        return json.dumps(self.to_doc(), indent=2) + "\n"


# -- instance selection ---------------------------------------------------------


def _code_pool(spec, n) -> list[LinearCode]:
    return list(all_codes(spec, n))


def _draw_pair(spec, n, g, rng) -> list[LinearCode]:
    """Frozen pair draw order: k1, k2, then one seed per code."""
    ks = [rng.randrange(n + 1) for _ in range(2)]
    return [random_code(spec, n, k, rng.randrange(2**32)) for k in ks]


def _draw_tuple(spec, n, g, rng) -> list[LinearCode]:
    """Frozen g-fold draw order: k then seed, code by code."""
    return [random_code(spec, n, rng.randrange(n + 1), rng.randrange(2**32)) for _ in range(g)]


def _instances(spec, n, g, est_per_tuple, trials, seed, draw):
    """All g-tuples of codes when affordable, else seeded random draws."""
    if trials is None:
        pool = _code_pool(spec, n)
        if len(pool) ** g * est_per_tuple <= _EXHAUSTIVE_STEP_CAP:
            return [list(t) for t in itertools.product(pool, repeat=g)], "exhaustive"
        trials = _AUTO_TRIALS
    rng = random.Random(seed)
    return [draw(spec, n, g, rng) for _ in range(trials)], f"random:{trials}"


def _cell_seed(seed: int, q: int, n: int) -> int:
    return seed * 1_000_003 + q * 101 + n


def _grid(claim: str, q, n):
    qs = (q,) if q is not None else DEFAULT_GRID_Q
    ns = (n,) if n is not None else DEFAULT_GRID_N
    if claim == "yoshida":
        if any(qq != 2 for qq in qs):
            raise ValueError("the yoshida claim is the q = 2 regime; use thm43 for q > 2")
    return [(qq, nn) for qq in qs for nn in ns]


# -- per-claim sweeps --------------------------------------------------------------


def _sweep_transform(check, claim, q, n, trials, seed, budget):
    spec = field_for_q(q)
    est = (q * q) ** n * q ** (2 * n)
    pairs, mode = _instances(spec, n, 2, est, trials, _cell_seed(seed, q, n), _draw_pair)
    variants = TRANSFORM_VARIANTS if claim == "macwilliams" else (_VARIANT_OF[claim],)
    enumerator = cjwe if claim == "macwilliams" else avg_cjwe_bruteforce
    for i, (c1, c2) in enumerate(pairs):
        base = enumerator(c1, c2, budget=budget)
        verdicts = {}
        for variant in variants:
            got = macwilliams_transform(base, variant, (c1.size, c2.size), budget=budget)
            d1 = c1 if variant == "second" else c1.dual()
            d2 = c2 if variant == "first" else c2.dual()
            verdicts[variant] = got == enumerator(d1, d2, budget=budget)
        check.add(
            f"q={q} n={n} {mode} #{i}",
            [c1, c2],
            all(verdicts.values()),
            variants=verdicts,
        )


def _sweep_average(check, claim, q, n, g, trials, seed, budget):
    """Closed form against brute force.  thm52 runs at the requested g with
    its own draw order and tags g in each description; the pair claims run
    at g = 2."""
    if claim == "thm52":
        draw, tag = _draw_tuple, f" g={g}"
    else:
        g, draw, tag = 2, _draw_pair, ""
    spec = field_for_q(q)
    est = monomial_group_order(spec, n) * q ** (g * n) * n
    tuples, mode = _instances(spec, n, g, est, trials, _cell_seed(seed, q, n), draw)
    for i, codes in enumerate(tuples):
        report = compare(
            avg_gfold_closedform(codes, budget=budget),
            avg_gfold_bruteforce(codes, budget=budget),
        )
        check.add(
            f"q={q} n={n}{tag} {mode} #{i}",
            codes,
            report.agreed,
            differences=report.to_doc()["differences"],
        )


def _sweep_lemma31(check, q, n, trials, seed, budget):
    spec = field_for_q(q)
    pool = _code_pool(spec, n)
    order = monomial_group_order(spec, n)
    if trials is None and len(pool) * order <= 5000:
        pairs = list(itertools.product(pool, monomial_group(spec, n, budget=budget)))
        mode = "exhaustive"
    else:
        rng = random.Random(_cell_seed(seed, q, n))
        count = trials if trials is not None else _AUTO_TRIALS
        pairs = [
            (pool[rng.randrange(len(pool))], monomial_at(spec, n, rng.randrange(order)))
            for _ in range(count)
        ]
        mode = f"random:{count}"
    for i, (c, M) in enumerate(pairs):
        result = check_lemma31(c, M)
        check.add(
            f"q={q} n={n} {mode} #{i}",
            [c],
            result.equal,
            matrix={"perm": list(M.perm), "diag": list(M.diag)},
        )


def _sweep_lemma42(check, q, n, trials, seed, budget):
    """Draw j is (pool[j // R], comps[j % R]); the kernel runs once per drawn
    code, and the exhaustive estimate bounds each run by the full space's."""
    spec = field_for_q(q)
    pool = _code_pool(spec, n)
    comps = list(iter_compositions(n, q))
    R = len(comps)
    if trials is None and len(pool) * (q - 1) ** n * q**n * n <= _EXHAUSTIVE_STEP_CAP:
        draws, mode = range(len(pool) * R), "exhaustive"
    else:
        count = trials if trials is not None else _AUTO_TRIALS
        rng = random.Random(_cell_seed(seed, q, n))
        draws = [rng.randrange(len(pool) * R) for _ in range(count)]
        mode = f"random:{count}"
    per_code = {}
    for i, j in enumerate(draws):
        code_i, r_i = divmod(j, R)
        if code_i not in per_code:
            per_code[code_i] = lemma42_results(pool[code_i], budget=budget)
        result = per_code[code_i][comps[r_i]]
        check.add(
            f"q={q} n={n} {mode} #{i}",
            [pool[code_i]],
            result.equal,
            r=list(comps[r_i]),
            lhs=result.lhs,
            rhs=result.rhs,
        )


def run_claim(
    claim: str,
    q: int | None = None,
    n: int | None = None,
    trials: int | None = None,
    seed: int = 0,
    g: int = 3,
    *,
    budget: int = DEFAULT_BUDGET,
) -> ClaimCheck:
    """Sweep one claim over the requested cell or the default grid."""
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; choose from {', '.join(CLAIMS)}")
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if claim == "yoshida" and q is None:
        q = 2
    cells = _grid(claim, q, n)
    params = {
        "q": q,
        "n": n,
        "trials": trials,
        "seed": seed,
        "cells": [list(c) for c in cells],
    }
    if claim == "thm52":
        params["g"] = g
    check = ClaimCheck(claim, params)

    for qq, nn in cells:
        if claim in ("macwilliams", "thm33i", "thm33ii", "thm33iii"):
            _sweep_transform(check, claim, qq, nn, trials, seed, budget)
        elif claim in ("yoshida", "thm43", "thm52"):
            _sweep_average(check, claim, qq, nn, g, trials, seed, budget)
        elif claim == "lemma31":
            _sweep_lemma31(check, qq, nn, trials, seed, budget)
        elif claim == "lemma42":
            _sweep_lemma42(check, qq, nn, trials, seed, budget)

    if claim in ("macwilliams", "thm33i", "thm33ii", "thm33iii", "yoshida"):
        assertive = True
    elif claim in ("thm43", "thm52", "lemma42"):
        assertive = all(qq == 2 for qq, _ in cells)
    else:  # lemma31 is observational: the set identity fails for specific M
        assertive = False
    check.finish(assertive)
    return check
