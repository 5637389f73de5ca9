"""Claim sweeps: run both computation routes over a grid of instances.

Each claim is one row of the claim table, _TABLE: its sweep, its
assertive rule, whether it takes a fold g, and whether it is fixed at
q = 2.  A new claim is one new row.  run_claim checks its inputs, runs the
row's sweep on every grid cell and records each instance (a code, a code
pair, or a code tuple plus whatever else the claim needs) in a ClaimCheck
whose serialization embeds the instance code files, so any reported
discrepancy can be replayed from the report alone.  All sweeps pick their
instances the same way: exhaustive when affordable, else seeded draws.

Shared work is done once per cell, the oracle side still per instance: a
transform sweep computes each ordered code pair's enumerator once and each
transform once per distinct (variant, enumerator, sizes), an average sweep
each census once per distinct code list and each closed form once per
distinct (C1 census, tail census), a lemma sweep decodes each code and
matrix once, and a report formats each distinct code file once.  Each memo
is made where its sweep or report starts and goes with it: a functools.cache
of a kernel found as a module global, so a tracer's rebinding reaches every
call, or for transforms and closed forms a dict keyed by what they read.
Brute-force averages and comparisons run on every instance.  A trials
count whose reports cannot fit the budget, or a fold g whose closed form
cannot, is refused before any draw.  The report text is json.dumps(doc,
indent=2) + "\n" of ClaimCheck.to_doc(), written directly.  Its size is
counted in characters against the budget as instances are recorded, and
run_claim raises CapacityError once it is over, before any text is written.

Assertive claims are expected to hold on every instance (the plain and
averaged character-sum identities, and the closed form at q = 2); the
remaining claims are report-only: their sweeps document what the two routes
produce without asserting agreement.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from .capacity import DEFAULT_BUDGET, CapacityError, _count
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
    _file_head,
    all_codes,
    code_at,
    code_count,
    format_code_file,
    monomial_at,
    monomial_group_order,
    random_code,
)
from .compositions import census
from .field import field_for_q
from .polynomials import _SLOTS, TRANSFORM_VARIANTS, cjwe, macwilliams_transform

DEFAULT_GRID_Q = (2, 3, 4)
DEFAULT_GRID_N = (1, 2, 3)

# Exhaustive sweeps above this estimated step count fall back to seeded
# random sampling of this many instances per cell.
_EXHAUSTIVE_STEP_CAP = 2_000_000
_AUTO_TRIALS = 10


@dataclass
class ClaimCheck:
    claim: str
    parameters: dict
    instances: list = field(default_factory=list)
    equal_count: int = 0
    unequal_count: int = 0
    assertive: bool = False
    passed: bool = True
    # Code file text per distinct code: a report formats each code once.
    _code_text: object = field(default_factory=lambda: functools.cache(format_code_file),
                               init=False, repr=False, compare=False)

    def add(self, description: str, codes: list[LinearCode], equal: bool, **extra):
        entry = {
            "description": description,
            "codes": list(map(self._code_text, codes)),
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
        """json.dumps(self.to_doc(), indent=2) + "\n", written directly."""
        return _json_text(self.to_doc(), "\n") + "\n"


def _json_text(value, pad: str) -> str:
    """The json.dumps(indent=2) text of a value nested at pad (a newline and
    its indentation): dicts with str keys, lists, tuples, str, int, bool and
    None."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    inner = pad + "  "
    if kind is dict:
        if not value:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}" for k, v in value.items()]
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}"
    if kind is not list and kind is not tuple:
        raise TypeError(f"{kind.__name__} is not written in reports")
    if not value:
        return "[]"
    if set(map(type, value)) == {int}:  # exponent cells, the bulk of a large report
        items = map(int.__repr__, value)
    else:
        items = [_json_text(v, inner) for v in value]
    return f"[{inner}{(',' + inner).join(items)}{pad}]"


# -- instance selection ---------------------------------------------------------


def _instances(trials, seed, cost, every, draw):
    """(instances, mode) for every sweep: every() when no trials are asked
    and the estimated cost fits _EXHAUSTIVE_STEP_CAP, else trials (default
    _AUTO_TRIALS) seeded draws, draw(rng) each."""
    if trials is None:
        if cost <= _EXHAUSTIVE_STEP_CAP:
            return every(), "exhaustive"
        trials = _AUTO_TRIALS
    rng = random.Random(seed)
    return [draw(rng) for _ in range(trials)], f"random:{trials}"


def _draw_pair(spec, n, g, rng) -> list[LinearCode]:
    """Frozen pair draw order: k1, k2, then one seed per code."""
    ks = [rng.randrange(n + 1) for _ in range(2)]
    return [random_code(spec, n, k, rng.randrange(2**32)) for k in ks]


def _draw_tuple(spec, n, g, rng) -> list[LinearCode]:
    """Frozen g-fold draw order: k then seed, code by code."""
    return [random_code(spec, n, rng.randrange(n + 1), rng.randrange(2**32)) for _ in range(g)]


def _code_tuples(spec, n, g, est_per_tuple, trials, seed, draw):
    """g-tuples of codes, each a list (the kernels' code-list form); the pool
    of all codes is counted for the estimate and listed only when the sweep
    is exhaustive."""
    return _instances(trials, seed, code_count(spec, n) ** g * est_per_tuple,
                      lambda: [list(t) for t in itertools.product(all_codes(spec, n), repeat=g)],
                      lambda rng: draw(spec, n, g, rng))


def _cell_seed(seed: int, q: int, n: int) -> int:
    return seed * 1_000_003 + q * 101 + n


# -- sweeps: generators of (mode, codes, equal, extra) per instance ---------------


def _sweep_transform(row, spec, n, g, trials, seed, budget):
    """Each of the row's variants of the pair transform against the
    enumerator of the dualized pair; the enumerator is the joint one, or the
    brute-force average for an averaged row.  Each ordered pair's enumerator
    is computed once per cell: in an exhaustive cell every dualized pair is a
    pool pair too.  A transform reads only its input enumerator and sizes, so
    it runs once per distinct (variant, enumerator terms, sizes) of the cell,
    and each instance compares it with its own dualized pair's enumerator."""
    q = spec.q
    pairs, mode = _code_tuples(spec, n, 2, (q * q) ** n * q ** (2 * n), trials, seed, _draw_pair)
    kernel = avg_cjwe_bruteforce if row.averaged else cjwe
    enumerator = functools.cache(lambda c1, c2: kernel(c1, c2, budget=budget))
    transforms = {}
    for c1, c2 in pairs:
        base, sizes = enumerator(c1, c2), (c1.size, c2.size)
        # One lookup per pair: the transforms of one (terms, sizes) by variant.
        outputs = transforms.setdefault((frozenset(base.terms.items()), *sizes), {})
        verdicts = {}
        for variant in row.variants:
            if variant not in outputs:
                outputs[variant] = macwilliams_transform(base, variant, sizes, budget=budget)
            duals = [c.dual() if i in _SLOTS[variant] else c for i, c in enumerate((c1, c2))]
            verdicts[variant] = outputs[variant] == enumerator(*duals)
        yield mode, [c1, c2], all(verdicts.values()), {"variants": verdicts}


def _sweep_average(row, spec, n, g, trials, seed, budget):
    """Closed form against brute force: on g-tuples drawn code by code for a
    row that takes g, else on pairs.  The closed form reads only the censuses
    of C1 and of the tail C2..Cg, so it runs once per distinct census pair of
    the cell, each census computed once per distinct code list; the brute
    force and the comparison run on every instance."""
    g, draw = (g, _draw_tuple) if row.takes_g else (2, _draw_pair)
    est = monomial_group_order(spec, n) * spec.q ** (g * n) * n
    tuples, mode = _code_tuples(spec, n, g, est, trials, seed, draw)
    census_key = functools.cache(
        lambda *part: frozenset(census(part, budget=budget).items()) if part else ())
    closed = {}
    for codes in tuples:
        key = census_key(*codes[:1]), census_key(*codes[1:])
        if key not in closed:
            closed[key] = avg_gfold_closedform(codes, budget=budget)
        report = compare(closed[key], avg_gfold_bruteforce(codes, budget=budget))
        yield mode, codes, report.agreed, {"differences": report.to_doc()["differences"]}


def _sweep_lemma31(row, spec, n, g, trials, seed, budget):
    """Draw j is (code_at(spec, n, j // order), monomial_at(spec, n, j %
    order)); each code and matrix is decoded once per cell, and a pair's
    check is costed at 400 steps."""
    count, order = code_count(spec, n), monomial_group_order(spec, n)
    draws, mode = _instances(trials, seed, count * order * 400,
                             lambda: range(count * order),
                             lambda rng: rng.randrange(count) * order + rng.randrange(order))
    code_of = functools.cache(lambda i: code_at(spec, n, i))
    matrix_of = functools.cache(lambda i: monomial_at(spec, n, i))
    for j in draws:
        code, M = code_of(j // order), matrix_of(j % order)
        extra = {"matrix": {"perm": list(M.perm), "diag": list(M.diag)}}
        yield mode, [code], check_lemma31(code, M).equal, extra


def _sweep_lemma42(row, spec, n, g, trials, seed, budget):
    """Draw j is (code_at(spec, n, j // R), the code's result j % R), the
    results in lemma42_results' order over the R compositions of n into q
    cells; the kernel runs once per drawn code, and the exhaustive estimate
    bounds each run by the full space's."""
    q = spec.q
    count, R = code_count(spec, n), math.comb(n + q - 1, q - 1)
    draws, mode = _instances(trials, seed, count * (q - 1) ** n * q**n * n,
                             lambda: range(count * R), lambda rng: rng.randrange(count * R))

    @functools.cache
    def per_code(i):
        code = code_at(spec, n, i)
        return code, list(lemma42_results(code, budget=budget).items())

    for j in draws:
        code, results = per_code(j // R)
        r, result = results[j % R]
        extra = {"r": list(r), "lhs": result.lhs, "rhs": result.rhs}
        yield mode, [code], result.equal, extra


def _text_size(entry: dict) -> int:
    """A lower bound on the characters an instance writes in the report: 75
    for its fixed members, its description and code texts, and one indented
    line of 14 or more characters per exponent cell of each difference row,
    the bulk of a large report."""
    size = 75 + len(entry["description"]) + sum(map(len, entry["codes"]))
    for row in entry.get("differences", ()):
        size += 14 * len(row["exp"])
    return size


# -- the claim table ----------------------------------------------------------------


@dataclass
class _Claim:
    """One claim.  A row holds data and its sweep, never a kernel: sweeps
    look kernels up by module name when they run, so rebinding a module
    global (as a tracer does) reaches every call."""

    sweep: object  # a sweep generator function above
    assertive: str  # "always", "q=2" (only when every cell has q = 2) or "never"
    variants: tuple = ()  # transform sweeps: the variants checked
    averaged: bool = False  # transform sweeps: both sides are brute-force averages
    takes_g: bool = False  # runs at the requested fold g, reported as params["g"]
    fixed_q2: str = ""  # set for a claim fixed at q = 2: the claim to use for q > 2


_TABLE = {
    "macwilliams": _Claim(_sweep_transform, "always", variants=TRANSFORM_VARIANTS),
    "thm33i": _Claim(_sweep_transform, "always", variants=("first",), averaged=True),
    "thm33ii": _Claim(_sweep_transform, "always", variants=("second",), averaged=True),
    "thm33iii": _Claim(_sweep_transform, "always", variants=("both",), averaged=True),
    "yoshida": _Claim(_sweep_average, "always", fixed_q2="thm43"),
    "thm43": _Claim(_sweep_average, "q=2"),
    "thm52": _Claim(_sweep_average, "q=2", takes_g=True),
    # lemma31 is observational: the set identity fails for specific M
    "lemma31": _Claim(_sweep_lemma31, "never"),
    "lemma42": _Claim(_sweep_lemma42, "q=2"),
}

CLAIMS = tuple(_TABLE)


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
    row = _TABLE.get(claim)
    if row is None:
        raise ValueError(f"unknown claim {claim!r}; choose from {', '.join(CLAIMS)}")
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if g < 1:
        raise ValueError(f"g must be positive, got {g}")
    if n is not None and n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if row.fixed_q2:
        if q not in (None, 2):
            raise ValueError(f"the {claim} claim is the q = 2 regime; use {row.fixed_q2} for q > 2")
        q = 2
    qs = (q,) if q is not None else DEFAULT_GRID_Q
    cells = list(itertools.product(qs, (n,) if n is not None else DEFAULT_GRID_N))
    params = {"q": q, "n": n, "trials": trials, "seed": seed, "cells": [list(c) for c in cells]}
    if row.takes_g:
        params["g"] = g
    check = ClaimCheck(claim, params)
    # The closed form's estimate is at least q^g, so a fold over the budget
    # is refused at a cell's first instance: refuse it before any draw.  A
    # bad q raises here as in its sweep; g over the budget's bit length is
    # over the budget for every q.
    for qq in qs if row.takes_g else ():
        field_for_q(qq)
        if g > budget.bit_length() or qq**g > budget:
            raise CapacityError(f"the {claim} closed form needs at least {qq}^{_count(g)} steps, "
                                f"over the budget of {_count(budget)}")
    tag = f" g={g}" if row.takes_g else ""  # g is now at most the budget's bit length
    # Refuse up front a report that cannot fit: every draw writes at least 75
    # characters, its cell's shortest description and the zero code's text
    # per code (_text_size).  A bad q or n raises here as in its sweep.
    if trials is not None:
        floor = 75 * trials * len(cells)
        width = g if row.takes_g else 1 if row.sweep in (_sweep_lemma31, _sweep_lemma42) else 2
        for qq, nn in cells if floor <= budget else ():  # else refused on 75 a draw
            zero = _file_head(LinearCode._from_rref(field_for_q(qq), nn, ()))
            floor += trials * (len(f"q={qq} n={nn}{tag} random:{trials} #0") + width * len(zero))
        if floor > budget:
            raise CapacityError(f"the {claim} report needs about {_count(floor)} "
                                f"characters, over the budget of {_count(budget)}")

    size = 0
    for qq, nn in cells:
        sweep = row.sweep(row, field_for_q(qq), nn, g, trials, _cell_seed(seed, qq, nn), budget)
        for i, (mode, codes, equal, extra) in enumerate(sweep):
            check.add(f"q={qq} n={nn}{tag} {mode} #{i}", codes, equal, **extra)
            size += _text_size(check.instances[-1])
            if size > budget:
                raise CapacityError(
                    f"the {claim} report needs about {_count(size)} characters, "
                    f"over the budget of {_count(budget)}"
                )

    at_q2 = row.assertive == "q=2" and all(qq == 2 for qq in qs)
    check.finish(row.assertive == "always" or at_q2)
    return check
