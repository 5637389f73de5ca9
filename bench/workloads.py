"""The benchmark's three workloads: seeded instances, one timed op each, and
the exact checks applied to every op's canonical output.

A workload object knows how to
  * generate its instance list from a seed (only generator rows and CLI
    arguments are generated; the program builds everything else),
  * run one instance as an op through the public API of `weightenum`,
    returning the op's canonical output texts,
  * check those texts against an independent exact route.

Ops look the API up as attributes of the modules at call time, so the
traced run's wrappers are seen.  Each op builds its own LinearCode objects,
so the per-object codeword memo never carries work from one op to the next.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

VARIANTS = ("first", "second", "both")
# Where the benchmark writes its results and the sweep its report files.
REPORT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def random_rows(rng: random.Random, q: int, n: int, k: int) -> list[list[int]]:
    """Generator rows of a code of dimension exactly k and full support: an
    identity block on k random columns (element index 1 is the field's one,
    so the rows are independent over every F_q) and random columns, redrawn
    while all zero, elsewhere.  Full support keeps the cost of one cell's
    ops close together, so a pass costs about the same for every seed."""
    cols = list(range(n))
    rng.shuffle(cols)
    rows = [[0] * n for _ in range(k)]
    for j, c in enumerate(cols):
        if j < k:
            rows[j][c] = 1
            continue
        column = [0] * k
        while k and not any(column):
            column = [rng.randrange(q) for _ in range(k)]
        for i in range(k):
            rows[i][c] = column[i]
    return rows


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()


def _round_trip(poly_cls, text: str, label: str) -> tuple[object, list[str]]:
    poly = poly_cls.from_text(text)
    if poly.to_text() != text:
        return poly, [f"{label}: canonical JSON does not round-trip byte-exact"]
    return poly, []


def _json_round_trip(text: str, label: str) -> tuple[dict, list[str]]:
    doc = json.loads(text)
    if json.dumps(doc, indent=2) + "\n" != text:
        return doc, [f"{label}: report JSON does not round-trip byte-exact"]
    return doc, []


def _mass_errors(poly, expected: int, label: str) -> list[str]:
    mass = poly.evaluate_at_ones()
    if mass != expected:
        return [f"{label}: mass {mass}, expected {expected}"]
    return []


class Workload:
    """Cells of the instance set; a smoke test passes tiny ones."""

    cells: tuple = ()

    def __init__(self, cells=None):
        if cells is not None:
            self.cells = tuple(cells)


class Transform(Workload):
    """Plain character-sum transforms of seeded code pairs, all three variants.

    Cells are (q, n, k1, k2, pairs).  The dimensions are fixed per cell and
    only the rows are random.  The fifteen 'both' ops of full-space pairs
    (rows 'q4 n2 k2,2' and 'q5 n2 k2,0'), whose cost does not depend on the
    seed, span the eleventh-slowest rank, where op_tail_ms is read, so the
    tail does not jump between shapes from seed to seed.
    """

    name = "transform"
    cells = (
        (2, 4, 2, 2, 4),
        (2, 6, 3, 3, 4),
        (2, 7, 3, 4, 2),
        (2, 8, 2, 3, 2),
        (3, 2, 1, 1, 4),
        (3, 3, 1, 2, 4),
        (4, 2, 1, 1, 4),
        (4, 2, 2, 2, 8),
        (4, 3, 0, 2, 2),
        (5, 1, 1, 1, 4),
        (5, 2, 0, 1, 4),
        (5, 2, 2, 0, 7),
        (7, 1, 1, 1, 2),
        (7, 2, 0, 1, 1),
        (8, 1, 1, 1, 2),
        (8, 2, 0, 1, 1),
    )

    @property
    def field_sizes(self) -> list[int]:
        return sorted({c[0] for c in self.cells})

    def instances(self, seed: int) -> list[dict]:
        rng = random.Random(seed)
        out = []
        for q, n, k1, k2, pairs in self.cells:
            for _ in range(pairs):
                rows = [random_rows(rng, q, n, k1), random_rows(rng, q, n, k2)]
                for variant in VARIANTS:
                    out.append({"q": q, "n": n, "dims": [k1, k2], "variant": variant, "rows": rows})
        return out

    def run(self, we, specs, inst) -> list[str]:
        spec = specs[inst["q"]]
        c1 = we.LinearCode(spec, inst["n"], inst["rows"][0])
        c2 = we.LinearCode(spec, inst["n"], inst["rows"][1])
        base = we.cjwe(c1, c2)
        got = we.macwilliams_transform(base, inst["variant"], (c1.size, c2.size))
        return [got.to_text()]

    def check(self, we, specs, inst, texts) -> list[str]:
        spec = specs[inst["q"]]
        c1 = we.LinearCode(spec, inst["n"], inst["rows"][0])
        c2 = we.LinearCode(spec, inst["n"], inst["rows"][1])
        errors = []
        if (c1.k, c2.k) != tuple(inst["dims"]):
            errors.append(f"generated dimensions {(c1.k, c2.k)}, expected {inst['dims']}")
        errors += _mass_errors(we.cjwe(c1, c2), c1.size * c2.size, "input enumerator")
        variant = inst["variant"]
        d1 = c1.dual() if variant in ("first", "both") else c1
        d2 = c2.dual() if variant in ("second", "both") else c2
        got, rt = _round_trip(we.EnumeratorPolynomial, texts[0], "transform")
        errors += rt
        if got != we.cjwe(d1, d2):
            errors.append(f"{variant} transform differs from the enumerator of the dualized pair")
        errors += _mass_errors(got, d1.size * d2.size, "transform")
        return errors


class Average(Workload):
    """Closed form, brute force and comparator on seeded code tuples.

    Cells are (g, q, n, dims, tuples).  The g = 3 cells are dominated by the
    closed form, whose cost depends only on (q, g, n); the g = 2 cells by
    brute force.  The fourteen ops of rows 'q4 n2 g3' and 'q3 n5 g2' span
    the eleventh-slowest rank, where op_tail_ms is read, and the eight
    'q3 n3 g3' ops span the median, so neither jumps between shapes from
    seed to seed.  No transform runs here.
    """

    name = "average"
    cells = (
        (3, 4, 3, (1, 1, 1), 1),
        (2, 3, 6, (1, 1), 1),
        (3, 4, 2, (1, 1, 1), 10),
        (2, 3, 5, (1, 2), 4),
        (3, 3, 3, (1, 1, 1), 8),
        (2, 2, 6, (2, 2), 5),
        (2, 2, 5, (2, 2), 6),
        (3, 3, 2, (1, 1, 1), 6),
    )

    @property
    def field_sizes(self) -> list[int]:
        return sorted({c[1] for c in self.cells})

    def instances(self, seed: int) -> list[dict]:
        rng = random.Random(seed)
        out = []
        for g, q, n, dims, count in self.cells:
            for _ in range(count):
                rows = [random_rows(rng, q, n, k) for k in dims]
                out.append({"q": q, "n": n, "g": g, "dims": list(dims), "rows": rows})
        return out

    def _codes(self, we, specs, inst):
        spec = specs[inst["q"]]
        return [we.LinearCode(spec, inst["n"], rows) for rows in inst["rows"]]

    def run(self, we, specs, inst) -> list[str]:
        codes = self._codes(we, specs, inst)
        closed = we.avg_gfold_closedform(codes)
        brute = we.avg_gfold_bruteforce(codes)
        report = we.compare(closed, brute)
        return [closed.to_text(), brute.to_text(), report.to_text()]

    def check(self, we, specs, inst, texts) -> list[str]:
        codes = self._codes(we, specs, inst)
        errors = []
        if [c.k for c in codes] != inst["dims"]:
            errors.append(f"generated dimensions {[c.k for c in codes]}, expected {inst['dims']}")
        size = 1
        for c in codes:
            size *= c.size
        closed, rt1 = _round_trip(we.EnumeratorPolynomial, texts[0], "closed form")
        brute, rt2 = _round_trip(we.EnumeratorPolynomial, texts[1], "brute force")
        report, rt3 = _json_round_trip(texts[2], "comparison")
        errors += rt1 + rt2 + rt3
        errors += _mass_errors(closed, size, "closed form")
        errors += _mass_errors(brute, size, "brute force")
        if inst["q"] == 2 and closed != brute:
            errors.append("closed form differs from brute force at q = 2")
        differing = sorted(
            e for e in set(closed.terms) | set(brute.terms)
            if closed.coefficient(e) != brute.coefficient(e)
        )
        if report["agreed"] != (not differing) or [d["exp"] for d in report["differences"]] != [
            list(e) for e in differing
        ]:
            errors.append("comparison report does not list exactly the differing terms")
        return errors


class Sweep(Workload):
    """`weightenum verify` claim sweeps run in-process, one op per claim cell.

    Cells are (claim, q, n); thm52 uses the CLI's default fold g = 3.
    Thousands of tiny instances per pass: time goes to per-call
    overhead (code pools, rref and duals, per-cell field builds, lemma checks,
    report JSON) rather than to any one kernel.
    """

    name = "sweep"
    cells = tuple(
        [("macwilliams", 2, n) for n in (1, 2, 3)]
        + [("thm33i", 2, n) for n in (1, 2, 3)]
        + [("thm33ii", 3, 2)]
        + [("yoshida", 2, n) for n in (1, 2, 3)]
        + [("thm43", 3, n) for n in (1, 2, 3)]
        + [("lemma31", q, n) for q in (2, 3, 4) for n in (1, 2, 3)]
        + [("lemma42", q, n) for q in (2, 3, 4) for n in (1, 2, 3)]
        + [("thm52", 2, n) for n in (1, 2, 3)]
    )
    # Claims whose report must say passed: true at the given field size.
    assertive = {"macwilliams", "thm33i", "thm33ii", "thm33iii", "yoshida"}
    assertive_at_q2 = {"thm43", "thm52", "lemma42"}

    @property
    def field_sizes(self) -> list[int]:
        return sorted({c[1] for c in self.cells})

    def instances(self, seed: int) -> list[dict]:
        out = []
        for claim, q, n in self.cells:
            argv = ["verify", claim, "--q", str(q), "--n", str(n), "--seed", str(seed)]
            out.append({"claim": claim, "q": q, "n": n, "argv": argv})
        return out

    def run(self, we, specs, inst) -> list[str]:
        path = os.path.join(REPORT_DIR, "sweep-report.json")
        code = we.cli.main(inst["argv"] + ["--out", path])
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        return [str(code), text]

    def check(self, we, specs, inst, texts) -> list[str]:
        code, text = texts
        errors = []
        if code != "0":
            errors.append(f"exit code {code}")
        doc, errors_rt = _json_round_trip(text, "report")
        errors += errors_rt
        agg = doc["aggregate"]
        if agg["instances"] != len(doc["instances"]) or agg["instances"] != agg["equal"] + agg["unequal"]:
            errors.append("aggregate counts do not match the instance list")
        if sum(1 for i in doc["instances"] if i["equal"]) != agg["equal"]:
            errors.append("aggregate equal count does not match the instance verdicts")
        claim = inst["claim"]
        must_pass = claim in self.assertive or (claim in self.assertive_at_q2 and inst["q"] == 2)
        if must_pass and not (agg["assertive"] and agg["passed"] and agg["unequal"] == 0):
            errors.append("assertive claim cell did not pass")
        if agg["passed"] != (not agg["assertive"] or agg["unequal"] == 0):
            errors.append("passed flag inconsistent with the verdicts")
        return errors


WORKLOADS = {w.name: w for w in (Transform, Average, Sweep)}
