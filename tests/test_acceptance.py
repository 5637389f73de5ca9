"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Each criterion prints a single PASS/FAIL line (visible with pytest -s) and
enforces its runtime bound.  Criteria 3-6 record every enumerator they
compute in a mass ledger; criterion 8 replays that ledger.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from weightenum import (
    FieldSpec,
    LinearCode,
    all_codes,
    avg_cjwe_bruteforce,
    avg_cjwe_closedform,
    avg_gfold_bruteforce,
    avg_gfold_closedform,
    avg_macwilliams,
    check_lemma42,
    chi,
    cjwe,
    compare,
    field_for_q,
    macwilliams_transform,
    packing,
    random_code,
    run_claim,
)

F2 = FieldSpec(2, 1)
F3 = FieldSpec(3, 1)

# (label, enumerator, expected mass) triples recorded by criteria 3-6
MASS_LEDGER: list[tuple[str, object, int]] = []


def record_mass(label, poly, expected):
    MASS_LEDGER.append((label, poly, expected))
    assert poly.evaluate_at_ones() == expected, f"mass drift at {label}"


@contextmanager
def criterion(num, label, limit_s):
    t0 = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - t0
        if elapsed >= limit_s:
            raise AssertionError(
                f"criterion {num} took {elapsed:.1f}s, limit {limit_s}s"
            )
    except BaseException:
        print(f"criterion {num} FAIL: {label}")
        raise
    print(f"criterion {num} PASS: {label} ({elapsed:.2f}s < {limit_s}s)")


def test_criterion_1_field_and_character_suite():
    with criterion(1, "field axioms and character orthogonality, q in {2,3,4,8,9}", 5):
        for q in (2, 3, 4, 8, 9):
            spec = field_for_q(q)
            add, mul, inv = spec.add_table, spec.mul_table, spec.inv_table
            elems = range(q)  # an element is its index
            assert len(add) == len(mul) == len(inv) == q
            for a in elems:
                for b in elems:
                    assert add[a][b] == add[b][a]
                    assert mul[a][b] == mul[b][a]
                    for c in elems:
                        assert add[add[a][b]][c] == add[a][add[b][c]]
                        assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                        assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]
            assert inv[0] is None
            for a in elems[1:]:
                assert mul[a][inv[a]] == 1
            zeta, _, value = packing(spec.p, q)
            chi_of = chi(spec, zeta)
            for alpha in elems:
                total = sum(chi_of[mul[omega][alpha]] for omega in elems)
                # value() refuses a non-rational sum, and a rational 0 is 0.
                assert value(total) == (q if alpha == 0 else 0)


def test_criterion_2_duality_suite():
    with criterion(2, "double dual and size product, exhaustive + 50 random", 30):
        for q in (2, 3):
            spec = field_for_q(q)
            for n in (1, 2, 3):
                for code in all_codes(spec, n):
                    dual = code.dual()
                    assert dual.dual() == code
                    assert code.size * dual.size == q**n
        rng = random.Random(20260808)
        specs = {q: field_for_q(q) for q in (4, 8, 9)}
        for i in range(50):
            q = (4, 8, 9)[i % 3]
            spec = specs[q]
            n = 1 + i % 5
            k = rng.randrange(n + 1)
            code = random_code(spec, n, k, rng.randrange(2**32))
            dual = code.dual()
            assert dual.dual() == code
            assert code.size * dual.size == q**n


def test_criterion_3_macwilliams_identities():
    with criterion(3, "character-sum transforms equal dualized enumerators", 60):
        for q in (2, 3):
            spec = field_for_q(q)
            for n in (1, 2):
                codes = list(all_codes(spec, n))
                for c1 in codes:
                    for c2 in codes:
                        _check_macwilliams_instance(f"q={q} n={n}", c1, c2)
        f4 = field_for_q(4)
        rng = random.Random(4848)
        for i in range(25):
            n = 1 + rng.randrange(3)
            c1 = random_code(f4, n, rng.randrange(n + 1), rng.randrange(2**32))
            c2 = random_code(f4, n, rng.randrange(n + 1), rng.randrange(2**32))
            _check_macwilliams_instance(f"q=4 random #{i}", c1, c2)


def _check_macwilliams_instance(label, c1, c2):
    base = cjwe(c1, c2)
    sizes = (c1.size, c2.size)
    record_mass(f"{label} cjwe", base, c1.size * c2.size)
    pairs = {
        "first": cjwe(c1.dual(), c2),
        "second": cjwe(c1, c2.dual()),
        "both": cjwe(c1.dual(), c2.dual()),
    }
    expected_mass = {
        "first": c1.dual().size * c2.size,
        "second": c1.size * c2.dual().size,
        "both": c1.dual().size * c2.dual().size,
    }
    for variant, expected in pairs.items():
        got = macwilliams_transform(base, variant, sizes)
        assert got == expected, f"{label}: transform {variant} disagrees"
        record_mass(f"{label} transform {variant}", got, expected_mass[variant])


def test_criterion_4_average_macwilliams():
    with criterion(4, "averaged transforms equal averages of dualized pairs", 60):
        rng = random.Random(3333)
        for i in range(25):
            q = (2, 3)[i % 2]
            spec = field_for_q(q)
            n = 1 + rng.randrange(3)
            c1 = random_code(spec, n, rng.randrange(n + 1), rng.randrange(2**32))
            c2 = random_code(spec, n, rng.randrange(n + 1), rng.randrange(2**32))
            base = avg_cjwe_bruteforce(c1, c2)
            sizes = (c1.size, c2.size)
            record_mass(f"avg #{i}", base, c1.size * c2.size)
            checks = {
                "first": avg_cjwe_bruteforce(c1.dual(), c2),
                "second": avg_cjwe_bruteforce(c1, c2.dual()),
                "both": avg_cjwe_bruteforce(c1.dual(), c2.dual()),
            }
            masses = {
                "first": c1.dual().size * c2.size,
                "second": c1.size * c2.dual().size,
                "both": c1.dual().size * c2.dual().size,
            }
            for variant, expected in checks.items():
                got = avg_macwilliams(base, variant, sizes)
                assert got == expected, f"avg instance {i}: variant {variant}"
                record_mass(f"avg #{i} {variant}", got, masses[variant])


def test_criterion_5_yoshida_regime():
    with criterion(5, "closed form equals brute force for ALL binary pairs, n <= 4", 60):
        for n in (1, 2, 3, 4):
            codes = list(all_codes(F2, n))
            for c1 in codes:
                for c2 in codes:
                    brute = avg_cjwe_bruteforce(c1, c2)
                    closed = avg_cjwe_closedform(c1, c2)
                    assert closed == brute, (n, c1.generators, c2.generators)
            # record one instance per length; every pair was checked above
            record_mass(
                f"yoshida n={n}",
                avg_cjwe_bruteforce(codes[-1], codes[0]),
                codes[-1].size * codes[0].size,
            )


def test_criterion_6_gfold_reduction():
    with criterion(6, "g-fold averages reduce to pairwise; g=3 equality at q=2", 60):
        rng = random.Random(777)
        for i in range(20):
            q = (2, 3)[i % 2]
            spec = field_for_q(q)
            n = 1 + rng.randrange(3)
            c1 = random_code(spec, n, rng.randrange(n + 1), rng.randrange(2**32))
            c2 = random_code(spec, n, rng.randrange(n + 1), rng.randrange(2**32))
            brute2 = avg_gfold_bruteforce([c1, c2])
            closed2 = avg_gfold_closedform([c1, c2])
            assert brute2 == avg_cjwe_bruteforce(c1, c2), f"g=2 brute #{i}"
            assert closed2 == avg_cjwe_closedform(c1, c2), f"g=2 closed #{i}"
            record_mass(f"gfold #{i}", brute2, c1.size * c2.size)
        for n in (1, 2):
            codes = list(all_codes(F2, n))
            for c1 in codes:
                for c2 in codes:
                    for c3 in codes:
                        trip = [c1, c2, c3]
                        brute = avg_gfold_bruteforce(trip)
                        assert avg_gfold_closedform(trip) == brute
            record_mass(
                f"gfold3 n={n}",
                avg_gfold_bruteforce([codes[-1], codes[0], codes[-1]]),
                codes[-1].size ** 2,
            )
        rng = random.Random(778)
        for i in range(40):
            n = 3
            trip = [
                random_code(F2, n, rng.randrange(n + 1), rng.randrange(2**32))
                for _ in range(3)
            ]
            brute = avg_gfold_bruteforce(trip)
            assert avg_gfold_closedform(trip) == brute, f"g=3 random #{i}"
            record_mass(
                f"gfold3 random #{i}", brute, trip[0].size * trip[1].size * trip[2].size
            )


def test_criterion_7_discrepancy_documentation():
    with criterion(7, "the q=3 discrepancies are reproduced byte-identically", 5):
        span = LinearCode(F3, 2, [(1, 1)])
        zero = LinearCode(F3, 2, [])

        res = check_lemma42(span, (0, 2, 0))
        assert (res.lhs, res.rhs, res.equal) == (2, 4, False)

        report = compare(avg_cjwe_closedform(span, zero), avg_cjwe_bruteforce(span, zero))
        assert not report.agreed
        diffs = {exp: (l, r) for exp, l, r in report.differences}
        assert diffs == {
            (0, 0, 0, 2, 0, 0, 0, 0, 0): (Fraction(1), Fraction(1, 2)),
            (0, 0, 0, 0, 0, 0, 2, 0, 0): (Fraction(1), Fraction(1, 2)),
            (0, 0, 0, 1, 0, 0, 1, 0, 0): (Fraction(0), Fraction(1)),
        }

        texts = set()
        claim_texts = set()
        for _ in range(2):
            rep = compare(
                avg_cjwe_closedform(span, zero), avg_cjwe_bruteforce(span, zero)
            )
            texts.add(rep.to_text())
            claim_texts.add(run_claim("lemma42", q=3, n=2).to_text())
        assert len(texts) == 1 and len(claim_texts) == 1


def test_criterion_8_mass_conservation():
    if not MASS_LEDGER:
        # standalone run: regenerate a representative sample
        for c1 in all_codes(F2, 2):
            for c2 in all_codes(F2, 2):
                record_mass("sample", cjwe(c1, c2), c1.size * c2.size)
                record_mass("sample avg", avg_cjwe_bruteforce(c1, c2), c1.size * c2.size)
    with criterion(8, f"mass conservation over {len(MASS_LEDGER)} recorded enumerators", 30):
        for label, poly, expected in MASS_LEDGER:
            assert poly.evaluate_at_ones() == expected, label


def test_criterion_9_determinism():
    with criterion(9, "verification suite is byte-identical across reruns", 60):
        def battery() -> str:
            parts = [
                run_claim("macwilliams", q=2, n=2, seed=9).to_text(),
                run_claim("thm33iii", q=3, n=1, seed=9).to_text(),
                run_claim("yoshida", n=3, seed=9).to_text(),
                run_claim("thm43", q=3, n=2, seed=9).to_text(),
                run_claim("thm43", q=4, n=2, trials=4, seed=9).to_text(),
                run_claim("thm52", q=2, n=2, seed=9).to_text(),
                run_claim("lemma31", q=3, n=2, seed=9).to_text(),
                run_claim("lemma42", q=3, n=2, seed=9).to_text(),
                avg_cjwe_bruteforce(
                    LinearCode(F3, 2, [(1, 1)]), LinearCode(F3, 2, [])
                ).to_text(),
            ]
            return "\n".join(parts)

        assert battery() == battery()
