import hashlib
import itertools
import json
import re
import time

import pytest

import weightenum.verify as verify
from weightenum import (
    CLAIMS,
    CapacityError,
    LinearCode,
    all_codes,
    avg_cjwe_bruteforce,
    avg_gfold_bruteforce,
    avg_gfold_closedform,
    census,
    cjwe,
    compare,
    field_for_q,
    format_code_file,
    macwilliams_transform,
    parse_code_file,
    run_claim,
)


def test_claim_list():
    assert set(CLAIMS) == {
        "macwilliams",
        "thm33i",
        "thm33ii",
        "thm33iii",
        "yoshida",
        "thm43",
        "thm52",
        "lemma31",
        "lemma42",
    }


def test_macwilliams_exhaustive_cell():
    check = run_claim("macwilliams", q=2, n=2)
    assert check.assertive and check.passed
    assert check.unequal_count == 0
    assert check.equal_count == 25  # 5 codes of length 2, all pairs
    assert all("exhaustive" in inst["description"] for inst in check.instances)


def test_thm33_variants():
    for claim in ("thm33i", "thm33ii", "thm33iii"):
        check = run_claim(claim, q=3, n=1)
        assert check.assertive and check.passed and check.unequal_count == 0


def test_yoshida_claim():
    check = run_claim("yoshida", n=2)
    assert check.parameters["cells"] == [[2, 2]]
    assert check.assertive and check.passed
    with pytest.raises(ValueError):
        run_claim("yoshida", q=3, n=2)


def test_thm43_reports_discrepancies_without_failing():
    check = run_claim("thm43", q=3, n=2)
    assert not check.assertive
    assert check.passed  # report-only
    assert check.unequal_count > 0
    flagged = [inst for inst in check.instances if not inst["equal"]]
    assert all(inst["differences"] for inst in flagged)
    # instances embed replayable code files
    assert all("field p=3 m=1" in inst["codes"][0] for inst in check.instances)


def test_thm43_assertive_at_q2():
    check = run_claim("thm43", q=2, n=2)
    assert check.assertive and check.passed and check.unequal_count == 0


def test_thm52_small():
    check = run_claim("thm52", q=2, n=2, g=3)
    assert check.assertive and check.passed
    check3 = run_claim("thm52", q=3, n=1, g=3)
    assert not check3.assertive and check3.passed


def test_lemma31_reports_per_matrix_verdicts():
    check = run_claim("lemma31", q=2, n=3)
    assert not check.assertive and check.passed
    assert check.unequal_count == 24  # 3-cycles on codes not fixed by their square
    assert check.equal_count == 96 - 24
    assert all("matrix" in inst for inst in check.instances)


def test_lemma42_contains_the_witness():
    check = run_claim("lemma42", q=3, n=2)
    assert not check.assertive and check.passed
    witnesses = [
        inst
        for inst in check.instances
        if inst["r"] == [0, 2, 0] and inst["lhs"] == 2 and inst["rhs"] == 4
    ]
    assert witnesses and not witnesses[0]["equal"]
    assert "gen 1 1" in witnesses[0]["codes"][0]


def test_lemma42_assertive_at_q2():
    check = run_claim("lemma42", q=2, n=3)
    assert check.assertive and check.passed


def test_random_sweeps_are_deterministic():
    a = run_claim("thm43", q=4, n=2, trials=3, seed=11)
    b = run_claim("thm43", q=4, n=2, trials=3, seed=11)
    assert a.to_text() == b.to_text()
    c = run_claim("thm43", q=4, n=2, trials=3, seed=12)
    assert c.to_text() != a.to_text()


def test_report_serialization_shape():
    check = run_claim("lemma42", q=3, n=1)
    doc = json.loads(check.to_text())
    assert doc["claim"] == "lemma42"
    assert doc["aggregate"]["instances"] == len(doc["instances"])
    assert doc["aggregate"]["passed"] is True


def test_unknown_claim():
    with pytest.raises(ValueError):
        run_claim("lemma99", q=2, n=2)


@pytest.mark.parametrize("trials", [0, -3])
def test_non_positive_trials_are_refused(trials):
    # An empty sweep would report an assertive pass over no instances.
    with pytest.raises(ValueError, match="trials must be positive"):
        run_claim("macwilliams", q=2, n=2, trials=trials)


@pytest.mark.parametrize("g", [0, -2])
def test_non_positive_g_is_refused(g):
    with pytest.raises(ValueError, match="g must be positive"):
        run_claim("thm52", q=2, n=1, g=g)


@pytest.mark.parametrize(
    "claim,kwargs,digest",
    [
        ("thm52", dict(q=2, n=3, seed=0),
         "e459fe242842cd6290659b471271b9d0986c4a966618e08da9b70d6ed03800bf"),
        ("thm52", dict(q=3, n=2, g=2, trials=3, seed=1),
         "1aac539f4446dd2cfac46e2e80cae67dc2f351b9b3d192625c6d11ecbb4b8b98"),
        ("thm43", dict(q=3, n=2, trials=3, seed=1),
         "f6c1594bb74570ca098f112288e6ac4d4da7484ce56edc94ae400a0866077abf"),
        ("thm33iii", dict(q=3, n=2, trials=2, seed=1),
         "a256abc3db1b5f8de6b941dfb99fead6af40917a819399878be1f2bb83623457"),
        ("macwilliams", dict(),
         "ad6fdb828364235c59c36928ef841f1a4379b8249922cafc080e760f61c28d48"),
        ("thm33i", dict(),
         "37c74418f23e02390d692000ed156f513f4829c61fc3da55b5a0a7c673bd1395"),
        ("thm33ii", dict(),
         "5a2025c46d9db3ab7ae355f10ed9bcf52ccba0f6f259eb21756c46814eef6d5c"),
        ("thm33iii", dict(),
         "eaf8205dc4ff2f43d2070af8f7bab89c7dfcec52acadaae90afd21538b4746de"),
        ("yoshida", dict(),
         "6461542bfa45a68d88ad4fe953f472cc9257a905a582566a8b6ad15a47a39c12"),
        ("thm43", dict(),
         "77c195b049612a58c84213b53f705e1e8d4b78bb86f5fdb9437b3cdb343dfef3"),
        ("thm52", dict(),
         "858bfd20181055bb86b87e5d415b5128295889734794eb5d6c0f61e5f01471f7"),
        ("lemma31", dict(),
         "3f2e71fad11a877e7b0bdc02b7e5180e6526608e1b38702299010b192b701734"),
        ("lemma42", dict(),
         "86a4be135c026dd5c07f7496c5e56f7a6349ba1054d68e01e0c0518fdf239f6b"),
        ("lemma31", dict(q=3, n=2, trials=7, seed=4),
         "0155905ff0ce97a23d8a867927e42b91a136792c593b96a7a529da228a95f7b9"),
        ("lemma42", dict(q=3, n=2, trials=7, seed=4),
         "f818fed767fa3285156a345bdbfa247907462793af11821d39c165cf7173f7a1"),
    ],
)
def test_frozen_draw_orders(claim, kwargs, digest):
    # Pair claims draw k1, k2, seed1, seed2; thm52 draws k, seed per code at
    # every g, g = 2 included; lemma31 draws a code then a matrix index, and
    # lemma42 one (code, composition) index.  Every claim's default grid is
    # pinned too.  Reports must stay byte-identical.
    text = run_claim(claim, **kwargs).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _counting(monkeypatch, name):
    """Replace verify.<name> with a wrapper that records each call's first
    arguments; returns the list of recorded calls."""
    calls = []
    kernel = getattr(verify, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(verify, name, counted)
    return calls


@pytest.mark.parametrize("claim,kernel", [("macwilliams", "cjwe"), ("thm33i", "avg_cjwe_bruteforce")])
def test_exhaustive_transform_cell_runs_each_pair_enumerator_once(monkeypatch, claim, kernel):
    # Every dualized pair of an exhaustive cell is itself a pool pair, so the
    # kernel runs once per ordered pool pair, and never twice on one pair.
    calls = _counting(monkeypatch, kernel)
    check = run_claim(claim, q=2, n=2)
    pool = len(list(all_codes(field_for_q(2), 2)))
    assert pool == 5 and check.equal_count == pool**2
    assert len(calls) == pool**2
    assert len({(c1.generators, c2.generators) for c1, c2 in calls}) == pool**2


@pytest.mark.parametrize("claim,kwargs", [
    ("macwilliams", dict(q=2, n=2)),
    ("thm52", dict(q=2, n=2, g=2)),
    ("lemma31", dict(q=3, n=2)),
    ("thm43", dict(q=3, n=2, trials=6, seed=3)),
])
def test_each_code_file_is_formatted_once_per_report(monkeypatch, claim, kwargs):
    calls = _counting(monkeypatch, "format_code_file")
    check = run_claim(claim, **kwargs)
    formatted = [args[0] for args in calls]
    assert len(formatted) == len(set(formatted))
    texts = {text for inst in check.instances for text in inst["codes"]}
    assert len(formatted) == len(texts)
    # A second report formats its codes again.
    run_claim(claim, **kwargs)
    assert len(calls) == 2 * len(texts)


@pytest.mark.parametrize("claim,kwargs", [
    ("lemma31", {}),
    ("lemma31", dict(q=4, n=3, trials=40, seed=1)),
    ("lemma42", {}),
    ("lemma42", dict(q=3, n=4, trials=50, seed=1)),
])
def test_lemma_sweeps_decode_each_index_once_per_cell(monkeypatch, claim, kwargs):
    # Each drawn code index, and for lemma31 each matrix index, is decoded
    # once per cell: once per distinct code (matrix) its instances read.
    names = ("code_at", "monomial_at") if claim == "lemma31" else ("code_at",)
    calls = {name: _counting(monkeypatch, name) for name in names}
    check = run_claim(claim, **kwargs)
    read = {"code_at": set(), "monomial_at": set()}
    for inst in check.instances:
        cell = tuple(inst["description"].split()[:2])
        read["code_at"].add((cell, inst["codes"][0]))
        if "matrix" in inst:
            read["monomial_at"].add((cell, str(inst["matrix"])))
    for name, decoded in calls.items():
        keys = [(spec.q, n, i) for spec, n, i in decoded]
        assert len(keys) == len(set(keys)) == len(read[name])
    # A second report decodes them again.
    run_claim(claim, **kwargs)
    assert {name: len(c) for name, c in calls.items()} == {
        name: 2 * len(read[name]) for name in names
    }


def test_report_over_budget_is_refused():
    # The kernels of this cell need at most 405 steps; its report text does
    # not fit in 5,000 characters.
    with pytest.raises(CapacityError, match="the thm43 report needs about .* characters"):
        run_claim("thm43", q=3, n=2, budget=5000)
    # The estimate is a lower bound: a budget of the text's own length passes.
    text = run_claim("thm43", q=3, n=2).to_text()
    assert run_claim("thm43", q=3, n=2, budget=len(text)).to_text() == text


@pytest.mark.parametrize("claim", ["lemma42", "thm43"])
def test_huge_trials_are_refused_before_any_draw(claim):
    # Each instance writes at least 75 report characters, so 10^8 draws
    # cannot fit the default budget of 10^8 characters.
    start = time.perf_counter()
    with pytest.raises(CapacityError, match=f"the {claim} report needs about 7500000000 char"):
        run_claim(claim, q=2, n=1, trials=100_000_000)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("kwargs,message", [
    (dict(claim="thm43", trials=10**4300),
     "the thm43 report needs about 2^14290 characters, over the budget of 100000000"),
    (dict(claim="lemma42", trials=10**4300, budget=10**4200),
     "the lemma42 report needs about 2^14290 characters, over the budget of 2^13952"),
    (dict(claim="thm52", g=10**4300),
     "the thm52 closed form needs at least 2^2^14284 steps, over the budget of 100000000"),
])
def test_refusals_of_counts_too_long_to_print(kwargs, message):
    # Python writes no int of over 4,300 digits, so such counts are written
    # as the power of two they are at least, as check_budget writes them.
    with pytest.raises(CapacityError, match=re.escape(message)):
        run_claim(q=2, n=1, **kwargs)


@pytest.mark.parametrize("claim,chars", [("thm43", 136), ("lemma42", 118)])
def test_trials_floor_counts_descriptions_and_code_texts(claim, chars):
    # At q = 2, n = 1 a draw writes at least 75 + 25 ("q=2 n=1 random:1000000
    # #0") + 18 ("field p=2 m=1\nn=1\n") per code, two codes for thm43's
    # pairs: 10^6 draws are refused at once, not after the sweep.
    start = time.perf_counter()
    with pytest.raises(CapacityError, match=f"needs about {chars * 10**6} char"):
        run_claim(claim, q=2, n=1, trials=1_000_000)
    assert time.perf_counter() - start < 1.0
    assert run_claim(claim, q=2, n=1, trials=3).equal_count == 3


@pytest.mark.parametrize("claim,kwargs", [
    ("macwilliams", dict(q=3, n=2)),
    ("thm33iii", dict(q=2)),
    ("yoshida", dict(n=2)),
    ("thm43", dict(q=4, n=1)),
    ("thm52", dict(q=2, n=2, g=2)),
    ("thm52", dict(q=3, n=1, g=4)),
    ("lemma31", dict(q=8, n=2)),
    ("lemma42", dict(n=1)),
])
def test_trials_floor_is_a_lower_bound(claim, kwargs):
    # Each draw counts at least its cell's floor, so nothing that fits is
    # refused up front; a budget one under the summed floors is.
    check = run_claim(claim, trials=4, seed=2, **kwargs)
    width = len(check.instances[0]["codes"])
    floors = []
    for inst in check.instances:
        q, n = (int(t[2:]) for t in inst["description"].split()[:2])
        zero = format_code_file(LinearCode(field_for_q(q), n))
        shortest = inst["description"].rsplit("#", 1)[0] + "#0"
        floors.append(75 + len(shortest) + width * len(zero))
        assert verify._text_size(inst) >= floors[-1]
    start = time.perf_counter()
    with pytest.raises(CapacityError, match=f"report needs about {sum(floors)} char"):
        run_claim(claim, trials=4, seed=2, budget=sum(floors) - 1, **kwargs)
    assert time.perf_counter() - start < 0.5


def _signature(part):
    """A hashable census of a code list, () for the empty tail."""
    return frozenset(census(part).items()) if part else ()


@pytest.mark.parametrize("claim,kwargs,counts", [
    ("macwilliams", dict(q=2, n=3), {"cjwe": 256, "macwilliams_transform": 240}),
    ("thm33i", dict(q=2, n=3), {"avg_cjwe_bruteforce": 256, "macwilliams_transform": 64}),
    ("yoshida", dict(q=2, n=3),
     {"avg_gfold_closedform": 64, "avg_gfold_bruteforce": 256, "compare": 256}),
    ("thm52", dict(q=2, n=2),
     {"avg_gfold_closedform": 68, "avg_gfold_bruteforce": 125, "compare": 125}),
    ("thm43", dict(q=3, n=2),
     {"avg_gfold_closedform": 25, "avg_gfold_bruteforce": 36, "compare": 36}),
])
def test_sweeps_run_the_oracle_per_instance_and_the_formula_per_distinct_input(
    monkeypatch, claim, kwargs, counts
):
    # The enumerators, brute-force averages and comparisons run on every
    # instance (an exhaustive pair cell's enumerator once per ordered pair);
    # a transform runs once per distinct (variant, enumerator, sizes) and a
    # closed form once per distinct (C1 census, tail census) of the cell.
    calls = {name: _counting(monkeypatch, name) for name in counts}
    run_claim(claim, **kwargs)
    assert {name: len(c) for name, c in calls.items()} == counts
    # Every formula call of the cell had an input no earlier call had.
    transforms = [(variant, frozenset(base.terms.items()), sizes)
                  for base, variant, sizes in calls.get("macwilliams_transform", ())]
    closed = [(_signature(codes[:1]), _signature(codes[1:]))
              for (codes,) in calls.get("avg_gfold_closedform", ())]
    assert len(set(transforms)) == len(transforms) and len(set(closed)) == len(closed)
    # A second report repeats all of its work: no memo outlives a call.
    run_claim(claim, **kwargs)
    assert {name: len(c) for name, c in calls.items()} == {
        name: 2 * count for name, count in counts.items()
    }


_DUALIZED = {"first": (0,), "second": (1,), "both": (0, 1)}


@pytest.mark.parametrize("claim", ["macwilliams", "thm33ii", "thm43"])
@pytest.mark.parametrize("q", [2, 3, 4])
def test_verdicts_match_fresh_kernel_calls(claim, q):
    # Every instance's verdict, recomputed from fresh kernel calls with no
    # memo, is the one the report records.  The cells are exhaustive but for
    # the transform cells at q = 4, which draw 10 pairs.
    check = run_claim(claim, q=q, n=2)
    pairs = [tuple(map(parse_code_file, inst["codes"])) for inst in check.instances]
    if "exhaustive" in check.instances[0]["description"]:
        assert pairs == list(itertools.product(all_codes(field_for_q(q), 2), repeat=2))
    else:
        assert (claim, q, len(pairs)) in {("macwilliams", 4, 10), ("thm33ii", 4, 10)}
    for inst, (c1, c2) in zip(check.instances, pairs):
        if claim == "thm43":
            report = compare(avg_gfold_closedform([c1, c2]), avg_gfold_bruteforce([c1, c2]))
            assert inst["differences"] == report.to_doc()["differences"]
            continue
        kernel = cjwe if claim == "macwilliams" else avg_cjwe_bruteforce
        verdicts = {}
        for variant in inst["variants"]:
            duals = [c.dual() if i in _DUALIZED[variant] else c for i, c in enumerate((c1, c2))]
            got = macwilliams_transform(kernel(c1, c2), variant, (c1.size, c2.size))
            verdicts[variant] = got == kernel(*duals)
        assert inst["variants"] == verdicts
