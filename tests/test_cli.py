import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import weightenum.cli as cli
from weightenum import (
    CLAIMS, CapacityError, field_for_q, format_code_file, gfold_cjwe, parse_code_file, random_code,
)
from weightenum.cli import main

REP2 = "field p=2 m=1\nn=2\ngen 1 1\n"
SEL2 = "field p=2 m=1\nn=2\ngen 0 1\n"
REP3 = "field p=2 m=1\nn=3\ngen 1 1 1\n"
SPAN3 = "field p=3 m=1\nn=2\ngen 1 1\n"
ZERO3 = "field p=3 m=1\nn=2\n"
FULL2 = "field p=2 m=1\nn=2\ngen 1 0\ngen 0 1\n"
LINE11 = "field p=11 m=1\nn=1\ngen 1\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def run(capsys, *argv) -> tuple[int, str]:
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_cwe(files, capsys):
    rc, out = run(capsys, "cwe", files("rep2.code", REP2))
    assert rc == 0
    doc = json.loads(out)
    assert doc["fold"] == 1 and doc["n"] == 2
    assert {tuple(t["exp"]): t["coef"] for t in doc["terms"]} == {
        (0, 2): "1/1",
        (2, 0): "1/1",
    }


def test_cjwe_and_gjwe_agree_for_pairs(files, capsys):
    p1, p2 = files("a.code", REP2), files("b.code", SEL2)
    rc1, out1 = run(capsys, "cjwe", p1, p2)
    rc2, out2 = run(capsys, "gjwe", p1, p2)
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert len(doc["terms"]) == 4


def test_gjwe_single_path_matches_cwe(files, capsys):
    p = files("rep2.code", REP2)
    _, out_g = run(capsys, "gjwe", p)
    _, out_c = run(capsys, "cwe", p)
    assert out_g == out_c


def test_dual_command(files, capsys):
    rc, out = run(capsys, "dual", files("rep3.code", REP3))
    assert rc == 0
    assert out == "field p=2 m=1\nn=3\ngen 1 0 1\ngen 0 1 1\n"
    rc, out = run(capsys, "dual", files("full2.code", FULL2))
    assert rc == 0
    assert out == "field p=2 m=1\nn=2\n"


def test_dual_round_trip(files, capsys, tmp_path):
    p = files("rep3.code", REP3)
    _, once = run(capsys, "dual", p)
    p2 = files("dual.code", once)
    _, twice = run(capsys, "dual", p2)
    assert twice == REP3


def test_avg_methods(files, capsys):
    p1, p2 = files("span.code", SPAN3), files("zero.code", ZERO3)
    rc, brute = run(capsys, "avg", "--method", "brute", p1, p2)
    assert rc == 0
    coefs = {t["coef"] for t in json.loads(brute)["terms"]}
    assert "1/2" in coefs
    rc, closed = run(capsys, "avg", "--method", "closed", p1, p2)
    assert rc == 0
    assert {t["coef"] for t in json.loads(closed)["terms"]} == {"1/1"}


def test_avg_closed_at_large_q_cubed(files, capsys):
    # 11^3 = 1331 cells; the closed form must not recurse once per cell
    p = files("line11.code", LINE11)
    rc, out = run(capsys, "avg", "--method", "closed", p, p, p)
    assert rc == 0
    assert len(json.loads(out)["terms"]) == 11**3


def test_avg_single_path_full_space(files, capsys):
    p = files("full2.code", FULL2)
    rc, avg = run(capsys, "avg", "--method", "brute", p)
    assert rc == 0
    _, plain = run(capsys, "cwe", p)
    assert avg == plain


def test_transform_variants(files, capsys):
    p1, p2 = files("a.code", REP2), files("b.code", SEL2)
    rc, out = run(capsys, "transform", "--variant", "i", p1, p2)
    assert rc == 0
    _, base = run(capsys, "cjwe", p1, p2)
    assert out == base  # first code is self-dual
    rc, avg_out = run(capsys, "transform", "--variant", "iii", "--average", p1, p2)
    assert rc == 0
    json.loads(avg_out)


def test_verify_exit_codes(files, capsys):
    rc, out = run(capsys, "verify", "macwilliams", "--q", "2", "--n", "2")
    assert rc == 0
    assert json.loads(out)["aggregate"]["passed"] is True

    rc, out = run(capsys, "verify", "lemma42", "--q", "3", "--n", "2")
    assert rc == 0  # report-only
    doc = json.loads(out)
    assert doc["aggregate"]["unequal"] > 0
    assert any(i["lhs"] == 2 and i["rhs"] == 4 for i in doc["instances"])


def test_verify_exit_one_when_assertive_claim_fails(files, capsys, monkeypatch):
    from weightenum.verify import ClaimCheck

    failing = ClaimCheck("macwilliams", {})
    failing.add("forced", [], False)
    failing.finish(assertive=True)
    monkeypatch.setattr(cli, "run_claim", lambda *a, **k: failing)
    rc, _ = run(capsys, "verify", "macwilliams", "--q", "2", "--n", "1")
    assert rc == 1


def test_verify_pretty(files, capsys):
    rc, out = run(capsys, "verify", "lemma42", "--q", "3", "--n", "1", "--pretty")
    assert rc == 0
    assert out.startswith("claim lemma42:")


def test_random_code_command(files, capsys):
    rc, out1 = run(capsys, "random-code", "--q", "3", "--n", "4", "--k", "2", "--seed", "5")
    rc2, out2 = run(capsys, "random-code", "--q", "3", "--n", "4", "--k", "2", "--seed", "5")
    assert rc == rc2 == 0
    assert out1 == out2
    assert out1.startswith("field p=3 m=1\nn=4\ngen ")
    rc, out = run(capsys, "random-code", "--q", "2", "--n", "3", "--k", "0")
    assert out == "field p=2 m=1\nn=3\n"
    rc, out = run(capsys, "random-code", "--q", "2", "--n", "2", "--k", "2")
    assert out == "field p=2 m=1\nn=2\ngen 1 0\ngen 0 1\n"
    # a prime field takes no defining polynomial
    rc = main(["random-code", "--q", "3", "--n", "2", "--k", "1", "--poly", "9,9,9"])
    assert rc == 2
    assert "takes no defining polynomial" in capsys.readouterr().err


def test_python_dash_m_entry_point(capsys):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    argv = ["random-code", "--q", "2", "--n", "3", "--k", "1"]
    result = subprocess.run(
        [sys.executable, "-m", "weightenum", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("field p=2 m=1\nn=3\ngen ")
    assert result.stdout == run(capsys, *argv)[1]


def test_parse_error_exit_2(files, capsys):
    bad = files("bad.code", "field p=2 m=1\nn=2\ngen 1 5\n")
    rc = main(["cwe", bad])
    err = capsys.readouterr().err
    assert rc == 2
    assert "line 3" in err


@pytest.mark.parametrize(
    "text,line",
    [
        ("field p=2 m=1 poly\nn=2\n", 1),  # a field token without =
        ("field p=2 m=2 poly=1,x,1\nn=2\n", 1),
        ("field p=2 m=1\nn=two\n", 2),
        ("field p=2 m=1\nn=0\n", 2),
        ("field p=2 m=1\nn=2\ngen 1 a\n", 3),
        ("field p=2 m=1\n", 1),  # no n= line
    ],
)
def test_code_file_errors_name_the_path_and_line(files, capsys, text, line):
    path = files("bad.code", text)
    assert main(["cwe", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line {line}: ")


def test_unreadable_path_exit_2(tmp_path, capsys):
    path = str(tmp_path / "missing.code")
    assert main(["cwe", path]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_undecodable_file_names_its_path(tmp_path, capsys):
    path = tmp_path / "binary.code"
    path.write_bytes(b"field p=2 m=1\nn=2\ngen 1 \xff\n")
    assert main(["cwe", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")


def _python_m(*argv):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "weightenum", *argv], env=env, capture_output=True, text=True, timeout=60
    )


@pytest.mark.parametrize("target", ["", "missing/out.json"])
def test_unwritable_out_exit_2(files, tmp_path, target):
    # A directory, or a path whose parent is missing: a message, no traceback.
    out = str(tmp_path / target)
    result = _python_m("cwe", files("rep2.code", REP2), "--out", out)
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: {out}: ")
    assert "Traceback" not in result.stderr


def test_failed_stdout_write_exit_2(files, capsys, monkeypatch):
    class Full:
        def write(self, text):
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(sys, "stdout", Full())
    assert main(["cwe", files("rep2.code", REP2)]) == 2
    assert capsys.readouterr().err == "error: <stdout>: [Errno 28] No space left on device\n"


def test_codes_over_different_fields_or_lengths_exit_2(files, capsys):
    p2, p3, rep3 = files("a.code", REP2), files("b.code", SPAN3), files("c.code", REP3)
    assert main(["cjwe", p2, p3]) == 2
    assert capsys.readouterr().err == f"error: {p3}: code is over a different field than {p2}\n"
    assert main(["gjwe", p2, rep3]) == 2
    assert capsys.readouterr().err == f"error: {rep3}: code has a different length than {p2}\n"
    # Of three paths, the one that disagrees is named, with the first.
    sel2 = files("d.code", SEL2)
    assert main(["gjwe", p2, sel2, rep3]) == 2
    assert capsys.readouterr().err == f"error: {rep3}: code has a different length than {p2}\n"


def test_capacity_exit_3(files, capsys):
    p1, p2 = files("a.code", SPAN3), files("b.code", ZERO3)
    rc = main(["avg", "--method", "brute", "--budget", "5", p1, p2])
    assert rc == 3


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_negative_budget_is_a_usage_error(files, capsys):
    p = files("rep2.code", REP2)
    with pytest.raises(SystemExit) as err:
        main(["cwe", p, "--budget", "-5"])
    assert err.value.code == 2
    assert "--budget" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_non_positive_trials_are_a_usage_error(capsys, trials):
    with pytest.raises(SystemExit) as err:
        main(["verify", "macwilliams", "--q", "2", "--n", "2", "--trials", trials])
    assert err.value.code == 2
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize("g", ["0", "-2"])
def test_non_positive_g_is_a_usage_error(capsys, g):
    with pytest.raises(SystemExit) as err:
        main(["verify", "thm52", "--q", "2", "--n", "1", "--g", g])
    assert err.value.code == 2
    assert "--g: must be positive" in capsys.readouterr().err


def test_oversized_field_exit_3(files, capsys):
    huge = files("huge.code", "field p=2 m=10000000\nn=2\n")
    rc = main(["cwe", huge])
    assert rc == 3
    assert "m = 10000000" in capsys.readouterr().err


def test_huge_q_exit_3_at_once(capsys):
    start = time.perf_counter()
    rc = main(["verify", "macwilliams", "--q", "100000007", "--n", "1"])
    assert rc == 3
    assert time.perf_counter() - start < 2.0
    assert "q = 100000007" in capsys.readouterr().err


def test_large_transform_cell_ends_in_budget(capsys):
    # Each transform pass checks its estimate, which counts the unpacking of
    # its output, before it runs: the q = 16, n = 3 cell ends (here with a
    # refusal) instead of spending minutes unpacking 256-cell exponents.
    start = time.perf_counter()
    rc = main(["verify", "macwilliams", "--q", "16", "--n", "3"])
    assert rc in (0, 3)
    assert time.perf_counter() - start < 5.0
    capsys.readouterr()


def test_thm33iii_at_q16_n2_ends_in_time(capsys):
    # "both" dualizes the larger code first, so its intermediate is the
    # enumerator with the smaller dual; slot 0 first takes over 1 s here.
    start = time.perf_counter()
    rc = main(["verify", "thm33iii", "--q", "16", "--n", "2", "--trials", "2"])
    assert rc == 0
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().out)["aggregate"]["instances"] == 2


@pytest.mark.parametrize("claim", ["lemma31", "lemma42"])
def test_lemma_sweeps_at_q16_n4_end_in_time(capsys, claim):
    # Both sweeps sample by index (1.2M group elements, 78,901 codes times
    # 3,876 compositions) instead of listing every pair first.
    start = time.perf_counter()
    rc = main(["verify", claim, "--q", "16", "--n", "4"])
    assert rc in (0, 3)
    assert time.perf_counter() - start < 5.0
    out = capsys.readouterr().out
    if rc == 0:
        assert json.loads(out)["instances"][0]["description"] == "q=16 n=4 random:10 #0"


def test_pair_sweeps_at_q2_n9_end_in_time(capsys):
    # The pool of 8,283,458 codes is counted, not listed, before a sweep
    # falls back to seeded draws.
    start = time.perf_counter()
    rc = main(["verify", "macwilliams", "--q", "2", "--n", "9"])
    assert rc == 0
    assert time.perf_counter() - start < 5.0
    assert json.loads(capsys.readouterr().out)["aggregate"]["instances"] == 10
    for claim in ("thm43", "thm33i", "thm52"):
        start = time.perf_counter()
        rc = main(["verify", claim, "--q", "2", "--n", "9"])
        assert rc == 3
        assert time.perf_counter() - start < 2.0
        assert capsys.readouterr().err.startswith("capacity: ")


@pytest.mark.parametrize(
    "argv",
    [
        "lemma31 --q 2 --n 9",
        "lemma42 --q 2 --n 9",
        "lemma42 --q 2 --n 8",
        "lemma42 --q 2 --n 8 --budget 1000000",
        "lemma31 --q 16 --n 16",
    ],
)
def test_lemma_sweeps_decode_large_pools_in_time(capsys, argv):
    # The sweeps decode each drawn code by its index in the pool (8,283,458
    # codes at q = 2, n = 9, about 1.4e77 at q = 16, n = 16) instead of
    # listing it.
    start = time.perf_counter()
    rc = main(["verify", *argv.split()])
    assert rc == 0
    assert time.perf_counter() - start < 5.0
    assert json.loads(capsys.readouterr().out)["aggregate"]["instances"] == 10


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
@pytest.mark.parametrize("claim", ["lemma31", "lemma42"])
def test_lemma_sweeps_end_in_time_on_every_field(capsys, claim, q):
    # Neither the codes nor lemma42's compositions (300,540,195 at q = 16,
    # n = 16) are listed before a kernel checks its budget.
    for n in (8, 12, 16):
        start = time.perf_counter()
        rc = main(["verify", claim, "--q", str(q), "--n", str(n)])
        assert rc in (0, 3), n
        assert time.perf_counter() - start < 5.0, n
        capsys.readouterr()


@pytest.mark.parametrize("claim", CLAIMS)
def test_verify_lengths_out_of_range(capsys, claim):
    for n in ("0", "-1"):
        assert main(["verify", claim, "--n", n]) == 2
        assert f"n must be positive, got {n}" in capsys.readouterr().err
    assert main(["verify", claim, "--n", "17"]) == 3
    assert "code length 17 exceeds the cap 16" in capsys.readouterr().err


def test_lemma31_budget_refusal_exit_3(capsys):
    # At q = 16, n = 2 the sweep lists neither the 19 codes nor the 450 group
    # elements, so the first instance's report text (about 137 characters) is
    # what passes the budget of 100.
    rc = main(["verify", "lemma31", "--q", "16", "--n", "2", "--budget", "100"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("capacity: the lemma31 report needs about ")
    assert "Traceback" not in captured.err


def test_report_over_budget_exit_3(capsys):
    # Every kernel of the cell fits a budget of 5,000 steps (the largest
    # estimate is 405), but its report text, 36 instances with difference
    # rows of 9 cells each, does not: the sweep refuses before writing it.
    start = time.perf_counter()
    rc = main(["verify", "thm43", "--q", "3", "--n", "2", "--budget", "5000"])
    assert rc == 3
    assert time.perf_counter() - start < 5.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("capacity: the thm43 report needs about ")
    assert "characters, over the budget of 5000" in captured.err


@pytest.mark.parametrize("claim", ["lemma42", "thm43"])
def test_huge_trials_exit_3(claim):
    # 10^8 draws of at least 75 report characters each are refused before
    # the first draw, in a fresh interpreter too.
    result = _python("-m", "weightenum", "verify", claim, "--q", "2", "--n", "1",
                     "--trials", "100000000")
    assert result.returncode == 3, result.stderr
    assert result.stdout == ""
    assert result.stderr.startswith(f"capacity: the {claim} report needs about 7500000000 ")


def test_estimate_over_the_int_text_limit_exit_3(files, capsys):
    # 900 copies of F_2^16 make a census estimate of about 2^15300, over
    # the 4,300 digits Python writes by default: the refusal gives it as a
    # power of two instead of failing on the message.
    full = files("full.code", "field p=2 m=1\nn=16\n" + "".join(
        "gen " + " ".join("1" if j == i else "0" for j in range(16)) + "\n" for i in range(16)))
    codes = [parse_code_file(pathlib.Path(full).read_text())] * 900
    with pytest.raises(CapacityError, match=r"^census needs about 2\^15\d\d\d steps, over "):
        gfold_cjwe(codes)
    result = _python("-m", "weightenum", "gjwe", *[full] * 900)
    assert result.returncode == 3, result.stderr
    assert result.stderr.startswith("capacity: census needs about 2^15")


@pytest.mark.parametrize("g", ["28", "30000", "100000000"])
def test_fold_over_the_budget_exit_3_before_any_draw(g):
    # The closed form's estimate is at least q^g: 2^28 is over the default
    # budget of 10^8, so the fold is refused before the 10 * g draws.
    start = time.perf_counter()
    result = _python("-m", "weightenum", "verify", "thm52", "--q", "2", "--n", "1", "--g", g)
    assert time.perf_counter() - start < 10.0
    assert result.returncode == 3, result.stderr
    assert result.stderr.startswith(f"capacity: the thm52 closed form needs at least 2^{g} steps")


def test_million_trials_exit_3_at_once():
    # 10^6 draws of at least 136 report characters each (75, the shortest
    # description and two zero-code texts) are refused before the first.
    start = time.perf_counter()
    result = _python("-m", "weightenum", "verify", "thm43", "--q", "2", "--n", "1",
                     "--trials", "1000000")
    assert result.returncode == 3, result.stderr
    assert time.perf_counter() - start < 10.0
    assert result.stdout == ""
    assert result.stderr.startswith("capacity: the thm43 report needs about 136000000 ")
    ok = _python("-m", "weightenum", "verify", "thm43", "--q", "2", "--n", "1", "--trials", "3")
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["aggregate"]["instances"] == 3


def _python(*args) -> subprocess.CompletedProcess:
    """A fresh interpreter with this checkout's src on its path."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def _separate_run(*argv) -> tuple[int, str]:
    result = _python("-m", "weightenum", *argv)
    return result.returncode, result.stdout


def test_parser_is_built_once_and_survives_a_usage_error(capsys, monkeypatch):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    first = ["random-code", "--q", "3", "--n", "3", "--k", "2", "--seed", "4"]
    second = ["verify", "lemma42", "--q", "3", "--n", "1", "--trials", "2"]
    got = [run(capsys, *first)]
    with pytest.raises(SystemExit) as err:
        main(["verify", "lemma42", "--trials", "0"])
    assert err.value.code == 2
    capsys.readouterr()
    got.append(run(capsys, *second))
    assert builds == [1]
    assert got == [_separate_run(*first), _separate_run(*second)]


def test_import_does_not_build_the_parser():
    result = _python("-c", "import weightenum.cli as cli; print(cli._parser)")
    assert result.stdout == "None\n", result.stderr


def test_out_flag_writes_file(files, capsys, tmp_path):
    p = files("rep2.code", REP2)
    target = tmp_path / "out.json"
    rc = main(["cwe", p, "--out", str(target)])
    assert rc == 0
    _, direct = run(capsys, "cwe", p)
    assert target.read_text(encoding="utf-8") == direct


def test_pretty_polynomial(files, capsys):
    p = files("rep2.code", REP2)
    rc, out = run(capsys, "cwe", p, "--pretty")
    assert rc == 0
    assert "x[" in out and "{" not in out


def test_byte_determinism_across_runs(files, capsys):
    p1, p2 = files("a.code", SPAN3), files("b.code", ZERO3)
    outputs = set()
    for _ in range(2):
        _, out = run(capsys, "avg", "--method", "brute", p1, p2)
        outputs.add(out)
    assert len(outputs) == 1


# -- memory gate: budget-passing inputs end in exit 0 or 3 under an address-space cap

# (q, n, k, seed) of each `random-code` file the gate reads.
_GATE_FILES = {"a": (8, 3, 3, 1), "b": (8, 3, 1, 2), "f": (16, 3, 3, 1), "h": (16, 3, 2, 2),
               "u": (16, 2, 1, 1), "w": (4, 4, 4, 1)}
# Each argv with its exit code: the q = 8 and q = 16 averages over n = 3 and
# the same files under the closed form and the census are refused (their
# output alone would be gigabytes); q = 16, n = 2 at g = 2 (256 cells) runs.
# The q = 4, n = 4 full-space triple passes the closed form's budget, and
# its 766,480 terms of 64 cells are refused before their text is written.
_GATE_RUNS = {
    "avg a b a": 3, "avg f f": 3, "avg f h": 3, "transform f h --average": 3,
    "avg --method closed a b a": 3, "avg --method closed f h": 3,
    "avg --method closed w w w": 3,
    "gjwe a b a": 3, "gjwe f h": 3,
    "avg u u": 0, "avg --method closed u u": 0, "gjwe u u": 0, "transform u u --average": 0,
}
_GATE_BYTES = 2 * 10**9
# The brute force refuses these before stage 2 lists any image.
_GATE_BRUTE_REFUSALS = ("avg a b a", "avg f f", "avg f h", "transform f h --average")


@pytest.fixture(scope="module")
def gate_runs(tmp_path_factory):
    resource = pytest.importorskip("resource")
    from concurrent.futures import ThreadPoolExecutor

    root = tmp_path_factory.mktemp("gate")
    for name, (q, n, k, seed) in _GATE_FILES.items():
        text = format_code_file(random_code(field_for_q(q), n, k, seed))
        (root / f"{name}.code").write_text(text, encoding="utf-8")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    def cap():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (_GATE_BYTES, _GATE_BYTES))

    def one(cmd):
        argv = [str(root / f"{w}.code") if w in _GATE_FILES else w for w in cmd.split()]
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "weightenum", *argv], env=env, preexec_fn=cap,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
        )
        return result.returncode, result.stderr, time.perf_counter() - start

    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(_GATE_RUNS, pool.map(one, _GATE_RUNS)))


@pytest.mark.parametrize("cmd", list(_GATE_RUNS))
def test_budget_passing_inputs_end_under_a_memory_cap(gate_runs, cmd):
    rc, err, elapsed = gate_runs[cmd]
    assert "Traceback" not in err, err[-2000:]
    assert rc == _GATE_RUNS[cmd], err[-2000:]
    assert (rc == 3) == err.startswith("capacity: ")
    assert elapsed < (5.0 if cmd in _GATE_BRUTE_REFUSALS else 30.0)


def test_brute_force_refuses_before_listing_any_image(files, capsys):
    # f is the q = 16, n = 3 full space, so its images are its own 4,096
    # words: stage 3 needs 4,096 * 256 * (3 + 16^2) steps against h's 256
    # words, refused before stage 2 lists 13.8M diagonal images.
    f, h = (files(f"{name}.code", format_code_file(random_code(field_for_q(16), 3, k, seed)))
            for name, k, seed in (("f", 3, 1), ("h", 2, 2)))
    for argv in (["avg", f, h], ["transform", f, h, "--average"]):
        start = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - start < 0.5
        assert "needs about 271581184 steps" in capsys.readouterr().err
