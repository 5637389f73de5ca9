"""Smoke test of the benchmark itself, on tiny instance sets (a few seconds).

    python3 bench/smoke.py            # or: python3 -m pytest bench/smoke.py

Checks that every metric BENCHMARK.json declares is emitted and mapped to
what it should move, that a perturbed output coefficient fails its op, that
module self times add up to the traced op time and stay within their span
totals, and that the benchmark refuses to run without the program's
sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import MODULES, Tracer  # noqa: E402

TINY = {
    "transform": ((2, 3, 1, 2, 1), (3, 2, 1, 1, 1), (4, 1, 1, 1, 1)),
    "average": ((3, 3, 2, (1, 1, 1), 1), (2, 2, 4, (2, 2), 1)),
    "sweep": (("macwilliams", 2, 2), ("lemma31", 2, 2), ("thm52", 2, 2)),
}
SEED = 7  # not the default seed, whose digests belong to the full instance sets


@contextlib.contextmanager
def tiny_cells():
    saved = {name: cls.cells for name, cls in workloads.WORKLOADS.items()}
    try:
        for name, cls in workloads.WORKLOADS.items():
            cls.cells = TINY[name]
        yield
    finally:
        for name, cls in workloads.WORKLOADS.items():
            cls.cells = saved[name]


def runner_for(name: str) -> run.Runner:
    wl = workloads.WORKLOADS[name](cells=TINY[name])
    we, specs, _ = run.load_weightenum(wl.field_sizes)
    run.OUT.mkdir(exist_ok=True)
    return run.Runner(wl, we, specs, wl.instances(SEED))


def test_every_declared_metric_is_emitted():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    with tiny_cells():
        for name in workloads.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = run.main(["--workload", name, "--seed", str(SEED),
                                     "--seconds", "0", "--trace", str(trace)])
                result = json.loads(buf.getvalue().strip().splitlines()[-1])
                assert code == 0 and result["correct"] and result["failed"] == 0, (name, trace)
                assert set(result) == {"correct", "attempted", "failed", "metrics"}
                want = {m["name"]: m["unit"] for m in declared[section]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                assert got == want, (name, trace, set(want) ^ set(got))


def test_every_layer_metric_names_what_it_moves():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    moves = json.loads((run.BENCH / "metrics.json").read_text())["moves"]
    assert set(moves) == {m["name"] for m in declared["per_layer"]}
    end_to_end = {m["name"] for m in declared["end_to_end"]} | {"failed_frac"}
    workload_names = {w["name"] for w in declared["workloads"]}
    for targets in moves.values():
        for t in targets:
            assert t["metric"] in end_to_end and t["workload"] in workload_names, t


def _perturb_coefficient(text: str) -> str:
    doc = json.loads(text)
    term = doc["terms"][0]
    num, den = term["coef"].split("/")
    term["coef"] = f"{int(num) + 1}/{den}"
    return json.dumps(doc, indent=2) + "\n"


def test_perturbed_coefficient_fails_the_op():
    for name in ("transform", "average"):
        runner = runner_for(name)
        runner.one_pass()
        assert not runner.failures, runner.failures

        runner = runner_for(name)
        honest = runner.workload.run
        runner.workload.run = lambda we, specs, inst: [
            _perturb_coefficient(t) if i == 0 else t
            for i, t in enumerate(honest(we, specs, inst))
        ]
        runner.one_pass()
        assert len(runner.failures) / runner.attempted > 0, name


def test_self_times_within_span_totals():
    for name in workloads.WORKLOADS:
        runner = runner_for(name)
        tracer = Tracer()
        tracer.install()
        try:
            runner.one_pass(tracer)
        finally:
            tracer.uninstall()
        assert not runner.failures, runner.failures
        selfs = tracer.module_self_times()
        totals = tracer.span_totals()
        op_time = totals["op"]
        for module in MODULES:
            span_total = sum(t for n, t in totals.items() if n.split(".")[0] == module)
            assert 0 <= selfs[module] <= span_total + 1e-9, (name, module)
        assert abs(sum(selfs.values()) - op_time) <= 1e-6 * max(op_time, 1.0), name
        for total, own in zip(tracer.span_time, tracer.span_self):
            assert -1e-9 <= own <= total + 1e-9


def test_refuses_to_run_without_sources():
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("out"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120,
        )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
