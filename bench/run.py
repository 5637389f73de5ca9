"""weightenum benchmark: seeded workloads through the public API, every
output checked exactly, end-to-end metrics or (with --trace 1) per-layer
metrics printed by name and unit.

    python3 bench/run.py --workload transform --seed 0 --seconds 30 --trace 0

Run it from the repository root.  One process, one thread, closed loop: one
op at a time, the next starting when the last returns.  A run repeats the
workload's instance set in passes until --seconds have gone by (at least one
pass).  Each op's latency is the median of its passes; op_p50_ms and
op_tail_ms are read from those per-op latencies, so they do not depend on
how many passes fitted.  wall_s is the median over passes of the summed op
latencies, i.e. the time to verdict for the whole instance set; the exact
output checks run outside the timed region.

With --trace 1 untraced and traced passes alternate; the per-layer metrics
are per traced pass and trace.overhead is the ratio of the two pass times.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Every run also writes bench/out/ with a
result file carrying provenance and, for a traced run, the spans.  The exit
code is 0 when every op passed its checks, 1 otherwise and 2 when the
benchmark cannot start.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracing import Tracer, layer_metrics
from workloads import REPORT_DIR, WORKLOADS, digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = Path(REPORT_DIR)
DEFAULT_SEED = 0
SETUP_REPEATS = 9
TAIL_BEYOND = 10


def load_weightenum(field_sizes):
    """Import weightenum (and its CLI) from this checkout's src/ and build
    the workload's fields, SETUP_REPEATS times from a clean module table.
    Returns the modules, the fields and the median set-up time."""
    if not (SRC / "weightenum" / "__init__.py").is_file():
        raise RuntimeError(f"no weightenum package under {SRC}")
    sys.path.insert(0, str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "weightenum" or m.startswith("weightenum.")]:
            del sys.modules[name]
        t0 = perf_counter()
        we = importlib.import_module("weightenum")
        importlib.import_module("weightenum.cli")
        specs = {q: we.field_for_q(q) for q in field_sizes}
        times.append(perf_counter() - t0)
        gc.collect()  # so one repeat's garbage is not collected inside the next
    if Path(we.__file__).resolve().parent != (SRC / "weightenum").resolve():
        raise RuntimeError(f"imported weightenum from {we.__file__}, not from {SRC}")
    return we, specs, statistics.median(times)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


class Runner:
    """Runs passes over one instance set and keeps latencies and verdicts."""

    def __init__(self, workload, we, specs, instances, expected_digests=None):
        self.workload = workload
        self.we = we
        self.specs = specs
        self.instances = instances
        self.expected = expected_digests
        self.latencies = [[] for _ in instances]
        self.digests: list[str | None] = [None] * len(instances)
        self.attempted = 0
        self.failures: list[tuple[int, int, str]] = []
        self.passes = 0

    def one_pass(self, tracer=None) -> float:
        """Run every op once; return the summed op latency in seconds."""
        wl, we, specs = self.workload, self.we, self.specs
        total = 0.0
        for i, inst in enumerate(self.instances):
            self.attempted += 1
            t0 = perf_counter()
            try:
                if tracer is None:
                    texts = wl.run(we, specs, inst)
                else:
                    texts = tracer.run_op(i, wl.run, we, specs, inst)
            except Exception as exc:  # an op that raises is a failed op
                total += perf_counter() - t0
                self.failures.append((self.passes, i, f"{type(exc).__name__}: {exc}"))
                continue
            elapsed = perf_counter() - t0
            total += elapsed
            if tracer is None:
                self.latencies[i].append(elapsed)
            errors = self.verify(i, inst, texts)
            if errors:
                self.failures.append((self.passes, i, "; ".join(errors)))
        self.passes += 1
        return total

    def verify(self, i, inst, texts) -> list[str]:
        d = digest(texts)
        if self.digests[i] is not None:
            return [] if d == self.digests[i] else ["output differs from the op's first pass"]
        self.digests[i] = d
        try:
            errors = self.workload.check(self.we, self.specs, inst, texts)
        except Exception as exc:  # malformed output fails its check
            errors = [f"check raised {type(exc).__name__}: {exc}"]
        if self.expected is not None and self.expected[i] != d:
            errors.append("output digest differs from the recorded default-seed digest")
        return errors

    def op_latencies(self) -> list[float]:
        return [statistics.median(l) for l in self.latencies if l]


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with TAIL_BEYOND values beyond it, and
    that percentile; the maximum when there are too few values."""
    s = sorted(values)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[-TAIL_BEYOND - 1], 100.0 * (len(s) - TAIL_BEYOND) / len(s)


def predictions(workload: str, m: dict) -> list[tuple[str, bool]]:
    """The shares the per-layer mapping predicts for each workload."""
    if workload == "transform":
        return [("transform kernel >= 90% of op self time",
                 m["predicted.transform_kernel_share"] >= 0.9)]
    if workload == "average":
        return [("no transform time", m["polynomials.transform_calls"] == 0),
                ("averages + compositions >= 90% of op self time",
                 m["predicted.average_kernels_share"] >= 0.9)]
    return [("codes + verify + cli + lemma checks + serialization >= 25% of op self time",
             m["predicted.sweep_overhead_share"] >= 0.25)]


def measure(runner: Runner, seconds: float, traced: bool):
    """Run passes until `seconds` have gone by.  Untraced only, or untraced
    and traced alternately.  Returns (untraced pass times, traced pass
    times, tracer)."""
    tracer = Tracer() if traced else None
    plain, with_trace = [], []
    start = perf_counter()
    while True:
        plain.append(runner.one_pass())
        if traced:
            tracer.install()
            try:
                with_trace.append(runner.one_pass(tracer))
            finally:
                tracer.uninstall()
        if perf_counter() - start >= seconds:
            return plain, with_trace, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        OUT.mkdir(exist_ok=True)
        workload = WORKLOADS[args.workload]()
        we, specs, setup_s = load_weightenum(workload.field_sizes)
    except (OSError, ValueError, RuntimeError, ImportError) as exc:
        print(f"benchmark cannot start: {exc}", file=sys.stderr)
        return 2

    instances = workload.instances(args.seed)
    expected = None
    if args.seed == DEFAULT_SEED:
        recorded = json.loads((BENCH / "digests.json").read_text())
        expected = recorded["workloads"][workload.name]
        if len(expected) != len(instances):
            print("recorded digests do not match the instance set", file=sys.stderr)
            return 2

    runner = Runner(workload, we, specs, instances, expected)
    plain, with_trace, tracer = measure(runner, args.seconds, bool(args.trace))

    lat = runner.op_latencies()
    tail_s, tail_pct = tail(lat) if lat else (float("nan"), 0.0)
    failed = len(runner.failures)
    computed = {
        "setup_s": setup_s,
        "wall_s": statistics.median(plain),
        "op_p50_ms": statistics.median(lat) * 1000 if lat else float("nan"),
        "op_tail_ms": tail_s * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": failed / runner.attempted,
    }
    section = "end_to_end"
    if tracer is not None:
        computed.update(layer_metrics(tracer, len(with_trace)))
        computed["trace.wall_s"] = statistics.median(with_trace)
        computed["trace.overhead"] = computed["trace.wall_s"] / computed["wall_s"]
        section = "per_layer"
    units = {m["name"]: m["unit"] for m in declared[section]}
    missing = sorted(set(units) - set(computed))
    if missing:
        print(f"declared metrics not computed: {', '.join(missing)}", file=sys.stderr)
        return 2
    metrics = {name: {"value": computed[name], "unit": unit} for name, unit in units.items()}

    # Human-readable report, then the result file, then the contract line.
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(plain)} untraced, {len(with_trace)} traced  ops/pass {len(instances)}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(f"  op_tail_ms is p{tail_pct:.1f} of {len(lat)} per-op latencies "
          f"({sum(len(l) for l in runner.latencies)} samples)")
    print(f"  failed_frac {computed['failed_frac']:.4g} = {failed} / {runner.attempted} ops")
    for pass_no, i, msg in runner.failures[:10]:
        print(f"  FAILED pass {pass_no} op {i} {instances[i].get('argv') or ''}: {msg}")
    if tracer is not None:
        for name, holds in predictions(workload.name, computed):
            print(f"  prediction {name}: {'holds' if holds else 'does NOT hold'}")

    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    result = {
        "provenance": {
            "commit": git_commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "workload": workload.name,
            "seconds": args.seconds,
            "trace": args.trace,
        },
        "passes": {"untraced": plain, "traced": with_trace},
        "op_tail_percentile": tail_pct,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "metrics": metrics,
        "all_metrics": computed,
        "digests": runner.digests,
        "op_latencies_ms": [[x * 1000 for x in l] for l in runner.latencies],
        "instances": instances,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        tracer.write(str(OUT / f"{stem}-spans.json.gz"), result["provenance"])
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
