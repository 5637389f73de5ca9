"""The benchmark tracer's contract with the package, checked in tier 1.

bench/tracing.py wraps functions by rebinding module globals and reads the
code list a kernel is given.  A sweep that passes tuples to a kernel, or
calls a kernel through a reference taken at import time, breaks its traced
run or hides the kernel's time; these tests see both.
"""

import functools
import importlib
import importlib.util
import pathlib

from weightenum import CLAIMS, polynomials, run_claim

_PATH = pathlib.Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("bench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

# A span each claim's sweep must record on its smallest cell.
KERNEL_SPANS = {
    "macwilliams": ("polynomials.enumerate", "polynomials.transform"),
    "thm33i": ("averages.brute", "polynomials.transform"),
    "thm33ii": ("averages.brute", "polynomials.transform"),
    "thm33iii": ("averages.brute", "polynomials.transform"),
    "yoshida": ("averages.closed", "averages.brute", "averages.compare"),
    "thm43": ("averages.closed", "averages.brute", "averages.compare"),
    "thm52": ("averages.closed", "averages.brute", "averages.compare"),
    "lemma31": ("averages.lemma", "codes.monomial"),
    "lemma42": ("codes.construct", "compositions.iter_compositions"),
}


def test_every_instrument_target_resolves():
    for module, target, _, _ in tracing.INSTRUMENTS:
        mod = importlib.import_module(f"weightenum.{module}")
        assert callable(functools.reduce(getattr, target.split("."), mod)), (module, target)


def test_traced_sweeps_match_untraced_and_record_their_kernels():
    assert set(KERNEL_SPANS) == set(CLAIMS)
    plain = {claim: run_claim(claim, q=2, n=1).to_text() for claim in CLAIMS}
    # The untraced sweeps stored the fields' fiber images; drop them so the
    # traced sweeps expand fibers again.
    polynomials._FIBER_IMAGES.clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        checks = [tracer.run_op(op, run_claim, claim, 2, 1) for op, claim in enumerate(CLAIMS)]
    finally:
        tracer.uninstall()
    for op, (claim, check) in enumerate(zip(CLAIMS, checks)):
        assert check.to_text() == plain[claim], claim
        spans = {
            tracer.names[name]
            for name, span_op in zip(tracer.span_name, tracer.span_op)
            if span_op == op
        }
        for span in KERNEL_SPANS[claim]:
            assert span in spans, (claim, span)
    assert tracer.counts["verify.instances"] == sum(len(c.instances) for c in checks)
    # The transform's expansion steps run through cyclotomic._vec_mul.
    assert tracer.counts["cyclotomic.vec_mul_calls"] > 0
