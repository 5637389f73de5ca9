"""Spans and counts at the module boundaries of `weightenum`, from outside.

Tracer.install wraps the public functions named in INSTRUMENTS.  Modules
import functions by name, so a wrapper replaces the function in every
`weightenum` module namespace that binds it; methods are replaced on their
class.  Tracer.uninstall puts the originals back.

A span is recorded only inside an op (Tracer.op is set) and only at the
outermost call of its name, so recursion and one wrapped function calling
another of the same layer (cjwe -> gfold_cjwe) give one span.  Generator
functions get one span each; its time is the sum of the intervals in which
the generator body runs, so a consumer's work between items is not billed
to it.  Self time is a span's time minus the time of the spans run inside
it, tracked on a stack as spans close.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# Modules with spans; cyclotomic and capacity are counted only.
MODULES = ("field", "codes", "compositions", "polynomials", "averages", "verify", "cli")


# -- count hooks: (tracer, args, kwargs, result, elapsed) ---------------------

def _product_of_sizes(codes) -> int:
    out = 1
    for c in codes:
        out *= c.size
    return out


def _enumerate_hook(t, args, kwargs, result, elapsed):
    codes = args[0] if isinstance(args[0], list) else args
    t.counts["polynomials.enumerate_tuples"] += _product_of_sizes(codes)


def _census_hook(t, args, kwargs, result, elapsed):
    t.counts["compositions.census_tuples"] += _product_of_sizes(args[0])


def _transform_hook(t, args, kwargs, result, elapsed):
    poly = args[0]
    which = args[1] if len(args) > 1 else kwargs["which"]
    t.counts["polynomials.transform_calls"] += 1
    t.counts["polynomials.transform.terms_in"] += len(poly.terms)
    t.counts["polynomials.transform.terms_out"] += len(result.terms)
    t.times[f"polynomials.transform.{which}"] += elapsed
    char = "char2" if poly.spec.p == 2 else "odd"
    t.times[f"polynomials.transform.{char}"] += elapsed


def _closed_hook(t, args, kwargs, result, elapsed):
    t.counts["averages.closed_hits"] += len(result.terms)


def _brute_hook(t, args, kwargs, result, elapsed):
    codes = args[0] if isinstance(args[0], list) else args[:2]
    spec, n = codes[0].spec, codes[0].n
    t.counts["averages.brute_images"] += (spec.q - 1) ** n * math.factorial(n) * codes[0].size


def _yield_hook(t, item):
    t.counts["compositions.iter_compositions_yielded"] += 1
    if t.depth["averages.closed"]:
        t.counts["averages.closed_visited"] += 1


# (module, attribute or Class.method, span name, hook).  Names sharing a
# span name are one layer boundary.
INSTRUMENTS = (
    ("field", "FieldSpec.__init__", "field.build", None),
    ("field", "field_for_q", "field.build", None),
    ("codes", "LinearCode.__init__", "codes.construct", None),
    ("codes", "LinearCode.codeword_list", "codes.codewords", None),
    ("codes", "LinearCode.codewords", "codes.codewords", None),
    ("codes", "LinearCode.dual", "codes.dual", None),
    ("codes", "all_codes", "codes.all_codes", None),
    ("codes", "monomial_group", "codes.monomial", None),
    ("codes", "apply_monomial_code", "codes.monomial", None),
    ("codes", "MonomialMatrix.inverse", "codes.monomial", None),
    ("codes", "MonomialMatrix.then", "codes.monomial", None),
    ("codes", "format_code_file", "codes.format", None),
    ("codes", "parse_code_file", "codes.format", None),
    ("compositions", "census", "compositions.census", _census_hook),
    ("compositions", "iter_compositions", "compositions.iter_compositions", None),
    ("polynomials", "cwe", "polynomials.enumerate", _enumerate_hook),
    ("polynomials", "cjwe", "polynomials.enumerate", _enumerate_hook),
    ("polynomials", "gfold_cjwe", "polynomials.enumerate", _enumerate_hook),
    ("polynomials", "macwilliams_transform", "polynomials.transform", _transform_hook),
    ("polynomials", "EnumeratorPolynomial.to_doc", "polynomials.serialize", None),
    ("polynomials", "EnumeratorPolynomial.to_text", "polynomials.serialize", None),
    ("polynomials", "EnumeratorPolynomial.from_doc", "polynomials.serialize", None),
    ("polynomials", "EnumeratorPolynomial.from_text", "polynomials.serialize", None),
    ("averages", "avg_gfold_closedform", "averages.closed", _closed_hook),
    ("averages", "avg_cjwe_closedform", "averages.closed", _closed_hook),
    ("averages", "avg_gfold_bruteforce", "averages.brute", _brute_hook),
    ("averages", "avg_cjwe_bruteforce", "averages.brute", _brute_hook),
    ("averages", "compare", "averages.compare", None),
    ("averages", "AverageReport.to_doc", "averages.compare", None),
    ("averages", "AverageReport.to_text", "averages.compare", None),
    ("averages", "check_lemma31", "averages.lemma", None),
    ("averages", "check_lemma42", "averages.lemma", None),
    ("verify", "run_claim", "verify.run_claim", None),
    ("verify", "ClaimCheck.to_text", "verify.report", None),
    ("cli", "main", "cli.main", None),
)

YIELD_HOOKS = {"compositions.iter_compositions": _yield_hook}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One entry per closed span, column-wise to keep memory small.
        self.span_id = array("l")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_time = array("d")
        self.span_self = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self.times: dict[str, float] = defaultdict(float)
        self.depth: dict[str, int] = defaultdict(int)
        self.op: int | None = None
        # Open frames: [name, child time, span id, resumed at].  Span ids are
        # reserved when a span opens so children can name their parent.
        self._stack: list[list] = []
        self._next_id = 0
        self._pending: dict[int, tuple] = {}
        self._saved: list[tuple] = []

    # -- span bookkeeping ----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name: str) -> int:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][2] if self._stack else -1
        self._pending[span_id] = (name, perf_counter(), parent, self.op)
        return span_id

    def _close(self, span_id: int, total: float, self_time: float) -> None:
        name, start, parent, op = self._pending.pop(span_id)
        self.span_id.append(span_id)
        self.span_name.append(self._name_id(name))
        self.span_start.append(start)
        self.span_end.append(perf_counter())
        self.span_parent.append(parent)
        self.span_op.append(op)
        self.span_time.append(total)
        self.span_self.append(self_time)
        self.times[name] += total
        self.times[name + ".self"] += self_time
        self.counts[name + ".calls"] += 1

    def _push(self, name: str, span_id: int) -> list:
        frame = [name, 0.0, span_id, perf_counter()]
        self._stack.append(frame)
        self.depth[name] += 1
        return frame

    def _pop(self, frame: list) -> tuple[float, float]:
        elapsed = perf_counter() - frame[3]
        self._stack.pop()
        self.depth[frame[0]] -= 1
        if self._stack:
            self._stack[-1][1] += elapsed
        return elapsed, elapsed - frame[1]

    def run_op(self, op_id: int, fn, *args):
        """Run fn as one op: a root span named 'op' whose self time is the
        op's time outside every wrapped call."""
        self.op = op_id
        span_id = self._open("op")
        frame = self._push("op", span_id)
        try:
            return fn(*args)
        finally:
            total, self_time = self._pop(frame)
            self._close(span_id, total, self_time)
            self.op = None

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None or tracer.depth[name]:
                return fn(*args, **kwargs)
            span_id = tracer._open(name)
            frame = tracer._push(name, span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                total, self_time = tracer._pop(frame)
                tracer._close(span_id, total, self_time)
            if hook is not None:
                hook(tracer, args, kwargs, result, total)
            return result

        return wrapper

    def _wrap_generator(self, fn, name: str):
        tracer = self
        on_yield = YIELD_HOOKS.get(name)

        def run(inner):
            span_id = tracer._open(name)
            total = self_time = 0.0
            try:
                while True:
                    frame = tracer._push(name, span_id)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        elapsed, own = tracer._pop(frame)
                        total += elapsed
                        self_time += own
                    if on_yield is not None:
                        on_yield(tracer, item)
                    yield item
            finally:
                tracer._close(span_id, total, self_time)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None or tracer.depth[name]:
                return fn(*args, **kwargs)
            return run(fn(*args, **kwargs))

        return wrapper

    def _wrap_counter(self, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is not None:
                counter(tracer, args, kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_budget(self, fn):
        tracer = self
        from weightenum.capacity import CapacityError

        @functools.wraps(fn)
        def wrapper(steps, *args, **kwargs):
            if tracer.op is None:
                return fn(steps, *args, **kwargs)
            tracer.counts["capacity.checks"] += 1
            tracer.counts["capacity.estimated_steps"] += steps
            try:
                return fn(steps, *args, **kwargs)
            except CapacityError:
                tracer.counts["capacity.refusals"] += 1
                raise

        return wrapper

    # -- patching ------------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        """Rebind every `weightenum` module attribute that holds original."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "weightenum" or mod_name.startswith("weightenum.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        import weightenum.cli  # noqa: F401  (binds every module)

        mods = sys.modules
        for module, target, name, hook in INSTRUMENTS:
            mod = mods[f"weightenum.{module}"]
            if "." in target:
                cls_name, meth = target.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                wrapped = (self._wrap_generator(fn, name) if inspect.isgeneratorfunction(fn)
                           else self._wrap(fn, name, hook))
                self._saved.append((cls, meth, raw))
                setattr(cls, meth, classmethod(wrapped) if is_cm else wrapped)
            else:
                fn = getattr(mod, target)
                wrapped = (self._wrap_generator(fn, name) if inspect.isgeneratorfunction(fn)
                           else self._wrap(fn, name, hook))
                self._replace_everywhere(fn, wrapped)

        def count_vec_mul(t, args, kwargs):
            t.counts["cyclotomic.vec_mul_calls"] += 1

        def count_instance(t, args, kwargs):
            t.counts["verify.instances"] += 1

        cyc = mods["weightenum.cyclotomic"]
        self._replace_everywhere(cyc._vec_mul, self._wrap_counter(cyc._vec_mul, count_vec_mul))
        cap = mods["weightenum.capacity"]
        self._replace_everywhere(cap.check_budget, self._wrap_budget(cap.check_budget))
        claim_check = mods["weightenum.verify"].ClaimCheck
        self._saved.append((claim_check, "add", claim_check.__dict__["add"]))
        claim_check.add = self._wrap_counter(claim_check.add, count_instance)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved.clear()

    # -- results -------------------------------------------------------------

    def module_self_times(self) -> dict[str, float]:
        """Self time per module, plus 'bench' for op time outside every span."""
        out = {m: 0.0 for m in MODULES}
        out["bench"] = 0.0
        for name in self.names:
            key = "bench" if name == "op" else name.split(".")[0]
            out[key] += self.times[name + ".self"]
        return out

    def span_totals(self) -> dict[str, float]:
        return {name: self.times[name] for name in self.names}

    def write(self, path: str, meta: dict) -> None:
        doc = {
            "meta": meta,
            "names": self.names,
            "spans": {
                "id": list(self.span_id),
                "name": list(self.span_name),
                "start": list(self.span_start),
                "end": list(self.span_end),
                "parent": list(self.span_parent),
                "op": list(self.span_op),
                "time": list(self.span_time),
                "self": list(self.span_self),
            },
            "counts": dict(self.counts),
            "times": dict(self.times),
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass, by the names BENCHMARK.json declares."""
    t, c = tracer.times, tracer.counts
    per = 1.0 / max(passes, 1)
    m = {}
    for name in ("field.build", "codes.construct", "codes.codewords", "codes.dual",
                 "codes.all_codes", "codes.monomial", "codes.format", "compositions.census",
                 "polynomials.transform.first", "polynomials.transform.second",
                 "polynomials.transform.both", "polynomials.transform.char2",
                 "polynomials.transform.odd", "polynomials.enumerate",
                 "polynomials.serialize", "averages.closed", "averages.brute",
                 "averages.compare", "averages.lemma", "verify.run_claim",
                 "verify.report", "cli.main"):
        m[name + "_s"] = t[name] * per
    m["verify.self_s"] = t["verify.run_claim.self"] * per
    m["cli.self_s"] = t["cli.main.self"] * per
    for name in ("field.build", "codes.construct"):
        m[name + "_calls"] = c[name + ".calls"] * per
    for name in ("cyclotomic.vec_mul_calls", "compositions.census_tuples",
                 "compositions.iter_compositions_yielded", "polynomials.transform_calls",
                 "polynomials.transform.terms_in", "polynomials.transform.terms_out",
                 "polynomials.enumerate_tuples", "averages.brute_images",
                 "averages.closed_visited", "verify.instances", "capacity.checks",
                 "capacity.estimated_steps", "capacity.refusals"):
        m[name] = c[name] * per
    visited = c["averages.closed_visited"]
    m["averages.closed_hit_ratio"] = c["averages.closed_hits"] / visited if visited else 0.0

    selfs = tracer.module_self_times()
    total = sum(selfs.values())

    def share(s: float) -> float:
        return s / total if total else 0.0

    for mod, s in selfs.items():
        m[f"{mod}.module_self_s"] = s * per
        m[f"{mod}.share"] = share(s)
    m["predicted.transform_kernel_share"] = share(t["polynomials.transform.self"])
    m["predicted.average_kernels_share"] = share(selfs["averages"] + selfs["compositions"])
    m["predicted.sweep_overhead_share"] = share(
        selfs["codes"] + selfs["verify"] + selfs["cli"]
        + t["averages.lemma.self"] + t["polynomials.serialize.self"]
    )
    m["trace.op_s"] = total * per
    return m
