"""Command-line front end.

Commands: cwe, cjwe, gjwe, dual, avg, transform, verify, random-code.
Outputs are canonical serializations (code files or JSON documents) unless
--pretty is given.  Exit codes: 0 success or report-only, 1 assertive claim
violated, 2 usage, parse or output error, 3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import sys

from .capacity import DEFAULT_BUDGET, CapacityError
from .averages import avg_cjwe_bruteforce, avg_gfold_bruteforce, avg_gfold_closedform
from .codes import CodeFileError, format_code_file, parse_code_file, random_code
from .field import field_for_q
from .polynomials import cjwe, gfold_cjwe, macwilliams_transform
from .verify import CLAIMS, run_claim

_VARIANTS = {"i": "first", "ii": "second", "iii": "both"}


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CodeFileError(f"{path}: {exc}") from exc
    try:
        return parse_code_file(text)
    except CodeFileError as exc:
        raise CodeFileError(f"{path}: {exc}") from exc


def _load_all(paths):
    codes = [_load(p) for p in paths]
    first = codes[0]
    for path, code in zip(paths[1:], codes[1:]):
        if code.spec != first.spec:
            raise CodeFileError(f"{path}: code is over a different field than {paths[0]}")
        if code.n != first.n:
            raise CodeFileError(f"{path}: code has a different length than {paths[0]}")
    return codes


def _emit(args, text: str) -> None:
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        raise ValueError(f"{args.out or '<stdout>'}: {exc}") from exc


def _poly_text(args, poly) -> str:
    return poly.pretty() + "\n" if args.pretty else poly.to_text()


def _cmd_enumerate(args) -> int:
    """cwe, cjwe and gjwe: the joint enumerator of the given codes."""
    codes = _load_all(args.paths)
    _emit(args, _poly_text(args, gfold_cjwe(codes, budget=args.budget)))
    return 0


def _cmd_dual(args) -> int:
    (code,) = _load_all([args.path])
    _emit(args, format_code_file(code.dual()))
    return 0


def _cmd_avg(args) -> int:
    codes = _load_all(args.paths)
    kernel = avg_gfold_bruteforce if args.method == "brute" else avg_gfold_closedform
    _emit(args, _poly_text(args, kernel(codes, budget=args.budget)))
    return 0


def _cmd_transform(args) -> int:
    c1, c2 = _load_all([args.path1, args.path2])
    enumerator = avg_cjwe_bruteforce if args.average else cjwe
    base = enumerator(c1, c2, budget=args.budget)
    sizes = (c1.size, c2.size)
    poly = macwilliams_transform(base, _VARIANTS[args.variant], sizes, budget=args.budget)
    _emit(args, _poly_text(args, poly))
    return 0


def _cmd_verify(args) -> int:
    check = run_claim(
        args.claim,
        q=args.q,
        n=args.n,
        trials=args.trials,
        seed=args.seed,
        g=args.g,
        budget=args.budget,
    )
    if args.pretty:
        agg = check.to_doc()["aggregate"]
        lines = [
            f"claim {check.claim}: {agg['equal']}/{agg['instances']} instances equal, "
            f"{'assertive' if agg['assertive'] else 'report-only'}, "
            f"{'PASS' if agg['passed'] else 'FAIL'}"
        ]
        for inst in check.instances:
            mark = "=" if inst["equal"] else "!"
            lines.append(f"  [{mark}] {inst['description']}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, check.to_text())
    return 0 if check.passed else 1


def _cmd_random_code(args) -> int:
    poly = tuple(int(c) for c in args.poly.split(",")) if args.poly else None
    spec = field_for_q(args.q, poly)
    code = random_code(spec, args.n, args.k, args.seed)
    _emit(args, format_code_file(code))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weightenum",
        description="Exact weight enumerators, duals, character-sum transforms "
        "and monomial-group averages for linear codes over small fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="elementary step budget (default 1e8)")
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--pretty", action="store_true",
                       help="human-readable output instead of canonical form")

    # cwe and cjwe append their paths to args.paths one metavar at a time:
    # nargs=2 with a tuple metavar breaks argparse's missing-argument error.
    for name, metavars, help_ in (
        ("cwe", ["path"], "complete weight enumerator of one code"),
        ("cjwe", ["path1", "path2"], "complete joint weight enumerator of a pair"),
        ("gjwe", [], "joint weight enumerator of g codes"),
    ):
        p = sub.add_parser(name, help=help_)
        for metavar in metavars:
            p.add_argument("paths", action="append", metavar=metavar)
        if not metavars:
            p.add_argument("paths", nargs="+")
        common(p)
        p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("dual", help="dual code, canonical generator file")
    p.add_argument("path")
    common(p)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("avg", help="monomial-group average of the joint enumerator")
    p.add_argument("paths", nargs="+")
    p.add_argument("--method", choices=("brute", "closed"), default="brute")
    common(p)
    p.set_defaults(func=_cmd_avg)

    p = sub.add_parser("transform", help="character-sum transform of a pair enumerator")
    p.add_argument("path1")
    p.add_argument("path2")
    p.add_argument("--variant", choices=("i", "ii", "iii"), default="i")
    p.add_argument("--average", action="store_true",
                   help="transform the brute-force average instead of the plain enumerator")
    common(p)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("verify", help="sweep a claim and report per-instance verdicts")
    p.add_argument("claim", choices=CLAIMS)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--g", type=int, default=3, help="fold for the g-fold claim")
    p.add_argument("--trials", type=int, default=None,
                   help="seeded random instances (at least 1) instead of exhaustive sweep")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("random-code", help="seeded random code file")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--poly", help="defining polynomial, constant first, comma separated")
    common(p)
    p.set_defaults(func=_cmd_random_code)

    return parser


_parser = None  # built by the first main() call, then reused


def main(argv=None) -> int:
    global _parser
    parser = _parser = _parser or build_parser()
    args = parser.parse_args(argv)
    if args.budget < 0:
        parser.error(f"argument --budget: must be non-negative, got {args.budget}")
    if getattr(args, "trials", None) is not None and args.trials < 1:
        parser.error(f"argument --trials: must be positive, got {args.trials}")
    if getattr(args, "g", None) is not None and args.g < 1:
        parser.error(f"argument --g: must be positive, got {args.g}")
    try:
        return args.func(args)
    except CodeFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
