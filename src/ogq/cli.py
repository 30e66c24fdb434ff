"""Command-line front end.

Subcommands: gw (one invariant), count (subbundle count), table (structure
constants, written as JSON to the cache directory, an export nothing reads
back), qmul (product of two Schubert classes), ntilde (arbitrary-bundle
intersection number), verify (self-check suites).

Exit codes: 0 success, 1 verification failure (a failed proof,
cyclotomic.ProofFailure: a result that is not a nonnegative integer, a sum
off the weight condition, a value that is not rational, a fused dot past its
slot, a staircase Pfaffian off its square mod p, an S_rho that is 0, a count
off a closed form of counting.CATALOG; or a float route or gw --trace that
disagrees), 2 invalid input (a bad argument, or partitions.InvalidInput from
the library), 3 not applicable, not covered or past a size budget (a
refusal, quantum.Refusal: the structure table, which table, qmul and gw
--trace read, past n = 9; gw on the weight condition past n = 10; a count or
an ntilde past n = 20), 4 I/O failure, 5 internal error (any other
exception: a fault of the program).  The library decides every verdict and
refuses past its size budgets, whose caps all live in quantum; this module
only maps the verdicts to exit codes.  It reads each answer and what it
checked (its sign-check prime) from the library's record, quantum.Answer
(gw, ntilde) or counting.CountReport (count), and asks the same library
function for the float route under --mode float.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from functools import lru_cache, partial
from pathlib import Path

from . import counting, partitions, quantum
from .counting import NQuery, decimal_string
from .cyclotomic import ProofFailure
from .partitions import InvalidInput
from .quantum import GWQuery, QuantumElement, Refusal
from .symfunc import parse_alpha_poly

OK, VERIFY_FAIL, BAD_INPUT, NOT_APPLICABLE, IO_ERROR, INTERNAL_ERROR = 0, 1, 2, 3, 4, 5

FLOAT_RTOL = 1e-6


def _emit_error(kind: str, message: str, trace: str | None = None) -> None:
    doc = {"error": kind, "reason": message}
    if trace is not None:
        doc["traceback"] = trace
    print(json.dumps(doc), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _emit_error("bad_arguments", message)
        raise SystemExit(BAD_INPUT)


def _parse_insertions(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(partitions.parse_partition(tok) for tok in text.split(";"))


def _float_agrees(exact, approx: float) -> bool:
    # compared exactly: float(exact) would overflow past the double range
    exact = Fraction(exact)
    return math.isfinite(approx) and (abs(Fraction(approx) - exact)
                                      <= Fraction(FLOAT_RTOL) * max(1, abs(exact)))


def _emit(args, doc: dict, lines: list[str]) -> None:
    # every answer but table's leaves the program here: the document, or the text lines
    print(json.dumps(doc, indent=2) if args.format == "json" else "\n".join(lines))


def _answer(args, doc: dict, lines: list[str], exact, route, note: str) -> int:
    # The one tail of gw, count and ntilde.  Under --mode float route(exact=False),
    # the library's answer on its float route, re-sums the answer into
    # float_value and float_agrees; where it leaves the double range (note)
    # or refuses the query, float_value is None beside a float_note, and the
    # exact value stands.  A disagreement of either cross-check, the float
    # route or gw --trace, exits 1.
    if args.mode == "float":
        try:
            doc["float_value"] = route(exact=False).value
        except (OverflowError, Refusal) as exc:
            doc["float_value"], doc["float_note"] = None, str(exc) if isinstance(exc, Refusal) else note
            lines.append(f"float route: {doc['float_note']}")
        else:
            doc["float_agrees"] = _float_agrees(exact, doc["float_value"])
            lines.append(f"float route: {doc['float_value']!r} ({'agree' if doc['float_agrees'] else 'DISAGREE'})")
    _emit(args, doc, lines)
    return VERIFY_FAIL if False in (doc.get("trace_agrees"), doc.get("float_agrees")) else OK


def cmd_gw(args) -> int:
    query = GWQuery(args.n, args.g, args.d, _parse_insertions(args.insertions))
    # the trace route first: past the table budget it refuses before the sum builds a point
    trace = quantum.trace_invariant(query) if args.trace else None
    answer = quantum.gw_answer(query)
    doc: dict = {"n": args.n, "g": args.g, "d": args.d,
                 "insertions": [partitions.format_partition(lam) for lam in query.insertions],
                 "value": decimal_string(answer.value)}
    if answer.sign_check_prime is not None:
        doc["sign_check_prime"] = answer.sign_check_prime
    lines = [doc["value"]]
    if args.trace:
        doc["trace_value"], doc["trace_agrees"] = decimal_string(trace), trace == answer.value
        lines.append(f"trace route: {doc['trace_value']} ({'agree' if doc['trace_agrees'] else 'DISAGREE'})")
    return _answer(args, doc, lines, answer.value, partial(quantum.gw_answer, query),
                   f"4^{args.d} times the float sum cannot be represented as a double")


def cmd_count(args) -> int:
    report = counting.count(args.g, args.rank, args.ell)
    doc = report.to_json_dict()
    if not report.applicable:
        _emit(args, doc, [report.reason])
        return NOT_APPLICABLE
    lines = [doc["N"], f"e0 = {report.e0}, required w2 = {report.required_w2} (mod 2)",
             *(f"note: {note}" for note in report.notes)]
    return _answer(args, doc, lines, report.value, partial(counting.count_answer, args.g, args.rank, args.ell),
                   f"N has {len(doc['N'])} digits and cannot be represented as a double")


def _resolve_cache_dir(arg: str | None) -> Path:
    if arg:
        return Path(arg)
    env = os.environ.get("OGQ_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "ogq"


def _table_bytes(n: int, max_d: int | None, rows) -> bytes:
    # json.dumps(quantum.table_json_dict(n, max_d), indent=2, sort_keys=True) + "\n"
    # byte for byte, from the rows: json's C encoder serves only indent=None.
    label = [f'"{partitions.format_partition(lam)}"' for lam in partitions.all_strict(n - 1)]
    entries = ",\n".join([
        f'    {{\n      "c": "{c}",\n      "d": {d},\n      "lambda": {label[i]},\n      '
        f'"mu": {label[j]},\n      "nu": {label[k]}\n    }}'
        for i, j, d, k, c in rows])
    listed = f"[\n{entries}\n  ]" if entries else "[]"
    return (f'{{\n  "entries": {listed},\n  "max_d": {json.dumps(max_d)},\n  "n": {n},\n'
            f'  "schema": "ogq-table/1"\n}}\n').encode()


def cmd_table(args) -> int:
    rows = quantum.table_rows(args.n, args.max_d)
    payload = _table_bytes(args.n, args.max_d, rows)
    cache_dir = _resolve_cache_dir(args.cache_dir)
    suffix = f"-maxd{args.max_d}" if args.max_d is not None else ""
    path = cache_dir / f"table-n{args.n}{suffix}.json"
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        path.write_bytes(payload)
    except OSError as exc:
        _emit_error("io_error", f"cannot write {path}: {exc}")
        return IO_ERROR
    if args.format == "json":
        sys.stdout.write(payload.decode())
    else:
        label = [partitions.format_partition(lam) for lam in partitions.all_strict(args.n - 1)]
        print(f"{len(rows)} entries -> {path}")
        for i, j, d, k, c in rows:
            q = "" if d == 0 else ("q*" if d == 1 else f"q^{d}*")
            print(f"t[{label[i]}] * t[{label[j]}] += {'' if c == 1 else f'{c}*'}{q}t[{label[k]}]")
    return OK


def cmd_qmul(args) -> int:
    lam = partitions.validate(partitions.parse_partition(args.a), args.n - 1)
    mu = partitions.validate(partitions.parse_partition(args.b), args.n - 1)
    product = quantum.quantum_product(
        args.n, QuantumElement.basis(lam), QuantumElement.basis(mu)
    )
    # by degree, then by class: each (d, nu) once, so no two coefficients are compared
    terms = [{"nu": partitions.format_partition(nu), "d": d, "c": str(c)}
             for d, nu, c in sorted((d, nu, c) for (nu, d), c in product.terms.items())]
    _emit(args, {"n": args.n, "a": args.a, "b": args.b, "terms": terms}, [str(product)])
    return OK


def cmd_ntilde(args) -> int:
    q_poly = parse_alpha_poly(args.Q)
    query = NQuery(args.g, args.n, args.ell, args.e, args.u, q_poly)
    answer = counting.n_tilde_answer(query)
    doc = {"g": args.g, "n": args.n, "ell": args.ell, "e": args.e, "u": args.u, "Q": str(q_poly),
           "value": decimal_string(answer.value)}
    if answer.sign_check_prime is not None:
        doc["sign_check_prime"] = answer.sign_check_prime
    return _answer(args, doc, [doc["value"]], answer.value, partial(counting.n_tilde_answer, query),
                   f"the value has {len(doc['value'])} digits and cannot be represented as a double")


def cmd_verify(args) -> int:
    # imported here, as only this subcommand reads them: every other command starts without them
    import dataclasses

    from . import verify

    results = verify.run_suite(args.suite)
    failures = [r for r in results if not r.ok]
    lines = [f"{'ok  ' if r.ok else 'FAIL'} [{r.suite}] {r.name}" + (f" :: {r.detail}" if r.detail and not r.ok else "")
             for r in results]
    _emit(args, {"suite": args.suite, "checks": [dataclasses.asdict(r) for r in results], "failures": len(failures)},
          [*lines, f"{len(results) - len(failures)}/{len(results)} checks passed"])
    return OK if not failures else VERIFY_FAIL


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args keeps no state in the parser.
    parser = _Parser(prog="ogq", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    checked = argparse.ArgumentParser(add_help=False, parents=[common])
    checked.add_argument("--mode", choices=("exact", "float"), default="exact",
                         help="float re-evaluates through complex doubles and cross-checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gw", parents=[checked], help="one Gromov-Witten invariant")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--insertions", default="", help='semicolon-separated partitions, e.g. "2,1;1"')
    p.add_argument("--trace", action="store_true", help="also run the trace route (genus >= 1)")
    p.set_defaults(func=cmd_gw)

    p = sub.add_parser("count", parents=[checked], help="maximal isotropic subbundle count")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("table", parents=[common], help="quantum structure constants")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-d", type=int, default=None, dest="max_d")
    p.add_argument("--cache-dir", default=None,
                   help="where the JSON is written; overrides OGQ_CACHE_DIR and the default")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("qmul", parents=[common], help="product of two Schubert classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_qmul)

    p = sub.add_parser("ntilde", parents=[checked], help="arbitrary-bundle intersection number")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--u", type=int, default=0)
    p.add_argument("--Q", default="1", help='integrand, e.g. "2*a2 + a1^2"')
    p.set_defaults(func=cmd_ntilde)

    p = sub.add_parser("verify", parents=[common], help="self-check suites")
    p.add_argument("--suite", default="all",
                   choices=("duality", "assoc", "recursion", "trace", "counts", "all"))
    p.set_defaults(func=cmd_verify)
    return parser


def _join_q(argv: list[str]) -> list[str]:
    # argparse reads a token that starts with "-" as an option unless it is a
    # number or holds a space, so "--Q -3*a1^2" would leave --Q without its
    # value; a token after --Q that is no option (all but -h start with "--")
    # is joined to it, as "--Q=-3*a1^2" spells it
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--Q" and token.startswith("-") and not token.startswith("--") and token != "-h":
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_q(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else BAD_INPUT
    try:
        return args.func(args)
    except Refusal as exc:
        _emit_error("not_applicable", str(exc))
        return NOT_APPLICABLE
    except InvalidInput as exc:
        _emit_error("invalid_input", str(exc))
        return BAD_INPUT
    except ProofFailure as exc:
        _emit_error("verification_failure", str(exc))
        return VERIFY_FAIL
    except OSError as exc:
        _emit_error("io_error", str(exc))
        return IO_ERROR
    except Exception as exc:  # a fault of the program: report it with where it arose
        import traceback

        _emit_error("internal_error", f"{type(exc).__name__}: {exc}", traceback.format_exc())
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
