"""One benchmark repetition in a fresh interpreter.

Started by run.py with the monotonic time at which it was spawned.  It imports
ogq from the checkout, builds the call list from the spec, runs the
workload's warm-up, then times each call; an operation's latency is the sum
over its calls.

Times are CPU time of this single-threaded process: set-up is the process
CPU time from interpreter start to the first timed call, and each call is
timed with the thread's CPU clock.  On a shared virtual machine that leaves
out the time the host runs something else on the worker's CPU (steal time),
which the wall clock counts.  Wall times of set-up and of the timed calls are kept alongside, for
the report.  With --check it runs the oracle after the timed calls; with
--trace it records spans and writes them out at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def build_calls(spec: dict, cache_dir: Path) -> list:
    """Zero-argument callables, one per call, after the workload's warm-up."""
    from ogq import partitions, quantum

    workload, ops = spec["workload"], spec["ops"]
    calls = []
    if workload == "table":
        from ogq import cli

        def table_call(k):
            def call():
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(["table", "--n", str(k), "--format", "json",
                                   "--cache-dir", str(cache_dir)])
                return rc, buf.getvalue()
            return call

        return [table_call(op["n"]) for op in ops]
    if workload == "counts":
        from ogq import counting, symfunc

        for op in ops:
            if op["op"] == "count":
                calls.append(lambda g=op["g"], r=op["rank"], e=op["ell"]: counting.count(g, r, e))
                continue
            n, m = op["n"], op["n"] - 1
            factors = [tuple(lam) for lam in op["ins"]] + [partitions.rho(m)] * op["u"]
            q_poly = symfunc.AlphaPolynomial.one()
            for lam in factors:
                q_poly = q_poly * symfunc.ptilde_alpha(lam, m)
            query = counting.NQuery(op["g"], n, 0, op["e"], 0, q_poly)
            calls.append(lambda q=query: counting.n_tilde(q))
        return calls
    struct_ns, table_ns = spec["warmup"]
    for n in struct_ns:
        quantum.structure_table(n)
    for n in table_ns:
        pair = quantum.GWQuery(n, 0, 0, ((), partitions.rho(n - 1)))
        quantum.gw_invariant(pair)
        quantum.gw_invariant_float(pair)
    route = {"gw": "gw_invariant", "gw_float": "gw_invariant_float", "trace": "trace_invariant"}
    for op in ops:
        if op["op"] == "qp":
            a = quantum.QuantumElement.basis(tuple(op["a"]))
            b = quantum.QuantumElement.basis(tuple(op["b"]))
            calls.append(lambda n=op["n"], a=a, b=b: quantum.quantum_product(n, a, b))
        else:
            query = quantum.GWQuery(op["n"], op["g"], op["d"], tuple(tuple(lam) for lam in op["ins"]))
            calls.append(lambda q=query, fn=route[op["op"]]: getattr(quantum, fn)(q))
    return calls


def query_key(op: dict) -> tuple:
    return op["n"], op["g"], op["d"], tuple(tuple(lam) for lam in op["ins"])


def answer(op: dict, value, cache_dir: Path) -> list:
    """Compact, comparable form of one call's result."""
    from oracle import digest

    kind = op["op"]
    if kind == "table":
        rc, text = value
        written = cache_dir / f"table-n{op['n']}.json"
        return [rc, digest(text), digest(written.read_text()) if written.exists() else None]
    if kind == "count":
        return [digest(str(value.value))] if value.applicable else ["refused", value.reason]
    if kind == "qp":
        return sorted([list(nu), d, str(c)] for (nu, d), c in value.terms.items())
    if kind == "gw_float":
        return [repr(value)]
    return [str(value)]


def check_all(spec: dict, values: list, errors: list, cache_dir: Path) -> list[bool]:
    """Oracle verdict per call; a call that raised is always a failure."""
    import math

    import oracle
    from ogq import counting, quantum

    reference = oracle.load_reference()
    ops = spec["ops"]
    gw_routes: dict[tuple, dict] = {}
    for op, value, err in zip(ops, values, errors):
        if op["op"] in ("gw", "gw_float", "trace") and err is None:
            gw_routes.setdefault(query_key(op), {})[op["op"]] = value
    verdicts = []
    for op, value, err in zip(ops, values, errors):
        kind = op["op"]
        if err is not None:
            verdicts.append(False)
        elif kind == "table":
            rc, text = value
            written = cache_dir / f"table-n{op['n']}.json"
            verdicts.append(oracle.check_table(
                reference["table_sha256"][str(op["n"])], rc, text,
                written.read_bytes() if written.exists() else b""))
        elif kind == "count":
            expected = reference["counts"][f"{op['g']},{op['rank']},{op['ell']}"]
            approx = None
            if value.applicable:
                try:
                    approx = counting.count_float(op["g"], op["rank"], op["ell"])
                except OverflowError:
                    approx = None
                if approx is not None and not math.isfinite(approx):
                    approx = None
            verdicts.append(oracle.check_count(expected, value, approx))
        elif kind == "n_tilde":
            direct = counting.trivial_bundle_number(
                op["g"], op["n"], op["e"], op["u"], [tuple(lam) for lam in op["ins"]])
            verdicts.append(value == direct)
        elif kind == "qp":
            verdicts.append(oracle.check_product(
                op["n"], tuple(op["a"]), tuple(op["b"]), value.terms, quantum.three_point))
        else:
            routes = gw_routes.get(query_key(op), {})
            verdicts.append(
                "gw" in routes and "gw_float" in routes
                and oracle.check_gw(routes["gw"], routes["gw_float"], routes.get("trace"))
            )
    return verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True, help="checkout root holding src/ogq")
    parser.add_argument("--spec", required=True, help="JSON file with the workload and its ops")
    parser.add_argument("--out", required=True, help="where to write the result JSON")
    parser.add_argument("--t0", type=int, required=True, help="time.monotonic_ns() at spawn")
    parser.add_argument("--trace", default=None, help="path prefix for the span dump")
    parser.add_argument("--check", action="store_true", help="run the oracle after timing")
    parser.add_argument("--setup-only", action="store_true", help="stop at the first timed call")
    args = parser.parse_args(argv)

    root = Path(args.root)
    sys.path.insert(0, str(root / "src"))
    spec = json.loads(Path(args.spec).read_text())
    import ogq
    from ogq import cli  # noqa: F401  (the table workload calls it; traced everywhere)

    if Path(ogq.__file__).resolve().parent != (root / "src" / "ogq").resolve():
        print(f"ogq imported from {ogq.__file__}, not from the checkout", file=sys.stderr)
        return 3
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cache_dir = Path(args.out).parent / "cache"
    calls = build_calls(spec, cache_dir)
    result: dict = {"setup_s": time.process_time(),
                    "setup_wall_s": (time.monotonic_ns() - args.t0) / 1e9}
    if not args.setup_only:
        clock = time.thread_time_ns
        values, errors, lat = [], [], []
        wall_begin = time.perf_counter_ns()
        begin = clock()
        for call in calls:
            start = clock()
            try:
                values.append(call())
                errors.append(None)
            except Exception as exc:  # a failed call is counted, never fatal
                values.append(None)
                errors.append(f"{type(exc).__name__}: {exc}")
            lat.append(clock() - start)
        cpu_ns = clock() - begin
        wall_ns = time.perf_counter_ns() - wall_begin
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            tracer.dump(Path(args.trace))
        op_lat: dict[int, int] = {}
        for op, ns in zip(spec["ops"], lat):
            op_lat[op["op_id"]] = op_lat.get(op["op_id"], 0) + ns
        result.update(
            cpu_s=cpu_ns / 1e9,
            wall_s=wall_ns / 1e9,
            lat_ns=list(op_lat.values()),
            peak_rss_mb=rss_kb / 1024,
            bytes_out=sum(len(v[1].encode()) for v in values if spec["workload"] == "table" and v),
            answers=[["error", err] if err else answer(op, value, cache_dir)
                     for op, value, err in zip(spec["ops"], values, errors)],
            verdicts=check_all(spec, values, errors, cache_dir) if args.check else None,
        )
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
