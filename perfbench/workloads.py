"""Seeded input generators for the three benchmark workloads.

Pure stdlib: run.py builds every input here and hands the worker a plain
list of calls, so the program under test sees only the generated calls.  The
generators are stratified (fixed counts per rank, per n and per genus) so that
two seeds give the same amount of work and differ only in which calls are
drawn; that keeps the run-to-run spread down to machine noise.

Each call carries an `op_id`.  An operation, the unit of the latency metrics,
is the run of consecutive calls that share it: one `count` or `n_tilde` call;
one GW query with all of its routes, or one quantum product; and, for `table`,
the whole k = 2..6 build, as `scripts/build_tables.py` does it.
"""

from __future__ import annotations

import itertools
import random

# The finite count domain; reference.json records an answer for every triple.
COUNT_GENERA = tuple(range(2, 21)) + (24, 28, 32, 40, 48, 64, 80, 100, 128, 160, 200, 256, 320, 400)
COUNT_RANKS = tuple(range(3, 15))


def count_ells(rank: int) -> tuple[int, ...]:
    # Odd rank takes even ell only; odd ell there is an input error, not a
    # parity refusal, so the generator never draws it.
    return (0, 1, 2, 3) if rank % 2 == 0 else (0, 2)


def count_domain(ranks=COUNT_RANKS, genera=COUNT_GENERA):
    for rank in ranks:
        for ell in count_ells(rank):
            for g in genera:
                yield g, rank, ell


def count_key(g: int, rank: int, ell: int) -> str:
    return f"{g},{rank},{ell}"


def strict_partitions(m: int) -> list[list[int]]:
    """The 2^m strict partitions with parts <= m, as decreasing lists."""
    out = []
    for r in range(m + 1):
        out.extend(list(c) for c in itertools.combinations(range(m, 0, -1), r))
    return sorted(out)


def admissible_degree(n: int, genus: int, insertions) -> int | None:
    """The one degree d with total weight n(n-1)(1-g)/2 + 2(n-1)d, if any."""
    num = sum(sum(lam) for lam in insertions) - n * (n - 1) * (1 - genus) // 2
    if num < 0 or num % (2 * (n - 1)):
        return None
    return num // (2 * (n - 1))


def table_ops(smoke: bool) -> list[dict]:
    # The cold build has one input, k = 2..6 in order; the seed cannot vary it.
    return [{"op": "table", "op_id": 0, "n": k} for k in range(2, 5 if smoke else 7)]


def count_ops(seed: int, smoke: bool, refused: set[str]) -> list[dict]:
    """`count` calls over COUNT_RANKS and COUNT_GENERA, one in five refused,
    plus a few n_tilde calls whose integrand is a product of P~ polynomials
    (so the trivial-bundle route gives an independent answer)."""
    rng = random.Random(seed)
    ranks = COUNT_RANKS[:6] if smoke else COUNT_RANKS
    genera = COUNT_GENERA[:8] if smoke else COUNT_GENERA
    total, n_tilde_calls = (20, 2) if smoke else (400, 8)
    domain = list(count_domain(ranks, genera))
    refusals = [t for t in domain if count_key(*t) in refused]
    ops = []
    for i in range(total - total // 5):
        rank = ranks[i % len(ranks)]
        while True:
            g, ell = rng.choice(genera), rng.choice(count_ells(rank))
            if count_key(g, rank, ell) not in refused:
                break
        ops.append({"op": "count", "g": g, "rank": rank, "ell": ell})
    for _ in range(total // 5):
        g, rank, ell = rng.choice(refusals)
        ops.append({"op": "count", "g": g, "rank": rank, "ell": ell})
    for i in range(n_tilde_calls):
        n = 2 + i % 3
        m = n - 1
        basis = strict_partitions(m)
        while True:
            genus, u = rng.randint(2, 6), rng.randint(0, 2)
            ins = [rng.choice(basis) for _ in range(rng.randint(0, 2))]
            d = admissible_degree(n, genus, [list(range(m, 0, -1))] * u + ins)
            if d is not None:
                break
        ops.append({"op": "n_tilde", "g": genus, "n": n, "e": -2 * d, "u": u, "ins": ins})
    rng.shuffle(ops)
    return [dict(op, op_id=i) for i, op in enumerate(ops)]


def query_ops(seed: int, smoke: bool) -> list[dict]:
    """GW queries stratified over n = 2..6 and genus 0..8, each as the exact
    sum, the float path and (genus >= 1, n <= 5) the trace route; the rest of
    the 8000 calls are quantum products of basis classes for n <= 5."""
    rng = random.Random(seed)
    ns, genera, per_cell, total = (
        ((2, 3, 4), range(0, 4), 1, 40) if smoke else ((2, 3, 4, 5, 6), range(0, 9), 56, 8000)
    )
    groups = []
    calls = 0
    for n in ns:
        basis = strict_partitions(n - 1)
        for genus in genera:
            for _ in range(per_cell):
                while True:
                    ins = [rng.choice(basis) for _ in range(rng.randint(0, 6))]
                    d = admissible_degree(n, genus, ins)
                    if d is not None:
                        break
                query = {"n": n, "g": genus, "d": d, "ins": ins}
                group = [dict(query, op="gw"), dict(query, op="gw_float")]
                if genus >= 1 and n <= 5:
                    group.append(dict(query, op="trace"))
                groups.append(group)
                calls += len(group)
    qp_ns = [n for n in ns if n <= 5]
    for i in range(total - calls):
        n = qp_ns[i % len(qp_ns)]
        basis = strict_partitions(n - 1)
        groups.append([{"op": "qp", "n": n, "a": rng.choice(basis), "b": rng.choice(basis)}])
    rng.shuffle(groups)
    return [dict(op, op_id=i) for i, group in enumerate(groups) for op in group]


def warmup_ns(smoke: bool) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(n with structure tables built in set-up, n with per-point tables built
    in set-up) for the queries workload."""
    return ((2, 3), (2, 3, 4)) if smoke else ((2, 3, 4, 5), (2, 3, 4, 5, 6))


def make_ops(workload: str, seed: int, smoke: bool, reference: dict) -> list[dict]:
    if workload == "table":
        return table_ops(smoke)
    if workload == "counts":
        refused = {k for k, v in reference["counts"].items() if v == "refused"}
        return count_ops(seed, smoke, refused)
    if workload == "queries":
        return query_ops(seed, smoke)
    raise ValueError(f"unknown workload {workload!r}")
