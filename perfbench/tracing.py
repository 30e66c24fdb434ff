"""Span tracing around the calls into each ogq module, from outside src/.

`Tracer.install` replaces the traced functions with wrappers in every ogq
module namespace that holds them, because callers resolve names differently:
quantum binds elementary_values, schur_value and _ptilde_from_elem at import,
counting binds alpha_evaluate, and the rest go through module attributes.
CycloNum's arithmetic is wrapped on the class; __rmul__ and __radd__ are
separate class attributes from __mul__ and __add__, so each is wrapped.

Spans (id, name, start, end, parent) stay in memory in flat arrays and are
written out by `dump`; `layer_metrics` derives per-layer figures from them,
with self time = a span's duration minus the durations of its children.
"""

from __future__ import annotations

import array
import itertools
import json
import sys
import time
from pathlib import Path

# (module, function, span name): the calls the workloads make into each layer,
# plus the quantum helpers that counting and cli call directly, so that their
# work is charged to quantum.
TRACED = (
    ("symfunc", "elementary_values", "symfunc.elementary_values"),
    ("symfunc", "schur_value", "symfunc.schur_value"),
    ("symfunc", "pfaffian", "symfunc.pfaffian"),
    ("symfunc", "alpha_evaluate", "symfunc.alpha_evaluate"),
    ("symfunc", "_ptilde_from_elem", "symfunc.ptilde"),
    ("symfunc", "ptilde_alpha", "symfunc.ptilde_alpha"),
    ("quantum", "eval_points", "quantum.eval_points"),
    ("quantum", "_tables", "quantum.tables"),
    ("quantum", "_schur_powers", "quantum.schur_powers"),
    ("quantum", "_float_tables", "quantum.float_tables"),
    ("quantum", "gw_invariant", "quantum.gw_invariant"),
    ("quantum", "gw_invariant_float", "quantum.gw_invariant_float"),
    ("quantum", "structure_table", "quantum.structure_table"),
    ("quantum", "table_json_dict", "quantum.table_json_dict"),
    ("quantum", "quantum_product", "quantum.quantum_product"),
    ("quantum", "trace_invariant", "quantum.trace_invariant"),
    ("counting", "count", "counting.count"),
    ("counting", "n_tilde", "counting.n_tilde"),
    ("cli", "main", "cli.main"),
)
CYCLO_OPS = {"__mul__": "mul", "__rmul__": "mul", "__add__": "add", "__radd__": "add",
             "invert": "invert", "__pow__": "pow"}
QUANTUM_CACHES = ("eval_points", "_tables", "_schur_powers", "_float_tables",
                  "structure_table", "_product_lookup", "_mult_trace_weights")
ORDERS = (4, 8, 12, 16, 20, 24)
ARRAYS = ("sid", "name", "start", "end", "parent")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.codes: dict[str, int] = {}
        self.cols = {key: array.array("q") for key in ARRAYS}
        self.stack = [-1]
        self.ids = itertools.count()
        self.counters = {"quantum.points": 0, "counting.refused": 0}
        self.originals: dict[str, object] = {}

    def code(self, name: str) -> int:
        if name not in self.codes:
            self.codes[name] = len(self.names)
            self.names.append(name)
        return self.codes[name]

    def _wrap(self, fn, code_of, post=None):
        stack, next_id, clock = self.stack, self.ids.__next__, time.perf_counter_ns
        put = [self.cols[key].append for key in ARRAYS]
        put_sid, put_name, put_start, put_end, put_parent = put

        def wrapper(*args, **kwargs):
            sid = next_id()
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                put_sid(sid)
                put_name(code_of(args))
                put_start(start)
                put_end(end)
                put_parent(parent)
            if post is not None:
                post(result)
            return result

        return wrapper

    def install(self) -> None:
        from ogq import cyclotomic

        modules = [mod for key, mod in sys.modules.items() if key == "ogq" or key.startswith("ogq.")]
        for modname, attr, span in TRACED:
            orig = getattr(sys.modules[f"ogq.{modname}"], attr)
            self.originals[f"{modname}.{attr}"] = orig
            code = self.code(span)
            post = None
            if span == "quantum.eval_points":
                post = self._count_points(orig)
            elif span == "counting.count":
                post = self._count_refusals
            wrapper = self._wrap(orig, lambda args, c=code: c, post)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
        for attr, op in CYCLO_OPS.items():
            by_order: dict[int, int] = {}

            def code_of(args, by_order=by_order, op=op):
                order = args[0].order
                if order not in by_order:
                    by_order[order] = self.code(f"cyclotomic.{op}.o{order}")
                return by_order[order]

            setattr(cyclotomic.CycloNum, attr, self._wrap(getattr(cyclotomic.CycloNum, attr), code_of))

    def _count_points(self, orig):
        last = [orig.cache_info().misses]

        def post(result):
            misses = orig.cache_info().misses
            if misses != last[0]:
                last[0] = misses
                self.counters["quantum.points"] += len(result)

        return post

    def _count_refusals(self, report) -> None:
        if not report.applicable:
            self.counters["counting.refused"] += 1

    def cache_totals(self) -> dict[str, int]:
        """Hits and misses summed over quantum's lru_caches."""
        from ogq import quantum

        hits = misses = 0
        for attr in QUANTUM_CACHES:
            info = self.originals.get(f"quantum.{attr}", getattr(quantum, attr)).cache_info()
            hits += info.hits
            misses += info.misses
        return {"hits": hits, "misses": misses}

    def dump(self, path: Path) -> None:
        header = {"names": self.names, "counters": self.counters, "caches": self.cache_totals(),
                  "spans": len(self.cols["sid"])}
        path.with_suffix(".json").write_text(json.dumps(header))
        with open(path.with_suffix(".bin"), "wb") as fh:
            for key in ARRAYS:
                self.cols[key].tofile(fh)


def load_spans(path: Path) -> tuple[dict, dict[str, array.array]]:
    header = json.loads(path.with_suffix(".json").read_text())
    cols = {}
    with open(path.with_suffix(".bin"), "rb") as fh:
        for key in ARRAYS:
            cols[key] = array.array("q")
            cols[key].fromfile(fh, header["spans"])
    return header, cols


def layer_metrics(path: Path) -> dict[str, float]:
    """Per-layer figures of one traced worker, from its dumped spans."""
    header, cols = load_spans(path)
    names = header["names"]
    count = header["spans"]
    # Span ids are handed out at span start, so a parent's id is always
    # smaller than its children's: one pass in id order sees parents first.
    row = array.array("q", bytes(8 * count))
    for i, sid in enumerate(cols["sid"]):
        row[sid] = i
    name = [cols["name"][i] for i in row]
    parent = [cols["parent"][i] for i in row]
    dur = [cols["end"][i] - cols["start"][i] for i in row]
    child = [0] * count
    for sid in range(count):
        if parent[sid] >= 0:
            child[parent[sid]] += dur[sid]
    layer = [n.split(".")[0] for n in names]
    is_cyclo = [lay == "cyclotomic" for lay in layer]

    calls = [0] * len(names)
    busy = [0] * len(names)       # summed duration of all spans of a name
    total = [0] * len(names)      # summed duration of outermost spans of a name
    self_ns: dict[str, int] = {}
    owner = [""] * count          # nearest non-cyclotomic layer above a span
    mul_owner: dict[str, int] = {}
    for sid in range(count):
        code = name[sid]
        lay = layer[code]
        calls[code] += 1
        busy[code] += dur[sid]
        self_ns[lay] = self_ns.get(lay, 0) + dur[sid] - child[sid]
        up = parent[sid]
        if is_cyclo[code]:
            owner[sid] = owner[up] if up >= 0 else "root"
            if names[code].startswith("cyclotomic.mul."):
                mul_owner[owner[sid]] = mul_owner.get(owner[sid], 0) + 1
            continue
        owner[sid] = lay
        while up >= 0 and name[up] != code:
            up = parent[up]
        if up < 0:
            total[code] += dur[sid]

    def by_name(span: str, values) -> float:
        return values[names.index(span)] if span in names else 0

    out: dict[str, float] = {}
    for op in ("mul", "add", "invert", "pow"):
        out[f"cyclotomic.{op}_calls"] = sum(
            calls[c] for c, n in enumerate(names) if n.startswith(f"cyclotomic.{op}.")
        )
    out["cyclotomic.self_s"] = self_ns.get("cyclotomic", 0) / 1e9
    for order in ORDERS:
        span = f"cyclotomic.mul.o{order}"
        mean_ns = by_name(span, busy) / by_name(span, calls) if by_name(span, calls) else 0.0
        out[f"cyclotomic.mul_us.o{order}"] = mean_ns / 1e3
    for fn in ("elementary_values", "pfaffian", "schur_value", "alpha_evaluate"):
        out[f"symfunc.{fn}_calls"] = by_name(f"symfunc.{fn}", calls)
    out["symfunc.total_s"] = sum(
        dur[sid] for sid in range(count)
        if layer[name[sid]] == "symfunc" and (parent[sid] < 0 or layer[name[parent[sid]]] != "symfunc")
    ) / 1e9
    out["symfunc.self_s"] = self_ns.get("symfunc", 0) / 1e9
    out["symfunc.mul_calls"] = mul_owner.get("symfunc", 0)
    out["quantum.points"] = header["counters"]["quantum.points"]
    for fn in ("structure_table", "gw_invariant", "gw_invariant_float", "trace_invariant", "quantum_product"):
        out[f"quantum.{fn}_s"] = by_name(f"quantum.{fn}", total) / 1e9
    out["quantum.self_s"] = self_ns.get("quantum", 0) / 1e9
    out["quantum.mul_calls"] = mul_owner.get("quantum", 0)
    hits, misses = header["caches"]["hits"], header["caches"]["misses"]
    out["quantum.cache_hits"] = hits
    out["quantum.cache_misses"] = misses
    out["quantum.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["counting.count_s"] = by_name("counting.count", total) / 1e9
    out["counting.n_tilde_s"] = by_name("counting.n_tilde", total) / 1e9
    out["counting.self_s"] = self_ns.get("counting", 0) / 1e9
    out["counting.refused"] = header["counters"]["counting.refused"]
    out["cli.main_s"] = by_name("cli.main", total) / 1e9
    out["cli.self_s"] = self_ns.get("cli", 0) / 1e9
    return out
