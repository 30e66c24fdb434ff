"""Source guards on the ogq package.

counting, verify, cli and the scripts use only the public names of the
other ogq modules: a helper one of them needs belongs in that module's
public API.
No module holds an assert statement, so every invariant survives `python -O`.
The size budgets are one policy: only quantum defines a *_MAX_N cap or
raises SizeBudgetError.  S_rho's powers have one store in quantum: no
ladder or second power cache, and no int_pow.  One function in counting
reaches the sums, one plans and sums a count on both routes
(count_answer), and one function in the package raises OverflowError, so
no second copy of any creeps back.  No function edits a record after
building it: a count's report is built once, with its notes.  An integrand belongs to counting alone:
quantum's sums take insertions only, symfunc evaluates no integrand on
integers, and counting expands one in one function.  The CLI has one answer
path: one tail for the cross-checks of gw, count and ntilde, and one
indented JSON print, the emitter every subcommand but table prints through.
The CLI reads what an answer checked from the library's record: it calls
no plan, no degree check and no sign-check prime of its own, and reaches
each float route through the library's answer function, with no float twin
and no lambda.
Start-up pays only for what runs: importing the CLI loads neither
dataclasses (with inspect), typing, traceback nor the verify suites."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "ogq"
SCRIPTS = SRC.parent.parent / "scripts"
PACKAGE = {path.stem for path in SRC.glob("*.py")} - {"__init__"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _sibling(module: str | None, level: int) -> str | None:
    # the ogq module an import names: "symfunc" for `from .symfunc` and for
    # `from ogq.symfunc`, "" for `from .` and `from ogq`, else None
    if level:
        return module or ""
    if module == "ogq":
        return ""
    if module and module.startswith("ogq."):
        return module[4:]
    return None


def foreign_private_uses(name: str, src: Path = SRC) -> list[str]:
    tree = ast.parse((src / f"{name}.py").read_text())
    bound = {}  # local name -> the ogq module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _sibling(node.module, node.level)
            if source is None:
                continue
            for alias in node.names:
                if source == "" and alias.name in PACKAGE:
                    bound[alias.asname or alias.name] = alias.name
                elif source != name and _private(alias.name):
                    found.append(f"{source}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name.startswith("ogq."):
                    bound[alias.asname] = alias.name[4:]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in bound
                and bound[node.value.id] != name):
            found.append(f"{bound[node.value.id]}.{node.attr}")
    return found


@pytest.mark.parametrize("name", ["counting", "verify", "cli"])
def test_uses_no_private_name_of_another_ogq_module(name):
    assert foreign_private_uses(name) == []


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda path: path.name)
def test_scripts_use_no_private_ogq_name(path):
    assert foreign_private_uses(path.stem, path.parent) == []


def test_the_guard_sees_both_kinds_of_private_use(tmp_path):
    (tmp_path / "probe.py").write_text(
        "from . import quantum\n"
        "from .symfunc import _alpha_from_elem, alpha_evaluate\n"
        "from .probe import _own\n"
        "from ogq.cli import _table_bytes, main\n"
        "def f(n):\n"
        "    return quantum._point_table(n, True), quantum.eval_points, quantum.__name__\n"
    )
    assert sorted(foreign_private_uses("probe", tmp_path)) == [
        "cli._table_bytes", "quantum._point_table", "symfunc._alpha_from_elem"]


def assert_statements(path: Path) -> list[int]:
    # line numbers of the assert statements in one module; `python -O`
    # strips them, so an invariant written as one is no check at all
    tree = ast.parse(path.read_text())
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_assert_statement_in_the_package(path):
    assert assert_statements(path) == []


def test_the_assert_guard_fires(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f(x):\n"
        "    if x:\n"
        "        assert x > 0, 'positive'\n"
        "    return 'assert x'\n"
    )
    assert assert_statements(probe) == [3]


def budget_policy_sites(path: Path) -> list[str]:
    # the *_MAX_N caps one module assigns and the SizeBudgetErrors it raises
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                found += [f"{name.id} at line {node.lineno}" for name in ast.walk(target)
                          if isinstance(name, ast.Name) and name.id.endswith("_MAX_N")]
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == "SizeBudgetError":
                found.append(f"raise SizeBudgetError at line {node.lineno}")
    return found


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "quantum.py"})
                         + sorted(SCRIPTS.glob("*.py")), ids=lambda path: path.name)
def test_only_quantum_defines_a_size_budget(path):
    assert budget_policy_sites(path) == []


def test_the_budget_guard_fires(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import quantum\n"
        "TABLE_MAX_N = 9\n"
        "A_MAX_N, B = 20, 12\n"
        "def f(n):\n"
        "    if n > TABLE_MAX_N:\n"
        "        raise quantum.SizeBudgetError('past')\n"
        "    raise SizeBudgetError\n"
    )
    assert sorted(budget_policy_sites(probe)) == [
        "A_MAX_N at line 3", "TABLE_MAX_N at line 2", "raise SizeBudgetError at line 6",
        "raise SizeBudgetError at line 7"]
    # quantum holds the four caps and one raise, in check_budget
    assert sorted(site.split(" at ")[0] for site in budget_policy_sites(SRC / "quantum.py")) == [
        "EXACT_MAX_N", "FLOAT_MAX_N", "GW_SUM_MAX_N", "TABLE_MAX_N", "raise SizeBudgetError"]


def functions_holding(path: Path, hit) -> set[str]:
    # the names of the functions of one module holding a node that hit accepts,
    # each node counted in its innermost function (None: at module level)
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if hit(child):
                found.add(owner)
            visit(child, owner)

    visit(ast.parse(path.read_text()), None)
    return found


def names_a_sum(node) -> bool:
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("orbit_trace", "evaluation_sum")


def raises_overflow(node) -> bool:
    exc = getattr(node, "exc", None) if isinstance(node, ast.Raise) else None
    return getattr(exc.func if isinstance(exc, ast.Call) else exc, "id", None) == "OverflowError"


def test_counting_reaches_the_sums_in_one_function():
    assert functions_holding(SRC / "counting.py", names_a_sum) == {"_scaled_sum"}


def calls_named(*names):
    def hit(node) -> bool:
        return isinstance(node, ast.Call) and getattr(
            node.func, "id", getattr(node.func, "attr", None)) in names
    return hit


def calls_of(path: Path) -> dict[str, set[str]]:
    # per top-level function of one module, the names it calls
    return {node.name: {getattr(call.func, "id", getattr(call.func, "attr", None))
                        for call in ast.walk(node) if isinstance(call, ast.Call)}
            for node in ast.parse(path.read_text()).body if isinstance(node, ast.FunctionDef)}


def routes_into(graph: dict[str, set[str]], caller: str, targets: set[str]) -> set[str]:
    # the names caller calls that are targets or reach one through the module's functions
    def reaches(name, seen):
        if name in targets:
            return True
        if name in seen or name not in graph:
            return False
        seen.add(name)
        return any(reaches(callee, seen) for callee in graph[name])

    return {name for name in graph[caller] if reaches(name, set())}


PLANS_AND_SUMS = {"max_iso_degree", "_plan", "orbit_trace", "evaluation_sum"}
COUNT_ROUTE = {"_count_plan", "_scaled_sum"}


def count_routes(path: Path) -> dict[str, set[str]]:
    # the functions of one module calling the count plan and the scaled sum,
    # and what count, count_float and count_answer reach of the plans and sums
    graph = calls_of(path)
    found = {name: functions_holding(path, calls_named(name)) for name in sorted(COUNT_ROUTE)}
    for caller in ("count", "count_float", "count_answer"):
        if caller in graph:
            found[caller] = routes_into(graph, caller, PLANS_AND_SUMS | COUNT_ROUTE)
    return found


def test_counting_plans_a_count_in_one_function():
    path = SRC / "counting.py"
    assert functions_holding(path, calls_named("max_iso_degree")) == {"_count_plan"}
    # count_answer plans and sums a count on both routes (_count_plan calls
    # itself for the odd-rank companion); count and count_float read it
    assert count_routes(path) == {
        "_count_plan": {"_count_plan", "count_answer"}, "_scaled_sum": {"count_answer", "n_tilde_answer"},
        "count": {"count_answer"}, "count_float": {"count_answer"}, "count_answer": COUNT_ROUTE}


def test_the_plan_guards_fire(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def _count_plan(g):\n"
        "    return max_iso_degree(g), _count_plan(g - 1)\n"
        "def _scaled_sum(n):\n"
        "    return quantum.orbit_trace(n)\n"
        "def _helper(n):\n"
        "    return _plan(n)\n"
        "def count(g):\n"
        "    return _scaled_sum(*_count_plan(g)), _helper(g), max_iso_degree(g), len(g)\n"
    )
    assert functions_holding(probe, calls_named("max_iso_degree")) == {"_count_plan", "count"}
    assert routes_into(calls_of(probe), "count", PLANS_AND_SUMS) == {
        "_scaled_sum", "_count_plan", "_helper", "max_iso_degree"}
    # the parent's pair: count and count_float each planned and summed a count
    probe.write_text(
        "def count(genus, rank, ell):\n"
        "    try:\n"
        "        e0, n, exponent, rho_power, route_keys = _count_plan(genus, rank, ell)\n"
        "    except NotApplicableError as exc:\n"
        "        return CountReport(genus=genus, rank=rank, ell=ell, e0=None, applicable=False)\n"
        "    num, den, prime = _scaled_sum(True, n, genus, rho_power, exponent)\n"
        "    report = CountReport(genus=genus, rank=rank, ell=ell, e0=e0, applicable=True)\n"
        "    _check_catalog(report)\n"
        "    return report\n"
        "def count_float(genus, rank, ell):\n"
        "    _e0, n, exponent, rho_power, _keys = _count_plan(genus, rank, ell)\n"
        "    return _scaled_sum(False, n, genus, rho_power, exponent)\n"
    )
    assert count_routes(probe) == {
        "_count_plan": {"count", "count_float"}, "_scaled_sum": {"count", "count_float"},
        "count": COUNT_ROUTE, "count_float": COUNT_ROUTE}


MUTATORS = {"append", "extend", "insert", "update", "setdefault", "pop", "popitem", "clear", "remove"}


def edits_a_record(node) -> bool:
    # an attribute set or deleted on anything but self, an item set or deleted
    # in a container an attribute holds, or such a container changed in place
    if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(node.ctx, (ast.Store, ast.Del)):
        return getattr(node.value, "id", None) != "self" if isinstance(node, ast.Attribute) else (
            isinstance(node.value, ast.Attribute))
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS and isinstance(node.func.value, ast.Attribute))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_function_edits_a_record_after_building_it(path):
    # a CountReport, like every record, is built once with all it says; the
    # wiring of quantum's cache_clear at module level is no function's
    assert functions_holding(path, edits_a_record) - {None} == set()


def test_the_record_edit_guard_fires(tmp_path):
    # the grandparent's count and _check_catalog, which filled a report in
    # after building it, and an edit of one of self's containers
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def count(genus, rank, ell):\n"
        "    report = CountReport(genus=genus, rank=rank, ell=ell, e0=e0, applicable=True)\n"
        "    if prime is not None:\n"
        "        report.decomposition['sign_check_prime'] = prime\n"
        "    _check_catalog(report)\n"
        "    return report\n"
        "def _check_catalog(report):\n"
        "    report.notes.append('matches catalogued closed form')\n"
        "def _wrong_value(report):\n"
        "    report.value += 1\n"
        "class Ring:\n"
        "    def __init__(self, terms):\n"
        "        self.terms = terms\n"
        "    def add(self, key):\n"
        "        del self.terms[key]\n"
        "f.cache_clear = g\n"
    )
    assert functions_holding(probe, edits_a_record) == {"count", "_check_catalog", "_wrong_value", "add", None}


def test_one_function_in_the_package_raises_overflow_error():
    assert {f"{path.stem}.{name}" for path in SRC.glob("*.py")
            for name in functions_holding(path, raises_overflow)} == {"quantum.scaled_double"}


def test_the_one_function_guards_fire(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import quantum\n"
        "from .quantum import evaluation_sum\n"
        "def f(n):\n"
        "    def g():\n"
        "        raise OverflowError('past')\n"
        "    return quantum.orbit_trace(n, 1)\n"
        "def h(n):\n"
        "    if n:\n"
        "        raise OverflowError\n"
        "    return evaluation_sum(n, 1)\n"
        "raise OverflowError()\n"
    )
    assert functions_holding(probe, names_a_sum) == {"f", "h"}
    assert functions_holding(probe, raises_overflow) == {"g", "h", None}


def names_the_integrand(node) -> bool:
    # a reference to AlphaPolynomial, as a name or inside a string annotation
    return (getattr(node, "id", None) == "AlphaPolynomial"
            or isinstance(node, ast.Constant) and isinstance(node.value, str) and "AlphaPolynomial" in node.value)


def reads_terms(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "terms"


def test_the_integrand_belongs_to_counting_alone():
    text = (SRC / "quantum.py").read_text()
    assert [name for name in ("AlphaPolynomial", "q_poly", "_int_alpha") if name in text] == []
    symfunc = SRC / "symfunc.py"
    integer_evaluators = functions_holding(symfunc, calls_named("int_mul", "int_pow"))
    assert functions_holding(symfunc, names_the_integrand) & integer_evaluators == set()
    assert functions_holding(SRC / "counting.py", reads_terms) == {"_integrand_terms"}


def test_the_integrand_guards_fire(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def _int_q(poly: 'AlphaPolynomial', evals, order):\n"
        "    return [int_mul(evals[i], evals[i], order) for exps, c in poly.terms for i in exps]\n"
        "def parse(text) -> AlphaPolynomial:\n"
        "    return AlphaPolynomial.one()\n"
        "def power(x, k, order):\n"
        "    return int_pow(x, k, order)\n"
    )
    assert functions_holding(probe, names_the_integrand) == {"_int_q", "parse"}
    assert functions_holding(probe, calls_named("int_mul", "int_pow")) == {"_int_q", "power"}
    assert functions_holding(probe, reads_terms) == {"_int_q"}


def module_names(path: Path) -> set[str]:
    # the names one module binds at its top level: functions, classes,
    # assignments and imports
    found = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                found |= {name.id for name in ast.walk(target) if isinstance(name, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    return found


SECOND_POWER_CACHES = {"_schur_ladder", "_ladders", "_ladder_bits", "_kept_powers", "_kept_bits", "int_pow"}


def test_quantum_keeps_one_store_of_s_rho_powers():
    assert module_names(SRC / "quantum.py") & SECOND_POWER_CACHES == set()


def test_the_power_store_guard_fires(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .cyclotomic import int_mul, int_pow as int_pow\n"
        "_kept_powers: dict = {}\n"
        "_ladders, _ladder_bits = {}, {}\n"
        "def _schur_ladder(n):\n"
        "    _kept_bits = {}\n"
        "    return _kept_bits\n"
    )
    assert module_names(probe) & SECOND_POWER_CACHES == {
        "_schur_ladder", "_ladders", "_ladder_bits", "_kept_powers", "int_pow"}


def indented_dumps(path: Path) -> list[int]:
    # the line numbers of the json.dumps(..., indent=2) calls of one module
    return [node.lineno for node in ast.walk(ast.parse(path.read_text()))
            if calls_named("dumps")(node)
            and any(k.arg == "indent" and getattr(k.value, "value", None) == 2 for k in node.keywords)]


def test_the_cli_has_one_answer_path():
    cli = SRC / "cli.py"
    assert module_names(cli) & {"_float_check", "_float_line"} == set()
    assert len(indented_dumps(cli)) == 1


def test_the_answer_path_guard_fires(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import json\n"
        "# json.dumps(doc, indent=2) in a comment is no call\n"
        "def _float_line(doc):\n"
        "    return json.dumps(doc, indent=2)\n"
        "def emit(doc):\n"
        "    print(json.dumps(doc), 'indent=2', json.dumps(doc, indent=4))\n"
        "    print(json.dumps(doc, sort_keys=True, indent=2))\n"
    )
    assert indented_dumps(probe) == [4, 7]
    assert "_float_line" in module_names(probe)


RE_DERIVATIONS = ("degree_ok", "sign_check_prime", "_n_tilde_plan", "_count_plan", "_integrand_terms",
                  "gw_invariant_float", "n_tilde_float", "count_float")


def holds_a_lambda(node) -> bool:
    return isinstance(node, ast.Lambda)


def test_the_cli_re_derives_nothing_the_library_planned():
    # the float routes are the library's answer functions called with exact=False
    cli = SRC / "cli.py"
    assert functions_holding(cli, calls_named(*RE_DERIVATIONS)) == set()
    assert functions_holding(cli, holds_a_lambda) == set()


def test_the_re_derivation_guard_fires(tmp_path):
    # the grandparent's cmd_gw, which checked the degree and looked the prime
    # up after the sum, a re-plan of an ntilde query, and the parent's
    # cmd_count, which reached the float count through a lambda
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def cmd_gw(args):\n"
        "    query = GWQuery(args.n, args.g, args.d, _parse_insertions(args.insertions))\n"
        "    value = quantum.gw_invariant(query)\n"
        "    doc = {'value': decimal_string(value)}\n"
        "    if quantum.degree_ok(query) and (prime := quantum.sign_check_prime(args.n, query.insertions)):\n"
        "        doc['sign_check_prime'] = prime\n"
        "    return doc\n"
        "def cmd_ntilde(query):\n"
        "    return counting._integrand_terms(*counting._n_tilde_plan(query))\n"
        "def cmd_count(args):\n"
        "    report = counting.count(args.g, args.rank, args.ell)\n"
        "    doc = report.to_json_dict()\n"
        "    lines = [doc['N']]\n"
        "    return _answer(args, doc, lines, report.value, lambda: counting.count_float(args.g, args.rank, args.ell),\n"
        "                   f\"N has {len(doc['N'])} digits and cannot be represented as a double\")\n"
        "def cmd_qmul(args):\n"
        "    return counting.count(args.g, args.rank, args.ell)\n"
    )
    assert functions_holding(probe, calls_named(*RE_DERIVATIONS)) == {"cmd_gw", "cmd_ntilde", "cmd_count"}
    assert functions_holding(probe, holds_a_lambda) == {"cmd_count"}


COLD_START_FREE = ("dataclasses", "inspect", "typing", "traceback", "ogq.verify")


def loaded_by_the_cli(src: Path) -> list[str]:
    # the modules of COLD_START_FREE that a fresh `python -S` holds after
    # importing ogq.cli from src, without site's own imports
    probe = f"import json, sys, ogq.cli; print(json.dumps([m for m in {COLD_START_FREE!r} if m in sys.modules]))"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True,
                          check=True)
    return json.loads(done.stdout)


def test_the_cli_starts_without_unused_modules():
    assert loaded_by_the_cli(SRC.parent) == []


def test_the_cold_start_guard_fires(tmp_path):
    # the parent's start-up: dataclasses (which loads inspect) for the
    # records, traceback and verify in the CLI; and typing, which records
    # built on typing.NamedTuple would load.  The parent's own sources fail
    # the guard with all of these but typing.
    package = tmp_path / "ogq"
    package.mkdir()
    (package / "__init__.py").write_text("import dataclasses\nimport typing\n")
    (package / "verify.py").write_text("")
    (package / "cli.py").write_text("import traceback\nfrom . import verify\n")
    assert loaded_by_the_cli(tmp_path) == list(COLD_START_FREE)
