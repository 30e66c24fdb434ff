"""The command line, run in process through cli.main."""

import itertools
import json
import operator
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ogq import cli, counting, cyclotomic, partitions, quantum, symfunc, verify

ROOT = Path(__file__).resolve().parent.parent


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gw_text(capsys):
    code, out, err = run(
        ["gw", "--n", "2", "--g", "0", "--d", "1", "--insertions", "1;1;1"], capsys
    )
    assert code == 0
    assert out == "1\n"
    assert err == ""


def test_gw_json(capsys):
    code, out, _ = run(
        ["gw", "--n", "2", "--g", "0", "--d", "1", "--insertions", "1;1;1",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 2 and doc["g"] == 0 and doc["d"] == 1
    assert doc["insertions"] == ["1", "1", "1"]
    assert doc["value"] == "1"


def test_gw_and_ntilde_json_name_the_sign_check_prime_where_the_sign_route_ran(capsys):
    # exact gw reads P~_rho by its sign mod p for any staircase insertion,
    # ntilde for a term whose insertions hold P~_rho: an odd staircase power
    # on the expected weight, or a_1 = P~_(1) = P~_rho at n = 2
    def doc(argv):
        code, out, _ = run(argv + ["--format", "json"], capsys)
        assert code == 0
        return json.loads(out)
    assert doc(["gw", "--n", "3", "--g", "1", "--d", "3", "--insertions", "2,1;2,1;2,1;2,1"]) \
        ["sign_check_prime"] == quantum.sign_check_field(3)[0] == 17
    assert "sign_check_prime" not in doc(["gw", "--n", "3", "--g", "0", "--d", "1", "--insertions", "1;1;2"])
    # off the weight condition the invariant is 0 and no sum runs
    assert "sign_check_prime" not in doc(["gw", "--n", "3", "--g", "1", "--d", "0", "--insertions", "2,1;1"])
    ntilde = ["ntilde", "--g", "2", "--n", "7", "--ell", "1", "--e", "0"]
    assert doc(ntilde) == {"g": 2, "n": 7, "ell": 1, "e": 0, "u": 0, "Q": "1", "value": "54272",
                           "sign_check_prime": 73}
    assert "sign_check_prime" not in doc(ntilde + ["--Q", "a1"])
    assert "sign_check_prime" not in doc(["ntilde", "--g", "3", "--n", "2", "--ell", "0", "--e", "-2"])
    a1_squared = doc(["ntilde", "--g", "3", "--n", "2", "--ell", "0", "--e", "-4", "--Q", "a1^2"])
    assert a1_squared["value"] == "8" and a1_squared["sign_check_prime"] == quantum.sign_check_field(2)[0]
    # every term on the expected weight has an a_i past m: no term is summed
    dead = doc(["ntilde", "--g", "9", "--n", "2", "--ell", "1", "--e", "-12", "--u", "2", "--Q", "2*a3"])
    assert dead["value"] == "0" and "sign_check_prime" not in dead


def test_gw_trace_route(capsys):
    code, out, _ = run(
        ["gw", "--n", "2", "--g", "1", "--d", "1", "--insertions", "1;1", "--trace"],
        capsys,
    )
    assert code == 0
    assert out == "2\ntrace route: 2 (agree)\n"


def test_a_trace_disagreement_exits_1_and_the_float_line_follows_the_trace_line(monkeypatch, capsys):
    # the trace route patched one off: the verdict reaches the text, the JSON
    # and the exit code, and under --mode float the float route still runs
    real = quantum.trace_invariant
    monkeypatch.setattr(quantum, "trace_invariant", lambda query: real(query) + 1)
    argv = ["gw", "--n", "2", "--g", "1", "--d", "1", "--insertions", "1;1", "--trace"]
    code, out, err = run(argv, capsys)
    assert (code, err) == (1, "")
    assert out.splitlines() == ["2", "trace route: 3 (DISAGREE)"]
    code, out, _ = run(argv + ["--format", "json"], capsys)
    doc = json.loads(out)
    assert code == 1 and (doc["value"], doc["trace_value"], doc["trace_agrees"]) == ("2", "3", False)
    code, out, _ = run(argv + ["--mode", "float"], capsys)
    lines = out.splitlines()
    assert code == 1 and lines[:2] == ["2", "trace route: 3 (DISAGREE)"]
    assert len(lines) == 3 and lines[2].startswith("float route: ") and lines[2].endswith(" (agree)")
    code, out, _ = run(argv + ["--mode", "float", "--format", "json"], capsys)
    doc = json.loads(out)
    assert code == 1 and doc["trace_agrees"] is False and doc["float_agrees"] is True
    assert list(doc)[-4:] == ["trace_value", "trace_agrees", "float_value", "float_agrees"]


def test_gw_float_mode(capsys):
    code, out, _ = run(
        ["gw", "--n", "2", "--g", "3", "--d", "1", "--mode", "float",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "8"
    assert doc["float_agrees"] is True
    assert abs(doc["float_value"] - 8.0) <= 1e-6 * 8.0


def test_gw_float_mode_reports_a_double_overflow(capsys):
    # 4.0 ** 1000 alone is past the double range; the exact value stands
    argv = ["gw", "--n", "2", "--g", "2001", "--d", "1000", "--mode", "float"]
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert int(doc["value"]) > 0
    assert doc["float_value"] is None
    assert "cannot be represented as a double" in doc["float_note"]
    assert "float_agrees" not in doc
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.splitlines() == [doc["value"], f"float route: {doc['float_note']}"]


def test_gw_float_mode_reports_an_overflowing_finite_sum(capsys):
    # 4.0 ** 510 is a double, its product with the float sum is not
    code, out, _ = run(
        ["gw", "--n", "3", "--g", "681", "--d", "510", "--mode", "float", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["value"]) == 411
    assert doc["float_value"] is None
    assert "float_agrees" not in doc


def test_gw_bad_partition(capsys):
    code, _, err = run(
        ["gw", "--n", "2", "--g", "0", "--d", "1", "--insertions", "1,a"], capsys
    )
    assert code == 2
    doc = json.loads(err)
    assert doc["error"] == "invalid_input"


@pytest.mark.parametrize("a, b", [("3", "1"), ("1", "3,1")])
def test_qmul_refuses_a_class_outside_the_basis(a, b, capsys):
    # a part past n - 1 = 2, as gw refuses it
    code, out, err = run(["qmul", "--n", "3", "--a", a, "--b", b], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "invalid_input"


def test_missing_required_argument(capsys):
    code, _, err = run(["gw", "--n", "2"], capsys)
    assert code == 2
    doc = json.loads(err)
    assert doc["error"] == "bad_arguments"


@pytest.mark.parametrize("argv", [["table", "--n", "3", "--mode", "float"],
                                  ["qmul", "--n", "3", "--a", "2", "--b", "2", "--mode", "float"],
                                  ["verify", "--slow"]])
def test_an_option_the_subcommand_would_not_read_is_a_bad_argument(argv, capsys):
    # --mode cross-checks gw, count and ntilde only; verify always runs the
    # n = 5 associativity battery
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "bad_arguments"


def test_count_text(capsys):
    code, out, _ = run(["count", "--g", "3", "--rank", "4", "--ell", "0"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "16"
    assert lines[1] == "e0 = -2, required w2 = 0 (mod 2)"
    assert any("matches catalogued" in line for line in lines[2:])


def test_count_json(capsys):
    code, out, _ = run(
        ["count", "--g", "3", "--rank", "4", "--ell", "0", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "ogq-count/1"
    assert doc["N"] == "16"
    assert doc["applicable"] is True


def test_count_json_names_the_orbits_and_the_points(capsys):
    code, out, _ = run(
        ["count", "--g", "3", "--rank", "14", "--ell", "0", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["N"] == "388628480"
    assert doc["decomposition"] == {
        "route": "odd_e0_odd_n", "prefactor_log2": 15, "staircase_power": 2, "doubled": True,
        "orbits": 4, "points": 64, "sign_check_prime": 73,
    }
    # the text output is unchanged
    code, out, _ = run(["count", "--g", "3", "--rank", "14", "--ell", "0"], capsys)
    assert out.splitlines()[:2] == ["388628480", "e0 = -7, required w2 = 1 (mod 2)"]


def test_an_off_weight_orbit_sum_exits_1_as_a_failed_proof(monkeypatch, capsys):
    # a plan with one staircase insertion too many puts the orbit sum off the
    # weight condition: that is a failed proof, not bad input
    real = counting._count_plan

    def off_by_one(genus, rank, ell):
        e0, n, exponent, rho_power, route_keys = real(genus, rank, ell)
        return e0, n, exponent, rho_power + 1, route_keys

    monkeypatch.setattr(counting, "_count_plan", off_by_one)
    code, out, err = run(["count", "--g", "3", "--rank", "4", "--ell", "0"], capsys)
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "verification_failure"
    assert "not divisible by 2m" in doc["reason"]


def test_count_float_mode(capsys):
    code, out, _ = run(
        ["count", "--g", "5", "--rank", "6", "--ell", "0", "--mode", "float"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "2048"
    assert "(agree)" in out


def test_count_float_mode_reports_an_unrepresentable_count(capsys):
    code, out, _ = run(
        ["count", "--g", "1201", "--rank", "6", "--ell", "0", "--mode", "float",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["N"]) == 724
    assert doc["float_value"] is None
    assert "cannot be represented as a double" in doc["float_note"]
    assert "float_agrees" not in doc


def test_count_float_mode_reports_a_double_overflow(capsys):
    # the float sum is finite, its scaling by 2^599 is not
    argv = ["count", "--g", "300", "--rank", "8", "--ell", "0", "--mode", "float"]
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["N"]) == 324
    assert doc["float_value"] is None
    assert "cannot be represented as a double" in doc["float_note"]
    assert "float_agrees" not in doc
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.splitlines()[0] == doc["N"]
    assert out.splitlines()[-1] == f"float route: {doc['float_note']}"


def test_count_not_covered_exits_3(capsys):
    code, out, _ = run(["count", "--g", "2", "--rank", "3", "--ell", "0"], capsys)
    assert code == 3
    assert "not covered" in out
    assert "2^g" in out


def _digits_of(text: str) -> int:
    # int() refuses more than 4300 digits too; read the string in two parts
    return int(text[:-3000]) * 10 ** 3000 + int(text[-3000:])


def test_count_past_the_int_to_str_limit(capsys):
    argv = ["count", "--g", "7201", "--rank", "6", "--ell", "0"]
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["N"]) == 4336
    assert _digits_of(doc["N"]) == 2 ** (2 * 7201 + 1)
    assert doc["notes"] == ["matches catalogued closed form 2^(2g+1)"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == doc["N"]
    assert lines[2] == "note: matches catalogued closed form 2^(2g+1)"


def test_count_not_applicable_exits_3(capsys):
    code, out, _ = run(["count", "--g", "4", "--rank", "6", "--ell", "0"], capsys)
    assert code == 3
    assert "not applicable" in out


def test_count_odd_rank_odd_ell_exits_2(capsys):
    code, _, err = run(["count", "--g", "3", "--rank", "3", "--ell", "1"], capsys)
    assert code == 2
    assert json.loads(err) == {"error": "invalid_input", "reason": "odd rank supports even ell only, got 1"}


def test_table_writes_cache(tmp_path, capsys):
    code, out, _ = run(
        ["table", "--n", "2", "--cache-dir", str(tmp_path)], capsys
    )
    assert code == 0
    path = tmp_path / "table-n2.json"
    assert path.exists()
    doc = json.loads(path.read_text())
    assert doc["schema"] == "ogq-table/1"
    assert doc["n"] == 2
    assert f"-> {path}" in out


def test_table_output_is_byte_stable(tmp_path, capsys):
    argv = ["table", "--n", "2", "--cache-dir", str(tmp_path)]
    run(argv, capsys)
    first = (tmp_path / "table-n2.json").read_bytes()
    run(argv, capsys)
    second = (tmp_path / "table-n2.json").read_bytes()
    assert first == second


def test_table_warns_on_stale_cache(tmp_path, capsys):
    path = tmp_path / "table-n2.json"
    path.write_text(json.dumps({"schema": "something-else"}))
    code, _, _ = run(["table", "--n", "2", "--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    assert json.loads(path.read_text())["schema"] == "ogq-table/1"


def test_table_max_d_gets_its_own_file(tmp_path, capsys):
    code, _, _ = run(
        ["table", "--n", "3", "--max-d", "1", "--cache-dir", str(tmp_path)], capsys
    )
    assert code == 0
    doc = json.loads((tmp_path / "table-n3-maxd1.json").read_text())
    assert doc["max_d"] == 1
    assert all(e["d"] <= 1 for e in doc["entries"])


def test_table_refuses_a_negative_max_d_and_writes_nothing(tmp_path, capsys):
    code, _, err = run(
        ["table", "--n", "3", "--max-d", "-1", "--cache-dir", str(tmp_path)], capsys
    )
    assert code == 2
    assert json.loads(err)["error"] == "invalid_input"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["count", "--g", "3", "--rank", "42", "--ell", "0"],
                                  ["count", "--g", "3", "--rank", "41", "--ell", "0", "--mode", "float"],
                                  ["ntilde", "--g", "3", "--n", "21", "--ell", "0", "--e", "-2"]])
def test_a_count_past_the_size_budget_exits_3_before_walking_a_residue_set(argv, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a residue set was walked")

    monkeypatch.setattr(quantum, "_orbits", refuse)
    monkeypatch.setattr(quantum, "_point_table", refuse)
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    doc = json.loads(err)
    assert doc["error"] == "not_applicable"
    assert "n = 21 is past the size budget of the exact route, n <= 20" in doc["reason"]


HUGE = 10 ** 30


@pytest.mark.parametrize("argv", [["count", "--g", "3", "--rank", str(2 * HUGE), "--ell", "0"],
                                  ["count", "--g", "3", "--rank", str(2 * HUGE - 1), "--ell", "0", "--mode", "float"],
                                  ["ntilde", "--g", "3", "--n", str(HUGE), "--ell", "0", "--e", "-2"]])
def test_a_count_at_a_huge_rank_exits_3_before_building_the_staircase(argv, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the staircase was built")

    monkeypatch.setattr(partitions, "rho", refuse)
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    doc = json.loads(err)
    assert doc["error"] == "not_applicable"
    assert f"n = {HUGE} is past the size budget of the exact route" in doc["reason"]


def test_a_float_route_past_its_budget_leaves_the_exact_count_standing(capsys):
    n = counting.FLOAT_MAX_N + 1
    code, out, _ = run(["count", "--g", "3", "--rank", str(2 * n), "--ell", "0", "--mode", "float",
                        "--format", "json"], capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["N"] == counting.decimal_string(counting.count(3, 2 * n, 0).value)
    assert doc["float_value"] is None
    assert f"size budget of the float route, n <= {n - 1}" in doc["float_note"]


@pytest.mark.parametrize("n", ["10", "30", str(10 ** 30)])
def test_table_past_the_basis_budget_exits_3_before_building_a_point(n, tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a point was built")

    monkeypatch.setattr(quantum, "eval_points", refuse)
    monkeypatch.setattr(quantum, "_point_table", refuse)
    code, out, err = run(["table", "--n", n, "--format", "json", "--cache-dir", str(tmp_path)], capsys)
    assert code == 3
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "not_applicable"
    assert "table budget of 2^(n-1) <= 256" in doc["reason"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["qmul", "--n", "10", "--a", "1", "--b", "1"],
                                  ["gw", "--n", "10", "--g", "1", "--d", "0", "--trace"],
                                  ["gw", "--n", "11", "--g", "1", "--d", "1", "--insertions", "10;10"],
                                  ["gw", "--n", "11", "--g", "1", "--d", "1", "--insertions", "10;10",
                                   "--mode", "float"],
                                  ["gw", "--n", "11", "--g", "1", "--d", "0"],
                                  ["gw", "--n", "11", "--g", "1", "--d", "11", "--insertions",
                                   ";".join(["10,9,8,7,6,5,4,3,2,1"] * 4), "--mode", "float"]])
def test_the_table_readers_and_a_full_table_gw_past_their_budgets_exit_3_before_building_a_point(
        argv, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("a point was built")

    for name in ("eval_points", "_point_table", "_orbits"):
        monkeypatch.setattr(quantum, name, refuse)
    code, out, err = run(argv, capsys)
    assert (code, out) == (3, "")
    doc = json.loads(err)
    assert doc["error"] == "not_applicable"
    assert ("table budget of 2^(n-1) <= 256" if argv[2] == "10" else
            "n = 11 is past the size budget of gw, n <= 10") in doc["reason"]


def test_gw_past_the_full_table_budget_still_answers_what_builds_no_table(monkeypatch, capsys):
    # off the weight condition the invariant is 0 with no point built
    monkeypatch.setattr(quantum, "_point_table", lambda *args: pytest.fail("a point was built"))
    assert run(["gw", "--n", "11", "--g", "1", "--d", "0", "--insertions", "10;10"], capsys)[:2] == (0, "0\n")


def test_a_float_disagreement_on_a_count_past_the_double_range_exits_1(monkeypatch, capsys):
    # N(399, rank 14, ell 0) has 1,436 digits: agreement is decided exactly,
    # so a wrong float value is a failed check, not an OverflowError (exit 5)
    monkeypatch.setattr(counting, "count_float", lambda *args: 1.0)
    code, out, _ = run(["count", "--g", "399", "--rank", "14", "--ell", "0", "--mode", "float",
                        "--format", "json"], capsys)
    doc = json.loads(out)
    assert code == 1 and len(doc["N"]) == 1436
    assert doc["float_value"] == 1.0 and doc["float_agrees"] is False
    assert cli._float_agrees(counting.count(399, 14, 0).value, float("inf")) is False


def test_table_text_lists_the_entries(tmp_path, capsys):
    code, out, _ = run(["table", "--n", "3", "--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    lines = out.splitlines()
    entries = quantum.table_json_dict(3)["entries"]
    assert lines[0] == f"{len(entries)} entries -> {tmp_path / 'table-n3.json'}"
    assert "t[1] * t[1] += t[2]" in lines
    assert "t[2] * t[2] += q*t[]" in lines
    assert len(lines) == len(entries) + 1


def test_table_honors_env_cache_dir(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("OGQ_CACHE_DIR", str(env_dir))
    code, _, _ = run(["table", "--n", "2"], capsys)
    assert code == 0
    assert (env_dir / "table-n2.json").exists()
    # an explicit flag beats the environment
    flag_dir = tmp_path / "flagged"
    code, _, _ = run(["table", "--n", "2", "--cache-dir", str(flag_dir)], capsys)
    assert code == 0
    assert (flag_dir / "table-n2.json").exists()


def test_one_parser_serves_every_call_as_a_fresh_one_would(tmp_path, capsys):
    # good calls with bad-argument calls (exit 2) between them, and a flag
    # that must not carry over to the next call
    calls = [
        ["gw", "--n", "2", "--g", "0", "--d", "1", "--insertions", "1;1;1"],
        ["count", "--g", "3", "--rank", "4", "--ell", "0", "--mode", "float", "--format", "json"],
        ["gw", "--n", "2"],
        ["count", "--g", "3", "--rank", "4", "--ell", "0", "--format", "json"],
        ["bogus"],
        ["qmul", "--n", "3", "--a", "2", "--b", "2"],
        ["table", "--n", "3", "--cache-dir", str(tmp_path)],
        ["count", "--g", "3", "--rank", "4", "--ell", "0"],
    ]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(argv, capsys))
    assert [code for code, _out, _err in fresh] == [0, 0, 2, 0, 2, 0, 0, 0]
    cli.build_parser.cache_clear()
    assert [run(argv, capsys) for argv in calls] == fresh
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(calls) - 1)


def test_build_tables_script_writes_the_cli_artifacts(tmp_path, capsys):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                  os.environ.get("PYTHONPATH")])))
    script = tmp_path / "script"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "build_tables.py"), "--max-n", "4",
         "--cache-dir", str(script)],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    lines = done.stdout.splitlines()
    assert len(lines) == 3
    for n, line in zip(range(2, 5), lines):
        path = script / f"table-n{n}.json"
        entries = len(quantum.table_json_dict(n)["entries"])
        assert line.startswith(f"n={n}: {entries} entries -> {path} (")
        # the bytes `ogq table` writes, and the layout they always had
        direct = tmp_path / "direct"
        assert run(["table", "--n", str(n), "--cache-dir", str(direct)], capsys)[0] == 0
        expected = json.dumps(quantum.table_json_dict(n), indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == (direct / path.name).read_bytes() == expected.encode()


def test_table_io_failure_exits_4(tmp_path, capsys):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("occupied")
    code, _, err = run(["table", "--n", "2", "--cache-dir", str(blocker)], capsys)
    assert code == 4
    assert json.loads(err)["error"] == "io_error"


def test_qmul_text(capsys):
    code, out, _ = run(["qmul", "--n", "3", "--a", "1", "--b", "2"], capsys)
    assert code == 0
    assert out == "t[2,1]\n"
    code, out, _ = run(["qmul", "--n", "3", "--a", "2", "--b", "2"], capsys)
    assert code == 0
    assert out == "q*t[]\n"


def test_qmul_json(capsys):
    code, out, _ = run(
        ["qmul", "--n", "3", "--a", "2", "--b", "2", "--format", "json"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["terms"] == [{"nu": "", "d": 1, "c": "1"}]


def test_ntilde_text(capsys):
    code, out, _ = run(
        ["ntilde", "--g", "3", "--n", "2", "--ell", "0", "--e", "-2"], capsys
    )
    assert code == 0
    assert out == "8\n"


def test_ntilde_weight_mismatch_prints_zero(capsys):
    code, out, _ = run(
        ["ntilde", "--g", "3", "--n", "2", "--ell", "0", "--e", "-2", "--Q", "a1"],
        capsys,
    )
    assert code == 0
    assert out == "0\n"


def test_ntilde_float_mode(capsys):
    code, out, _ = run(
        ["ntilde", "--g", "3", "--n", "2", "--ell", "0", "--e", "-2",
         "--mode", "float", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "8"
    assert doc["float_agrees"] is True


def test_ntilde_float_mode_reports_an_unrepresentable_value(capsys):
    argv = ["ntilde", "--g", "1201", "--n", "3", "--ell", "0", "--e", "-1800", "--mode", "float"]
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["value"]) == 724
    assert doc["float_value"] is None
    assert "cannot be represented as a double" in doc["float_note"]
    assert "float_agrees" not in doc
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.splitlines() == [doc["value"], f"float route: {doc['float_note']}"]


def test_ntilde_float_mode_checks_a_non_constant_integrand(capsys):
    # the float route evaluates Q = a1^2 from the complex e's, and agrees
    argv = ["ntilde", "--g", "3", "--n", "2", "--ell", "0", "--e", "-4", "--Q", "a1^2", "--mode", "float"]
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == "8"
    assert doc["float_value"] == pytest.approx(8.0, rel=1e-9)
    assert doc["float_agrees"] is True
    assert "float_note" not in doc
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.splitlines() == [doc["value"], f"float route: {doc['float_value']!r} (agree)"]


@pytest.mark.parametrize("q", ["-3*a1^2", "-a1^2"])
def test_ntilde_takes_an_integrand_with_a_leading_minus_in_either_spelling(q, capsys):
    # argparse alone reads "--Q -3*a1^2" as an option with no value; both
    # spellings give the same output
    argv = ["ntilde", "--g", "3", "--n", "3", "--ell", "0", "--e", "-4"]
    spaced, joined = run(argv + ["--Q", q], capsys), run(argv + [f"--Q={q}"], capsys)
    assert spaced == joined and spaced[0] == 0 and spaced[1].strip().lstrip("-").isdigit()
    code, out, _ = run(argv + ["--Q", q, "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["value"] == spaced[1].strip()


def test_ntilde_refuses_a_trailing_q_with_no_value(capsys):
    code, out, err = run(["ntilde", "--g", "3", "--n", "3", "--ell", "0", "--e", "-4", "--Q"], capsys)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "bad_arguments" and "--Q" in json.loads(err)["reason"]


def test_ntilde_not_covered_exits_3(capsys):
    code, _, err = run(
        ["ntilde", "--g", "3", "--n", "2", "--ell", "0", "--e", "-1"], capsys
    )
    assert code == 3
    assert json.loads(err)["error"] == "not_applicable"


def test_verify_suite_passes(capsys):
    code, out, _ = run(["verify", "--suite", "counts"], capsys)
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_verify_json(capsys):
    code, out, _ = run(["verify", "--suite", "counts", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "counts"
    assert doc["failures"] == 0
    assert all(c["ok"] for c in doc["checks"])
    assert all(list(c) == ["suite", "name", "ok", "detail"] for c in doc["checks"])


@pytest.mark.parametrize("error, code, kind", [
    (quantum.NonIntegralResultError("not a count"), 1, "verification_failure"),
    (quantum.WeightConditionError("off the weight condition"), 1, "verification_failure"),
    (cyclotomic.NotRationalError("not rational"), 1, "verification_failure"),
    (cyclotomic.SlotOverflowError("packed sum overflowed its slot"), 1, "verification_failure"),
    (ZeroDivisionError("division by zero"), 5, "internal_error"),
    (ArithmeticError("division was not exact"), 5, "internal_error"),
    (OverflowError("int too large"), 5, "internal_error"),
    (IndexError("list index out of range"), 5, "internal_error"),
    (KeyError((3,)), 5, "internal_error"),
    (ValueError("a value error the library did not type"), 5, "internal_error"),
])
@pytest.mark.parametrize("argv", [["count", "--g", "3", "--rank", "4", "--ell", "0"],
                                  ["ntilde", "--g", "3", "--n", "2", "--ell", "0", "--e", "-2"]])
def test_only_a_failed_proof_exits_1(error, code, kind, argv, monkeypatch, capsys):
    # a stray ZeroDivisionError or IndexError is a fault of the program, not a
    # failed proof (1) or bad input (2)
    def raising(*args, **kwargs):
        raise error

    monkeypatch.setattr(quantum, "orbit_trace", raising)
    got, out, err = run(argv, capsys)
    assert (got, out) == (code, "")
    doc = json.loads(err)
    assert doc["error"] == kind
    assert str(error) in doc["reason"]
    # an internal error names where it arose; a failed proof needs no traceback
    assert ("raising" in doc.get("traceback", "")) == (code == 5)


@pytest.mark.parametrize("call", [
    lambda: quantum.GWQuery(2, -1, 0, ()),
    lambda: counting.NQuery(-1, 2, 0, -2),
    lambda: counting.NQuery(3, 2, 0, -2, u=-1),
    lambda: quantum.orbit_trace(2, -1),
    lambda: counting.max_iso_degree(4, 1, 0),
    lambda: counting.trivial_bundle_number(3, 2, 2, 0, []),
    lambda: counting.trivial_bundle_number(3, 2, -2, -1, []),
    lambda: quantum.genus_recursion_check(2, 0, 1, ((1,),) * 3, -1),
    lambda: partitions.all_strict(-1),
    lambda: symfunc.parse_alpha_poly("a1 + -"),
    lambda: symfunc.AlphaPolynomial.variable(0),
    lambda: quantum.orbit_trace(1, 1),
    lambda: quantum.evaluation_sum(1, 1),
    lambda: verify.run_suite("bogus"),
])
def test_every_bare_input_check_raises_the_input_type(call):
    # the one type main reports as bad input (exit 2)
    with pytest.raises(partitions.InvalidInput):
        call()


def test_the_float_route_evaluates_every_integrand():
    # the exact and the float route answer the same query; only its a1^2
    # term is on the expected weight
    query = counting.NQuery(3, 2, 0, -4, 0, symfunc.parse_alpha_poly("a1^2 + a1"))
    assert counting.n_tilde(query) == 8
    assert counting.n_tilde_float(query) == pytest.approx(8.0, rel=1e-9)


def test_a_plain_value_error_in_gw_is_a_fault_not_bad_input(monkeypatch, capsys):
    # only partitions.InvalidInput exits 2
    def raising(query):
        raise ValueError("a value error the library did not type")

    monkeypatch.setattr(quantum, "gw_invariant", raising)
    code, out, err = run(["gw", "--n", "2", "--g", "0", "--d", "1", "--insertions", "1;1;1"], capsys)
    assert (code, out) == (5, "")
    doc = json.loads(err)
    assert doc["error"] == "internal_error"
    assert doc["reason"] == "ValueError: a value error the library did not type"
    assert "raising" in doc["traceback"]


def test_verify_failure_exits_1(monkeypatch, capsys):
    def broken(name):
        return [verify.CheckResult("demo", "forced failure", False, "boom")]

    monkeypatch.setattr(verify, "run_suite", broken)
    code, out, _ = run(["verify", "--suite", "counts"], capsys)
    assert code == 1
    assert "FAIL" in out and "boom" in out


@pytest.fixture
def cold_caches():
    # quantum's caches empty before the test and after it, so that no value
    # built under a patched function outlives the patch
    def clear():
        for value in vars(quantum).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()

    clear()
    yield
    clear()


def _schur_rotated_off_by_two(residues, order):
    # quantum._staircase_schur with each rotation by t - s made by t - s + 2
    schur = [1] + [0] * (order // 2 - 1)
    for s, t in itertools.combinations(residues, 2):
        schur = list(map(operator.add, schur, quantum._turn(schur, t - s + 2)))
    m = len(residues)
    return quantum._reduce(quantum._turn(schur, sum((m - i) * t for i, t in enumerate(residues))), order)


def test_a_wrong_exact_schur_row_does_not_move_the_float_count(monkeypatch, capsys, cold_caches):
    # with the exact S_rho rows rotated off by two, the rank-10 count would
    # read 0; the float route computes S_rho from the complex points and
    # still reads 49152, and the CLI exits 1 (the zero rows are caught first)
    monkeypatch.setattr(quantum, "_staircase_schur", _schur_rotated_off_by_two)
    assert counting.count_float(3, 10, 0) == pytest.approx(49152, rel=1e-9)
    with pytest.raises(cyclotomic.ProofFailure, match="S_rho is 0"):
        counting.count(3, 10, 0)
    code, out, err = run(["count", "--g", "3", "--rank", "10", "--ell", "0", "--mode", "float",
                          "--format", "json"], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "verification_failure"


def test_a_wrong_exact_pair_value_does_not_move_the_float_gw(monkeypatch, capsys, cold_caches):
    # _int_ptilde's two-row form with +1 for +2 (the k = 2 term counted once):
    # the exact genus-0 invariant reads 4, the float route, its own complex
    # Pfaffians, still 6, and the CLI exits 1 with float_agrees false
    real = symfunc._int_ptilde

    def mutant(parts, evals, order, memo):
        if len(parts) == 2 and parts[1] >= 2 and parts not in memo:
            a, b = parts
            e = [*evals, *[[0] * len(evals[0])] * 3]
            value = real(parts, evals, order, memo)
            memo[parts] = [v - t for v, t in zip(value, cyclotomic.int_mul(e[a + 2], e[b - 2], order))]
        return real(parts, evals, order, memo)

    for module in (symfunc, quantum):
        monkeypatch.setattr(module, "_int_ptilde", mutant)
    query = quantum.GWQuery(6, 0, 2, ((3,), (5, 3), (5, 4, 1), (5, 4, 3, 2)))
    assert quantum.gw_invariant(query) == 4
    assert quantum.gw_invariant_float(query) == pytest.approx(6, rel=1e-9)
    code, out, _ = run(["gw", "--n", "6", "--g", "0", "--d", "2", "--insertions", "3;5,3;5,4,1;5,4,3,2",
                        "--mode", "float", "--format", "json"], capsys)
    assert code == 1
    doc = json.loads(out)
    assert doc["value"] == "4" and doc["float_agrees"] is False
    assert doc["float_value"] == pytest.approx(6, rel=1e-9)
    code, out, _ = run(["gw", "--n", "6", "--g", "0", "--d", "2", "--insertions", "3;5,3;5,4,1;5,4,3,2",
                        "--mode", "float"], capsys)
    assert code == 1
    assert out.splitlines() == ["4", f"float route: {doc['float_value']!r} (DISAGREE)"]


def test_a_zero_staircase_schur_row_is_a_failed_proof(monkeypatch, capsys, tmp_path, cold_caches):
    # S_rho = e_m * prod (x_i + x_j) is nonzero at every point, as no two
    # coordinates are antipodal: a zero row fails the proof (exit 1) before
    # any inverse of it is taken (exit 5), in the table and in a genus-0 sum
    real, first = quantum._staircase_schur, quantum._residues(2, 0)
    monkeypatch.setattr(quantum, "_staircase_schur", lambda residues, order: (
        [0] * len(real(residues, order)) if residues == first else real(residues, order)))
    for argv in (["table", "--n", "3", "--cache-dir", str(tmp_path)],
                 ["gw", "--n", "3", "--g", "0", "--d", "0", "--insertions", "1;2"]):
        code, out, err = run(argv, capsys)
        assert (code, out) == (1, ""), argv
        doc = json.loads(err)
        assert doc["error"] == "verification_failure"
        assert doc["reason"].startswith(f"S_rho is 0 at the residues {first} of n = 3")
