"""The differences scripts/cli_battery.py reports between two runs of its
battery of ogq commands."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "cli_battery.py"
spec = importlib.util.spec_from_file_location("cli_battery", SCRIPT)
cli_battery = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_battery)


@pytest.fixture(scope="module")
def records():
    # this checkout's battery, run once in a fresh interpreter
    return cli_battery.collect(ROOT)


def test_a_checkout_against_itself_shows_no_difference(records):
    assert len(records) == len(cli_battery.BATTERY)
    assert cli_battery.differences(records, copy.deepcopy(records)) == []
    # every subcommand runs, and every exit code but the failures and the internal error
    assert {r["argv"][0] for r in records if r["argv"]} == {"gw", "count", "table", "qmul", "ntilde", "verify"}
    assert {r["exit"] for r in records} == {0, 2, 3, 4}
    assert any(r["tables"] for r in records)


@pytest.mark.parametrize("field, doctor", [
    ("exit", lambda record: 1 - record["exit"]),
    ("stdout", lambda record: record["stdout"].replace("1", "2")),
    ("stderr", lambda record: record["stderr"] + "warning\n"),
    ("tables", lambda record: {"cache/table-n3.json": "0" * 64}),
])
def test_one_doctored_record_is_reported(records, field, doctor):
    k = next(i for i, r in enumerate(records) if r["argv"][:1] == ["table"] and r["exit"] == 0)
    change = copy.deepcopy(records)
    change[k][field] = doctor(change[k])
    found = cli_battery.differences(records, change)
    assert len(found) == 1
    assert found[0].startswith(f"ogq table --n 3 --cache-dir '{{tmp}}/cache': {field} differs, ")


def test_an_internal_errors_traceback_is_left_out():
    def record(reason, trace):
        error = {"error": "internal_error", "reason": reason, "traceback": trace}
        return [{"argv": ["gw"], "exit": 5, "stdout": "", "stderr": json.dumps(error) + "\n", "tables": {}}]

    assert cli_battery.differences(record("ValueError: x", "a/cli.py, line 1"),
                                   record("ValueError: x", "b/cli.py, line 9")) == []
    assert cli_battery.differences(record("ValueError: x", "a"), record("ValueError: y", "a")) == [
        'ogq gw: stderr differs, line 1: parent \'{"error": "internal_error", "reason": "ValueError: x"}\' '
        '-> change \'{"error": "internal_error", "reason": "ValueError: y"}\'']
