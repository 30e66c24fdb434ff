"""scripts/growth.py: the runs of one figure alternate between the parent's
checkout and this one, and each side's figure is summed up from its own runs;
a child reports its call's CPU and, apart, the CPU its imports took."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "growth.py"
spec = importlib.util.spec_from_file_location("growth", SCRIPT)
growth = importlib.util.module_from_spec(spec)
spec.loader.exec_module(growth)


def fake_runs(monkeypatch, answers=None):
    # run_child records the checkout of each run and returns its answer (by
    # root, else "same"), with a CPU time of the run's position and an
    # import time of a tenth of it
    order = []

    def run_child(spec, root):
        order.append(root)
        return {"cpu_s": float(len(order)), "import_s": len(order) / 10, "vmhwm_mb": 20.0,
                "sha256": (answers or {}).get(root, "same"), "answer": None}

    monkeypatch.setattr(growth, "run_child", run_child)
    return order


def test_the_two_sides_alternate_and_the_first_side_switches(monkeypatch):
    order = fake_runs(monkeypatch)
    parent, change = Path("/parent"), Path("/change")
    got = growth.measure("figure", {}, {"parent": parent, "change": change})
    assert growth.RUNS == 3
    assert order == [parent, change, change, parent, parent, change]
    assert got["parent"]["cpu_s_runs"] == [1.0, 4.0, 5.0] and got["parent"]["cpu_s"] == 4.0
    assert got["change"]["cpu_s_runs"] == [2.0, 3.0, 6.0] and got["change"]["cpu_s"] == 3.0
    assert got["parent"]["import_s_runs"] == [0.1, 0.4, 0.5] and got["parent"]["import_s"] == 0.4
    assert got["change"]["import_s_runs"] == [0.2, 0.3, 0.6] and got["change"]["import_s"] == 0.3
    assert "error" not in got["parent"] and "error" not in got["change"]


def test_one_side_runs_alone_without_a_parent(monkeypatch):
    order = fake_runs(monkeypatch)
    got = growth.measure("figure", {}, {"change": growth.ROOT})
    assert order == [growth.ROOT] * growth.RUNS and list(got) == ["change"]


def test_each_side_checks_its_own_answers(monkeypatch):
    # the sides may answer differently (the parent's code is another), but
    # each side's runs must agree, and a pinned prefix holds on both
    parent, change = Path("/parent"), Path("/change")
    fake_runs(monkeypatch, {parent: "0e01ff89aa", change: "0e01ff89bb"})
    got = growth.measure("table_n9", {}, {"parent": parent, "change": change})
    assert "error" not in got["parent"] and "error" not in got["change"]
    fake_runs(monkeypatch, {parent: "12345678", change: "0e01ff89bb"})
    got = growth.measure("table_n9", {}, {"parent": parent, "change": change})
    assert "does not start with 0e01ff89" in got["parent"]["error"] and "error" not in got["change"]


def test_a_child_times_its_imports_apart_from_its_call():
    # the figure's call is timed from when the imports are done; both are
    # CPU times of the child, positive, and the answer is hashed
    spec = {"call": "partitions.rho(3)", "keep_stdout": False, "parts": "[repr(answer)]"}
    got = growth.run_child(spec)
    assert "error" not in got, got.get("error")
    assert 0 < got["import_s"] and 0 <= got["cpu_s"] < got["import_s"]
    assert got["answer"] == "(3, 2, 1)"
