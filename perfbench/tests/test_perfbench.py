"""
Self-tests of the benchmark: span arithmetic, call-site rebinding and its
undoing, zero-call layers, and the metric names.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
from spans import Recorder  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY_HOMOLOGY = ["homology", "--genus", "2", "--side", "1", "--max-degree", "4", "--format", "json"]


def test_self_time_subtracts_the_union_of_children():
    r = Recorder()
    root = r.add("root", 0, 100, -1)
    a = r.add("a", 10, 40, root)
    r.add("leaf", 20, 30, a)
    r.add("b", 50, 70, root)
    r.add("b", 60, 90, root)  # overlaps the other b: covered once
    r.add("late", 95, 120, root)  # reaches past its parent: clipped
    stats = r.self_times()
    assert stats["root"] == (1, 100 - 30 - 40 - 5)
    assert stats["a"] == (1, 30 - 10)
    assert stats["leaf"] == (1, 10)
    assert stats["b"] == (2, 20 + 30)
    assert stats["late"] == (1, 25)


def test_wrapped_calls_nest_and_self_times_add_up():
    r = Recorder()
    inner = r.wrap("inner", lambda x: x + 1)
    outer = r.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(2) == 9
    assert list(r.parent) == [-1, 0, 0]
    stats = r.self_times()
    assert stats["inner"][0] == 2
    total = r.end[0] - r.start[0]
    assert stats["outer"][1] + stats["inner"][1] == total


def _bindings() -> dict:
    mods = layers.import_arccalc()
    snapshot = {}
    for name, mod in sys.modules.items():
        if name == "arccalc" or name.startswith("arccalc."):
            snapshot.update({(name, k): v for k, v in vars(mod).items()})
    for _, module, cls_name, attr in layers.METHODS:
        cls = getattr(mods[module], cls_name)
        snapshot[(cls_name, attr)] = vars(cls)[attr]
    return snapshot


def _assert_same(before: dict, after: dict) -> None:
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert not changed


def test_call_sites_are_wrapped_then_restored():
    before = _bindings()
    mods = layers.import_arccalc()
    original_snf = mods["intmat"].snf
    seen = {}

    def spy(argv):
        # inside the traced run: the importer's own binding is the wrapper
        seen["complexes.snf"] = mods["complexes"].snf
        seen["cli.oracle_boundary_count"] = mods["cli"].oracle_boundary_count
        return original_main(argv)

    original_main = mods["cli"].main
    mods["cli"].main = spy
    try:
        traced = layers.run_in_process([TINY_HOMOLOGY])
    finally:
        mods["cli"].main = original_main
    assert seen["complexes.snf"].__wrapped__ is original_snf
    assert seen["cli.oracle_boundary_count"].__wrapped__ is mods["ribbon"].oracle_boundary_count
    assert traced.outputs[0][0] == 0
    _assert_same(before, _bindings())


def test_bindings_are_restored_when_a_command_fails():
    before = _bindings()
    with pytest.raises(SystemExit):
        layers.run_in_process([["homology", "--genus", "1", "--side", "1"]])
    _assert_same(before, _bindings())


def test_layers_without_calls_report_zero():
    traced = layers.run_in_process([TINY_HOMOLOGY])
    metrics = layers.layer_metrics(traced, traced.total_s)
    assert set(metrics) == {name for name, _, _ in layers.PER_LAYER}
    assert metrics["intmat.snf.calls"] > 0
    assert metrics["complexes.snf_calls_per_matrix"] == pytest.approx(4 / 3)
    for name in (
        "ribbon.oracle_boundary_count.calls",
        "ribbon.trace_faces.self_s",
        "ledger.obligations",
        "e1page.d1_matrix.self_s",
        "complexes.verify_homotopy.self_s",
    ):
        assert metrics[name] == 0, name


def test_metric_names_and_units_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert per_layer == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    names = [m[0] for m in e2e + per_layer] + list(run.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_every_invocation_has_an_expected_output():
    expected = json.loads(run.EXPECTED.read_text())
    keys = ["setup"] + [k for w in run.WORKLOADS for k in run.expected_keys(w)]
    assert sorted(expected) == sorted(keys)
