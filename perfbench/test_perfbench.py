"""Tests of the benchmark itself, on small versions of its workloads."""

import json
import re
from pathlib import Path

import pytest

from spans import summarize_pass
from worker import measure
from workloads import CrtDet, Crosscheck, FbfChain, SpectralLine

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
SMALL = [FbfChain(depth=2), Crosscheck(max_order=8),
         CrtDet(max_cyclic=4, sizes=(12,)), SpectralLine(kmin=3, kmax=4)]


def _measure(workload, tmp_path, traced=False):
    return measure(workload, seed=7, seconds=0, traced=traced,
                   out_dir=tmp_path / "emit")


def test_correct_expectations_pass(tmp_path):
    for workload in SMALL:
        res = _measure(workload, tmp_path)
        assert res["attempted"] > 0 and res["failed"] == 0, workload.name


def test_wrong_expected_value_fails(tmp_path):
    res = _measure(FbfChain(depth=2, trace=-2), tmp_path, traced=True)
    assert res["failed"] / res["attempted"] > 0
    assert res["layers"]["runner.errors"] > 0


def test_traced_run_reports_declared_metrics(tmp_path):
    produced = set()
    for workload in SMALL:
        produced |= set(_measure(workload, tmp_path, traced=True)["layers"])
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert produced <= declared
    # error counters appear only on failures; deeper levels need depth 5
    missing = {n for n in declared - produced
               if not n.endswith(".errors") and not re.search(r"\.L[2-9]$", n)}
    assert not missing


def test_self_time_subtracts_nested_children_and_replicas():
    spans = [
        {"id": 0, "name": "a.x_s", "layer": "a", "parent": None,
         "replica": False, "start": 0.0, "end": 4.0},
        {"id": 1, "name": "b.y_s", "layer": "b", "parent": 0,
         "replica": False, "start": 1.0, "end": 2.0},
        {"id": 2, "name": "c.z_s", "layer": "c", "parent": 0,
         "replica": True, "start": 5.0, "end": 7.0},
    ]
    inclusive, self_time, replica_s, uncovered = summarize_pass(spans, 0.0,
                                                                8.0)
    assert inclusive == {"a.x_s": 4.0, "b.y_s": 1.0, "c.z_s": 2.0}
    assert self_time == pytest.approx({"a": 1.0, "b": 1.0, "c": 2.0})
    assert replica_s == 2.0
    assert uncovered == pytest.approx(2.0)
