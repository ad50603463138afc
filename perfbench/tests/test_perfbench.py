"""The benchmark's own tests: reduced workloads pass every check, and wrong outputs fail.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

REDUCED = {
    "scan_small_q": lambda: [("scan", {"moduli": run.inputs_scan_small_q(7)[0][1]["moduli"][:12]})],
    # the composite alone: the primes and 8192 need about a gigabyte each
    "scan_large_q": lambda: [("scan", {"moduli": [run.refs.load("scan_large_q")["composites"][0]]})],
    "lvalue_points": lambda: [("lvalue", {"queries": run.inputs_lvalue_points(7)[0][1]["queries"][:8]})],
    "local_identities": lambda: [("verify", {"nmax": 2, "check_seed": 7, "points": 1}),
                                 ("oracle", {"npoints": 1}),
                                 ("bounds", {"qs": [2, 3]})],
}


@pytest.fixture(scope="module")
def reduced_runs():
    return {w: run.run_workload(w, 7, 0, trace=False, parts=make()) for w, make in REDUCED.items()}


@pytest.mark.parametrize("workload", sorted(REDUCED))
def test_reduced_workload_passes_every_check(reduced_runs, workload):
    out = reduced_runs[workload]
    res = out["result"]
    assert out["report"]["msgs"] == []
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())


def _round_outputs(workload):
    parts = REDUCED[workload]()
    return run.run_process(parts, False, run.time.monotonic() + 120)["parts"]


@pytest.fixture(scope="module")
def scan_outputs():
    return _round_outputs("scan_small_q")


def _failed(workload, outputs):
    oks, _, msgs = run.check_round(workload, outputs)
    return oks.count(False), msgs


def test_scan_value_perturbed_by_1e_6_fails(scan_outputs):
    bad = copy.deepcopy(scan_outputs)
    op = next(op for op in bad[0]["ops"] if op["records"])
    op["records"][0][2] += 1e-6
    failed, msgs = _failed("scan_small_q", bad)
    assert failed == 1 and "max |L|" in msgs[0]


def test_scan_wrong_maximizing_label_fails(scan_outputs):
    bad = copy.deepcopy(scan_outputs)
    op = next(op for op in bad[0]["ops"] if op["records"])
    op["records"][0][1] = "0" * len(op["records"][0][1])
    failed, msgs = _failed("scan_small_q", bad)
    assert failed == 1 and "not a maximizer" in msgs[0]


def test_scan_wrong_character_count_fails(scan_outputs):
    bad = copy.deepcopy(scan_outputs)
    bad[0]["ops"][0]["count"] += 1
    assert _failed("scan_small_q", bad)[0] == 1


def test_lvalue_perturbed_by_1e_6_fails():
    outputs = _round_outputs("lvalue_points")
    assert _failed("lvalue_points", outputs)[0] == 0
    outputs[0]["ops"][3]["value"][1] += 1e-6
    assert _failed("lvalue_points", outputs)[0] == 1


def test_bound_case_above_its_finite_q_form_fails():
    case = {"q": 2, "l": 2, "n": 6, "ratio": 2.0**6 * 1.001}
    op = {"kinds": [{"kind": "zeta_ratio_decay", "constant": 10.0,
                     "cases": [case, dict(case, ratio=1.0)]}]}
    oks, _, _ = run.check_bounds([op], "local_identities")
    assert oks == [False, True]


def test_traced_run_reports_every_layer_metric_and_counts_repeat():
    parts = REDUCED["lvalue_points"]()
    first, second = (run.run_workload("lvalue_points", 7, 0, trace=True, parts=parts)
                     for _ in range(2))
    names = set(first["result"]["metrics"])
    assert names == set(tracing.METRICS)
    for name, (unit, _) in tracing.METRICS.items():
        if unit in tracing.EXACT_UNITS:
            assert first["result"]["metrics"][name] == second["result"]["metrics"][name], name
    assert first["result"]["metrics"]["lfunc.afe_weights.builds"]["value"] == 8
    assert first["result"]["metrics"]["lfunc.hurwitz.rows"]["value"] == 8


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(cmd + ["--workload", "scan_small_q", "--seed", "1", "--seconds", "1",
                                 "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
