"""Tests of the benchmark itself (not of qlab).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEEDED = ("verify_series_grid", "eval_sweep")


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("scale", ["full", "tiny"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_inputs(workload, scale):
    assert make_inputs(workload, 7, scale) == make_inputs(workload, 7, scale)


@pytest.mark.parametrize("workload", SEEDED)
def test_inputs_do_not_depend_on_string_hashing(workload):
    code = ("import json, sys; sys.path.insert(0, 'perfbench'); "
            "from workloads import make_inputs; "
            f"print(json.dumps(make_inputs({workload!r}, 5)))")
    outs = {subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                           text=True, check=True, env={"PYTHONHASHSEED": h}).stdout
            for h in ("1", "2")}
    assert len(outs) == 1


@pytest.mark.parametrize("workload", SEEDED)
def test_different_seed_gives_different_inputs(workload):
    assert make_inputs(workload, 1) != make_inputs(workload, 2)


def test_series_grid_draws_cover_their_ranges():
    inputs = make_inputs("verify_series_grid", 3)
    assert len(set(inputs["q_values"])) == 8 and len(set(inputs["alpha_values"])) == 8
    assert all(0.2 <= q < 0.9 for q in inputs["q_values"])
    assert all(-0.9 <= a < 2.5 for a in inputs["alpha_values"])


def test_metric_names_and_units_are_well_formed():
    names = [n for n, _ in run.END_TO_END + run.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit in run.END_TO_END + run.PER_LAYER:
        assert NAME.fullmatch(name), name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_compare_counts_failures_and_wrong_answers():
    ref = [["c", {"q": 0.5}, True, None], ["c", {"q": 0.6}, False, None],
           ["c", {"q": 0.7}, True, None]]
    # a known failure stays failed but is not a wrong answer; a regression is both
    out = [["c", {"q": 0.5}, True, None], ["c", {"q": 0.6}, False, None],
           ["c", {"q": 0.7}, False, "NonConvergence"]]
    assert run.compare("verify", out, ref) == (2, 1)
    # fixing a known failure is neither
    assert run.compare("verify", [ref[0], ["c", {"q": 0.6}, True, None], ref[2]], ref) == (0, 0)
    # a missing check is both
    assert run.compare("verify", ref[:2], ref) == (2, 1)

    tref = [["ok", [1.0, 2.0]], ["OverflowError", None], ["ok", [3.0]]]
    tout = [["ok", [1.0, 2.0 + 1e-12]], ["OverflowError", None], ["ok", [3.1]]]
    assert run.compare("table", tout, tref) == (2, 1)
    assert run.compare("table", [tref[0], ["ok", [5.0]], ["exit1", None]], tref) == (1, 1)


def test_repetitions_depend_on_seconds_alone():
    assert [run.repetitions(w, 30) for w in WORKLOADS] == [1, 3, 4]
    assert all(run.repetitions(w, 1) == 1 for w in WORKLOADS)


def test_same_seed_attempts_and_fails_the_same_operations():
    results = []
    for _ in range(2):
        proc = _bench("--workload", "verify_series_grid", "--seed", "1", "--seconds", "20",
                      "--trace", "0", "--scale", "tiny")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        results.append((result["attempted"], result["failed"]))
    assert results[0] == results[1]


def test_traced_counts_repeat_exactly(tmp_path):
    inputs = tmp_path / "inputs.json"
    inputs.write_text(json.dumps(make_inputs("verify_default", 0, "tiny")))
    counts = []
    for i in range(2):
        result = run.run_worker(run.SRC, inputs, tmp_path / f"out{i}", traced=True)
        counts.append({k: v for k, v in result["spans"].items()
                       if not k.endswith("_s") and not k.endswith(".s")})
    assert counts[0] == counts[1]
    assert counts[0]["qcore.qpoch_inf.calls"] > 0
    assert counts[0]["qhermite.quad.integrand_evals"] > 0


def test_tiny_run_prints_every_end_to_end_metric():
    proc = _bench("--workload", "all", "--seed", "1", "--seconds", "1",
                  "--trace", "0", "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    expected = {f"{w}.{name}" for w in WORKLOADS for name, _ in run.END_TO_END}
    assert set(result["metrics"]) == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_prints_every_per_layer_metric(workload):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "1",
                  "--trace", "1", "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {name for name, _ in run.PER_LAYER}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "eval_sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
