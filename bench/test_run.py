"""Tests of the benchmark itself, on scaled-down workloads.

Run from the root of a checkout: ``python3 -m pytest -q bench/test_run.py``.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("bench_run", HERE / "run.py")
run = sys.modules["bench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

SMALL = {name: dataclasses.replace(w, records=40) for name, w in run.WORKLOADS.items()}
EXACT = [name for name, unit in run.PER_LAYER_UNITS.items() if unit == "count"]
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _main(capsys, workload: str, seed: int, trace: int) -> tuple[dict, dict, list[str]]:
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)]
    assert run.main(argv, SMALL) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    provenance = json.loads(next(line for line in lines if line.startswith("provenance "))[11:])
    return result, provenance, lines


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_same_seed_repeats_counts_and_digests(capsys, workload):
    first, first_prov, _ = _main(capsys, workload, 3, 1)
    second, second_prov, _ = _main(capsys, workload, 3, 1)
    assert first["correct"] and second["correct"]
    assert first["failed"] == 0 and first["attempted"] > 0
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    for key in ("input_sha256", "output_sha256", "records", "n", "m", "seed"):
        assert first_prov[key] == second_prov[key], key


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_other_seed_changes_input(workload):
    pkg = run.load_package()
    first = run.make_case(pkg, SMALL[workload], 3)
    assert run.make_case(pkg, SMALL[workload], 3).input_sha256 == first.input_sha256
    assert run.make_case(pkg, SMALL[workload], 4).input_sha256 != first.input_sha256


@pytest.mark.parametrize(("trace", "section"), [(0, "end_to_end"), (1, "per_layer")])
def test_prints_every_declared_metric_with_its_unit(capsys, trace, section):
    result, provenance, lines = _main(capsys, "sort-text-n3-m20", 5, trace)
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"metric {name} = ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("check ") and "fail_ratio=0" in line for line in lines)
    assert provenance["python"] and provenance["nproc"] >= 1


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert BENCHMARK["command"][1:] == ["bench/run.py"]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sort-text-n3-m20", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
