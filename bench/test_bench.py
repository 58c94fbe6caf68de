"""Tests of the benchmark itself: each workload at a tiny size, the gates
on deliberately corrupted results, the refusals and the exact counts.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from hilbert_hodge import cli, consistency, higgs  # noqa: E402
from hilbert_hodge.model import LineBundleMonomial  # noqa: E402

OUT = ROOT / ".bench_out" / "tests"
WORKLOADS = ("oracle-large", "verify-sweep", "table-wide")


def tiny(workload: str, trace: bool, seed: int = 7):
    return run.run_benchmark(workload, seed, 0, trace, size="tiny", out=OUT)


def bench_command(*args: str, cwd: Path = ROOT, env=None):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True,
        text=True, timeout=120,
    )


@pytest.fixture
def fresh_record():
    record = OUT / "exact_counts.json"
    record.unlink(missing_ok=True)
    yield record
    record.unlink(missing_ok=True)


def test_benchmark_json_lists_what_the_run_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result, detail = tiny(workload, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["fail_frac"]["value"] == 0
    assert detail["python"] and detail["nproc"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result, detail = tiny(workload, trace=True)
    assert result["correct"], detail
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(values) == set(run.PER_LAYER)
    assert values["src.loc.total"] > 0
    oracle = [v for n, v in values.items() if n.startswith(("linalg.", "higgs."))]
    if workload == "table-wide":
        assert not any(oracle)
        assert values["tables.gr_F_labels.labels"] > 0
        assert values["serialize.output_bytes"] > 0
        assert values["consistency.results"] == 0
    else:
        assert all(v > 0 for v in oracle)
        assert 0 < values["higgs.entry_hit_ratio"] <= 1
    if workload == "verify-sweep":
        for name in ("consistency.results", "kunneth.count_N.calls",
                     "tables.sheaf_cohomology_dim.calls", "cli.emit.s"):
            assert values[name] > 0, name
        assert values["consistency.skipped"] == 0


def test_exact_counts_repeat_and_a_different_record_breaks_the_run(fresh_record):
    first, first_detail = tiny("table-wide", trace=True)
    second, second_detail = tiny("table-wide", trace=True)
    assert first_detail["exact_counts_check"] == "recorded"
    assert second_detail["exact_counts_check"] == "match"
    assert first_detail["exact_counts"] == second_detail["exact_counts"]
    assert second["correct"]

    known = json.loads(fresh_record.read_text(encoding="utf-8"))
    for counts in known.values():
        counts["serialize.output_bytes"] += 1
    fresh_record.write_text(json.dumps(known), encoding="utf-8")
    third, third_detail = tiny("table-wide", trace=True)
    assert not third["correct"]
    assert third_detail["broken"]


def test_one_changed_monomial_fails_the_oracle_gate(monkeypatch):
    original = higgs.full_homology

    def corrupted(spec, **kwargs):
        result = original(spec, **kwargs)
        counter = result.cells[min(result.cells)]
        mono = min(counter)
        counter[mono] -= 1
        counter[LineBundleMonomial(tuple(e + 1 for e in mono.exponents))] += 1
        return result

    monkeypatch.setattr(higgs, "full_homology", corrupted)
    result, detail = tiny("oracle-large", trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert detail["fail_frac"]["value"] == 1
    assert "closed form" in detail["failures"][0]


def test_a_wrong_dimension_fails_the_table_gate(monkeypatch):
    original = cli.mhs_table

    def corrupted(spec, inv):
        table = original(spec, inv)
        table.rows[spec.n].dim += 1
        return table

    monkeypatch.setattr(cli, "mhs_table", corrupted)
    result, detail = tiny("table-wide", trace=False)
    assert result["failed"] == result["attempted"]
    assert not result["correct"]
    assert "dim H^" in detail["failures"][0]


def test_a_failed_check_fails_the_verify_gate(monkeypatch):
    def failing_hrr(spec, inv):
        report = consistency.CheckReport()
        report.record("hrr", "forced", 1, 2)
        return report

    monkeypatch.setattr(consistency, "check_hrr", failing_hrr)
    result, detail = tiny("verify-sweep", trace=False)
    assert result["failed"] == result["attempted"] == 1
    assert "exit status 2" in detail["failures"][0]


def test_command_line_prints_the_result_last_and_ignores_the_oracle_cap():
    env = dict(os.environ, HILBERT_HODGE_ORACLE_CAP="1")
    done = bench_command("bench/run.py", "--workload", "oracle-large", "--seed",
                         "3", "--seconds", "0", "--trace", "0", "--size", "tiny",
                         env=env)
    assert done.returncode == 0, done.stderr
    *_, detail_line, result_line = done.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert json.loads(detail_line)["detail"]["workload"] == "oracle-large"


@pytest.mark.parametrize(
    "flags, env",
    [(["-O"], {}), ([], {"PYTHONOPTIMIZE": "1"})],
    ids=["dash-O", "PYTHONOPTIMIZE"],
)
def test_refuses_to_run_without_the_debug_checks(flags, env):
    done = bench_command(*flags, "bench/run.py", "--workload", "verify-sweep",
                         "--seed", "1", "--seconds", "0", "--size", "tiny",
                         env=dict(os.environ, **env))
    assert done.returncode != 0
    assert done.stdout == ""


def test_refuses_to_run_without_the_package_source():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    try:
        done = bench_command("bench/run.py", "--workload", "table-wide", "--seed",
                             "1", "--seconds", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
