"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q

They run every workload through ``run.py --tiny``, check that every
metric in ``BENCHMARK.json`` is printed with its unit, that corrupted
outputs are counted as failures, that a missing traced function is
reported as absent, that counts repeat exactly between traced runs and
that self times add up to the traced wall time.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = {"count", "MB-computed"}


def bench(workload: str, trace: int, seed: int = run.GOLDEN_SEED, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def tiny_runs() -> dict:
    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            full = json.loads(
                (ROOT / ".perfbench" / f"{workload}-seed{run.GOLDEN_SEED}-trace{trace}-tiny" / "result.json").read_text()
            )
            runs[workload, trace] = (proc.stdout, json.loads(proc.stdout.splitlines()[-1]), full)
    return runs


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(tiny_runs, workload, trace):
    stdout, result, full = tiny_runs[workload, trace]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, full["problems"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], float)
        assert any(line.split()[1:2] == [m["name"]] and line.split()[3] == m["unit"]
                   for line in stdout.splitlines() if line.startswith("#   ")), m["name"]
    assert not full["absent"]
    for key in ("nproc", "python", "numpy", "scipy"):
        assert full["machine"][key]
    assert full["seed"] == run.GOLDEN_SEED


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_match_golden_digests(tiny_runs, workload):
    golden = json.loads((HERE / "golden.json").read_text())[workload]
    for trace in (0, 1):
        iterations = tiny_runs[workload, trace][2]["run"]["iterations"]
        for it in iterations.values() if isinstance(iterations, dict) else iterations:
            assert {k: v["digest"] for k, v in it["commands"].items()} == golden


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_add_up_to_traced_wall(tiny_runs, workload):
    metrics = tiny_runs[workload, 1][1]["metrics"]
    layers = ["cli.self_s", "cli.read_table_s", "cli.write_tsv_s"] + [f"{layer}.self_s" for layer in run.LAYERS]
    total = sum(metrics[k]["value"] for k in layers)
    assert total == pytest.approx(metrics["trace.wall_s"]["value"], abs=1e-6)
    assert metrics["trace.wall_s"]["value"] > 0


def test_counts_repeat_between_traced_runs(tiny_runs):
    for workload in WORKLOADS:
        proc = bench(workload, 1)
        again = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        before = tiny_runs[workload, 1][1]["metrics"]
        counts = [k for k, v in before.items() if v["unit"] in COUNT_UNITS]
        assert {k: before[k] for k in counts} == {k: again[k] for k in counts}, workload
    genes = tiny_runs["genes-perm", 1][1]["metrics"]
    assert genes["permutation.perms_evaluated"]["value"] == 12 * (20 + 40)
    assert genes["bayes_factor.log_gene_bf_calls"]["value"] > 0
    table = tiny_runs["table-50k", 1][1]["metrics"]
    assert table["fdr_control.two_sided_normal_p_calls"]["value"] == 2_000
    assert table["cli.rows_read"]["value"] == 3 * 2_000


def _tiny_outputs(tmp_path: Path, name: str):
    wl = workloads(tiny=True)[name]
    data = tmp_path / "data"
    data.mkdir()
    wl.prepare(data, 5)
    it = run.run_iteration(wl, run.Runner(tmp_path), data, 5, "t")
    assert all(o.exit_code == 0 for o in it.outcomes.values())
    return wl, data, it


def _failures(wl, data: Path, it) -> int:
    ledger = run.Ledger()
    run.judge(wl, it, ledger, "t", None, wl.check(data, 5))
    return ledger.failed


def test_flipped_rejected_flag_counts_as_failure(tmp_path):
    wl, data, it = _tiny_outputs(tmp_path, "table-50k")
    assert _failures(wl, data, it) == 0
    for name, column in (("ebf.tsv", 3), ("bh.tsv", 3)):
        path = data / name
        original = path.read_text()
        lines = original.splitlines()
        first_row = next(i for i, line in enumerate(lines) if line.startswith("t"))
        fields = lines[first_row].split("\t")
        fields[column] = "0" if fields[column] == "1" else "1"
        lines[first_row] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")
        assert _failures(wl, data, it) == 1, name
        path.write_text(original)


def test_wrong_pi0_hat_counts_as_failure(tmp_path):
    wl, data, it = _tiny_outputs(tmp_path, "study-i")
    assert _failures(wl, data, it) == 0
    path = data / "sim" / "results.tsv"
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if "\tebf\t" in line)
    fields = lines[i].split("\t")
    fields[3] = repr(float(fields[3]) * 0.5 + 0.25)
    lines[i] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n")
    assert _failures(wl, data, it) == 1


def test_wrong_pi0_hat_header_counts_as_failure(tmp_path):
    wl, data, it = _tiny_outputs(tmp_path, "table-50k")
    path = data / "ebf.tsv"
    text = path.read_text()
    pi0_line = next(line for line in text.splitlines() if line.startswith("# pi0_hat"))
    path.write_text(text.replace(pi0_line, "# pi0_hat\t0.5"))
    assert _failures(wl, data, it) == 1


def test_missing_traced_name_is_absent_and_never_raises():
    t = tracer.Tracer()
    t.install({
        "cli.gone": ("bfdr.cli", "no_such_function"),
        "bayes_factor.gone": ("bfdr.bayes_factor", "GeneDesign.no_such_method"),
        "nomodule.gone": ("bfdr.no_such_module", "f"),
    })
    assert t.absent == {
        "cli.gone": "bfdr.cli.no_such_function not found",
        "bayes_factor.gone": "bfdr.bayes_factor.GeneDesign.no_such_method not found",
        "nomodule.gone": "bfdr.no_such_module.f not found",
    }
    summary = run.span_summary([{"names": [], "spans": [], "counts": {}, "absent": {"cli.read_table": "gone"}}])
    metrics, absent = run.layer_metrics(summary)
    assert metrics["cli.read_table_s"] == 0.0 and absent["cli.read_table_s"] == "gone"


def test_counter_failure_marks_count_absent():
    t = tracer.Tracer()
    counted = t.wrap("bayes_factor.log_gene_bf", lambda self, y: [1.0], tracer.COUNTERS["bayes_factor.log_gene_bf"])
    assert counted(object(), None) == [1.0]
    assert "bayes_factor.gene_bf_evals" in t.absent


def test_self_time_is_duration_minus_children():
    doc = {
        "names": ["cli.main", "studies.run_study_ii", "permutation.permutation_pvalue"],
        "spans": [[0, -1, 0, 100], [1, 0, 10, 40], [2, 1, 20, 30], [2, 0, 50, 55]],
        "counts": {},
        "absent": {},
    }
    s = run.span_summary([doc])
    assert s["layer_self_ns"] == {"root:cli.main": 65, "studies": 20, "permutation": 15}
    assert s["inclusive_ns"] == {"cli.main": 100, "studies.run_study_ii": 30, "permutation.permutation_pvalue": 15}
    assert s["self_total_ns"] == s["root_ns"] == 100


def test_oracles_on_textbook_cases():
    assert checks.step_up([0.01, 0.02, 0.03, 0.5], 0.05) == {0, 1, 2}
    assert checks.step_up([0.04, 0.5], 0.05) == set()
    assert checks.ebf_d0([0.5, 3.0, 0.5]) == 2
    assert checks.check_d0([0.5, 3.0, 0.5], 2) == []
    assert checks.check_d0([0.5, 3.0, 0.5], 3) != []
    assert checks.ebf_d0([checks.FLOAT_MAX, checks.FLOAT_MAX, 0.1]) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("table-50k", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_every_layer_metric_has_one_prediction():
    rows = json.loads((HERE / "predictions.json").read_text())["rows"]
    listed = [name for row in rows for name in row["per_layer"]]
    assert sorted(listed) == sorted(m["name"] for m in SPEC["per_layer"])
    for row in rows:
        assert set(row["on"]) | set(row["no_change_on"]) <= set(WORKLOADS)
        assert set(row["moves"]) <= {m["name"] for m in SPEC["end_to_end"]}
