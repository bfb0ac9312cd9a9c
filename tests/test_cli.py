"""Command-line frontend: table IO round trips, exit codes, seeds, and
byte-identical reruns."""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bfdr.bayes_factor import log_bf_averaged_many
from bfdr.cli import (
    SEED_ENV_VAR,
    _batch_from_table,
    main,
    read_table,
    write_tsv,
)
from bfdr.model import Batch


def _averaged_bf(z: float, se: float) -> float:
    return math.exp(float(log_bf_averaged_many(z, se)))


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


def _comments(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("\t")
            out[key] = value
    return out


def _write_zse_table(path: Path, rows):
    lines = ["id\tz\tse"] + [f"{i}\t{z!r}\t{se!r}" for i, z, se in rows]
    path.write_text("\n".join(lines) + "\n")


class TestTableIO:
    def test_read_table_skips_comments_and_blanks(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("# note\tx\n\nid\tbf\na\t2.0\n\nb\t0.5\n")
        header, rows = read_table(p)
        assert header == ["id", "bf"]
        assert [(n, f) for n, f in rows] == [(4, ["a", "2.0"]), (6, ["b", "0.5"])]

    def test_read_table_field_count_mismatch(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("id\tbf\na\t2.0\textra\n")
        with pytest.raises(Exception, match="t.tsv:2"):
            read_table(p)

    def test_read_table_empty_file(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("")
        with pytest.raises(Exception, match="empty"):
            read_table(p)

    def test_records_round_trip_exactly(self, tmp_path):
        batch = Batch(["a", "b", "huge", "tiny"], log_bf=[math.log(2.5), math.log(0.125), 800.0, -800.0])
        p = tmp_path / "records.tsv"
        write_tsv(
            p,
            ["id", "z", "se", "log_bf", "bf"],
            [(i, 1.3, None, lb, bf) for i, lb, bf in zip(batch.ids, batch.log_bf.tolist(), batch.bf.tolist())],
        )
        header, rows = read_table(p)
        back = _batch_from_table(header, rows, p)
        assert back.ids == batch.ids
        assert np.array_equal(back.log_bf, batch.log_bf)
        assert np.array_equal(back.bf, batch.bf)

    def test_atomic_write_no_partial_on_row_failure(self, tmp_path):
        target = tmp_path / "out.tsv"

        def rows():
            yield ("a", 1.0)
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            write_tsv(target, ["id", "x"], rows())
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_atomic_write_cleans_temp_on_rename_failure(self, tmp_path, monkeypatch):
        target = tmp_path / "out.tsv"

        def fail(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            write_tsv(target, ["id"], [("a",)])
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []


class TestBfCommand:
    def test_zse_mode(self, tmp_path, capsys):
        inp = tmp_path / "in.tsv"
        _write_zse_table(inp, [("a", 2.0, 0.5), ("b", 0.0, 1.0)])
        out = tmp_path / "out.tsv"
        code = main(["bf", "--input", str(inp), "--output", str(out), "--json"])
        assert code == 0
        header, rows = read_table(out)
        assert header == ["id", "z", "se", "log_bf", "bf"]
        got = {fields[0]: float(fields[4]) for _, fields in rows}
        assert got["a"] == pytest.approx(_averaged_bf(2.0, 0.5), rel=1e-12)
        assert got["b"] == pytest.approx(_averaged_bf(0.0, 1.0), rel=1e-12)
        mirror = json.loads(Path(str(out) + ".json").read_text())
        assert [t["id"] for t in mirror["tests"]] == ["a", "b"]

    def test_raw_single_variant_mode(self, tmp_path):
        rng = np.random.default_rng(2)
        g = rng.binomial(2, 0.4, size=50).astype(float)
        y = 1.0 + 0.8 * g + rng.normal(size=50)
        np.savetxt(tmp_path / "y.txt", y)
        np.savetxt(tmp_path / "g.txt", g)
        inp = tmp_path / "genes.tsv"
        inp.write_text("id\ty_file\tg_file\nv1\ty.txt\tg.txt\n")
        out = tmp_path / "out.tsv"
        assert main(["bf", "--input", str(inp), "--output", str(out), "--sigma", "1.0"]) == 0
        header, rows = read_table(out)
        fields = rows[0][1]
        z, se, log_bf = float(fields[1]), float(fields[2]), float(fields[3])
        assert log_bf == float(log_bf_averaged_many(z, se))
        assert float(fields[4]) == math.exp(log_bf)  # bf and log_bf come from one kernel

    def test_raw_gene_mode_needs_sigma(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        G = rng.binomial(2, 0.3, size=(30, 4)).astype(float)
        y = rng.normal(size=30)
        np.savetxt(tmp_path / "y.txt", y)
        np.savetxt(tmp_path / "G.txt", G)
        inp = tmp_path / "genes.tsv"
        inp.write_text("id\ty_file\tg_file\ngene1\ty.txt\tG.txt\n")
        out = tmp_path / "out.tsv"
        assert main(["bf", "--input", str(inp), "--output", str(out)]) == 2
        assert "--sigma" in capsys.readouterr().err
        assert main(["bf", "--input", str(inp), "--output", str(out), "--sigma", "1.0"]) == 0

    def test_negative_se_is_a_numerical_error(self, tmp_path, capsys):
        inp = tmp_path / "in.tsv"
        _write_zse_table(inp, [("a", 1.0, -0.5)])
        out = tmp_path / "out.tsv"
        assert main(["bf", "--input", str(inp), "--output", str(out)]) == 3
        assert "numerical error" in capsys.readouterr().err
        assert not out.exists()


class TestFdrCommand:
    def test_ebf_worked_example(self, tmp_path, capsys):
        inp = tmp_path / "in.tsv"
        inp.write_text("id\tbf\na\t0.5\nb\t0.8\nc\t2.0\n")
        out = tmp_path / "report.tsv"
        code = main(["fdr", "--input", str(inp), "--output", str(out), "--method", "ebf"])
        assert code == 0
        comments = _comments(out)
        assert float(comments["pi0_hat"]) == 2 / 3
        assert comments["d0"] == "2"
        assert comments["n_rejected"] == "0"
        assert float(comments["threshold"]) == 0.5  # v_hat of the top test
        assert "pi0_hat=0.666667" in capsys.readouterr().out

    def test_ebf_auto_column_present(self, tmp_path):
        # One extreme Bayes factor (>= m / alpha = 60) must be auto-marked.
        inp = tmp_path / "in.tsv"
        inp.write_text("id\tbf\na\t100.0\nb\t0.5\nc\t0.8\n")
        out = tmp_path / "report.tsv"
        assert main(
            ["fdr", "--input", str(inp), "--output", str(out), "--method", "ebf", "--alpha", "0.05"]
        ) == 0
        header, rows = read_table(out)
        auto = {fields[0]: fields[4] for _, fields in rows}
        rejected = {fields[0]: fields[3] for _, fields in rows}
        assert auto["a"] == "1" and rejected["a"] == "1"
        assert auto["b"] == "0"
        assert _comments(out)["n_auto_rejected"] == "1"

    def test_qbf_with_null_q_column(self, tmp_path):
        inp = tmp_path / "in.tsv"
        inp.write_text(
            "id\tbf\tnull_q\na\t0.2\t1.0\nb\t0.3\t1.0\nc\t1.5\t1.0\nd\t9.0\t1.0\n"
        )
        out = tmp_path / "report.tsv"
        assert main(["fdr", "--input", str(inp), "--output", str(out), "--method", "qbf"]) == 0
        assert float(_comments(out)["pi0_hat"]) == 1.0

    def test_qbf_without_quantiles_or_raw_data(self, tmp_path, capsys):
        inp = tmp_path / "in.tsv"
        inp.write_text("id\tbf\na\t0.5\n")
        out = tmp_path / "report.tsv"
        assert main(["fdr", "--input", str(inp), "--output", str(out), "--method", "qbf"]) == 2
        err = capsys.readouterr().err
        assert "null_q" in err

    @staticmethod
    def _write_raw_genes(tmp_path: Path, n_genes: int) -> Path:
        rng = np.random.default_rng(5)
        inp = tmp_path / "genes.tsv"
        lines = ["id\ty_file\tg_file"]
        for i in range(n_genes):
            G = rng.binomial(2, 0.3, size=(40, 5)).astype(float)
            y = rng.normal(size=40)
            np.savetxt(tmp_path / f"y{i}.txt", y)
            np.savetxt(tmp_path / f"G{i}.txt", G)
            lines.append(f"g{i}\ty{i}.txt\tG{i}.txt")
        inp.write_text("\n".join(lines) + "\n")
        return inp

    def test_qbf_from_raw_data_with_permutations(self, tmp_path):
        inp = self._write_raw_genes(tmp_path, 3)
        out = tmp_path / "report.tsv"
        code = main(
            [
                "fdr", "--input", str(inp), "--output", str(out), "--method", "qbf",
                "--perms", "19", "--sigma", "1.0", "--seed", "4",
            ]
        )
        assert code == 0
        header, rows = read_table(out)
        assert len(rows) == 3
        assert 0.0 <= float(_comments(out)["pi0_hat"]) <= 1.0

    def test_qbf_raw_data_identical_for_any_worker_count(self, tmp_path):
        inp = self._write_raw_genes(tmp_path, 6)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"report{threads}.tsv"
            code = main(
                [
                    "fdr", "--input", str(inp), "--output", str(out), "--method", "qbf",
                    "--perms", "29", "--sigma", "1.0", "--seed", "4", "--json",
                    "--threads", threads,
                ]
            )
            assert code == 0
            outputs.append((out.read_bytes(), out.with_suffix(".tsv.json").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_bh_from_p_column(self, tmp_path):
        inp = tmp_path / "in.tsv"
        inp.write_text("id\tp\na\t0.001\nb\t0.02\nc\t0.9\n")
        out = tmp_path / "report.tsv"
        assert main(["fdr", "--input", str(inp), "--output", str(out), "--method", "bh"]) == 0
        header, rows = read_table(out)
        rejected = {fields[0]: fields[3] for _, fields in rows}
        assert rejected == {"a": "1", "b": "1", "c": "0"}
        assert float(_comments(out)["p_cutoff"]) == 0.02

    def test_storey_derives_p_from_z(self, tmp_path):
        inp = tmp_path / "in.tsv"
        _write_zse_table(inp, [("a", 5.0, 1.0), ("b", 0.1, 1.0), ("c", 0.2, 1.0)])
        out = tmp_path / "report.tsv"
        assert main(["fdr", "--input", str(inp), "--output", str(out), "--method", "storey"]) == 0
        header, rows = read_table(out)
        pvals = {fields[0]: float(fields[1]) for _, fields in rows}
        assert pvals["a"] == pytest.approx(5.733031437583869e-07, rel=1e-9)

    def test_missing_p_and_z(self, tmp_path, capsys):
        inp = tmp_path / "in.tsv"
        inp.write_text("id\tbf\na\t2.0\n")
        out = tmp_path / "report.tsv"
        assert main(["fdr", "--input", str(inp), "--output", str(out), "--method", "bh"]) == 2
        assert "'p' column" in capsys.readouterr().err

    def test_bad_number_names_line_and_column(self, tmp_path, capsys):
        inp = tmp_path / "in.tsv"
        inp.write_text("id\tbf\na\t2.0\nb\toops\n")
        out = tmp_path / "report.tsv"
        assert main(["fdr", "--input", str(inp), "--output", str(out), "--method", "ebf"]) == 2
        err = capsys.readouterr().err
        assert ":3:" in err and "'bf'" in err and "oops" in err

    def test_disagreeing_bf_and_log_bf_name_the_line(self, tmp_path, capsys):
        inp = tmp_path / "in.tsv"
        inp.write_text("id\tlog_bf\tbf\na\t0.0\t1.0\nb\t0.0\t1000000000.0\n")
        out = tmp_path / "report.tsv"
        assert main(["fdr", "--input", str(inp), "--output", str(out), "--method", "ebf"]) == 2
        err = capsys.readouterr().err
        assert "in.tsv:3:" in err and "disagree" in err
        assert not out.exists()

    def test_bf_outputs_with_saturated_rows_are_accepted(self, tmp_path):
        """bf writes the float max as bf beyond log_bf 709; fdr reads both columns back."""
        inp = tmp_path / "in.tsv"
        _write_zse_table(inp, [("a", 2.0, 0.5), ("s1", 60.0, 0.1), ("s2", -45.0, 0.3), ("n", 0.1, 1.0)])
        bf_out = tmp_path / "bf.tsv"
        assert main(["bf", "--input", str(inp), "--output", str(bf_out)]) == 0
        _, rows = read_table(bf_out)
        assert [float(f[4]) for _, f in rows].count(sys.float_info.max) == 2
        assert min(float(f[3]) for _, f in rows if f[0] in ("s1", "s2")) > 709.0
        out = tmp_path / "report.tsv"
        assert main(["fdr", "--input", str(bf_out), "--output", str(out), "--method", "ebf"]) == 0
        assert main(["fdr", "--input", str(bf_out), "--output", str(out), "--method", "bh"]) == 0

    def test_duplicate_ids_in_a_pvalue_table_name_the_line(self, tmp_path, capsys):
        inp = tmp_path / "in.tsv"
        inp.write_text("id\tp\na\t0.1\nb\t0.2\na\t0.3\n")
        out = tmp_path / "report.tsv"
        assert main(["fdr", "--input", str(inp), "--output", str(out), "--method", "bh"]) == 2
        assert "in.tsv:4: duplicate id 'a'" in capsys.readouterr().err

    def test_degenerate_gene_is_a_numerical_error(self, tmp_path, capsys):
        inp = tmp_path / "genes.tsv"
        np.savetxt(tmp_path / "y.txt", np.arange(20.0))
        np.savetxt(tmp_path / "G.txt", np.ones((20, 2)))
        inp.write_text("id\ty_file\tg_file\ng0\ty.txt\tG.txt\n")
        out = tmp_path / "report.tsv"
        code = main(
            [
                "fdr", "--input", str(inp), "--output", str(out), "--method", "qbf",
                "--perms", "9", "--sigma", "1.0",
            ]
        )
        assert code == 3
        assert "constant" in capsys.readouterr().err


class TestSimCommand:
    def test_scenario_1_outputs_and_determinism(self, tmp_path, capsys):
        args = [
            "sim", "--scenario", "1", "--m", "80", "--n", "30", "--pi0", "0.6",
            "--reps", "2", "--seed", "9",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a), "--json"]) == 0
        assert main(args + ["--out", str(out_b), "--json"]) == 0
        captured = capsys.readouterr()
        assert "[timing]" in captured.err
        assert "scenario 1" in captured.out
        for rel in (
            "results.tsv",
            "aggregate.tsv",
            "aggregate.json",
            "pi0_0.6_rep000/records.tsv",
            "pi0_0.6_rep000/truth.tsv",
            "pi0_0.6_rep001/records.tsv",
        ):
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()
        doc = json.loads((out_a / "aggregate.json").read_text())
        methods = {row["method"] for row in doc["aggregate"]}
        assert methods == {"ebf", "qbf", "bh", "storey"}
        assert all(len([r for r in doc["runs"] if r["method"] == m]) == 2 for m in methods)

    def test_scenario_1_records_feed_fdr(self, tmp_path):
        out = tmp_path / "sim"
        assert main(
            ["sim", "--scenario", "1", "--m", "50", "--n", "25", "--pi0", "0.5",
             "--out", str(out), "--seed", "3"]
        ) == 0
        records = out / "pi0_0.5_rep000" / "records.tsv"
        report = tmp_path / "report.tsv"
        assert main(
            ["fdr", "--input", str(records), "--output", str(report), "--method", "ebf"]
        ) == 0
        assert int(_comments(report)["m"]) == 50

    def test_scenario_2_thread_independence(self, tmp_path):
        args = [
            "sim", "--scenario", "2", "--m", "10", "--n", "40", "--pi0", "0.5",
            "--k-range", "5,9", "--perms", "15", "--perm-p", "15", "--seed", "2",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a), "--threads", "1"]) == 0
        assert main(args + ["--out", str(out_b), "--threads", "2"]) == 0
        for rel in (
            "results.tsv",
            "aggregate.tsv",
            "pi0_0.5_rep000/records.tsv",
            "pi0_0.5_rep000/truth.tsv",
        ):
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()
        header, rows = read_table(out_a / "pi0_0.5_rep000" / "records.tsv")
        assert header == ["id", "z", "se", "log_bf", "bf", "null_q"]
        assert rows[0][1][1] == "NA"  # gene records carry no single z

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_all_monomorphic_gene_is_named(self, tmp_path, capsys, threads):
        args = [
            "sim", "--scenario", "2", "--m", "4", "--n", "3", "--k-range", "1,1",
            "--maf-range", "1e-6,1e-6", "--ld-decay", "0", "--pi0", "1", "--perms", "19",
            "--out", str(tmp_path / "sim"), "--threads", threads,
        ]
        assert main(args) == 3
        assert capsys.readouterr().err == (
            "numerical error: gene 'gene00000': all variant columns are constant\n"
        )

    def test_constant_genotype_redraws_are_bounded(self, tmp_path, capsys):
        """maf 1e-6 at n=3 needs ~170,000 draws per test; the redraw cap fails it fast."""
        start = time.perf_counter()
        code = main(
            ["sim", "--scenario", "1", "--m", "3", "--n", "3", "--maf-range", "1e-6,1e-6",
             "--out", str(tmp_path / "sim"), "--seed", "1"]
        )
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical error: test 0: genotype constant after 1000 redraws at allele "
            "frequency f=1e-06 (n=3); raise the low end of maf_range or n\n"
        )

    def test_no_datasets_flag(self, tmp_path):
        out = tmp_path / "sim"
        assert main(
            ["sim", "--scenario", "1", "--m", "30", "--n", "20", "--pi0", "0.5",
             "--out", str(out), "--no-datasets"]
        ) == 0
        assert (out / "results.tsv").exists()
        assert not (out / "pi0_0.5_rep000").exists()

    def test_bad_pi0_list(self, tmp_path, capsys):
        assert main(
            ["sim", "--scenario", "1", "--m", "10", "--pi0", "0.5,1.2", "--out", str(tmp_path / "x")]
        ) == 2
        assert "--pi0" in capsys.readouterr().err


class TestSeeds:
    def test_env_seed_matches_explicit_flag(self, tmp_path, monkeypatch):
        base = ["sim", "--scenario", "1", "--m", "40", "--n", "20", "--pi0", "0.5"]
        out_env, out_flag = tmp_path / "env", tmp_path / "flag"
        monkeypatch.setenv(SEED_ENV_VAR, "11")
        assert main(base + ["--out", str(out_env)]) == 0
        monkeypatch.delenv(SEED_ENV_VAR)
        assert main(base + ["--out", str(out_flag), "--seed", "11"]) == 0
        assert (out_env / "results.tsv").read_bytes() == (out_flag / "results.tsv").read_bytes()

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        base = ["sim", "--scenario", "1", "--m", "40", "--n", "20", "--pi0", "0.5"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv(SEED_ENV_VAR, "11")
        assert main(base + ["--out", str(out_a), "--seed", "12"]) == 0
        monkeypatch.delenv(SEED_ENV_VAR)
        assert main(base + ["--out", str(out_b), "--seed", "12"]) == 0
        assert (out_a / "results.tsv").read_bytes() == (out_b / "results.tsv").read_bytes()

    def test_non_integer_env_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        assert main(
            ["sim", "--scenario", "1", "--m", "10", "--pi0", "0.5", "--out", str(tmp_path / "x")]
        ) == 2
        assert SEED_ENV_VAR in capsys.readouterr().err


class TestEntryPoints:
    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_missing_subcommand_arguments(self):
        with pytest.raises(SystemExit) as exc:
            main(["fdr"])
        assert exc.value.code == 2

    def test_module_runs_in_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-c", "from bfdr.cli import main; raise SystemExit(main(['--version']))"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "bfdr" in proc.stdout
