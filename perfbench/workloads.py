"""The benchmark's workloads: generated inputs, ``bfdr`` commands, output checks.

Each workload is run through the CLI exactly as a user would type it. The
inputs are made from the workload seed before any timing starts; the
program sees only the generated files and its flags.

* ``table-50k``: the genome-wide summary pipeline on a table of 5x10^4
  tests (``bf``, then ``fdr --method ebf`` and ``fdr --method bh`` on its
  output). Row-scale parsing, formatting and the decision layer dominate.
* ``study-i``: ``sim --scenario 1`` at m = 10^4 and three null
  proportions: per-test substreams and simulation loops plus twelve
  mid-size decisions, no large files.
* ``genes-perm``: ``sim --scenario 2`` with permutation null quantiles and
  permutation p-values on two workers: the gene Bayes-factor kernel, the
  permutation engine and the process pool.
"""
from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks


@dataclass(frozen=True)
class Command:
    """One ``bfdr`` invocation and the outputs it is judged by."""

    name: str
    args: list[str]
    outputs: list[Path]


def digest(paths: list[Path]) -> str:
    """SHA-256 over the bytes of files, walking directories in sorted order."""
    h = hashlib.sha256()
    for top in paths:
        files = sorted(p for p in top.rglob("*") if p.is_file()) if top.is_dir() else [top]
        for f in files:
            h.update(str(f.relative_to(top.parent)).encode() + b"\0")
            h.update(f.read_bytes() if f.exists() else b"<missing>")
    return h.hexdigest()


def write_table_input(path: Path, rows: int, seed: int) -> None:
    """An (id, z, se) table: ~80% nulls, ~20% signals, rows/500 extreme z.

    The extreme rows have |z| between 45 and 70, which puts their log Bayes
    factor above 709: the natural-scale ``bf`` saturates and their
    posteriors tie at 1, so the decision rule sees tied blocks.
    """
    rng = np.random.default_rng(seed)
    se = rng.uniform(0.05, 0.5, rows)
    z = rng.standard_normal(rows)
    signal = rng.random(rows) < 0.2
    z[signal] += rng.choice([-1.0, 1.0], signal.sum()) * rng.uniform(2.0, 6.0, signal.sum())
    extreme = rng.choice(rows, max(1, rows // 500), replace=False)
    z[extreme] = rng.choice([-1.0, 1.0], extreme.size) * rng.uniform(45.0, 70.0, extreme.size)
    lines = [f"t{i:07d}\t{a!r}\t{b!r}\n" for i, (a, b) in enumerate(zip(z.tolist(), se.tolist()))]
    path.write_text("id\tz\tse\n" + "".join(lines))


class TableWorkload:
    """bf -> fdr ebf and fdr bh on one generated summary table."""

    threads = 1
    fixed_cost_probe = False

    def __init__(self, name: str, rows: int):
        self.name = name
        self.rows = rows
        self.tests_per_iteration = rows

    def prepare(self, data: Path, seed: int) -> None:
        write_table_input(data / "input.tsv", self.rows, seed)

    def reset(self, data: Path) -> None:
        for name in ("bf.tsv", "ebf.tsv", "bh.tsv"):
            (data / name).unlink(missing_ok=True)

    def commands(self, data: Path, seed: int, threads: int | None = None) -> list[Command]:
        inp, bf, ebf, bh = (data / n for n in ("input.tsv", "bf.tsv", "ebf.tsv", "bh.tsv"))
        return [
            Command("bf", ["bf", "--input", str(inp), "--output", str(bf)], [bf]),
            Command("fdr-ebf", ["fdr", "--method", "ebf", "--input", str(bf), "--output", str(ebf)], [ebf]),
            Command("fdr-bh", ["fdr", "--method", "bh", "--input", str(bf), "--output", str(bh)], [bh]),
        ]

    def check(self, data: Path, seed: int) -> dict[str, list[str]]:
        problems = {"bf": _guard(checks.check_bf, data / "bf.tsv", checks.Table(data / "input.tsv"))}
        bf_table = None if problems["bf"] else checks.Table(data / "bf.tsv")
        for name, fn, out in (("fdr-ebf", checks.check_ebf, "ebf.tsv"), ("fdr-bh", checks.check_bh, "bh.tsv")):
            problems[name] = _guard(fn, data / out, bf_table) if bf_table else ["no valid bf output to check against"]
        return problems


class SimWorkload:
    """One ``bfdr sim`` run; its seed is the workload seed."""

    def __init__(
        self,
        name: str,
        scenario: int,
        m: int,
        pi0s: list[float],
        reps: int,
        threads: int = 1,
        extra: tuple[str, ...] = (),
        fixed_cost_probe: bool = False,
    ):
        self.name = name
        self.scenario = scenario
        self.m = m
        self.pi0s = pi0s
        self.reps = reps
        self.threads = threads
        self.extra = list(extra)
        self.fixed_cost_probe = fixed_cost_probe
        self.tests_per_iteration = m * len(pi0s) * reps

    def prepare(self, data: Path, seed: int) -> None:
        pass

    def reset(self, data: Path) -> None:
        shutil.rmtree(data / "sim", ignore_errors=True)

    def commands(self, data: Path, seed: int, threads: int | None = None) -> list[Command]:
        out = data / "sim"
        args = [
            "sim",
            "--scenario", str(self.scenario),
            "--m", str(self.m),
            "--pi0", ",".join(repr(p) for p in self.pi0s),
            "--reps", str(self.reps),
            *self.extra,
            "--seed", str(seed),
            "--out", str(out),
        ]
        if self.threads > 1 or threads is not None:
            args += ["--threads", str(threads or self.threads)]
        return [Command("sim", args, [out])]

    def check(self, data: Path, seed: int) -> dict[str, list[str]]:
        return {
            "sim": _guard(checks.check_sim, data / "sim", self.scenario, self.m, self.pi0s, self.reps, seed)
        }


def _guard(fn, *args) -> list[str]:
    """Run a check; a malformed output that breaks the parser is a problem too."""
    try:
        return fn(*args)
    except (OSError, ValueError, KeyError, IndexError, OverflowError) as exc:
        return [f"{fn.__name__} could not read the output: {type(exc).__name__}: {exc}"]


def workloads(tiny: bool = False) -> dict[str, TableWorkload | SimWorkload]:
    """The three workloads, at benchmark size or at a size for quick tests.

    Every process pays about 2 s of imports, and on a shared 2-core machine
    one sample varies by 6-12%, so the sizes are chosen to give three to
    six iterations in a run of ``run_seconds``: the reported medians need
    that many samples to stay steady.
    """
    perms = ("--perms", "20", "--perm-p", "40") if tiny else ("--perms", "100", "--perm-p", "500")
    return {
        w.name: w
        for w in (
            TableWorkload("table-50k", 2_000 if tiny else 50_000),
            SimWorkload("study-i", 1, 300 if tiny else 10_000, [0.95, 0.55, 0.15], 1),
            SimWorkload(
                "genes-perm", 2, 12 if tiny else 100, [0.9], 1, threads=2, extra=perms, fixed_cost_probe=True
            ),
        )
    }
