"""Recorded output digests of the ``sim``, ``bf`` and ``fdr`` commands.

Each case runs one or two ``bfdr`` commands in process and hashes every
file they write, with their stdout. Only what holds seconds is left out: the
``method-runs in …s`` line of ``sim``'s stdout and the ``[timing]`` lines
of stderr. A change that alters any output byte fails here, whatever
``--threads`` it runs at. The ``sim`` and raw-data ``fdr`` cases run at
every ``--threads`` below, and the CRLF table cases at every read block
size below, in one block and in many; the other table cases take no
workers and run once.

The bytes depend on the numpy build and the CPU (``np.exp`` rounds
differently with different SIMD paths, and BLAS results depend on the
product's width and kernel), so the digest file records both beside the
digests, and a failure names them. To re-record after an intended change
of output bytes, run ``PYTHONPATH=src python tests/test_golden.py``.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from bfdr import cli
from bfdr.bayes_factor import DEFAULT_OMEGA_GRID, bf_null_quantiles
from bfdr.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")

_SIM = ["sim", "--scenario", "2", "--pi0", "0.5", "--seed", "11", "--json"]
# Study I at 2 x 2048 + 37 tests: three test ranges per dataset, the last one short.
_SIM_I = ["sim", "--scenario", "1", "--m", "4133", "--n", "20", "--pi0", "0.9,0.4", "--reps", "2", "--seed", "11",
          "--json"]
# Case name -> the command's argv but for --out; each runs at every --threads below.
SIM_CASES = {
    f"sim-m{m}-perms{q}-perm-p{p}": _SIM + ["--m", str(m), "--perms", str(q), "--perm-p", str(p)]
    for m in (9, 131)
    for q, p in ((19, 39), (39, 19))
} | {"sim-i": _SIM_I, "sim-i-no-datasets": _SIM_I + ["--no-datasets"]}
THREADS = (1, 2)
# Cases on the summary table: ``bf``, then ``fdr`` on its output, or ``fdr --method bh`` on the table's z;
# ``fdr`` on a table of p-values; ``bf --estimate-sigma`` on raw single-variant rows.
TABLE_CASES = (
    "bf", "bf-json", "fdr-ebf", "fdr-qbf", "fdr-bh", "fdr-storey", "fdr-bh-from-z",
    "fdr-bh-from-p", "fdr-storey-from-p", "bf-estimate-sigma",
)
# The summary-table cases again, on tables with CRLF line ends and comment and blank lines in the body
# (the input table also opens with a byte-order mark), each read at every CRLF_BLOCKS.
CRLF_CASES = tuple(f"crlf-{case}" for case in ("bf", "bf-json", "fdr-ebf", "fdr-qbf", "fdr-bh", "fdr-storey"))
# Bytes per read block (``cli._BLOCK_BYTES``): None keeps the default, which reads these tables (13-33 kB)
# in one block; the others cut them into blocks of that size or a line more.
CRLF_BLOCKS = (None, 4096, 1024)


def machine() -> dict:
    """What the digests depend on besides the source: the numpy build and the CPU's SIMD features."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__

        flags = sorted(name for name, on in __cpu_features__.items() if on)
    except ImportError:  # pragma: no cover - another numpy layout
        flags = []
    return {"numpy": np.__version__, "python": platform.python_version(), "cpu_flags": flags}


def _raw_genes(d: Path) -> Path:
    """A manifest of 12 raw genes, 40 individuals and 3 to 8 variants each, half with an effect."""
    rng = np.random.default_rng(2024)
    lines = ["id\ty_file\tg_file"]
    for i in range(12):
        G = rng.binomial(2, rng.uniform(0.1, 0.5), size=(40, int(rng.integers(3, 9)))).astype(float)
        y = rng.normal(size=40) + (0.6 * G[:, 0] if i % 2 else 0.0)
        np.savetxt(d / f"y{i}.txt", y)
        np.savetxt(d / f"G{i}.txt", G)
        lines.append(f"g{i}\ty{i}.txt\tG{i}.txt")
    manifest = d / "genes.tsv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def _summary_table(d: Path) -> tuple[Path, np.ndarray]:
    """A seeded (id, z, se) table of 300 tests, a fifth with an effect, and its se column.

    Four rows have a |z| so large that their log Bayes factor passes 709:
    their ``bf`` saturates at the float max and ties.
    """
    rng = np.random.default_rng(31)
    se = rng.uniform(0.05, 0.5, 300)
    z = rng.standard_normal(300)
    z[::5] += rng.choice([-1.0, 1.0], 60) * rng.uniform(2.0, 6.0, 60)
    z[[7, 70, 170, 270]] = [48.0, -55.5, 61.25, 70.0]
    table = d / "summary.tsv"
    rows = [f"t{i:03d}\t{a!r}\t{b!r}\n" for i, (a, b) in enumerate(zip(z.tolist(), se.tolist()))]
    table.write_text("id\tz\tse\n" + "".join(rows))
    return table, se


def _pvalue_table(d: Path) -> Path:
    """A seeded (id, p) table of 300 tests: a fifth near 0, the rest uniform, with a 0 and a 1 among them."""
    rng = np.random.default_rng(37)
    p = rng.uniform(0.0, 1.0, 300)
    p[::5] = rng.beta(0.1, 1.0, 60)
    p[[3, 4]] = [0.0, 1.0]
    table = d / "p.tsv"
    table.write_text("id\tp\n" + "".join(f"p{i:03d}\t{x!r}\n" for i, x in enumerate(p.tolist())))
    return table


def _raw_variants(d: Path) -> Path:
    """A manifest of 12 raw single-variant rows, 40 individuals each, half with an effect."""
    rng = np.random.default_rng(2025)
    lines = ["id\ty_file\tg_file"]
    for i in range(12):
        g = rng.binomial(2, rng.uniform(0.1, 0.5), size=40).astype(float)
        np.savetxt(d / f"v{i}_y.txt", rng.normal(size=40) + (0.7 * g if i % 2 else 0.0))
        np.savetxt(d / f"v{i}_g.txt", g)
        lines.append(f"v{i}\tv{i}_y.txt\tv{i}_g.txt")
    manifest = d / "variants.tsv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def _messy(path: Path, to: Path, bom: bool = False) -> Path:
    """``path``'s table rewritten with CRLF line ends, a comment line and a blank line every 37 lines,
    and a byte-order mark first with ``bom``; the same table to the reader."""
    lines = []
    for i, line in enumerate(path.read_text().splitlines()):
        lines.append(line)
        if i % 37 == 36:
            lines += ["# a comment in the body", "  "]
    to.write_bytes(b"\xef\xbb\xbf" * bom + "".join(line + "\r\n" for line in lines).encode())
    return to


def _table_steps(case: str, work: Path, out: Path) -> list:
    """The steps of a table case: argvs, and functions that write an input. For QBF one writes the
    ``bf`` output with a ``null_q`` column added (the closed-form null quantiles of each test's se);
    a CRLF case reads its tables through :func:`_messy`."""
    crlf = case.startswith("crlf-")
    case = case.removeprefix("crlf-")
    if case in ("fdr-bh-from-p", "fdr-storey-from-p"):
        method = case.split("-")[1]
        return [["fdr", "--method", method, "--output", str(out / f"{method}.tsv"), "--json",
                 "--input", str(_pvalue_table(work))]]
    if case == "bf-estimate-sigma":
        return [["bf", "--estimate-sigma", "--json", "--input", str(_raw_variants(work)), "--output",
                 str(out / "bf.tsv")]]
    table, se = _summary_table(work)
    if crlf:
        table = _messy(table, work / "summary_messy.tsv", bom=True)
    bf = ["bf", "--input", str(table), "--output", str(out / "bf.tsv")]
    if case in ("bf", "bf-json"):
        return [bf + ["--json"] * (case == "bf-json")]
    method = case.split("-")[1]
    fdr = ["fdr", "--method", method, "--output", str(out / f"{method}.tsv"), "--json", "--input"]
    if case == "fdr-bh-from-z":
        return [fdr + [str(table)]]
    if method != "qbf":
        if not crlf:
            return [bf, fdr + [str(out / "bf.tsv")]]
        return [bf, lambda: _messy(out / "bf.tsv", work / "bf_messy.tsv"), fdr + [str(work / "bf_messy.tsv")]]

    def with_null_q() -> None:
        lines = (out / "bf.tsv").read_text().splitlines()
        body = [line for line in lines if not line.startswith("#")]
        quantiles = bf_null_quantiles(se, 0.5, DEFAULT_OMEGA_GRID)
        rows = [f"{row}\t{q!r}" for row, q in zip(body[1:], quantiles.tolist())]
        (work / "bf_null_q.tsv").write_text("\n".join([body[0] + "\tnull_q", *rows]) + "\n")
        if crlf:
            _messy(work / "bf_null_q.tsv", work / "bf_null_q.tsv")

    return [bf, with_null_q, fdr + [str(work / "bf_null_q.tsv")]]


def _digest(out_dir: Path, stdout: str, stderr: str) -> str:
    """sha256 over each output file (by relative path, in sorted order) and the stdout lines without seconds."""
    assert all(line.startswith("[timing] ") for line in stderr.splitlines()), stderr
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(f"{path.relative_to(out_dir).as_posix()}\0".encode())
        h.update(path.read_bytes())
    kept = [line for line in stdout.replace(str(out_dir), "<out>").splitlines() if " method-runs in " not in line]
    h.update("\n".join(kept).encode())
    return h.hexdigest()


def run_case(case: str, threads: int | None, tmp: Path) -> str:
    """Run one case in a fresh directory under ``tmp`` and return its digest (``threads`` None: no flag)."""
    work = tmp / f"{case}-t{threads}"
    out = work / "out"
    out.mkdir(parents=True)
    if case == "fdr-qbf-raw":
        argv = ["fdr", "--method", "qbf", "--perms", "19", "--sigma", "1.0", "--seed", "5", "--json"]
        steps = [argv + ["--input", str(_raw_genes(work)), "--output", str(out / "qbf.tsv")]]
    elif case in SIM_CASES:
        steps = [SIM_CASES[case] + ["--out", str(out)]]
    else:
        steps = _table_steps(case, work, out)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        for step in steps:
            if callable(step):
                step()
            else:
                assert main(step + ([] if threads is None else ["--threads", str(threads)])) == 0
    return _digest(out, stdout.getvalue(), stderr.getvalue())


THREADED_CASES = [*SIM_CASES, "fdr-qbf-raw"]
CASES = [*THREADED_CASES, *TABLE_CASES, *CRLF_CASES]


def _runs(case: str) -> tuple:
    """The settings a case runs at: read block sizes for a CRLF case, else ``--threads`` values."""
    if case in CRLF_CASES:
        return CRLF_BLOCKS
    return THREADS if case in THREADED_CASES else (None,)


def _run(case: str, setting: int | None, tmp: Path) -> str:
    """:func:`run_case` at one of :func:`_runs`'s settings."""
    if case not in CRLF_CASES:
        return run_case(case, setting, tmp)
    with pytest.MonkeyPatch.context() as patch:
        if setting is not None:
            patch.setattr(cli, "_BLOCK_BYTES", setting)
        return run_case(case, None, tmp / f"block{setting}")


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize(
    "case, setting",
    [pytest.param(case, s, id=case if s is None else f"{case}-{s}") for case in CASES for s in _runs(case)],
)
def test_outputs_match_the_recorded_digest(case, setting, recorded, tmp_path):
    got = _run(case, setting, tmp_path)
    if got != recorded["digests"][case]:
        pytest.fail(
            f"{case} at {setting}: the output bytes changed (digest {got}). The digests were "
            f"recorded with {recorded['machine']}; this run has {machine()}. If the change is intended, "
            "re-record them with `PYTHONPATH=src python tests/test_golden.py` and say so in CHANGES.md."
        )


def test_digest_file_covers_every_case(recorded):
    assert sorted(recorded["digests"]) == sorted(CASES)


if __name__ == "__main__":
    import tempfile

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            got = {_run(case, setting, Path(tmp)) for setting in _runs(case)}
            assert len(got) == 1, f"{case}: the digest depends on --threads or the read block size"
            digests[case] = got.pop()
    DIGESTS.write_text(json.dumps({"machine": machine(), "digests": digests}, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
