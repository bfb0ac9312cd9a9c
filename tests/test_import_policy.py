"""Import policy: a ``bfdr`` process loads only what its command runs.

numpy is the only runtime dependency. Every module imports only numpy and
the standard library; the normal-tail kernels (erfc, ndtr, ndtri) are
numpy ports of scipy's, and the closed-form null quantiles come from the
ndtri port. So no command loads scipy, at any flag: the smoke test runs
every command with scipy blocked from importing.

In the same way ``bf`` and ``fdr`` on a table load no simulation,
permutation, seeding or process-pool module, and no command loads
``concurrent.futures`` or ``multiprocessing``: workers are forked by
``studies.imap_parallel`` itself, and the worker module loads only when a
command forks. ``bfdr.cli`` sets one OpenBLAS thread
before numpy loads, unless the caller set a count.

Each check runs in a fresh interpreter, because the test process itself
has scipy and every bfdr module loaded already. The checks are
structural, not timed.
"""
from __future__ import annotations

import inspect
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from test_studies import _openblas_get_num_threads

from bfdr.bayes_factor import log_bf_averaged_many


def _run_fresh(code: str, env: dict[str, str] | None = None):
    """Run ``code`` in a fresh interpreter; return the JSON value its last output line holds."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _modules_after(code: str, packages: list[str]) -> list[str]:
    """The modules of ``packages`` (each a module or a package) that ``code`` loads in a fresh interpreter."""
    listing = f"sorted(m for m in sys.modules if any(m == p or m.startswith(p + '.') for p in {packages!r}))"
    return _run_fresh(f"import sys\n{code}\nprint(__import__('json').dumps({listing}))")


def _scipy_modules_after(code: str) -> list[str]:
    return _modules_after(code, ["scipy"])


@pytest.mark.parametrize("module", ["bfdr", "bfdr.cli"])
def test_import_loads_no_scipy(module):
    assert _scipy_modules_after(f"import {module}") == []


def test_bf_and_ebf_commands_load_no_scipy(tmp_path):
    table = tmp_path / "zse.tsv"
    table.write_text("id\tz\tse\n" + "".join(f"t{i}\t{0.7 * i - 3.0}\t0.2\n" for i in range(10)))
    bf_out = tmp_path / "bf.tsv"
    report = tmp_path / "report.tsv"
    code = (
        "from bfdr.cli import main\n"
        f"assert main(['bf', '--input', {str(table)!r}, '--output', {str(bf_out)!r}]) == 0\n"
        f"assert main(['fdr', '--method', 'ebf', '--input', {str(bf_out)!r}, '--output', {str(report)!r}]) == 0"
    )
    assert _scipy_modules_after(code) == []
    assert report.exists()


@pytest.mark.parametrize("method", ["bh", "storey"])
def test_pvalue_commands_with_p_from_z_load_no_scipy(tmp_path, method):
    table = tmp_path / "zse.tsv"
    table.write_text("id\tz\tse\n" + "".join(f"t{i}\t{1.3 * i - 9.0}\t0.2\n" for i in range(15)))
    report = tmp_path / "report.tsv"
    code = (
        "from bfdr.cli import main\n"
        f"assert main(['fdr', '--method', {method!r}, '--input', {str(table)!r}, '--output', {str(report)!r}]) == 0"
    )
    assert _scipy_modules_after(code) == []
    assert "p\tq\trejected" in report.read_text()


def _tsv_columns(path) -> dict[str, tuple[str, ...]]:
    """The columns of a ``bfdr`` TSV, past its ``#`` comment lines, as text."""
    header, *rows = [line.split("\t") for line in path.read_text().splitlines() if not line.startswith("#")]
    return dict(zip(header, zip(*rows)))


def _sim_code(out_dir, *flags: str) -> str:
    return (
        "from bfdr.cli import main\n"
        f"assert main(['sim', *{list(flags)!r}, '--reps', '1', '--seed', '3', '--out', {str(out_dir)!r}]) == 0"
    )


# Small sizes; every flag that decides which kernels run (--gamma,
# --ld-decay, --maf-range, the omega grid) stays at its default.
_SMALL_SIM = {
    1: ("--scenario", "1", "--m", "200", "--n", "30", "--pi0", "0.5"),
    2: ("--scenario", "2", "--m", "2", "--n", "20", "--k-range", "3,4", "--perms", "5", "--pi0", "0.5"),
}


@pytest.mark.parametrize("scenario", [1, 2])
def test_default_sim_loads_no_scipy(tmp_path, scenario):
    """The null quantiles and the copula's cut points come from the numpy ports of ndtri and ndtr."""
    assert _scipy_modules_after(_sim_code(tmp_path / "sim", *_SMALL_SIM[scenario])) == []
    assert (tmp_path / "sim" / "results.tsv").exists()


# Installed first in a fresh interpreter: any import of scipy, or of a
# scipy submodule, raises ImportError. Forked pool workers inherit it.
_BLOCK_SCIPY = """
import sys


class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, _NoScipy())
"""


def _raw_manifest(path, ks) -> None:
    """A raw-data table with one row per entry of ``ks``: a 30-individual phenotype and ``k`` genotype columns.

    The data files sit next to ``path`` and are named after its stem.
    """
    rng = np.random.default_rng(8)
    lines = ["id\ty_file\tg_file"]
    for i, k in enumerate(ks):
        G = rng.binomial(2, 0.4, size=(30, k)).astype(float)
        y_file, g_file = f"{path.stem}_y{i}.txt", f"{path.stem}_g{i}.txt"
        np.savetxt(path.parent / y_file, 0.8 * G[:, 0] * (i == 0) + rng.normal(size=30))
        np.savetxt(path.parent / g_file, G)
        lines.append(f"r{i}\t{y_file}\t{g_file}")
    path.write_text("\n".join(lines) + "\n")


def test_every_command_runs_with_scipy_blocked(tmp_path):
    """Each command, at flags that reach every kernel, runs in an interpreter that cannot import scipy.

    ``sim --scenario 1 --gamma 0.3`` takes its null quantiles from the
    ndtri port, and its QBF census equals the one against the quantiles
    derived from ``scipy.stats.chi2.ppf(0.3, df=1)``.
    """
    from scipy import stats

    zse, variants, genes = tmp_path / "zse.tsv", tmp_path / "variants.tsv", tmp_path / "genes.tsv"
    zse.write_text("id\tz\tse\n" + "".join(f"t{i}\t{0.7 * i - 3.0}\t0.2\n" for i in range(10)))
    _raw_manifest(variants, [1] * 4)
    _raw_manifest(genes, [3, 4, 3, 5])
    out = tmp_path / "out"
    out.mkdir()
    commands = [
        ["bf", "--input", str(zse), "--output", str(out / "bf.tsv")],
        ["bf", "--input", str(variants), "--output", str(out / "bf_raw.tsv"), "--estimate-sigma"],
        ["fdr", "--method", "ebf", "--input", str(out / "bf.tsv"), "--output", str(out / "ebf.tsv")],
        ["fdr", "--method", "bh", "--input", str(zse), "--output", str(out / "bh.tsv")],
        ["fdr", "--method", "storey", "--input", str(zse), "--output", str(out / "storey.tsv")],
        ["fdr", "--method", "qbf", "--input", str(genes), "--output", str(out / "qbf.tsv"),
         "--sigma", "1", "--perms", "9", "--threads", "2"],
        ["sim", *_SMALL_SIM[1], "--gamma", "0.3", "--reps", "1", "--seed", "3", "--out", str(out / "sim1")],
        ["sim", *_SMALL_SIM[2], "--perm-p", "5", "--threads", "2", "--reps", "1", "--seed", "3",
         "--out", str(out / "sim2")],
    ]
    code = _BLOCK_SCIPY + "from bfdr.cli import main\n" + "".join(f"assert main({c!r}) == 0\n" for c in commands)
    assert _scipy_modules_after(code) == []
    for name in ("ebf", "bh", "storey", "qbf", "sim2/results"):
        assert (out / f"{name}.tsv").exists(), name

    records = _tsv_columns(out / "sim1" / "pi0_0.5_rep000" / "records.tsv")
    se, bf = np.array(records["se"], dtype=float), np.array(records["bf"], dtype=float)
    zq = math.sqrt(stats.chi2.ppf(0.3, df=1))
    null_q = np.exp(np.minimum(log_bf_averaged_many(np.full(se.shape, zq), se), 709.0))
    results = _tsv_columns(out / "sim1" / "results.tsv")
    (qbf_pi0_hat,) = [float(v) for v, m in zip(results["pi0_hat"], results["method"]) if m == "qbf"]
    assert qbf_pi0_hat == min(1.0, np.count_nonzero(bf <= null_q) / (se.size * 0.3))


# What ``bf`` and ``fdr`` on a table never run: the study generators, the
# permutation engine, substream seeding and the process pool.
_NOT_FOR_TABLES = [
    "bfdr.simulation",
    "bfdr.permutation",
    "bfdr.rng",
    "bfdr.studies",
    "concurrent.futures.process",
    "multiprocessing",
]
_POOL = ["concurrent.futures.process", "multiprocessing"]
# What a map in the command's own process never loads: the worker module and any pool.
_NO_WORKERS = [*_POOL, "bfdr._fork"]


@pytest.mark.parametrize(
    "command, table",
    [
        (["bf"], "id\tz\tse\n" + "".join(f"t{i}\t{0.7 * i - 3.0}\t0.2\n" for i in range(10))),
        (["fdr", "--method", "ebf"], "id\tbf\n" + "".join(f"t{i}\t{0.5 * i + 0.1}\n" for i in range(10))),
        (["fdr", "--method", "bh"], "id\tz\n" + "".join(f"t{i}\t{1.3 * i - 9.0}\n" for i in range(10))),
        (["fdr", "--method", "storey"], "id\tp\n" + "".join(f"t{i}\t{0.09 * i + 0.01}\n" for i in range(10))),
        (["fdr", "--method", "qbf"], "id\tbf\tnull_q\n" + "".join(f"t{i}\t{0.5 * i + 0.1}\t1.5\n" for i in range(10))),
    ],
    ids=["bf", "fdr-ebf", "fdr-bh", "fdr-storey", "fdr-qbf-null-q"],
)
def test_table_commands_load_no_simulation_permutation_or_pool(tmp_path, command, table):
    inp, out = tmp_path / "in.tsv", tmp_path / "out.tsv"
    inp.write_text(table)
    code = f"from bfdr.cli import main\nassert main([*{command!r}, '--input', {str(inp)!r}, '--output', {str(out)!r}]) == 0"
    assert _modules_after(code, _NOT_FOR_TABLES) == []
    assert out.exists()


@pytest.mark.parametrize("scenario", [1, 2])
def test_sim_without_workers_loads_no_pool(tmp_path, scenario):
    """At one worker both studies map in this process."""
    assert _modules_after(_sim_code(tmp_path / "sim", *_SMALL_SIM[scenario], "--threads", "1"), _NO_WORKERS) == []
    assert (tmp_path / "sim" / "results.tsv").exists()


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("scenario", [1, 2])
def test_sim_at_the_default_forks_only_on_several_cores(tmp_path, scenario, cores):
    """Without ``--threads`` a command has one worker per usable core, so the worker module loads only
    when more than one core is usable. Scenario 1 runs two datasets, two items of its map."""
    code = (
        "from bfdr import studies\n"
        f"studies.os.sched_getaffinity = lambda pid: set(range({cores}))\n"
        + _sim_code(tmp_path / "sim", *_SMALL_SIM[scenario], "--pi0", "0.5,0.9")
    )
    assert _modules_after(code, _NO_WORKERS) == (["bfdr._fork"] if cores > 1 else [])
    assert (tmp_path / "sim" / "results.tsv").exists()


def test_workers_are_forked_without_a_pool_module(tmp_path):
    """Two workers are forked by ``studies.map_parallel`` itself, for study II and for raw-data QBF alike."""
    _raw_manifest(tmp_path / "genes.tsv", [3, 4, 3, 5])
    code = (
        "from bfdr import studies\n"
        "studies.os.sched_getaffinity = lambda pid: {0, 1}\n"
        + _sim_code(tmp_path / "sim", *_SMALL_SIM[2], "--threads", "2")
        + "\nassert main(['fdr', '--method', 'qbf', '--input', "
        f"{str(tmp_path / 'genes.tsv')!r}, '--output', {str(tmp_path / 'qbf.tsv')!r}, "
        "'--sigma', '1', '--perms', '9', '--threads', '2']) == 0"
    )
    assert _modules_after(code, ["concurrent", "multiprocessing", "bfdr._fork"]) == ["bfdr._fork"]
    assert (tmp_path / "sim" / "results.tsv").exists() and (tmp_path / "qbf.tsv").exists()


_needs_blas_thread_symbols = pytest.mark.skipif(
    _openblas_get_num_threads() is None, reason="numpy's BLAS exposes no thread-count symbol"
)


def _blas_threads_after(module: str, caller_value: str | None) -> int:
    """The OpenBLAS thread count after ``import module`` in a fresh interpreter.

    The environment is rebuilt without ``OPENBLAS_NUM_THREADS`` (this
    process may hold the one ``bfdr.cli`` set on import), then given
    ``caller_value`` when that is not None.
    """
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if caller_value is not None:
        env["OPENBLAS_NUM_THREADS"] = caller_value
    code = f"import {module}\n{inspect.getsource(_openblas_get_num_threads)}\nprint(_openblas_get_num_threads()())"
    return _run_fresh(code, env)


@_needs_blas_thread_symbols
def test_cli_starts_one_blas_thread():
    assert _blas_threads_after("bfdr.cli", None) == 1


@_needs_blas_thread_symbols
@pytest.mark.parametrize("caller_value", ["1", "2"])
def test_caller_set_blas_threads_win(caller_value):
    """OpenBLAS caps the count at the cores, so the expectation is what numpy alone reports."""
    assert _blas_threads_after("bfdr.cli", caller_value) == _blas_threads_after("numpy", caller_value)
