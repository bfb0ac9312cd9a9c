"""Import policy: no bfdr module imports scipy at module load.

Importing scipy.stats and scipy.signal took longer than the work of a
typical ``bfdr`` command, so every module imports only numpy and the
standard library. The normal-tail kernels (erfc, ndtr, ndtri) are numpy
ports of scipy's, and the chi-squared median is a constant, so every
command at its default flags loads no scipy at all; only a non-default
``--gamma`` in scenario 1 imports scipy.special, when called. Each check
runs in a fresh interpreter, because the test process itself has scipy
loaded already. The checks are structural, not timed.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from bfdr.bayes_factor import bf_null_quantiles, log_bf_averaged_many

_SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def _scipy_modules_after(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; return the scipy modules it loaded."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\nprint(__import__('json').dumps({_SCIPY_MODULES}))"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


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
    """The chi-squared median is a constant and the copula's ndtri/ndtr are numpy ports."""
    assert _scipy_modules_after(_sim_code(tmp_path / "sim", *_SMALL_SIM[scenario])) == []
    assert (tmp_path / "sim" / "results.tsv").exists()


def test_non_default_gamma_loads_only_scipy_special(tmp_path):
    """``sim --scenario 1 --gamma 0.3`` imports scipy.special for the chi-squared quantile, and
    its QBF census uses the null quantiles of ``scipy.stats.chi2.ppf(0.3, df=1)``."""
    from scipy import stats

    loaded = _scipy_modules_after(_sim_code(tmp_path / "sim", *_SMALL_SIM[1], "--gamma", "0.3"))
    assert "scipy.special" in loaded
    for module in ("scipy.stats", "scipy.signal", "scipy.optimize"):
        assert not any(m == module or m.startswith(module + ".") for m in loaded), module

    records = _tsv_columns(tmp_path / "sim" / "pi0_0.5_rep000" / "records.tsv")
    se, bf = np.array(records["se"], dtype=float), np.array(records["bf"], dtype=float)
    zq = math.sqrt(stats.chi2.ppf(0.3, df=1))
    null_q = np.exp(np.minimum(log_bf_averaged_many(np.full(se.shape, zq), se), 709.0))
    assert np.array_equal(bf_null_quantiles(se, 0.3), null_q)
    results = _tsv_columns(tmp_path / "sim" / "results.tsv")
    (qbf_pi0_hat,) = [float(v) for v, m in zip(results["pi0_hat"], results["method"]) if m == "qbf"]
    assert qbf_pi0_hat == min(1.0, np.count_nonzero(bf <= null_q) / (se.size * 0.3))
