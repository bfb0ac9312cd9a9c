"""Import policy: no bfdr module imports scipy at module load.

Importing scipy.stats and scipy.signal took longer than the work of a
typical ``bfdr`` command, so every module imports only numpy and the
standard library, and the few functions that need scipy.special import it
when called. The normal tail of the p-value paths is a numpy port of
scipy's erfc, so those commands load no scipy at all. Each check runs in a
fresh interpreter, because the test process itself has scipy loaded
already. The checks are structural, not timed.
"""
from __future__ import annotations

import json
import subprocess
import sys

import pytest

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


def test_scenario_2_sim_loads_only_scipy_special(tmp_path):
    code = (
        "from bfdr.cli import main\n"
        "assert main(['sim', '--scenario', '2', '--m', '2', '--n', '20', '--k-range', '3,4',"
        f" '--perms', '5', '--pi0', '0.5', '--seed', '3', '--out', {str(tmp_path / 'sim')!r}]) == 0"
    )
    loaded = _scipy_modules_after(code)
    assert "scipy.special" in loaded
    for module in ("scipy.stats", "scipy.signal", "scipy.optimize"):
        assert not any(m == module or m.startswith(module + ".") for m in loaded), module
