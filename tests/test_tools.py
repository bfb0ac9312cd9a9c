"""Smoke tests of the stand-alone measuring tools under ``tools/``."""
from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import bfdr

_REPO = Path(__file__).resolve().parents[1]
_SRC = str(Path(bfdr.__file__).resolve().parents[1])
_PEAK_RSS = str(_REPO / "tools" / "peak_rss.py")


def _peak_rss(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, _PEAK_RSS, "--src", _SRC, *args], capture_output=True, text=True, timeout=120
    )


class TestPeakRss:
    def test_prints_the_medians_as_one_json_line(self):
        proc = _peak_rss("--runs", "3", "--", "--version")
        assert proc.returncode == 0, proc.stderr
        (line,) = proc.stdout.splitlines()
        record = json.loads(line)
        assert record["argv"] == ["--version"] and record["runs"] == 3
        assert record["wall_s"] > 0.0 and record["cpu_s"] > 0.0 and record["minflt"] > 0
        # The command loads numpy; the helper, whose memory the kernel counts before the exec, does not.
        assert record["helper_rss_mb"] is None or record["peak_rss_mb"] > record["helper_rss_mb"] > 0.0

    def test_cpu_time_is_the_user_and_system_time_wait4_reports(self, monkeypatch, capsys):
        """``wait4`` sums the command and every process it reaped, helpers included; ``cpu_s`` is its user plus
        system time (here a stand-in for the real one's, 1.25 + 0.5 s)."""
        peak_rss = _tool("peak_rss")
        wait4 = os.wait4

        def reported(pid, options):
            pid, status, usage = wait4(pid, options)
            return pid, status, SimpleNamespace(ru_utime=1.25, ru_stime=0.5, ru_maxrss=usage.ru_maxrss,
                                                ru_minflt=usage.ru_minflt)

        monkeypatch.setattr(peak_rss.os, "wait4", reported)
        assert peak_rss.main(["--runs", "1", "--src", _SRC, "--", "--version"]) == 0
        assert json.loads(capsys.readouterr().out)["cpu_s"] == 1.75

    def test_a_failing_command_stops_the_tool_with_its_stderr(self):
        proc = _peak_rss("--runs", "2", "--", "fdr", "--method", "bh", "--alpha", "0.0_5")
        assert proc.returncode == 1 and proc.stdout == ""
        assert "exited 2" in proc.stderr and "argument --alpha: invalid float value: '0.0_5'" in proc.stderr

    def test_the_helper_never_imports_numpy(self):
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); import peak_rss; "
            "assert peak_rss.main(['--runs', '1', '--src', sys.argv[2], '--', '--version']) == 0; "
            "print('numpy' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(_REPO / "tools"), _SRC], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"


def _tool(name: str):
    """The module ``tools/<name>.py``, loaded without running its command line."""
    spec = importlib.util.spec_from_file_location(f"tools_{name}", _REPO / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SIZED_SOURCE = '''"""Module docstring,
on two lines."""
import os  # a comment on a code line

# a comment line


def f(x):
    """Function docstring."""
    y = x
    """Not a docstring:
    a string expression."""
    return y


class C:
    """Class
    docstring."""

    z = 1
'''


class TestSrcSize:
    def test_counts_wc_lines_and_code_lines(self, tmp_path):
        """Code lines: the import, the def and class lines, the assignment, both lines of the string expression
        after it, the return and the class attribute; not the docstrings, comments or blank lines."""
        path = tmp_path / "sized.py"
        path.write_text(_SIZED_SOURCE)
        assert _tool("src_size").module_size(path) == (20, 8)


class TestAbPairs:
    def test_seed_ranges_and_single_seeds(self):
        assert _tool("ab_pairs")._seeds("301-303,400") == [301, 302, 303, 400]

    def test_interquartile_range(self):
        iqr = _tool("ab_pairs")._iqr
        assert iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == 3.0  # quartiles 1.5 and 4.5, by statistics.quantiles
        assert iqr([7.0]) == 0.0
