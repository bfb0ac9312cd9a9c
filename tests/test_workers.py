"""Forked workers: the same bytes at every worker count, the first failure
named alike, results handed on as they are done, no child process left
behind on any exit path, and no output line written twice."""
from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bfdr import cli, studies
from bfdr.cli import main
from bfdr.model import GeneData
from bfdr.simulation import SimIIConfig, calibrate_ld, simulate_II
from bfdr.studies import imap_parallel, map_parallel, run_study_ii, simulate_study_ii

_SRC = str(Path(studies.__file__).resolve().parents[1])


@pytest.fixture
def cores(monkeypatch):
    """Four usable cores, so that the worker count is what a test asks for (up to 3) on any machine."""
    monkeypatch.setattr(studies.os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter with stdout and stderr on pipes, buffered as Python buffers pipes."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)


def _square_plus(value, xs, prepared):
    for x, p in zip(xs, prepared):
        yield value + p, len(xs)


def _square(x):
    return x * x


def _ten():
    return 10


def _failing_setup():
    raise ValueError("setup failed")


def _interrupt():
    raise KeyboardInterrupt


def _raise_in_run(value, xs, prepared):
    for x in xs:
        if x in (5, 9):
            raise ValueError(f"run {x}")
        yield x


def _raise_in_prepare(x):
    if x in (7, 11):
        raise ValueError(f"prepare {x}")
    return x


class TestStagedMap:
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_blocks_of_prepared_items_in_order(self, cores, threads):
        out = map_parallel(_square_plus, list(range(23)), threads, prepare=_square, setup=_ten, block=4)
        assert [value for value, _ in out] == [10 + x * x for x in range(23)]
        assert max(size for _, size in out) <= 4

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize(
        "prepare, message",
        [(None, "run 5"), (_raise_in_prepare, "run 5")],
        ids=["run", "run-before-prepare"],
    )
    def test_first_failing_item_raises(self, cores, threads, prepare, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            map_parallel(_raise_in_run, list(range(20)), threads, prepare=prepare, setup=_ten, block=3)
        _assert_no_child_left()

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_a_preparing_failure_is_its_items_failure(self, cores, threads):
        items = [x for x in range(20) if x not in (5, 9)]
        with pytest.raises(ValueError, match="^prepare 7$"):
            map_parallel(_raise_in_run, items, threads, prepare=_raise_in_prepare, setup=_ten, block=3)
        _assert_no_child_left()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_failing_setup_raises_and_leaves_no_worker(self, cores, threads):
        with pytest.raises(ValueError, match="^setup failed$"):
            map_parallel(_square_plus, list(range(12)), threads, prepare=_square, setup=_failing_setup, block=4)
        _assert_no_child_left()

    def test_an_interrupt_leaves_no_worker(self, cores):
        """Ctrl-C while this process computes the value: the waiting workers are killed and reaped."""
        with pytest.raises(KeyboardInterrupt):
            map_parallel(_square_plus, list(range(12)), 2, prepare=_square, setup=_interrupt, block=4)
        _assert_no_child_left()


def _after_the_first(flag: Path, x: int) -> str:
    """Item 0 comes back at once; item 1 waits (up to a minute) for the consumer to see item 0."""
    if x == 0:
        return "first"
    deadline = time.monotonic() + 60
    while not flag.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    return "after the first" if flag.exists() else "never saw the first"


class TestResultsAsTheyAreDone:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_result_is_handed_on_before_later_items_are_done(self, cores, tmp_path, threads):
        flag = tmp_path / "first-seen"
        results = []
        for result in imap_parallel(lambda x: _after_the_first(flag, x), [0, 1], threads):
            results.append(result)
            flag.touch()
        assert results == ["first", "after the first"]
        _assert_no_child_left()

    @pytest.mark.parametrize("taken", [0, 1, 5, 6])
    def test_a_consumer_that_stops_early_leaves_no_worker(self, cores, taken):
        """Closed before the first result, after some, or after every result but before the end."""
        results = imap_parallel(_square, list(range(6)), 3)
        assert [next(results) for _ in range(taken)] == [x * x for x in range(taken)]
        results.close()
        _assert_no_child_left()


_KILLED_WORKER = """
import os, signal
from bfdr import studies
studies.os.sched_getaffinity = lambda pid: {{0, 1}}

def die_at_3(x):
    if x == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return x

def run(value, xs, prepared):
    return map(die_at_3, xs)

try:
    studies.map_parallel({call})
except ChildProcessError as exc:
    print(exc)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""


@pytest.mark.parametrize(
    "call",
    ["die_at_3, list(range(8)), 2", "run, list(range(8)), 2, prepare=abs, setup=int, block=2"],
    ids=["plain", "staged"],
)
def test_a_killed_worker_is_named_and_reaped(call):
    proc = _run_fresh(_KILLED_WORKER.format(call=call))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("worker process ")
    assert lines[0].endswith(" was killed by signal 9 before item 3 of 8 was done")
    assert lines[1] == "no child left"


def test_more_workers_than_cores_share_the_queue():
    """Six workers on the machine's cores take 1,024 queue entries of five items each: an entry
    lost or taken twice would lose or repeat a result. Time-bounded in a fresh interpreter."""
    code = (
        "from bfdr import studies\n"
        "studies.os.sched_getaffinity = lambda pid: set(range(8))\n"
        "def square(x):\n"
        "    return x * x\n"
        "def tagged(value, xs, prepared):\n"
        "    return ((value, p) for p in prepared)\n"
        "items = list(range(5117))\n"
        "assert studies.map_parallel(square, items, 6) == [x * x for x in items]\n"
        "out = studies.map_parallel(tagged, items, 6, prepare=square, setup=lambda: 'v', block=7)\n"
        "assert out == [('v', x * x) for x in items]\n"
        "print('ok')\n"
    )
    proc = _run_fresh(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def _ended(pid: int) -> bool:
    """Whether process ``pid`` has exited (a zombie that nobody has reaped yet counts as exited)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc to see the orphaned workers")
def test_the_workers_of_a_killed_parent_exit(tmp_path):
    """The parent is killed while the workers wait for its value: the value pipes close, and each worker
    exits on its own instead of waiting forever as an orphan."""
    code = (
        "import os, signal, sys, time\n"
        "from bfdr import studies\n"
        "studies.os.sched_getaffinity = lambda pid: {0, 1}\n"
        "def note(x):\n"
        f"    open(os.path.join({str(tmp_path)!r}, str(os.getpid())), 'w').close()\n"
        "    return x\n"
        "def die():\n"
        "    time.sleep(0.5)\n"
        "    os.kill(os.getpid(), signal.SIGKILL)\n"
        "studies.map_parallel(lambda v, xs, p: iter(p), list(range(8)), 2, prepare=note, setup=die, block=8)\n"
    )
    assert _run_fresh(code).returncode == -9
    pids = [int(name) for name in os.listdir(tmp_path)]
    assert len(pids) == 2
    deadline = time.monotonic() + 30
    while not all(map(_ended, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert all(map(_ended, pids))


def test_no_buffered_line_is_written_twice():
    """A line buffered before the fork is written once, also when the children write and flush.

    Each child writes whole lines in one call, so that lines from two
    children cannot interleave within a line.
    """
    code = (
        "import sys\n"
        "from bfdr import studies\n"
        "studies.os.sched_getaffinity = lambda pid: {0, 1}\n"
        "def say(x):\n"
        "    for stream in (sys.stdout, sys.stderr):\n"
        "        stream.write(f'item {x}' + (' on stderr' if stream is sys.stderr else '') + '\\n')\n"
        "        stream.flush()\n"
        "    return x\n"
        "print('before the workers')\n"
        "print('before the workers, on stderr', file=sys.stderr, end='')\n"
        "assert studies.map_parallel(say, list(range(6)), 2) == list(range(6))\n"
        "print('after the workers')\n"
    )
    proc = _run_fresh(code)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.splitlines()
    assert sorted(out) == sorted(["before the workers", "after the workers", *(f"item {x}" for x in range(6))])
    assert out[0] == "before the workers" and out[-1] == "after the workers"
    assert proc.stderr.count("before the workers, on stderr") == 1
    assert sorted(proc.stderr.replace("before the workers, on stderr", "").splitlines()) == sorted(
        f"item {x} on stderr" for x in range(6)
    )


class TestSimulatedStudyII:
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_matches_the_two_step_path(self, cores, threads):
        config = SimIIConfig(m=11, n=30, k_range=(3, 9), pi0=0.5, seed=41)
        kwargs = dict(alpha=0.1, gamma=0.5, n_perms=19, perm_seed=8, perm_p=29)
        study, alternative = simulate_study_ii(config, threads=threads, **kwargs)
        genes, truth = simulate_II(config)
        expected = run_study_ii(genes, truth, sigma=config.sigma, threads=1, **kwargs)
        assert alternative.tolist() == truth.tolist()
        assert study.batch.ids == expected.batch.ids
        for name in ("log_bf", "bf"):
            assert getattr(study.batch, name).tobytes() == getattr(expected.batch, name).tobytes()
        assert study.quantiles.tobytes() == expected.quantiles.tobytes()
        assert study.pvalues.tobytes() == expected.pvalues.tobytes()
        assert list(study.results) == list(expected.results)
        for method, result in study.results.items():
            assert result.pi0_hat == expected.results[method].pi0_hat
            assert result.rejected.tolist() == expected.results[method].rejected.tolist()
        assert list(study.gene_seconds) == [
            "simulation.simulate_II",
            "permutation.draw_permutations",
            "permutation.observed_scan",
            "permutation.permute_null_quantile",
            "permutation.permutation_pvalue",
        ]

    def test_the_generator_serves_any_subset(self):
        config = SimIIConfig(m=9, n=25, k_range=(2, 7), pi0=0.4, seed=5)
        genes, alternative = simulate_II(config)
        subset = [7, 2, 5]
        some, some_alternative = simulate_II(config, subset, calibrate_ld(config))
        assert some_alternative.tolist() == alternative[subset].tolist()
        for gene, i in zip(some, subset):
            assert gene.id == genes[i].id
            assert gene.y.tobytes() == genes[i].y.tobytes() and gene.G.tobytes() == genes[i].G.tobytes()


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestCommands:
    @pytest.mark.parametrize("seed", ["3", "4"])
    def test_sim_scenario_2_bytes_at_every_worker_count(self, tmp_path, capsys, cores, seed):
        argv = ["sim", "--scenario", "2", "--m", "9", "--n", "30", "--k-range", "3,8", "--pi0", "0.9,0.4",
                "--reps", "2", "--perms", "19", "--perm-p", "39", "--json", "--seed", seed]
        trees = []
        for threads in ("1", "2", "3"):
            out = tmp_path / threads
            assert main([*argv, "--out", str(out), "--threads", threads]) == 0
            trees.append(_tree(out))
        assert len(trees[0]) == 11
        assert trees[0] == trees[1] == trees[2]

    @pytest.mark.parametrize("extra", [["--json"], ["--no-datasets"]], ids=["json", "no-datasets"])
    @pytest.mark.parametrize("seed", ["3", "8"])
    def test_sim_scenario_1_bytes_at_every_worker_count(self, tmp_path, capsys, cores, seed, extra):
        """Two datasets of three test ranges each (the last one short), at 1, 2 and 3 workers and the default."""
        argv = ["sim", "--scenario", "1", "--m", str(2 * cli._SIM_I_RANGE + 37), "--n", "20", "--pi0", "0.9,0.4",
                "--reps", "2", "--seed", seed, *extra]
        trees = []
        for threads in (["--threads", "1"], ["--threads", "2"], ["--threads", "3"], []):
            out = tmp_path / "-".join(threads or ["default"])
            assert main([*argv, "--out", str(out), *threads]) == 0
            trees.append(_tree(out))
        assert len(trees[0]) == (11 if extra == ["--json"] else 2)
        assert trees[0] == trees[1] == trees[2] == trees[3]
        _assert_no_child_left()

    @pytest.mark.parametrize(
        "module, name", [(studies, "analyze_study_i"), (cli, "write_tsv")], ids=["analysis", "write"]
    )
    def test_an_interrupt_in_this_process_leaves_no_worker(self, tmp_path, cores, monkeypatch, module, name):
        """Ctrl-C while this process analyzes or writes the first dataset and the workers simulate later ones:
        they are killed and reaped before the interrupt leaves the command."""
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(module, name, interrupt)
        argv = ["sim", "--scenario", "1", "--m", "5000", "--n", "20", "--pi0", "0.9,0.4", "--reps", "2",
                "--threads", "2", "--out", str(tmp_path / "sim")]
        with pytest.raises(KeyboardInterrupt) as interrupted:
            main(argv)
        _assert_no_child_left()  # while the traceback still holds the command's frames
        assert interrupted.traceback

    def test_raw_data_qbf_bytes_at_every_worker_count(self, tmp_path, cores):
        rng = np.random.default_rng(12)
        lines = ["id\ty_file\tg_file"]
        for i in range(7):
            np.savetxt(tmp_path / f"y{i}.txt", rng.normal(size=40))
            np.savetxt(tmp_path / f"G{i}.txt", rng.binomial(2, 0.3, size=(40, 1 + i % 4)).astype(float))
            lines.append(f"g{i}\ty{i}.txt\tG{i}.txt")
        (tmp_path / "genes.tsv").write_text("\n".join(lines) + "\n")
        reports = []
        for threads in ("1", "2", "3"):
            out = tmp_path / f"qbf{threads}.tsv"
            argv = ["fdr", "--method", "qbf", "--input", str(tmp_path / "genes.tsv"), "--output", str(out),
                    "--perms", "29", "--sigma", "1", "--seed", "6", "--json", "--threads", threads]
            assert main(argv) == 0
            reports.append((out.read_bytes(), out.with_suffix(".tsv.json").read_bytes()))
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_the_first_failing_gene_is_named_alike(self, tmp_path, capsys, cores, threads):
        """At n = 3 and allele frequency 1e-6 every gene's variants are constant; the first gene is named."""
        argv = ["sim", "--scenario", "2", "--m", "8", "--n", "3", "--k-range", "1,1", "--maf-range", "1e-6,1e-6",
                "--ld-decay", "0", "--pi0", "1", "--perms", "19", "--out", str(tmp_path / "sim"), "--threads", threads]
        assert main(argv) == 3
        assert capsys.readouterr().err == "numerical error: gene 'gene00000': all variant columns are constant\n"
        _assert_no_child_left()

    @pytest.mark.parametrize("threads", ["1", "2", "3"])
    def test_a_later_failing_gene_is_named_alike(self, tmp_path, capsys, cores, threads, monkeypatch):
        """Only gene 4 of 12 has a scale the Bayes factor cannot take; the genes before it are scanned first."""
        scan_gene = studies.scan_gene

        def scan(gene: GeneData, sigma, *args):
            return scan_gene(gene, 1e-170 if gene.id == "gene00004" else sigma, *args)

        monkeypatch.setattr(studies, "scan_gene", scan)
        argv = ["sim", "--scenario", "2", "--m", "12", "--n", "25", "--k-range", "3,5", "--perms", "9",
                "--out", str(tmp_path / "sim"), "--threads", threads]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: gene 'gene00004': standard error ") and err.count("\n") == 1
        _assert_no_child_left()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_a_failing_calibration_leaves_no_worker(self, tmp_path, capsys, cores, threads):
        """The workers wait for the calibrated coefficient when the calibration fails."""
        out = tmp_path / "sim"
        argv = ["sim", "--scenario", "2", "--m", "6", "--n", "30", "--k-range", "3,5", "--perms", "9",
                "--ld-decay", "0.95", "--out", str(out), "--threads", threads]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ld_decay=0.95 is not achievable") and err.count("\n") == 1
        assert not (out / "results.tsv").exists()
        _assert_no_child_left()

    def test_a_killed_worker_exits_1_naming_it(self, tmp_path):
        code = (
            "import os, signal, sys\n"
            "from bfdr import studies\n"
            "studies.os.sched_getaffinity = lambda pid: {0, 1}\n"
            "scan_gene = studies.scan_gene\n"
            "def scan(gene, *args):\n"
            "    if gene.id == 'gene00003':\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return scan_gene(gene, *args)\n"
            "studies.scan_gene = scan\n"
            "from bfdr.cli import main\n"
            f"code = main(['sim', '--scenario', '2', '--m', '6', '--n', '30', '--k-range', '3,5', '--perms', '9',"
            f" '--threads', '2', '--out', {str(tmp_path / 'sim')!r}])\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    sys.exit(code)\n"
            "sys.exit(100)\n"
        )
        proc = _run_fresh(code)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: worker process ")
        assert proc.stderr.endswith(" was killed by signal 9 before item 3 of 6 was done\n")
        assert proc.stderr.count("\n") == 1

    def test_a_command_writes_each_line_once(self, tmp_path):
        code = (
            "import sys\n"
            "from bfdr import studies\n"
            "studies.os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from bfdr.cli import main\n"
            f"sys.exit(main(['sim', '--scenario', '2', '--m', '6', '--n', '30', '--k-range', '3,5', '--perms', '9',"
            f" '--pi0', '0.9,0.5', '--reps', '2', '--threads', '2', '--out', {str(tmp_path / 'sim')!r}]))\n"
        )
        proc = _run_fresh(code)
        assert proc.returncode == 0, proc.stderr
        for stream in (proc.stdout, proc.stderr):
            lines = stream.splitlines()
            assert lines and len(set(lines)) == len(lines)
        assert len(proc.stderr.splitlines()) == 4 * 6
