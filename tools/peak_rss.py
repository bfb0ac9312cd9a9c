"""Wall time, CPU time, peak RSS and minor page faults of one ``bfdr`` command, from ``wait4``.

Run from anywhere, with the ``bfdr`` arguments after ``--``:

    python3 tools/peak_rss.py --runs 5 -- sim --scenario 2 --m 100 --pi0 0.9 --perms 100 --perm-p 500 --threads 2 --out /tmp/sim

Each run starts ``python -c "from bfdr.cli import main; ..."`` with the
package from ``--src`` (by default this checkout's ``src``) first on
``PYTHONPATH`` and waits for it with ``os.wait4``. The command's output
goes to ``/dev/null``; a run that exits non-zero prints its stderr and
stops the tool with exit status 1. One JSON line is printed: the median
over the runs of the wall time (``wall_s``), of the CPU time
``ru_utime + ru_stime`` (``cpu_s``), of ``ru_maxrss`` in MB of 1024 KiB
(``peak_rss_mb``) and of ``ru_minflt`` (``minflt``), and this helper's
own peak RSS (``helper_rss_mb``, ``VmHWM``; null where ``/proc`` is
missing). ``cpu_s`` sums the command and every worker process it
reaped, so ``cpu_s / wall_s`` tells how many cores a run kept busy.

``ru_maxrss`` is the largest RSS of any single one of those processes,
not the sum over processes that ran at once: a command whose workers
each held 100 MB beside its own 100 MB reads 100 MB. The kernel also
counts the memory the started process had before its ``exec``, which is
this helper's. The helper is standard library only and never imports
numpy, so that floor (``helper_rss_mb``) lies well below what a ``bfdr``
command uses; a harness that has numpy loaded when it starts a command
cannot read below its own size. The helper's ``ru_maxrss`` is not that floor: it also
holds what the process that started the helper had before its ``exec``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CLI = "import sys; from bfdr.cli import main; sys.exit(main())"


def run_once(argv: list[str], env: dict[str, str]) -> tuple[float, float, float, int]:
    """One run of ``bfdr argv``: wall seconds, CPU seconds, ``ru_maxrss`` in MB and ``ru_minflt``."""
    with tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CLI, *argv], env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            raise RuntimeError(f"bfdr {' '.join(argv)} exited {proc.returncode}:\n{err.read().decode(errors='replace')}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, usage.ru_minflt


def own_peak_rss_mb() -> float | None:
    """This process's peak RSS since its ``exec`` (``VmHWM``), in MB of 1024 KiB; None where ``/proc`` is missing."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs to take the medians over (default 5)")
    parser.add_argument(
        "--src", type=Path, default=Path(__file__).resolve().parent.parent / "src", help="directory holding bfdr"
    )
    parser.add_argument("bfdr_args", nargs=argparse.REMAINDER, help="the bfdr command, after --")
    args = parser.parse_args(argv)
    command = args.bfdr_args[1:] if args.bfdr_args[:1] == ["--"] else args.bfdr_args
    if args.runs < 1 or not command:
        parser.error("need --runs >= 1 and a bfdr command after --")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(args.src.resolve()), env.get("PYTHONPATH")]))
    try:
        runs = [run_once(command, env) for _ in range(args.runs)]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    walls, cpus, peaks, faults = zip(*runs)
    record = {
        "argv": command,
        "runs": args.runs,
        "wall_s": round(statistics.median(walls), 4),
        "cpu_s": round(statistics.median(cpus), 4),
        "peak_rss_mb": round(statistics.median(peaks), 3),
        "minflt": statistics.median(faults),
        "helper_rss_mb": own_peak_rss_mb(),
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
