"""Recorded output digests of the study-II commands.

Each case runs one ``bfdr`` command in process and hashes every file it
writes, with its stdout. Only what holds seconds is left out: the
``method-runs in …s`` line of ``sim``'s stdout and the ``[timing]`` lines
of stderr. A change that alters any output byte fails here, whatever
``--threads`` it runs at.

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

from bfdr.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")

_SIM = ["sim", "--scenario", "2", "--pi0", "0.5", "--seed", "11", "--json"]
# Case name -> the command's argv but for --out; each runs at every --threads below.
SIM_CASES = {
    f"sim-m{m}-perms{q}-perm-p{p}": _SIM + ["--m", str(m), "--perms", str(q), "--perm-p", str(p)]
    for m in (9, 131)
    for q, p in ((19, 39), (39, 19))
}
THREADS = (1, 2)


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


def run_case(case: str, threads: int, tmp: Path) -> str:
    """Run one case in a fresh directory under ``tmp`` and return its digest."""
    work = tmp / f"{case}-t{threads}"
    out = work / "out"
    out.mkdir(parents=True)
    if case == "fdr-qbf-raw":
        argv = ["fdr", "--method", "qbf", "--perms", "19", "--sigma", "1.0", "--seed", "5", "--json"]
        argv += ["--input", str(_raw_genes(work)), "--output", str(out / "qbf.tsv")]
    else:
        argv = SIM_CASES[case] + ["--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        assert main(argv + ["--threads", str(threads)]) == 0
    return _digest(out, stdout.getvalue(), stderr.getvalue())


CASES = [*SIM_CASES, "fdr-qbf-raw"]


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("case", CASES)
def test_outputs_match_the_recorded_digest(case, threads, recorded, tmp_path):
    got = run_case(case, threads, tmp_path)
    if got != recorded["digests"][case]:
        pytest.fail(
            f"{case} at --threads {threads}: the output bytes changed (digest {got}). The digests were "
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
            got = {run_case(case, threads, Path(tmp)) for threads in THREADS}
            assert len(got) == 1, f"{case}: the digest depends on --threads"
            digests[case] = got.pop()
    DIGESTS.write_text(json.dumps({"machine": machine(), "digests": digests}, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
