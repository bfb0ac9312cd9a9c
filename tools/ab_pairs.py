"""Alternating A/B pairs of the benchmark: a parent checkout against this one.

Run from the repository root, with a checkout of the parent commit beside
it (for example ``git worktree add ../parent HEAD``):

    python3 tools/ab_pairs.py --parent ../parent --workload genes-perm --seeds 301-310 --seconds 16

For each seed, ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` runs once in each checkout, one after the other; the side
that runs first alternates from pair to pair, so that neither side always
meets the machine in the same state. Each run's
``.perfbench/<W>-seed<S>-trace0/result.json`` is read back, and the
end-to-end metrics that ``BENCHMARK.json`` declares are printed per pair,
then their medians, the parent's interquartile range, the median of the
per-pair ratios (change / parent) and the number of pairs the change wins
(by each metric's ``better`` direction). The median ratio is the figure to
quote when the machine drifts between pairs: each ratio compares two runs
made one after the other, while a ratio of medians compares runs made up
to many minutes apart. A run that
fails or reports failed commands is printed and stops the tool with exit
status 1. Nothing under ``perfbench/`` is written except the run records
that ``run.py`` itself writes. Standard library only.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _seeds(text: str) -> list[int]:
    """Seeds from ``a-b`` (inclusive) and comma-separated parts, e.g. ``301-305,400``."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``; its metrics by name, and its failed-command count."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    record = checkout / ".perfbench" / f"{workload}-seed{seed}-trace0" / "result.json"
    if proc.returncode != 0 or not record.is_file():
        raise RuntimeError(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(record.read_text())["result"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return {"metrics": metrics, "failed": result["failed"]}


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--change", default=Path("."), type=Path, help="checkout of the change (default: .)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=_seeds, help="e.g. 301-310 or 301,305")
    parser.add_argument("--seconds", type=float, default=16.0)
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    print(f"# {args.workload}, {args.seconds:g} s per run; ratio is change / parent")
    for k, seed in enumerate(args.seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            try:
                pair[side] = run_side(sides[side], args.workload, seed, args.seconds)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        for side in order:
            runs[side].append(pair[side])
        cells = [
            f"{name} {pair['parent']['metrics'][name]:.4g} -> {pair['change']['metrics'][name]:.4g} "
            f"({pair['change']['metrics'][name] / pair['parent']['metrics'][name]:.3f})"
            for name in better
            if pair["parent"]["metrics"][name]
        ]
        failed = pair["parent"]["failed"] + pair["change"]["failed"]
        print(f"seed {seed} ({order[0]} first): " + "; ".join(cells) + (f"; FAILED {failed}" if failed else ""))
        if failed:
            return 1

    print("# medians over pairs; parent IQR; median per-pair ratio; pairs the change wins")
    for name, direction in better.items():
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        sign = 1.0 if direction == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        ratios = [c / p for p, c in zip(parent, change) if p]
        ratio = f"{statistics.median(ratios):.3f}" if ratios else "n/a"
        print(
            f"{name}: {statistics.median(parent):.4g} -> {statistics.median(change):.4g} "
            f"(parent IQR {_iqr(parent):.4g}); median ratio {ratio}; change better in {wins}/{len(parent)}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
