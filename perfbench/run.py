"""The bfdr benchmark: end-to-end runs of the CLI, and a traced run per layer.

    python3 perfbench/run.py --workload table-50k --seed 1 --seconds 25 --trace 0

Run from the repository root. ``--trace 0`` runs the workload's ``bfdr``
commands, each in a fresh interpreter, for about ``--seconds`` seconds
(at least two iterations), checks every output against independent
oracles and reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` runs one untraced and one traced iteration (plus the
workload's extra traced runs) and reports the per-layer metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable summary. The full record of the run, with machine
information and output digests, is written to
``.perfbench/<workload>-seed<seed>-trace<t>/result.json``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from importlib import metadata
from pathlib import Path

import tracer
from workloads import Command, digest, workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLI = "import sys; from bfdr.cli import main; sys.exit(main())"
SETUP_SAMPLES = 3  # fresh interpreters timed for setup_s; the median is reported
MIN_ITERATIONS = 2
TIME_BUDGET_S = 150.0  # no new command starts after this; each is killed at 170 s
KILL_AFTER_S = 170.0
GOLDEN_SEED = 0  # golden.json holds the outputs of the tiny workloads at this seed


@dataclass
class Outcome:
    """One finished process."""

    exit_code: int
    wall_s: float
    peak_rss_mb: float
    cpu_s: float


@dataclass
class Iteration:
    """The commands of one pass over a workload, in order."""

    wall_s: float = 0.0
    outcomes: dict[str, Outcome] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def peak_rss_mb(self) -> float:
        return max(o.peak_rss_mb for o in self.outcomes.values())

    @property
    def cpu_s(self) -> float:
        return sum(o.cpu_s for o in self.outcomes.values())


class Runner:
    """Starts processes in the checkout and waits for each to end."""

    def __init__(self, work: Path):
        self.started = time.perf_counter()
        self.logs = work / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        self.env = env
        self.n = 0

    def out_of_time(self, next_s: float = 0.0) -> bool:
        return time.perf_counter() - self.started + next_s > TIME_BUDGET_S

    def run(self, argv: list[str], label: str) -> Outcome:
        """Run to completion; wall time, peak RSS and CPU cover the process tree.

        ``wait4`` returns the child's resource use including its reaped
        descendants (pool workers), never the benchmark's own memory.
        """
        self.n += 1
        stem = self.logs / f"{self.n:03d}-{label}"
        timeout = max(1.0, KILL_AFTER_S - (time.perf_counter() - self.started))
        with open(f"{stem}.out", "wb") as out, open(f"{stem}.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err, start_new_session=True)
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(proc.returncode, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime)

    def cli(self, command: Command, label: str) -> Outcome:
        return self.run([sys.executable, "-c", CLI, *command.args], f"{label}-{command.name}")

    def traced(self, command: Command, spans: Path, label: str) -> Outcome:
        argv = [sys.executable, str(HERE / "tracer.py"), "--spans", str(spans), "--", *command.args]
        return self.run(argv, f"{label}-{command.name}")


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Ledger:
    """Commands attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems[:5]]


def run_iteration(wl, runner: Runner, data: Path, seed: int, label: str, spans_dir: Path | None = None,
                  threads: int | None = None) -> Iteration:
    """Run the workload's commands once; stop at the first that fails to exit 0."""
    wl.reset(data)
    it = Iteration()
    t0 = time.perf_counter()
    for command in wl.commands(data, seed, threads):
        if spans_dir is None:
            outcome = runner.cli(command, label)
        else:
            outcome = runner.traced(command, spans_dir / f"{label}-{command.name}.json", label)
        it.outcomes[command.name] = outcome
        if outcome.exit_code != 0:
            break
    it.wall_s = time.perf_counter() - t0
    for command in wl.commands(data, seed, threads):
        if command.name in it.outcomes:
            it.digests[command.name] = digest(command.outputs)
    return it


def judge(wl, it: Iteration, ledger: Ledger, label: str, reference: Iteration | None,
          problems: dict[str, list[str]] | None) -> None:
    """Count each command of an iteration as passed or failed.

    The first iteration's outputs are checked by the oracles (``problems``);
    a later one must reproduce the reference iteration byte for byte.
    """
    for command in wl.commands(Path("."), 0):
        name = command.name
        outcome = it.outcomes.get(name)
        if outcome is None:
            ledger.record(f"{label}/{name}", ["not run: an earlier command failed"])
            continue
        found = [] if outcome.exit_code == 0 else [f"exit code {outcome.exit_code}"]
        if not found and problems is not None:
            found = problems.get(name, [])
        if not found and reference is not None and it.digests[name] != reference.digests.get(name):
            found = ["output differs from the reference run"]
        ledger.record(f"{label}/{name}", found)


def measure_setup(runner: Runner, ledger: Ledger) -> list[float]:
    """Wall times for fresh interpreters to import the CLI module."""
    walls = []
    for i in range(SETUP_SAMPLES):
        outcome = runner.run([sys.executable, "-c", "import bfdr.cli"], "setup")
        ledger.record(f"setup[{i}]", [] if outcome.exit_code == 0 else [f"exit code {outcome.exit_code}"])
        walls.append(outcome.wall_s)
    return walls


def run_e2e(wl, runner: Runner, data: Path, seed: int, seconds: float, ledger: Ledger) -> tuple[dict, dict]:
    setup = measure_setup(runner, ledger)
    iterations: list[Iteration] = []
    timed = 0.0
    while True:
        label = f"iter{len(iterations)}"
        it = run_iteration(wl, runner, data, seed, label)
        first = not iterations
        judge(wl, it, ledger, label, None if first else iterations[0], wl.check(data, seed) if first else None)
        iterations.append(it)
        timed += it.wall_s
        if any(o.exit_code != 0 for o in it.outcomes.values()):
            break
        if len(iterations) >= MIN_ITERATIONS and timed + it.wall_s > seconds:
            break
        if runner.out_of_time(it.wall_s):
            break
    walls = [it.wall_s for it in iterations]
    # Sum of each command's median: every command's samples count, so a
    # three-command iteration gives three times the samples of its total.
    samples = [[it.outcomes[c.name].wall_s for it in iterations if c.name in it.outcomes]
               for c in wl.commands(data, seed)]
    wall = sum(statistics.median(s) for s in samples if s)
    metrics = {
        "tests_per_s": wl.tests_per_iteration / wall,
        "wall_s": wall,
        "peak_rss_mb": statistics.median(it.peak_rss_mb for it in iterations),
        "setup_s": statistics.median(setup),
    }
    record = {
        "setup_samples_s": setup,
        "iterations": [_iteration_record(it) for it in iterations],
        "wall_s_samples": len(walls),
        "wall_s_percentile": _tail_percentile(walls),
    }
    return metrics, record


def _tail_percentile(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    ordered = sorted(values)
    return {"percentile": pct, "value": ordered[math.ceil(pct / 100 * n) - 1], "samples": n}


def _iteration_record(it: Iteration) -> dict:
    return {
        "wall_s": it.wall_s,
        "commands": {
            name: {**asdict(o), "digest": it.digests.get(name)} for name, o in it.outcomes.items()
        },
    }


# ---------------------------------------------------------------------------
# traced run


def span_summary(docs: list[dict]) -> dict:
    """Inclusive and self times per span name, self time per layer, counts.

    A span's self time is its duration minus the durations of its direct
    children (children of one span never overlap: the program calls them
    one after another in one thread). Summed over every span, self times
    equal the summed root durations exactly, in integer nanoseconds.
    """
    inclusive: dict[str, int] = defaultdict(int)
    layer_self: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    absent: dict[str, str] = {}
    root_ns = self_ns_total = negative = 0
    for doc in docs:
        names, spans = doc["names"], doc["spans"]
        child_ns = [0] * len(spans)
        for name_idx, parent, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name_idx, parent, start, end) in enumerate(spans):
            name = names[name_idx]
            duration = end - start
            own = duration - child_ns[i]
            self_ns_total += own
            negative += own < 0
            if parent < 0:
                root_ns += duration
                layer_self["root:" + name] += own
            else:
                layer_self[name.split(".", 1)[0]] += own
            if not _inside_same_name(spans, names, parent, name):
                inclusive[name] += duration
            if name in ("cli.read_table", "cli.write_tsv"):
                layer_self["own:" + name] += own
        for key, value in doc["counts"].items():
            counts[key] += value
        absent.update(doc["absent"])
    return {
        "inclusive_ns": dict(inclusive),
        "layer_self_ns": dict(layer_self),
        "counts": dict(counts),
        "absent": absent,
        "root_ns": root_ns,
        "self_total_ns": self_ns_total,
        "negative_self_spans": negative,
    }


def _inside_same_name(spans, names, parent: int, name: str) -> bool:
    while parent >= 0:
        name_idx, parent_of_parent, _, _ = spans[parent]
        if names[name_idx] == name:
            return True
        parent = parent_of_parent
    return False


def _load_spans(spans_dir: Path, label: str, wl, ledger: Ledger) -> list[dict]:
    docs = []
    for command in wl.commands(Path("."), 0):
        path = spans_dir / f"{label}-{command.name}.json"
        try:
            docs.append(json.loads(path.read_text()))
        except (OSError, ValueError) as exc:
            ledger.record(f"{label}/{command.name}/spans", [f"span file unreadable: {exc}"])
    return docs


LAYERS = ("bayes_factor", "pi0_estimation", "fdr_control", "rng", "simulation", "permutation", "studies")


def layer_metrics(summary: dict) -> tuple[dict, dict]:
    """Per-layer metrics from a span summary, and the reasons for absent ones."""
    s = 1e-9
    inc = summary["inclusive_ns"]
    absent = dict(summary["absent"])
    metrics: dict[str, float] = {}
    for name in tracer.TRACED:
        metrics[f"{name}_s"] = inc.get(name, 0) * s
        if name in absent:
            absent[f"{name}_s"] = absent[name]
    lself = summary["layer_self_ns"]
    metrics["cli.self_s"] = lself.get("root:" + tracer.ROOT_SPAN, 0) * s
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = lself.get(layer, 0) * s
    counts = summary["counts"]
    for key in ("cli.rows_read", "cli.rows_written", "fdr_control.two_sided_normal_p_calls",
                "rng.substream_calls", "bayes_factor.log_gene_bf_calls", "bayes_factor.gene_bf_evals",
                "permutation.perms_evaluated", "studies.map_parallel_calls"):
        metrics[key] = counts.get(key, 0)
    metrics["cli.read_mb"] = counts.get("cli.read_bytes", 0) / 1e6
    metrics["cli.write_mb"] = counts.get("cli.write_bytes", 0) / 1e6
    for key, source in (("cli.read_mb", "cli.read_bytes"), ("cli.write_mb", "cli.write_bytes")):
        if source in absent:
            absent[key] = absent[source]
    evals_s = metrics["bayes_factor.log_gene_bf_s"]
    metrics["bayes_factor.gene_bf_evals_per_s"] = metrics["bayes_factor.gene_bf_evals"] / evals_s if evals_s else 0.0
    for key in ("bayes_factor.gene_bf_evals", "bayes_factor.log_gene_bf_s"):
        if key in absent:
            absent["bayes_factor.gene_bf_evals_per_s"] = absent[key]
    metrics["trace.wall_s"] = summary["root_ns"] * s
    # cli.self_s + the cli spans' own time + every other layer's self time
    metrics["trace.self_sum_s"] = (
        lself.get("root:" + tracer.ROOT_SPAN, 0)
        + lself.get("own:cli.read_table", 0)
        + lself.get("own:cli.write_tsv", 0)
        + sum(lself.get(layer, 0) for layer in LAYERS)
    ) * s
    return metrics, absent


def run_traced(wl, runner: Runner, data: Path, work: Path, seed: int, tiny: bool, ledger: Ledger) -> tuple[dict, dict, dict]:
    spans_dir = work / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    base = run_iteration(wl, runner, data, seed, "untraced")
    judge(wl, base, ledger, "untraced", None, wl.check(data, seed))
    traced = run_iteration(wl, runner, data, seed, "traced", spans_dir)
    judge(wl, traced, ledger, "traced", base, None)
    runs = {"untraced": base, "traced": traced}
    breakdown = "traced"
    if wl.threads > 1:
        # Spans recorded inside pool workers never reach the parent, so the
        # layer breakdown comes from a one-worker run of the same command.
        runs["traced-t1"] = run_iteration(wl, runner, data, seed, "traced-t1", spans_dir, threads=1)
        judge(wl, runs["traced-t1"], ledger, "traced-t1", base, None)
        breakdown = "traced-t1"
    summary = span_summary(_load_spans(spans_dir, breakdown, wl, ledger))
    metrics, absent = layer_metrics(summary)

    pool = "studies.map_parallel"
    pool_t2 = span_summary(_load_spans(spans_dir, "traced", wl, ledger))["inclusive_ns"].get(pool, 0) * 1e-9
    metrics["studies.map_parallel_s_t1"] = metrics[f"{pool}_s"] if wl.threads > 1 else 0.0
    metrics["studies.map_parallel_s_t2"] = pool_t2 if wl.threads > 1 else 0.0
    t1, t2 = metrics["studies.map_parallel_s_t1"], metrics["studies.map_parallel_s_t2"]
    metrics["studies.parallel_speedup"] = t1 / t2 if t2 else 0.0
    if pool in absent:
        for key in ("studies.map_parallel_s_t1", "studies.map_parallel_s_t2", "studies.parallel_speedup"):
            absent[key] = absent[pool]
    metrics["run.cpu_s"] = base.cpu_s
    metrics["run.cpu_util"] = base.cpu_s / base.wall_s
    metrics["trace.overhead_s"] = traced.wall_s - base.wall_s

    metrics["simulation.simulate_II_fixed_s"] = 0.0
    if wl.fixed_cost_probe:
        spans = spans_dir / "fixed.json"
        outcome = runner.run(
            [sys.executable, str(HERE / "tracer.py"), "--spans", str(spans), "--simulate-ii-fixed", str(seed)],
            "simulate-ii-fixed",
        )
        ledger.record("simulate-ii-fixed", [] if outcome.exit_code == 0 else [f"exit code {outcome.exit_code}"])
        if outcome.exit_code == 0:
            fixed = span_summary([json.loads(spans.read_text())])
            metrics["simulation.simulate_II_fixed_s"] = fixed["inclusive_ns"].get("simulation.simulate_II_fixed", 0) * 1e-9
            absent.update({f"{k}_s": v for k, v in fixed["absent"].items()})

    gap = abs(metrics["trace.self_sum_s"] - metrics["trace.wall_s"])
    additive = summary["self_total_ns"] == summary["root_ns"] and gap < 1e-6 and not summary["negative_self_spans"]
    ledger.record(
        "self-times",
        [] if additive else [f"self times miss the traced wall time by {gap:.9f} s, "
                             f"{summary['negative_self_spans']} spans overlap their children"],
    )
    golden = check_golden(wl.name, runner, work, ledger) if not tiny else None
    record = {
        "breakdown_run": breakdown,
        "iterations": {k: _iteration_record(v) for k, v in runs.items()},
        "golden": golden,
    }
    return metrics, absent, record


def check_golden(name: str, runner: Runner, work: Path, ledger: Ledger) -> dict:
    """Run the tiny version of the workload at the golden seed; outputs must match golden.json."""
    expected = json.loads((HERE / "golden.json").read_text())[name]
    wl = workloads(tiny=True)[name]
    data = work / "golden"
    data.mkdir(parents=True, exist_ok=True)
    wl.prepare(data, GOLDEN_SEED)
    it = run_iteration(wl, runner, data, GOLDEN_SEED, "golden")
    for command in wl.commands(data, GOLDEN_SEED):
        got = it.digests.get(command.name)
        ledger.record(
            f"golden/{command.name}",
            [] if got == expected[command.name] else [f"output digest {got} differs from the golden {expected[command.name]}"],
        )
    return {"expected": expected, "got": it.digests}


# ---------------------------------------------------------------------------


def machine_info() -> dict:
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        **versions,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="bfdr benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "bfdr" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no bfdr source under {ROOT / 'src'} (or no BENCHMARK.json); run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    table = workloads(args.tiny)
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(table)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    wl = table[args.workload]

    work = ROOT / ".perfbench" / f"{wl.name}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    shutil.rmtree(work, ignore_errors=True)
    data = work / "data"
    data.mkdir(parents=True)
    runner = Runner(work)
    ledger = Ledger()
    wl.prepare(data, args.seed)

    if args.trace:
        values, absent, record = run_traced(wl, runner, data, work, args.seed, args.tiny, ledger)
        declared = spec["per_layer"]
    else:
        values, record = run_e2e(wl, runner, data, args.seed, args.seconds, ledger)
        absent = {}
        declared = spec["end_to_end"]
    for m in declared:
        if m["name"] not in values:
            absent[m["name"]] = "not computed by this benchmark version"
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in declared}
    correct = ledger.failed == 0
    result = {"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}

    full = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": machine_info(),
        "tests_per_iteration": wl.tests_per_iteration,
        "commands": [c.args for c in wl.commands(data, args.seed)],
        "failed_frac": ledger.failed / ledger.attempted,
        "problems": ledger.problems,
        "absent": absent,
        "extra_metrics": {k: v for k, v in values.items() if k not in metrics},
        "run": record,
        "result": result,
    }
    (work / "result.json").write_text(json.dumps(full, indent=2) + "\n")
    shutil.rmtree(data, ignore_errors=True)
    shutil.rmtree(work / "spans", ignore_errors=True)
    shutil.rmtree(work / "golden", ignore_errors=True)

    _print_summary(full, metrics)
    print(json.dumps(result))
    return 0


def _print_summary(full: dict, metrics: dict) -> None:
    mach = full["machine"]
    print(
        f"# workload {full['workload']} seed {full['seed']} trace {full['trace']}: "
        f"nproc {mach['nproc']}, Python {mach['python']}, numpy {mach['numpy']}, scipy {mach['scipy']}"
    )
    for name, m in metrics.items():
        note = f"  ABSENT: {full['absent'][name]}" if name in full["absent"] else ""
        print(f"#   {name:42s} {m['value']:>16.6g} {m['unit']}{note}")
    run = full["run"]
    if "wall_s_samples" in run:
        pct = run["wall_s_percentile"]
        tail = f"p{pct['percentile']} {pct['value']:.4f} s" if pct else "no percentile with 10 samples beyond it"
        print(f"#   wall_s: median of {run['wall_s_samples']} iterations; {tail}")
    print(f"#   failed_frac {full['failed_frac']:.4g} of {full['result']['attempted']} commands attempted")
    for problem in full["problems"][:20]:
        print(f"#   FAILED {problem}")


if __name__ == "__main__":
    sys.exit(main())
