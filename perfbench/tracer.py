"""Outside-in tracing of one ``bfdr`` command.

This script runs the CLI's ``main`` in its own process after wrapping the
public functions of each ``bfdr`` layer. Every wrapped call records a span
(name, start, end, parent span) in memory; the spans are written to one
JSON file when the command ends. The program itself is not changed: the
wrappers are installed on the module-level names the program looks up at
call time, so the outputs are byte-identical to an untraced run.

A wrapped name that no longer exists is reported as absent, with the
dotted name that was looked for, and the command still runs.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/tracer.py --spans OUT.json -- fdr --method ebf --input a.tsv --output b.tsv
    python3 perfbench/tracer.py --spans OUT.json --simulate-ii-fixed SEED
"""
from __future__ import annotations

import argparse
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

ROOT_SPAN = "cli.main"

# Span name -> (module, attribute path). The layer is the part of the span
# name before the first dot. Names are looked up in the defining module and
# the wrapper replaces every binding of the same function object in the
# loaded bfdr modules, so ``from .x import f`` call sites are traced too.
TRACED = {
    "cli.read_table": ("bfdr.cli", "read_table"),
    "cli.write_tsv": ("bfdr.cli", "write_tsv"),
    "pi0_estimation.ebf_pi0": ("bfdr.pi0_estimation", "ebf_pi0"),
    "pi0_estimation.qbf_pi0": ("bfdr.pi0_estimation", "qbf_pi0"),
    "pi0_estimation.storey_pi0": ("bfdr.pi0_estimation", "storey_pi0"),
    "fdr_control.two_sided_normal_p": ("bfdr.fdr_control", "two_sided_normal_p"),
    "fdr_control.posterior_table": ("bfdr.fdr_control", "posterior_table"),
    "fdr_control.bfdr_decide": ("bfdr.fdr_control", "bfdr_decide"),
    "fdr_control.apply_auto_reject": ("bfdr.fdr_control", "apply_auto_reject"),
    "fdr_control.bh_decide": ("bfdr.fdr_control", "bh_decide"),
    "fdr_control.storey_decide": ("bfdr.fdr_control", "storey_decide"),
    "bayes_factor.log_bf_averaged_many": ("bfdr.bayes_factor", "log_bf_averaged_many"),
    "bayes_factor.bf_null_quantiles": ("bfdr.bayes_factor", "bf_null_quantiles"),
    "bayes_factor.log_gene_bf": ("bfdr.bayes_factor", "GeneDesign.log_gene_bf"),
    "rng.substream": ("bfdr.rng", "substream"),
    "simulation.simulate_I": ("bfdr.simulation", "simulate_I"),
    "simulation.simulate_II": ("bfdr.simulation", "simulate_II"),
    "simulation.score": ("bfdr.simulation", "score"),
    "permutation.permute_null_quantile": ("bfdr.permutation", "permute_null_quantile"),
    "permutation.permutation_pvalue": ("bfdr.permutation", "permutation_pvalue"),
    "studies.analyze_study_i": ("bfdr.studies", "analyze_study_i"),
    "studies.analyze_genes": ("bfdr.studies", "analyze_genes"),
    "studies.run_study_ii": ("bfdr.studies", "run_study_ii"),
    "studies.map_parallel": ("bfdr.studies", "map_parallel"),
}


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_read(fn, args, kwargs, result, counts):
    path = _bound(fn, args, kwargs)["path"]
    counts["cli.rows_read"] += len(result[1])
    counts["cli.read_bytes"] += os.path.getsize(path)


def _count_write(fn, args, kwargs, result, counts):
    bound = _bound(fn, args, kwargs)
    counts["cli.rows_written"] += len(bound["rows"])
    counts["cli.write_bytes"] += os.path.getsize(bound["path"])


def _count_gene_bf(fn, args, kwargs, result, counts):
    design = args[0]
    counts["bayes_factor.log_gene_bf_calls"] += 1
    # kept variants x prior-scale grid size x phenotype columns
    counts["bayes_factor.gene_bf_evals"] += design.n_variants * design._n_omegas * len(result)


def _count_perms(fn, args, kwargs, result, counts):
    counts["permutation.perms_evaluated"] += _bound(fn, args, kwargs)["plan"].n_perms


def _call_counter(metric):
    def count(fn, args, kwargs, result, counts):
        counts[metric] += 1

    return count


# Span name -> how to count the work done by one call.
COUNTERS = {
    "cli.read_table": (_count_read, ("cli.rows_read", "cli.read_bytes")),
    "cli.write_tsv": (_count_write, ("cli.rows_written", "cli.write_bytes")),
    "fdr_control.two_sided_normal_p": (
        _call_counter("fdr_control.two_sided_normal_p_calls"),
        ("fdr_control.two_sided_normal_p_calls",),
    ),
    "rng.substream": (_call_counter("rng.substream_calls"), ("rng.substream_calls",)),
    "bayes_factor.log_gene_bf": (
        _count_gene_bf,
        ("bayes_factor.log_gene_bf_calls", "bayes_factor.gene_bf_evals"),
    ),
    "permutation.permute_null_quantile": (_count_perms, ("permutation.perms_evaluated",)),
    "permutation.permutation_pvalue": (_count_perms, ("permutation.perms_evaluated",)),
    "studies.map_parallel": (_call_counter("studies.map_parallel_calls"), ("studies.map_parallel_calls",)),
}


class Tracer:
    """Spans and counts of one process, kept in memory until :meth:`dump`."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []  # [name index, parent, start ns, end ns]
        self.stack: list[int] = [-1]
        self.counts: dict[str, int] = {}
        self.absent: dict[str, str] = {}  # span or count name -> what was missing

    def _name_index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name: str, fn, counter=None):
        """A function that behaves like ``fn`` and records a span per call."""
        idx = self._name_index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span] = [idx, parent, start, end]
            if counter is not None:
                self._count(name, counter, fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _count(self, name, counter, fn, args, kwargs, result):
        count, metrics = counter
        if any(m in self.absent for m in metrics):
            return
        try:
            count(fn, args, kwargs, result, self.counts)
        except (AttributeError, KeyError, TypeError, IndexError, OSError) as exc:
            for m in metrics:
                self.absent[m] = f"cannot count from {name}: {type(exc).__name__}: {exc}"

    def install(self, traced: dict[str, tuple[str, str]] = TRACED) -> None:
        """Wrap every listed function; a missing name is marked absent."""
        for name, (module_name, attr_path) in traced.items():
            dotted = f"{module_name}.{attr_path}"
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = attr_path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent[name] = f"{dotted} not found"
                for metric in COUNTERS.get(name, (None, ()))[1]:
                    self.absent[metric] = f"{dotted} not found"
                continue
            counter = COUNTERS.get(name)
            if counter is not None:
                for metric in counter[1]:
                    self.counts.setdefault(metric, 0)
            wrapper = self.wrap(name, original, counter)
            if parents:
                setattr(owner, attr, wrapper)
                continue
            for module in [m for n, m in sys.modules.items() if n == "bfdr" or n.startswith("bfdr.")]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def root(self, name: str, fn, *args):
        """Run ``fn(*args)`` as a root span."""
        return self.wrap(name, fn)(*args)

    def dump(self, path: Path, extra: dict) -> None:
        doc = dict(extra)
        doc.update(
            names=self.names,
            spans=self.spans,
            counts=self.counts,
            absent=self.absent,
        )
        Path(path).write_text(json.dumps(doc, separators=(",", ":")))


def _simulate_ii_fixed(tracer: Tracer, seed: int) -> None:
    """Time one study-II dataset of a single gene: the fixed per-dataset cost."""
    name = "simulation.simulate_II_fixed"
    try:
        from bfdr.simulation import SimIIConfig, simulate_II

        config = SimIIConfig(m=1, pi0=0.9, seed=seed)
    except (ImportError, TypeError) as exc:
        tracer.absent[name] = f"bfdr.simulation.simulate_II(SimIIConfig(m=1)) unavailable: {exc}"
        return
    tracer.root(name, simulate_II, config)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the span file")
    parser.add_argument("--simulate-ii-fixed", type=int, default=None, metavar="SEED")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the bfdr arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    if args.simulate_ii_fixed is not None:
        exit_code = 0
        _simulate_ii_fixed(tracer, args.simulate_ii_fixed)
    else:
        import bfdr.cli

        tracer.install()
        exit_code = tracer.root(ROOT_SPAN, bfdr.cli.main, cli_args)
    tracer.dump(args.spans, {"argv": cli_args, "exit_code": exit_code})
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
