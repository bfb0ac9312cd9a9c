"""Independent oracles for the outputs of the benchmark's ``bfdr`` commands.

Every check reads the files a command wrote and returns a list of problems
(empty when the output is correct). The oracles are written from the
definitions in the paper and the CLI's documented formats, not from the
program's code: exact prefix sums with ``math.fsum`` for EBF, a direct
step-up scan for B-H, the closed-form averaged Bayes factor, and the
aggregates of ``sim`` recomputed from its per-run rows.
"""
from __future__ import annotations

import math
from pathlib import Path

import numpy as np

FLOAT_MAX = 1.7976931348623157e308
SIM_METHODS = ("ebf", "qbf", "bh", "storey")


class Table:
    """A TSV written by the CLI: ``# key<TAB>value`` comments, header, rows."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self.comments: dict[str, str] = {}
        self.header: list[str] = []
        self.rows: list[list[str]] = []
        for line in self.path.read_text().splitlines():
            if line.startswith("# "):
                key, _, value = line[2:].partition("\t")
                self.comments[key] = value
            elif not self.header:
                self.header = line.split("\t")
            elif line:
                self.rows.append(line.split("\t"))

    def column(self, name: str) -> list[str]:
        i = self.header.index(name)
        return [row[i] for row in self.rows]

    def floats(self, name: str) -> list[float]:
        return [float(v) for v in self.column(name)]


def _prefix_mean(s: list[float], d: int) -> float:
    """Exactly rounded mean of the first d values; inf once the sum overflows."""
    try:
        return math.fsum(s[:d]) / d
    except OverflowError:
        return math.inf


def ebf_d0(bfs: list[float]) -> int:
    """Largest d with fsum(smallest d Bayes factors) / d < 1.

    Prefix means of ascending values never decrease, so a binary search
    over d finds the boundary; each probe is an exactly rounded sum.
    """
    s = sorted(bfs)
    lo, hi = 0, len(s)  # invariant: mean below 1 at lo (or lo == 0), not at hi + 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _prefix_mean(s, mid) < 1.0:
            lo = mid
        else:
            hi = mid - 1
    return lo


def check_d0(bfs: list[float], d0: int) -> list[str]:
    """The prefix mean is below 1 at d0 and at least 1 at d0 + 1."""
    s = sorted(bfs)
    problems = []
    if d0 > 0 and not _prefix_mean(s, d0) < 1.0:
        problems.append(f"EBF d0={d0}: prefix mean at d0 is not below 1")
    if d0 < len(s) and not _prefix_mean(s, d0 + 1) >= 1.0:
        problems.append(f"EBF d0={d0}: prefix mean at d0 + 1 is below 1")
    return problems


def step_up(p: list[float], alpha: float) -> set[int]:
    """Indices rejected by the B-H step-up rule: p_(i) <= i * alpha / m."""
    m = len(p)
    order = sorted(range(m), key=lambda i: p[i])
    k = 0
    for rank, i in enumerate(order, start=1):
        if p[i] <= rank * alpha / m:
            k = rank
    if k == 0:
        return set()
    cutoff = p[order[k - 1]]
    return {i for i in range(m) if p[i] <= cutoff}


def averaged_log_bf(z: np.ndarray, se: np.ndarray, omegas: list[float]) -> np.ndarray:
    """log of the grid mean of the closed-form normal-prior Bayes factor."""
    u2 = (se * se)[:, None]
    w2 = np.asarray(omegas)[None, :] ** 2
    terms = 0.5 * np.log(u2 / (u2 + w2)) + 0.5 * (z * z)[:, None] * w2 / (u2 + w2)
    top = terms.max(axis=1)
    return top + np.log(np.exp(terms - top[:, None]).mean(axis=1))


def _expect(cond: bool, problems: list[str], message: str) -> None:
    if not cond:
        problems.append(message)


def _close(a: float, b: float, rel: float = 1e-9, abs_tol: float = 0.0) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


# ---------------------------------------------------------------------------
# table workload: bf, fdr --method ebf, fdr --method bh


def check_bf(path: Path, inputs: Table) -> list[str]:
    out = Table(path)
    problems: list[str] = []
    _expect(out.header == ["id", "z", "se", "log_bf", "bf"], problems, f"bf header {out.header}")
    _expect(len(out.rows) == len(inputs.rows), problems, f"bf wrote {len(out.rows)} rows")
    _expect(out.comments.get("m") == str(len(inputs.rows)), problems, "bf: wrong m comment")
    if problems:
        return problems
    _expect(out.column("id") == inputs.column("id"), problems, "bf: ids differ from the input")
    z, se = np.array(inputs.floats("z")), np.array(inputs.floats("se"))
    _expect(np.array_equal(np.array(out.floats("z")), z), problems, "bf: z differs from the input")
    _expect(np.array_equal(np.array(out.floats("se")), se), problems, "bf: se differs from the input")
    omegas = [float(w) for w in out.comments.get("omega_grid", "").split(",")]
    log_bf = np.array(out.floats("log_bf"))
    expected = averaged_log_bf(z, se, omegas)
    bad = ~np.isclose(log_bf, expected, rtol=1e-10, atol=1e-10)
    _expect(not bad.any(), problems, f"bf: {int(bad.sum())} log_bf values differ from the closed form")
    bf = np.array(out.floats("bf"))
    sat = log_bf >= 709.0
    _expect(bool(np.all(bf[sat] == FLOAT_MAX)), problems, "bf: saturated rows do not hold the float max")
    bad = ~np.isclose(bf[~sat], np.exp(log_bf[~sat]), rtol=1e-12, atol=0.0)
    _expect(not bad.any(), problems, f"bf: {int(bad.sum())} bf values are not exp(log_bf)")
    return problems


def check_ebf(path: Path, bf_table: Table) -> list[str]:
    out = Table(path)
    c = out.comments
    problems: list[str] = []
    _expect(out.header == ["id", "bf", "v_hat", "rejected", "auto"], problems, f"ebf header {out.header}")
    _expect(len(out.rows) == len(bf_table.rows), problems, f"ebf wrote {len(out.rows)} rows")
    _expect(c.get("method") == "ebf", problems, "ebf: wrong method comment")
    if problems:
        return problems
    m = len(out.rows)
    alpha = float(c["alpha"])
    _expect(out.column("id") == bf_table.column("id"), problems, "ebf: ids differ from the bf output")
    _expect(out.column("bf") == bf_table.column("bf"), problems, "ebf: bf differs from the bf output")
    bfs = out.floats("bf")
    d0 = int(c["d0"])
    problems += check_d0(bfs, d0)
    _expect(float(c["pi0_hat"]) == d0 / m, problems, f"ebf: pi0_hat {c['pi0_hat']} is not d0/m")
    v = out.floats("v_hat")
    flags = out.column("rejected")
    auto = out.column("auto")
    _expect(set(flags) <= {"0", "1"} and set(auto) <= {"0", "1"}, problems, "ebf: flags are not 0/1")
    _expect(all(0.0 <= x <= 1.0 for x in v), problems, "ebf: v_hat outside [0, 1]")
    threshold = float(c["threshold"])
    rejected = {i for i, f in enumerate(flags) if f == "1"}
    _expect(
        rejected == {i for i, x in enumerate(v) if x > threshold},
        problems,
        "ebf: rejected set is not {v_hat > threshold}",
    )
    _expect(int(c["n_rejected"]) == len(rejected), problems, "ebf: n_rejected disagrees with the rows")
    est = float(c["estimated_bfdr"])
    if rejected:
        mean = math.fsum(1.0 - v[i] for i in rejected) / len(rejected)
        _expect(est <= alpha, problems, f"ebf: estimated_bfdr {est} exceeds alpha")
        _expect(_close(est, mean, abs_tol=1e-15), problems, f"ebf: estimated_bfdr {est} != mean(1 - v_hat) {mean}")
    else:
        _expect(est == 0.0, problems, "ebf: estimated_bfdr is not 0 for an empty rejection set")
    flagged = {i for i, f in enumerate(auto) if f == "1"}
    bound = m / alpha
    _expect(flagged <= rejected, problems, "ebf: auto is not a subset of rejected")
    _expect(flagged == {i for i, b in enumerate(bfs) if b >= bound}, problems, "ebf: auto != {bf >= m/alpha}")
    _expect(int(c["n_auto_rejected"]) == len(flagged), problems, "ebf: n_auto_rejected disagrees")
    log_bf = bf_table.floats("log_bf")
    order = sorted(range(m), key=lambda i: log_bf[i])
    _expect(
        all(v[a] <= v[b] for a, b in zip(order, order[1:])),
        problems,
        "ebf: v_hat is not monotone in log_bf",
    )
    return problems


def check_bh(path: Path, bf_table: Table) -> list[str]:
    out = Table(path)
    c = out.comments
    problems: list[str] = []
    _expect(out.header == ["id", "p", "q", "rejected"], problems, f"bh header {out.header}")
    _expect(len(out.rows) == len(bf_table.rows), problems, f"bh wrote {len(out.rows)} rows")
    _expect(c.get("method") == "bh", problems, "bh: wrong method comment")
    if problems:
        return problems
    alpha = float(c["alpha"])
    _expect(out.column("id") == bf_table.column("id"), problems, "bh: ids differ from the bf output")
    p = out.floats("p")
    z = bf_table.floats("z")
    bad = sum(
        not _close(pi, math.erfc(abs(zi) / math.sqrt(2.0)), rel=1e-12, abs_tol=1e-300) for pi, zi in zip(p, z)
    )
    _expect(bad == 0, problems, f"bh: {bad} p-values differ from erfc(|z|/sqrt 2)")
    rejected = {i for i, f in enumerate(out.column("rejected")) if f == "1"}
    _expect(rejected == step_up(p, alpha), problems, "bh: rejections differ from the step-up oracle")
    _expect(int(c["n_rejected"]) == len(rejected), problems, "bh: n_rejected disagrees with the rows")
    cutoff = max((p[i] for i in rejected), default=0.0)
    _expect(float(c["p_cutoff"]) == cutoff, problems, "bh: p_cutoff is not the largest rejected p")
    q = out.floats("q")
    _expect(all(0.0 <= x <= 1.0 for x in q), problems, "bh: q outside [0, 1]")
    _expect(rejected == {i for i, x in enumerate(q) if x <= alpha}, problems, "bh: rejected != {q <= alpha}")
    return problems


# ---------------------------------------------------------------------------
# sim workloads


RESULTS_HEADER = ["pi0", "rep", "method", "pi0_hat", "n_rejected", "fdp", "fnp"]
AGG_FIELDS = ("pi0_hat", "fdp", "fnp", "n_rejected")


def check_sim(out_dir: Path, scenario: int, m: int, pi0s: list[float], reps: int, seed: int) -> list[str]:
    problems: list[str] = []
    results = Table(out_dir / "results.tsv")
    aggregate = Table(out_dir / "aggregate.tsv")
    for table in (results, aggregate):
        c = table.comments
        _expect(
            (c.get("scenario"), c.get("seed")) == (str(scenario), str(seed)),
            problems,
            f"{table.path.name}: wrong scenario or seed comment",
        )
    _expect(results.header == RESULTS_HEADER, problems, f"results.tsv header {results.header}")
    _expect(len(results.rows) == len(pi0s) * reps * 4, problems, f"results.tsv has {len(results.rows)} rows")
    if problems:
        return problems
    runs: dict[tuple[float, int], dict[str, dict]] = {}
    for row in results.rows:
        rec = dict(zip(RESULTS_HEADER, row))
        key = (float(rec["pi0"]), int(rec["rep"]))
        runs.setdefault(key, {})[rec["method"]] = rec
        for name in ("pi0_hat", "fdp", "fnp"):
            _expect(0.0 <= float(rec[name]) <= 1.0, problems, f"results.tsv: {name} outside [0, 1] at {key}")
        _expect(0 <= int(rec["n_rejected"]) <= m, problems, f"results.tsv: n_rejected out of range at {key}")
    expected_keys = {(p, r) for p in pi0s for r in range(reps)}
    _expect(set(runs) == expected_keys, problems, "results.tsv: wrong (pi0, rep) pairs")
    for key, methods in runs.items():
        _expect(set(methods) == set(SIM_METHODS), problems, f"results.tsv: methods {sorted(methods)} at {key}")
    if problems:
        return problems

    agg_header = ["pi0", "method", "reps"] + [f"{s}_{f}" for f in AGG_FIELDS for s in ("mean", "min", "max")]
    _expect(aggregate.header == agg_header, problems, f"aggregate.tsv header {aggregate.header}")
    _expect(len(aggregate.rows) == len(pi0s) * 4, problems, f"aggregate.tsv has {len(aggregate.rows)} rows")
    for row in aggregate.rows if not problems else []:
        rec = dict(zip(agg_header, row))
        pi0, method = float(rec["pi0"]), rec["method"]
        _expect(int(rec["reps"]) == reps, problems, f"aggregate.tsv: reps at {pi0}/{method}")
        for f in AGG_FIELDS:
            values = [float(runs[(pi0, r)][method][f]) for r in range(reps)]
            want = {"mean": sum(values) / len(values), "min": min(values), "max": max(values)}
            for stat, value in want.items():
                _expect(
                    _close(float(rec[f"{stat}_{f}"]), value, rel=1e-12, abs_tol=1e-15),
                    problems,
                    f"aggregate.tsv: {stat}_{f} at {pi0}/{method} is not the {stat} of results.tsv",
                )

    alpha = float(results.comments["alpha"])
    for pi0 in pi0s:
        for rep in range(reps):
            rep_dir = out_dir / f"pi0_{pi0:g}_rep{rep:03d}"
            problems += _check_dataset(rep_dir, scenario, m, alpha, runs[(pi0, rep)])
    return problems


def _check_dataset(rep_dir: Path, scenario: int, m: int, alpha: float, methods: dict[str, dict]) -> list[str]:
    problems: list[str] = []
    records = Table(rep_dir / "records.tsv")
    truth = Table(rep_dir / "truth.tsv")
    header = ["id", "z", "se", "log_bf", "bf"] + (["null_q"] if scenario == 2 else [])
    _expect(records.header == header, problems, f"{rep_dir.name}/records.tsv header {records.header}")
    _expect(len(records.rows) == m and len(truth.rows) == m, problems, f"{rep_dir.name}: not {m} rows")
    if problems:
        return problems
    _expect(records.column("id") == truth.column("id"), problems, f"{rep_dir.name}: ids differ from truth")
    alt = [int(v) for v in truth.column("true_alt")]
    _expect(set(alt) <= {0, 1}, problems, f"{rep_dir.name}: true_alt not 0/1")
    bfs = records.floats("bf")
    d0 = ebf_d0(bfs)
    _expect(
        float(methods["ebf"]["pi0_hat"]) == d0 / m,
        problems,
        f"{rep_dir.name}: ebf pi0_hat {methods['ebf']['pi0_hat']} != fsum-scan d0/m {d0}/{m}",
    )
    if scenario == 2:
        q = records.floats("null_q")
        _expect(all(0.0 < x < math.inf for x in q), problems, f"{rep_dir.name}: null_q not positive and finite")
        return problems
    p = [math.erfc(abs(z) / math.sqrt(2.0)) for z in records.floats("z")]
    rejected = step_up(p, alpha)
    false = sum(1 for i in rejected if alt[i] == 0)
    missed = sum(1 for i in range(m) if alt[i] == 1 and i not in rejected)
    bh = methods["bh"]
    _expect(int(bh["n_rejected"]) == len(rejected), problems, f"{rep_dir.name}: bh n_rejected != step-up oracle")
    _expect(
        _close(float(bh["fdp"]), false / max(1, len(rejected)), abs_tol=1e-15)
        and _close(float(bh["fnp"]), missed / max(1, m - len(rejected)), abs_tol=1e-15),
        problems,
        f"{rep_dir.name}: bh FDP/FNP differ from the step-up oracle",
    )
    return problems
