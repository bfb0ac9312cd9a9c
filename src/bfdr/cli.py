"""Command-line frontend: TSV in, TSV out.

Three subcommands:

* ``bf``   compute Bayes factors from (z, se) summaries or raw data files
* ``fdr``  estimate the null proportion and decide at a target FDR
* ``sim``  run a synthetic study end to end and score every procedure

Input tables are tab-separated with a mandatory header line; lines
starting with ``#`` are comments. Machine outputs keep full float
precision; the terminal summary rounds to six significant digits. Output
files are written to a temp file and renamed into place, so a failing run
never leaves a partial file.

Tables move by column, never by row or cell in Python: a table's body is
split once into text columns (:class:`Table`) and a numeric column is
parsed in one ``float`` pass; an output table (:class:`Columns`) formats
each column once and joins each row once. The input line of a row is
looked up only to report an error at it. Exit codes: 0 on success, 2 for usage or
input problems, a standard error or Wald statistic the Bayes factor cannot
take (``bayes_factor.ScaleError``) among them, 3 for numerical failures
during computation, and 1 when a worker process dies before its items
(genes or ranges of tests) are done (``ChildProcessError``).
"""
from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import json
import math
import os
import sys
import tempfile
import time
import warnings
from dataclasses import fields, replace
from functools import cache, partial
from itertools import chain, compress, islice, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

# OpenBLAS starts its threads when numpy loads, so the count is set first.
# One thread: an idle extra one busy-waits on a core that the command or its
# workers need, and no product here is large enough to gain from it. A
# count the caller set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__, _trace
from .bayes_factor import (
    DEFAULT_OMEGA_GRID,
    OmegaGrid,
    ScaleError,
    checked_gene_design,
    log_bf_averaged_many,
    wald_rows,
)
from .fdr_control import decide, two_sided_normal_p
from .model import Batch, GeneData, Pi0Estimate, Pi0Method, RowError, check_ids, exp_saturated

# The simulation, permutation, seeding and worker modules are imported by the
# commands that run them (``sim`` and ``fdr --method qbf`` on raw data), so
# that ``bf`` and ``fdr`` on a table do not pay for loading them.
if TYPE_CHECKING:
    from .studies import MethodResult

__all__ = ["main", "UsageError"]

SEED_ENV_VAR = "BFDR_SEED"
_NA = "NA"
# Output rows formatted per block: large enough that per-block work is
# negligible, small enough that a block's cells stay a few MB.
_BLOCK_ROWS = 4096


class UsageError(Exception):
    """Bad flags or bad input files; maps to exit code 2."""


# ---------------------------------------------------------------------------
# formatting and file helpers


def _full(x) -> str:
    """A comment value at full precision (floats survive a round trip, a tuple is comma-separated)."""
    if isinstance(x, tuple):
        return ",".join(map(_full, x))
    return repr(x) if isinstance(x, float) else str(x)


def _human(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _atomic_write(path: Path, chunks: Iterable[str]) -> None:
    """Write text chunks to a temp file and rename it into place; nothing is left on failure."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


class Columns:
    """Named output columns aligned row by row; ``len()`` is the number of rows.

    A column is a float or integer array, written as the ``repr`` of each
    value (so floats survive a round trip), with NaN marking a missing
    value (written ``NA``, ``null`` in JSON); a boolean mask, written as
    1/0; or a sequence of strings such as ids, written as they are.
    """

    def __init__(self, columns: dict[str, np.ndarray | Sequence[str]]):
        self.names = list(columns)
        self.values = list(columns.values())
        lengths = {len(v) for v in self.values}
        if len(lengths) != 1:
            raise ValueError(f"output columns must be aligned, got lengths {sorted(lengths)}")
        (self._m,) = lengths

    def __len__(self) -> int:
        return self._m

    def tsv_blocks(self) -> Iterator[str]:
        """The rows as TSV lines, :data:`_BLOCK_ROWS` rows at a time.

        Each column of a block is formatted in one pass and each row is
        joined once; writing block by block bounds the cells held at once.
        """
        for start in range(0, self._m, _BLOCK_ROWS):
            cells = [_cells(v[start : start + _BLOCK_ROWS]) for v in self.values]
            yield "\n".join(map("\t".join, zip(*cells))) + "\n"

    def json_rows(self) -> list[dict[str, object]]:
        """One JSON object per row, keyed by column name."""
        values = [
            _fill_missing(v, v.tolist(), None) if isinstance(v, np.ndarray) else v for v in self.values
        ]
        return list(map(dict, map(zip, repeat(self.names), zip(*values))))


def _cells(column: np.ndarray | Sequence[str]) -> Sequence[str]:
    """One column as text, as :class:`Columns` describes."""
    if not isinstance(column, np.ndarray):
        return column
    if column.dtype == bool:
        return list(map("01".__getitem__, column.tolist()))
    return _fill_missing(column, list(map(repr, column.tolist())), _NA)


def _fill_missing(column: np.ndarray, cells: list, fill) -> list:
    """``cells`` with ``fill`` where the float ``column`` is NaN."""
    if column.dtype.kind != "f":
        return cells
    missing = np.isnan(column)
    if not missing.any():
        return cells
    cells = np.array(cells, dtype=object)
    cells[missing] = fill
    return cells.tolist()


class _Formatted:
    """Rows that :class:`Columns` formatted elsewhere, as text chunks in row order.

    They stand in for their :class:`Columns` in :func:`write_tsv`, so a
    worker process can format the rows that this process writes.
    """

    def __init__(self, names: list[str], chunks: list[str], m: int):
        self.names, self.chunks, self._m = names, chunks, m

    @classmethod
    def of(cls, rows: Columns) -> _Formatted:
        return cls(rows.names, list(rows.tsv_blocks()), len(rows))

    @classmethod
    def joined(cls, parts: Sequence[_Formatted]) -> _Formatted:
        """The rows of consecutive parts of one table, in order."""
        return cls(parts[0].names, [chunk for part in parts for chunk in part.chunks], sum(map(len, parts)))

    def __len__(self) -> int:
        return self._m

    def tsv_blocks(self) -> Iterator[str]:
        return iter(self.chunks)


def write_tsv(path: Path, rows: Columns | _Formatted, comments: Iterable[tuple[str, object]] = ()) -> None:
    """Write a commented TSV atomically (write to temp, rename into place)."""
    head = [f"# {k}\t{_full(v)}\n" for k, v in comments] + ["\t".join(rows.names) + "\n"]
    _atomic_write(path, chain(head, rows.tsv_blocks()))


def _write_report(args, path: Path, rows: Columns, record: dict[str, object], summary: str) -> None:
    """Write a per-test TSV headed by ``record``, its JSON mirror with ``--json``, and a summary line.

    Each item of the record is one header comment, in order. The mirror is
    the record followed by ``tests``: one object per row, keyed by the TSV
    header. ``summary`` is formatted with the record's values, rounded for
    the terminal, and the output ``path``.
    """
    write_tsv(path, rows, record.items())
    if args.json:
        doc = dict(record, tests=rows.json_rows())
        _atomic_write(path.with_suffix(path.suffix + ".json"), [json.dumps(doc, indent=2), "\n"])
    print(summary.format(path=path, **{k: _human(v) for k, v in record.items()}))


class Table:
    """The data rows of a TSV as text columns aligned with its header.

    ``len()`` is the number of data rows. Columns are parsed whole; the
    input line of a row is looked up only to report an error there.
    """

    def __init__(self, path: Path, header: list[str], columns: list[list[str]], lines: np.ndarray, plain: bool):
        self.path = path
        self.header = header
        self._columns = columns
        self._lines = lines
        self._plain = plain  # no cell holds a character outside the number syntax's alphabet

    def __len__(self) -> int:
        return self._lines.size

    def line(self, row: int) -> int:
        """The 1-based input line of data row ``row``."""
        return int(self._lines[row])

    def column(self, name: str) -> list[str]:
        """The cells of a required column, as text."""
        try:
            return self._columns[self.header.index(name)]
        except ValueError:
            raise UsageError(f"{self.path}: missing required column {name!r}") from None

    def ids(self) -> list[str]:
        """The ``id`` column, each id stripped of surrounding blanks."""
        return list(map(str.strip, self.column("id")))

    def floats(self, name: str) -> np.ndarray:
        """One column parsed as floats; a field that is not a number names its line.

        A number is what ``float`` reads, in ASCII and without ``_``: ``float``
        alone would also read ``1_0`` as 10 and the Arabic-Indic digit one
        as 1. The column is checked as one text only when the table's body
        is not plain ASCII without ``_``, and cell by cell only to name the
        first cell that fails.
        """
        cells = self.column(name)
        with contextlib.suppress(ValueError):
            if self._plain or _plain_text("".join(cells)):
                return np.fromiter(map(float, cells), dtype=float, count=len(cells))
        for row, text in enumerate(cells):
            try:
                if not _plain_text(text):
                    raise ValueError(text)
                float(text)
            except ValueError:
                raise UsageError(
                    f"{self.path}:{self.line(row)}: column {name!r}: cannot parse {text!r} as a number"
                ) from None
        return np.fromiter(map(float, cells), dtype=float, count=len(cells))

    @contextlib.contextmanager
    def row_errors(self):
        """Report a :class:`RowError` as a usage error at the row's input line."""
        try:
            yield
        except RowError as exc:
            raise UsageError(f"{self.path}:{self.line(exc.index)}: {exc.reason}") from None


def _plain_text(text: str) -> bool:
    """Whether ``text`` is ASCII without ``_``: the alphabet of a number, in a cell, a flag or ``$BFDR_SEED``."""
    return text.isascii() and "_" not in text


def _plain_number(kind):
    """An argparse ``type`` reading ``kind`` (``float`` or ``int``) from plain text only (:func:`_plain_text`).

    ``float`` and ``int`` alone would also read ``1_0`` as 10 and the
    Arabic-Indic digit two as 2. argparse names the flag and the value
    when either fails: ``argument --alpha: invalid float value: '0.0_5'``.
    """

    def parse(text: str):
        if not _plain_text(text):
            raise ValueError(text)
        return kind(text)

    parse.__name__ = kind.__name__
    return parse


_FLOAT, _INT = _plain_number(float), _plain_number(int)


def read_table(path: Path) -> tuple[list[str], Table]:
    """Parse a UTF-8 TSV, whatever the locale, into its header and its data rows as a :class:`Table`.

    Skips a byte-order mark, comment (leading ``#``) and blank lines. The
    header must name each column once, and every data line must have
    exactly as many fields as the header.
    """
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8-sig")
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:  # exc.object and exc.start leave out a byte-order mark
        line = len((exc.object[: exc.start].decode() + "x").splitlines())  # lines as splitlines counts below
        raise UsageError(f"{path}:{line}: not UTF-8 text: byte {exc.object[exc.start]:#04x} ({exc.reason})") from None
    lines = text.splitlines()
    del text
    keep = [bool(s := line.strip()) and s[0] != "#" for line in lines]
    kept = list(compress(lines, keep))
    line_numbers = np.flatnonzero(keep) + 1  # the header's, then each data row's
    del lines, keep
    if not kept:
        raise UsageError(f"{path}: empty table (no header line)")
    header = [f.strip() for f in kept[0].split("\t")]
    if len(set(header)) < len(header):
        twice = next(name for i, name in enumerate(header) if name in header[:i])
        raise UsageError(f"{path}:{line_numbers[0]}: duplicate column {twice!r}")
    body = kept[1:]
    k = len(header)
    if set(map(str.count, body, repeat("\t"))) - {k - 1}:
        row = next(i for i, line in enumerate(body) if line.count("\t") != k - 1)
        found = body[row].count("\t") + 1
        raise UsageError(f"{path}:{line_numbers[row + 1]}: expected {k} fields, found {found}")
    if not body:
        raise UsageError(f"{path}: no data rows")
    # Free the lines before the split, so that lines and cells are never all in memory at once.
    joined = "\t".join(body)
    del kept, body
    plain = _plain_text(joined)
    cells = joined.split("\t")
    del joined
    return header, Table(path, header, [cells[j::k] for j in range(k)], line_numbers[1:], plain)


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(_FLOAT(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        raise UsageError(f"{flag}: cannot parse {text!r} as comma-separated numbers") from None
    if not values:
        raise UsageError(f"{flag}: empty list")
    return values


def _parse_pair(text: str, flag: str) -> tuple[float, float]:
    values = _parse_float_list(text, flag)
    if len(values) != 2:
        raise UsageError(f"{flag}: expected low,high")
    return values[0], values[1]


def _grid_from(args) -> OmegaGrid:
    if args.omega_grid is None:
        return DEFAULT_OMEGA_GRID
    try:
        return OmegaGrid(_parse_float_list(args.omega_grid, "--omega-grid"))
    except ValueError as exc:
        raise UsageError(f"--omega-grid: {exc}") from exc


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return _INT(raw)
    except ValueError:
        raise UsageError(f"environment variable {SEED_ENV_VAR}={raw!r} is not an integer") from None


def _batch_from_table(table: Table) -> Batch:
    """The batch of a table with an id column and a bf and/or log_bf column.

    Other columns (z and se among them) are not read: no decision uses them.
    """
    ids = table.ids()
    columns = {name: table.floats(name) for name in ("log_bf", "bf") if name in table.header}
    if not columns:
        raise UsageError(f"{table.path}: need a 'bf' or 'log_bf' column")
    with table.row_errors():
        return Batch(ids, **columns)


def _load_array(path: Path, where: str) -> np.ndarray:
    """A whitespace-separated file's rows of numbers, as a 2-d array; ``where`` names its manifest row."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = np.loadtxt(path, dtype=float, ndmin=2)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"{path}: cannot parse numeric data: {exc}") from exc
    if values.size == 0:
        raise UsageError(f"{where}: {path} holds no data")
    return values


def _genes_from_table(table: Table) -> list[GeneData]:
    """The raw data of each row: a response vector and a genotype matrix read from files.

    File names are relative to the table's directory. A y file holds one
    column; neither file may be empty, and every value must be finite.
    """
    with table.row_errors():
        ids = check_ids(table.ids())
    y_files, g_files = table.column("y_file"), table.column("g_file")
    base = table.path.parent
    genes = []
    for row, rid in enumerate(ids):
        where = f"{table.path}:{table.line(row)}: {rid}"
        y_file, g_file = base / y_files[row].strip(), base / g_files[row].strip()
        y, G = _load_array(y_file, where), _load_array(g_file, where)
        if y.shape[1] != 1:
            raise UsageError(f"{where}: {y_file} holds {y.shape[1]} columns; y must be one column")
        y = y[:, 0]
        for file, values in ((y_file, y), (g_file, G)):
            if not np.isfinite(values).all():
                raise UsageError(f"{where}: {file} holds a non-finite value")
        if G.shape[0] != y.size:
            raise UsageError(f"{where}: y has {y.size} rows but G has {G.shape[0]}")
        genes.append(GeneData(id=rid, y=y, G=G))
    return genes


def _gene_error(table: Table, row: int, exc: ValueError) -> Exception:
    """A failing gene's error at its manifest line: a usage error for a scale, else the numerical error it was."""
    where = f"{table.path}:{table.line(row)}: {table.ids()[row]}"
    if isinstance(exc, ScaleError):
        return UsageError(f"{where}: {exc.reason}")
    return ValueError(f"{where}: {exc.reason if isinstance(exc, RowError) else exc}")


def _checked_floats(table: Table, name: str, ok, expected: str) -> np.ndarray:
    """One float column whose every value passes ``ok``; the first that fails names its line."""
    values = table.floats(name)
    passed = ok(values)
    with table.row_errors():
        if not passed.all():
            i = int(passed.argmin())
            raise RowError(i, f"column {name!r}: {float(values[i])!r} is not {expected}")
    return values


# ---------------------------------------------------------------------------
# bf subcommand


def cmd_bf(args) -> None:
    grid = _grid_from(args)
    in_path = Path(args.input)
    header, table = read_table(in_path)

    if "z" in header and "se" in header:
        with table.row_errors():
            ids = check_ids(table.ids())
        zs = _checked_floats(table, "z", np.isfinite, "finite")
        ses = _checked_floats(table, "se", lambda se: np.isfinite(se) & (se > 0.0), "positive and finite")
        try:
            log_bfs = log_bf_averaged_many(zs, ses, grid)
        except ScaleError as exc:
            raise UsageError(f"{table.path}:{table.line(exc.index)}: {ids[exc.index]}: {exc.reason}") from None
    elif "y_file" in header and "g_file" in header:
        if args.sigma is None and not args.estimate_sigma:
            raise UsageError("raw-data input needs --sigma (or --estimate-sigma)")
        genes = _genes_from_table(table)
        ids = [gene.id for gene in genes]
        # A gene-level row has no single z or se: NaN, written as NA.
        zs, ses, log_bfs = np.full((3, len(genes)), np.nan)
        variant_sigma = None if args.estimate_sigma else args.sigma  # None: estimate per test
        for i, gene in enumerate(genes):
            if gene.G.shape[1] != 1 and args.sigma is None:
                raise UsageError("gene-level input (multi-column g_file) needs --sigma")
            try:
                if gene.G.shape[1] == 1:
                    (zs[i],), (ses[i],) = wald_rows(gene.G.T, gene.y[None], variant_sigma)
                    log_bfs[i] = log_bf_averaged_many(zs[i], ses[i], grid)
                else:
                    log_bfs[i] = checked_gene_design(gene.G, gene.y, args.sigma, grid)[1]
            except ValueError as exc:
                raise _gene_error(table, i, exc) from None
    else:
        raise UsageError(f"{in_path}: need columns (id, z, se) or (id, y_file, g_file)")

    bfs = exp_saturated(log_bfs)
    out = Columns({"id": ids, "z": zs, "se": ses, "log_bf": log_bfs, "bf": bfs})
    record = {"omega_grid": grid.omegas, "m": len(out)}
    _write_report(args, Path(args.output), out, record, "wrote {m} Bayes factors to {path}")


# ---------------------------------------------------------------------------
# fdr subcommand


def _fdr_record(method: str, alpha: float, est: Pi0Estimate) -> dict[str, object]:
    """The head of an ``fdr`` report: method, alpha and the null-proportion estimate, with EBF's
    ``d0`` or the census ``gamma`` of QBF and Storey, and a note when ``pi0_hat`` is 0."""
    record = {"method": method, "alpha": alpha, "m": est.m, "pi0_hat": est.pi0_hat}
    if est.d0 is not None:
        record["d0"] = est.d0
    if est.gamma is not None:
        record["gamma"] = est.gamma
    if est.pi0_hat == 0.0:
        record["note"] = (
            "no p-value above 1 - gamma; every q-value is 0"
            if est.method is Pi0Method.STOREY
            else "pi0_hat is 0 (no evidence of a null fraction); every posterior is 1"
        )
    return record


def _pvalues_from_table(table: Table, method: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Ids and p-values of a table with a 'p' column, or with a 'z' column to derive them from."""
    with table.row_errors():
        ids = check_ids(table.ids())
    if "p" in table.header:
        return ids, _checked_floats(table, "p", lambda p: (p >= 0.0) & (p <= 1.0), "in [0, 1]")
    if "z" not in table.header:
        raise UsageError(f"{table.path}: {method} needs a 'p' column (or 'z' to derive one)")
    return ids, two_sided_normal_p(_checked_floats(table, "z", np.isfinite, "finite"))


def cmd_fdr(args) -> None:
    header, table = read_table(Path(args.input))
    grid = _grid_from(args)

    if args.method in ("bh", "storey"):
        ids, p = _pvalues_from_table(table, args.method)
        est, decision = decide(args.method, args.alpha, args.gamma, pvalues=p)
        out = Columns({"id": ids, "p": p, "q": decision.qvalues, "rejected": decision.rejected})
        tail = {"p_cutoff": decision.p_cutoff, "n_rejected": decision.n_rejected}
        summary = "{method}: m={m} pi0_hat={pi0_hat} p_cutoff={p_cutoff} rejected={n_rejected}"
    else:
        batch, null_q = _bayes_input(args, header, table, grid)
        est, report = decide(args.method, args.alpha, args.gamma, batch, null_q)
        auto = report.auto_rejected
        out = Columns(
            {"id": batch.ids, "bf": batch.bf, "v_hat": report.v_hat, "rejected": report.rejected, "auto": auto}
        )
        tail = {
            "threshold": report.threshold,
            "n_rejected": report.n_rejected,
            "estimated_bfdr": report.estimated_bfdr,
            "n_auto_rejected": int(np.count_nonzero(auto)),
        }
        summary = (
            "{method}: m={m} pi0_hat={pi0_hat} threshold={threshold} rejected={n_rejected} "
            "estimated_bfdr={estimated_bfdr}"
        )
    _write_report(args, Path(args.output), out, _fdr_record(args.method, args.alpha, est) | tail, summary)


def _bayes_input(args, header: list[str], table: Table, grid: OmegaGrid) -> tuple[Batch, np.ndarray | None]:
    """The batch of an EBF or QBF decision, with QBF's null quantiles from a column or by permutation."""
    if args.method == "ebf":
        return _batch_from_table(table), None
    if "null_q" in header:
        null_q = _checked_floats(table, "null_q", lambda q: np.isfinite(q) & (q > 0.0), "positive and finite")
        return _batch_from_table(table), null_q
    if not ("y_file" in header and "g_file" in header):
        raise UsageError(
            "qbf needs a 'null_q' column, or raw-data columns (id, y_file, g_file) with --perms and --sigma"
        )
    if args.perms < 1:
        raise UsageError("qbf from raw data needs --perms >= 1")
    if args.sigma is None:
        raise UsageError("qbf from raw data needs --sigma")
    from .permutation import PermutationPlan
    from .studies import analyze_genes

    genes = _genes_from_table(table)
    try:
        analysis = analyze_genes(genes, args.sigma, grid, args.gamma, PermutationPlan(args.perms, args.seed), args.threads)
    except RowError as exc:  # the first failing gene in manifest order, as its scan names it
        rows = {f"gene {gene.id!r}": i for i, gene in enumerate(genes)}
        if exc.name not in rows:
            raise
        raise _gene_error(table, rows[exc.name], exc) from None
    return analysis.batch, analysis.quantiles


# ---------------------------------------------------------------------------
# sim subcommand


def _sim_records(batch: Batch, alternative: np.ndarray, quantiles=None) -> tuple[Columns, Columns]:
    """A simulated dataset's ``records.tsv`` and ``truth.tsv`` rows."""
    missing = np.full(len(batch), np.nan)
    columns = {
        "id": batch.ids,
        "z": missing if batch.z is None else batch.z,
        "se": missing if batch.se is None else batch.se,
        "log_bf": batch.log_bf,
        "bf": batch.bf,
    }
    if quantiles is not None:
        columns["null_q"] = quantiles
    return Columns(columns), Columns({"id": batch.ids, "true_alt": alternative})


def _dict_columns(rows: list[dict]) -> Columns:
    """Columns of a non-empty list of same-keyed dicts, in the first row's key order:
    text stays text, numbers become arrays."""
    columns = {}
    for name in rows[0]:
        values = [row[name] for row in rows]
        columns[name] = values if values and isinstance(values[0], str) else np.array(values)
    return Columns(columns)


def _aggregate(per_run: list[dict]) -> list[dict]:
    """Collapse per-(pi0, rep, method) rows to per-(pi0, method) summaries."""
    keys = sorted({(row["pi0"], row["method"]) for row in per_run})
    out = []
    for pi0, method in keys:
        sel = [r for r in per_run if r["pi0"] == pi0 and r["method"] == method]
        agg = {"pi0": pi0, "method": method, "reps": len(sel)}
        for fieldname in ("pi0_hat", "fdp", "fnp", "n_rejected"):
            values = [r[fieldname] for r in sel]
            agg[f"mean_{fieldname}"] = sum(values) / len(values)
            agg[f"min_{fieldname}"] = min(values)
            agg[f"max_{fieldname}"] = max(values)
        out.append(agg)
    return out


def _method_row(pi0: float, rep: int, mr: MethodResult) -> dict:
    return {
        "pi0": pi0,
        "rep": rep,
        "method": mr.method,
        "pi0_hat": mr.pi0_hat,
        "n_rejected": mr.eval.n_rejected,
        "fdp": mr.eval.fdp,
        "fnp": mr.eval.fnp,
    }


# Tests per item of study I's map: whole blocks of ``simulate_I``, so that
# a dataset of 10^4 tests makes five items and the workers of a command end
# close together, and a range's formatted rows stay near 0.2 MB.
_SIM_I_RANGE = 2048


def _simulate_i_range(grid: OmegaGrid, write: bool, item) -> tuple:
    """Tests ``start`` to ``stop - 1`` of the study-I dataset ``config``, for ``item = (config, start, stop)``.

    Returns their batch and truth mask, and their ``records.tsv`` and
    ``truth.tsv`` rows formatted when ``write`` (else None).
    """
    from .simulation import simulate_I

    config, start, stop = item
    with _trace.span("simulation.simulate_I"):
        batch, alternative = simulate_I(config, grid, start, stop)
    if not write:
        return batch, alternative, None
    with _trace.span("cli.write_tsv"):
        return batch, alternative, [_Formatted.of(table) for table in _sim_records(batch, alternative)]


def _study_i(args, grid: OmegaGrid, configs: list) -> Iterator[tuple]:
    """Each study-I dataset's study, truth mask and formatted records (None with ``--no-datasets``).

    Every dataset's tests are items of one :func:`~bfdr.studies.imap_parallel`
    map, ``_SIM_I_RANGE`` tests each, so the workers are forked once per
    command and simulate and format later datasets while this process
    analyzes and writes earlier ones.
    """
    from .studies import analyze_study_i, imap_parallel

    m = configs[0].m
    starts = range(0, m, _SIM_I_RANGE)
    items = [(config, start, min(start + _SIM_I_RANGE, m)) for config in configs for start in starts]
    parts = imap_parallel(partial(_simulate_i_range, grid, args.write_datasets), items, args.threads)
    with contextlib.closing(parts):
        for _ in configs:
            batches, alternatives, rows = zip(*islice(parts, len(starts)))
            batch = Batch(
                tuple(chain.from_iterable(b.ids for b in batches)),
                **{name: np.concatenate([getattr(b, name) for b in batches]) for name in ("log_bf", "z", "se")},
            )
            alternative = np.concatenate(alternatives)
            with _trace.span("studies.analyze_study_i"):
                result = analyze_study_i(batch, alternative, args.alpha, args.gamma, grid)
            records = [_Formatted.joined(tables) for tables in zip(*rows)] if args.write_datasets else None
            yield result, alternative, records


def _study_ii(args, grid: OmegaGrid, configs: list) -> Iterator[tuple]:
    """Each study-II dataset's study, truth mask and record tables (None with ``--no-datasets``)."""
    from .studies import simulate_study_ii

    settings = dict(alpha=args.alpha, gamma=args.gamma, n_perms=args.perms, threads=args.threads, grid=grid)
    for config in configs:
        with _trace.span("studies.simulate_study_ii"):
            result, alternative = simulate_study_ii(config, perm_p=args.perm_p, **settings)
        records = _sim_records(result.batch, alternative, result.quantiles) if args.write_datasets else None
        yield result, alternative, records


def cmd_sim(args) -> None:
    from .rng import derive_seed
    from .simulation import SimIConfig, SimIIConfig

    out_dir = Path(args.out)
    grid = _grid_from(args)
    pi0_values = _parse_float_list(args.pi0, "--pi0")
    if any(not 0.0 <= p <= 1.0 for p in pi0_values):
        raise UsageError("--pi0 values must lie in [0, 1]")
    # A value names its dataset directories and its table rows by its {:g} text, so that text must be unique.
    for i, p in enumerate(pi0_values):
        clash = [q for q in pi0_values[:i] if f"{q:g}" == f"{p:g}"]
        if clash:
            raise UsageError(f"--pi0 values {clash[0]!r} and {p!r} are both named pi0_{p:g}")
    # Only the settings the user gave; pi0 and seed are set per replicate below.
    settings = {}
    for name in (f.name for f in fields(SimIIConfig) if f.name not in ("pi0", "seed")):
        value = getattr(args, name)
        if value is not None:
            settings[name] = _parse_pair(value, "--" + name.replace("_", "-")) if name.endswith("_range") else value
    try:
        # Every given setting is range-checked, scenario 2's in scenario 1 too.
        base = SimIIConfig(**settings)
        if args.scenario == 1:
            base = SimIConfig(**{f.name: settings[f.name] for f in fields(SimIConfig) if f.name in settings})
    except ValueError as exc:
        raise UsageError(f"sim settings: {exc}") from None
    per_run: list[dict] = []
    t_start = time.perf_counter()
    _trace.take()  # stages an earlier command in this process left are not this one's

    runs = [(pi0, rep) for pi0 in pi0_values for rep in range(args.reps)]
    configs = [
        replace(base, pi0=pi0, seed=derive_seed(args.seed, "dataset", args.scenario, repr(float(pi0)), rep))
        for pi0, rep in runs
    ]
    studies = (_study_i if args.scenario == 1 else _study_ii)(args, grid, configs)
    with contextlib.closing(studies):
        for (pi0, rep), (result, alternative, records) in zip(runs, studies):
            if records is not None:
                rep_dir = out_dir / f"pi0_{pi0:g}_rep{rep:03d}"
                with _trace.span("cli.write_tsv"):
                    for name, rows in zip(("records.tsv", "truth.tsv"), records):
                        write_tsv(rep_dir / name, rows)
            for stage, seconds in _trace.take().items():
                print(f"[timing] pi0={pi0:g} rep={rep} {stage}: {seconds:.2f}s", file=sys.stderr)
            per_run.extend(_method_row(pi0, rep, mr) for mr in result.results.values())

    record = {"scenario": args.scenario, "alpha": args.alpha, "gamma": args.gamma, "seed": args.seed}
    write_tsv(out_dir / "results.tsv", _dict_columns(per_run), record.items())
    aggregate = _aggregate(per_run)
    write_tsv(out_dir / "aggregate.tsv", _dict_columns(aggregate), record.items())
    if args.json:
        doc = dict(record, runs=per_run, aggregate=aggregate)
        _atomic_write(out_dir / "aggregate.json", [json.dumps(doc, indent=2), "\n"])

    print(f"scenario {args.scenario}: {len(per_run)} method-runs in {time.perf_counter() - t_start:.1f}s")
    print(f"{'pi0':>6} {'method':>8} {'pi0_hat':>22} {'FDP':>8} {'FNP':>8}")
    for row in aggregate:
        spread = f"{_human(row['mean_pi0_hat'])} [{_human(row['min_pi0_hat'])}, {_human(row['max_pi0_hat'])}]"
        print(
            f"{row['pi0']:>6g} {row['method']:>8} {spread:>22} "
            f"{_human(row['mean_fdp']):>8} {_human(row['mean_fnp']):>8}"
        )


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bfdr",
        description="Bayes-factor false discovery rate control",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bf = sub.add_parser("bf", help="compute grid-averaged Bayes factors")
    p_bf.add_argument("--input", required=True, help="TSV with (id, z, se) or (id, y_file, g_file)")
    p_bf.add_argument("--output", required=True, help="output TSV path")
    p_bf.add_argument("--sigma", type=_FLOAT, default=None, help="known residual standard deviation")
    p_bf.add_argument(
        "--estimate-sigma",
        action="store_true",
        help="estimate the residual standard deviation per test (single-variant rows only)",
    )
    p_bf.add_argument("--omega-grid", default=None, help="comma-separated prior scales")
    p_bf.add_argument("--json", action="store_true", help="also write a JSON mirror")
    p_bf.set_defaults(func=cmd_bf)

    p_fdr = sub.add_parser("fdr", help="estimate pi0 and decide at a target FDR")
    p_fdr.add_argument("--input", required=True, help="TSV of test records")
    p_fdr.add_argument("--output", required=True, help="output report TSV path")
    p_fdr.add_argument("--method", required=True, choices=["ebf", "qbf", "storey", "bh"])
    p_fdr.add_argument("--alpha", type=_FLOAT, default=0.05, help="target FDR level")
    p_fdr.add_argument("--gamma", type=_FLOAT, default=0.5, help="census quantile for qbf/storey")
    p_fdr.add_argument("--perms", type=_INT, default=0, help="permutations for qbf from raw data")
    p_fdr.add_argument("--seed", type=_INT, default=None, help=f"base seed (default ${SEED_ENV_VAR} or 0)")
    p_fdr.add_argument("--sigma", type=_FLOAT, default=None, help="residual sd for raw-data input")
    p_fdr.add_argument("--omega-grid", default=None, help="comma-separated prior scales")
    p_fdr.add_argument(
        "--threads", type=_INT, help="worker processes for the raw-data gene scans (default: one per usable core)"
    )
    p_fdr.add_argument("--json", action="store_true", help="also write a JSON mirror")
    p_fdr.set_defaults(func=cmd_fdr)

    p_sim = sub.add_parser("sim", help="run a synthetic study end to end")
    p_sim.add_argument("--scenario", type=_INT, required=True, choices=[1, 2])
    p_sim.add_argument("--out", required=True, help="output directory")
    # The study settings have no default here: the study's config type holds them.
    p_sim.add_argument("--m", type=_INT, help="number of tests (genes)")
    p_sim.add_argument("--n", type=_INT, help="sample size (default 100 / 85 by scenario)")
    p_sim.add_argument("--pi0", default="0.5", help="comma-separated true null proportions")
    p_sim.add_argument("--reps", type=_INT, default=1, help="replicates per pi0")
    p_sim.add_argument("--alpha", type=_FLOAT, default=0.05)
    p_sim.add_argument("--gamma", type=_FLOAT, default=0.5)
    p_sim.add_argument("--mu", type=_FLOAT, help="phenotype intercept")
    p_sim.add_argument("--sigma", type=_FLOAT, help="residual standard deviation")
    p_sim.add_argument("--phi-range", help="effect-scale range low,high")
    p_sim.add_argument("--maf-range", help="allele-frequency range low,high")
    p_sim.add_argument("--k-range", help="variants per gene low,high (scenario 2)")
    p_sim.add_argument("--n-causal-range", help="causal variants low,high (scenario 2)")
    p_sim.add_argument("--ld-decay", type=_FLOAT, help="adjacent dosage correlation (scenario 2)")
    p_sim.add_argument("--perms", type=_INT, default=100, help="permutations for qbf (scenario 2)")
    p_sim.add_argument(
        "--perm-p", type=_INT, default=0, help="permutations for the p-value baselines (scenario 2; 0 skips)"
    )
    p_sim.add_argument("--omega-grid", default=None, help="comma-separated prior scales")
    p_sim.add_argument("--seed", type=_INT, default=None, help=f"base seed (default ${SEED_ENV_VAR} or 0)")
    p_sim.add_argument(
        "--threads",
        type=_INT,
        help="worker processes for scenario 1's test ranges and scenario 2's genes (default: one per usable core)",
    )
    p_sim.add_argument("--json", action="store_true", help="also write aggregate JSON")
    p_sim.add_argument(
        "--no-datasets",
        dest="write_datasets",
        action="store_false",
        help="skip writing per-replicate records/truth files",
    )
    p_sim.set_defaults(func=cmd_sim, write_datasets=True)
    return parser


def _check_flags(args) -> None:
    """Reject a flag value outside its range before any work starts."""
    sigma = getattr(args, "sigma", None)
    if sigma is not None and not (math.isfinite(sigma) and sigma > 0.0):
        raise UsageError("--sigma must be positive and finite")
    for flag in ("alpha", "gamma"):
        value = getattr(args, flag, None)
        if value is not None and not 0.0 < value < 1.0:
            raise UsageError(f"--{flag} must lie in (0, 1)")
    threads = getattr(args, "threads", None)
    if threads is not None and threads < 1:
        raise UsageError("--threads must be at least 1")
    if args.command == "fdr":
        # sim hashes its seed into per-dataset seeds; fdr's seeds a permutation stream directly.
        if not 0 <= args.seed < 2**64:
            raise UsageError(f"--seed (or ${SEED_ENV_VAR}) must lie in [0, 2**64), got {args.seed}")
        if args.method == "qbf" and args.perms >= 1:
            _check_quantile_flags(args)
    if args.command != "sim":
        return
    if args.reps < 1:
        raise UsageError("--reps must be at least 1")
    if args.perms < 1:
        raise UsageError("--perms must be at least 1")
    if args.perm_p < 0:
        raise UsageError("--perm-p must not be negative")
    # Scenario 1's null quantiles are closed-form: no permutation count limits --gamma.
    if args.scenario == 2:
        _check_quantile_flags(args)


def _check_quantile_flags(args) -> None:
    """A permutation null quantile needs at least one permutation below it."""
    if args.gamma * (args.perms + 1) < 1.0:
        raise UsageError("--gamma * (--perms + 1) must be at least 1")


@cache
def _freeze_at_exit() -> None:
    """Freeze the heap at exit, once per process: teardown's collections then skip it (20-30 ms per command)."""
    atexit.register(gc.freeze)


def main(argv: Sequence[str] | None = None) -> int:
    _freeze_at_exit()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "seed") and args.seed is None:
            args.seed = _default_seed()
        _check_flags(args)
        args.func(args)
    except (UsageError, ScaleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ChildProcessError as exc:  # a worker process died
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
