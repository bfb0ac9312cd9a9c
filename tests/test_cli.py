"""Command-line frontend: table IO round trips, exit codes, seeds, and
byte-identical reruns."""
from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bfdr.bayes_factor import GeneDesign, OmegaGrid, log_bf_averaged_many
from bfdr.cli import (
    _BLOCK_ROWS,
    SEED_ENV_VAR,
    Columns,
    UsageError,
    _batch_from_table,
    _full,
    main,
    read_table,
    write_tsv,
)
from bfdr.fdr_control import decide, two_sided_normal_p
from bfdr.model import Batch, exp_saturated


def _averaged_bf(z: float, se: float) -> float:
    return math.exp(float(log_bf_averaged_many(z, se)))


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)


def _comments(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("\t")
            out[key] = value
    return out


def _write_zse_table(path: Path, rows):
    lines = ["id\tz\tse"] + [f"{i}\t{z!r}\t{se!r}" for i, z, se in rows]
    path.write_text("\n".join(lines) + "\n")


def _read_table_by_line(path: Path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Reference reader: one line at a time, into (header, [(line_number, fields), ...])."""
    raw = path.read_text()
    header: list[str] | None = None
    rows: list[tuple[int, list[str]]] = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = line.rstrip("\n").split("\t")
        if header is None:
            header = [f.strip() for f in fields]
            continue
        if len(fields) != len(header):
            raise UsageError(f"{path}:{lineno}: expected {len(header)} fields, found {len(fields)}")
        rows.append((lineno, fields))
    if header is None:
        raise UsageError(f"{path}: empty table (no header line)")
    if not rows:
        raise UsageError(f"{path}: no data rows")
    return header, rows


def _float_column_by_line(rows, index: int, path: Path, column: str) -> np.ndarray:
    """Reference parser: one field at a time; a field that is not a number names its line.

    A number is what ``float`` reads, in ASCII and without ``_``.
    """
    values = []
    for lineno, fields in rows:
        try:
            if not fields[index].isascii() or "_" in fields[index]:
                raise ValueError(fields[index])
            values.append(float(fields[index]))
        except ValueError:
            raise UsageError(
                f"{path}:{lineno}: column {column!r}: cannot parse {fields[index]!r} as a number"
            ) from None
    return np.array(values, dtype=float)


def _tsv_by_row(header, rows, comments) -> str:
    """Reference writer: one cell at a time (floats by repr, flags as 1/0, None as NA)."""

    def cell(x) -> str:
        if isinstance(x, float):
            return repr(x)
        if isinstance(x, bool):
            return str(int(x))
        return "NA" if x is None else str(x)

    lines = [f"# {k}\t{cell(v)}" for k, v in comments] + ["\t".join(header)]
    lines += ["\t".join(cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _wald_with_estimated_sigma(y: np.ndarray, g: np.ndarray) -> tuple[float, float]:
    """Reference slope fit: (z, se) with sigma from the residual sum of squares over n - 2."""
    gc = g - g.mean()
    sxx = float(gc @ gc)
    yc = y - y.mean()
    beta = float(gc @ yc) / sxx
    resid = yc - beta * gc
    sigma = math.sqrt(float(resid @ resid) / (y.size - 2))
    se = sigma / math.sqrt(sxx)
    return beta / se, se


def _outcome(fn, *args):
    """The value of ``fn(*args)``, or the message of the usage error it raises."""
    try:
        return fn(*args), None
    except UsageError as exc:
        return None, str(exc)


_CELLS = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["nan", "-inf", " 2.5 ", "1e5", "1_000", "", "oops", "t1", " id ", "\u0661", "\u00a01.5", "g_1"]),
)


@st.composite
def _table_texts(draw):
    """TSV text with comments, blank lines, CRLF endings, ragged rows and stray text cells."""
    k = draw(st.integers(1, 4))
    names = [f" c{j} " if draw(st.booleans()) else f"c{j}" for j in range(k)]
    lines = [draw(st.sampled_from(["# lead", "", "  "])) for _ in range(draw(st.integers(0, 2)))]
    lines.append("\t".join(names))
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 6 + ["comment", "blank", "ragged"]))
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# note", "  #\tx", "#"])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
        else:
            n = k if kind == "row" else draw(st.sampled_from([max(1, k - 1), k + 1]))
            lines.append("\t".join(draw(st.lists(_CELLS, min_size=n, max_size=n))))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


class TestColumnarReader:
    """The columnar reader against the line-by-line reference reader it replaced."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_table_texts())
    def test_matches_line_by_line_reader(self, tmp_path, text):
        p = tmp_path / "t.tsv"
        p.write_bytes(text.encode())
        expected, expected_error = _outcome(_read_table_by_line, p)
        got, error = _outcome(read_table, p)
        assert error == expected_error
        if expected is None:
            return
        header, rows = expected
        got_header, table = got
        assert got_header == header and table.header == header
        assert len(table) == len(rows)
        assert [table.line(i) for i in range(len(table))] == [n for n, _ in rows]
        for j, name in enumerate(header):
            assert table.column(name) == [fields[j] for _, fields in rows]
            want, want_error = _outcome(_float_column_by_line, rows, j, p, name)
            values, values_error = _outcome(table.floats, name)
            assert values_error == want_error
            if want is not None:
                assert np.array_equal(values.view(np.int64), want.view(np.int64))

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_table_texts())
    @example(text="# c\n c0 \tc1\r\n1\t2\n\n3\t4\n# x\x0b# y\n5\tx\n")  # a block of comments only
    def test_blocks_read_as_one(self, tmp_path, monkeypatch, text):
        """Read a line or so a block, every column parsed as floats, a table reads as in one block: the same
        header, lines, float columns and first failure."""
        from bfdr import cli

        p = tmp_path / "t.tsv"
        p.write_bytes(text.encode())
        outcomes = []
        for block_bytes in (1 << 30, 1):
            monkeypatch.setattr(cli, "_BLOCK_BYTES", block_bytes)
            got, error = _outcome(read_table, p, lambda header: header)
            if got is not None:
                table = got[1]
                got = (got[0], [table.line(i) for i in range(len(table))],
                       [_outcome(table.floats, name) for name in table.header])
            outcomes.append((repr(got), error))
        assert outcomes[0] == outcomes[1]

    def test_keeps_only_id_and_the_named_float_columns(self, tmp_path):
        """A column the command did not name is not kept; asking for its text says so."""
        p = tmp_path / "t.tsv"
        p.write_text("id\tz\tse\tnote\nt1\t1.5\t0.2\tx\n")
        _, table = read_table(p, lambda header: ("z",))
        assert table.ids() == ["t1"] and table.floats("z").tolist() == [1.5]
        for name in ("se", "note", "z"):
            with pytest.raises(LookupError, match=f"column '{name}' was not kept as text"):
                table.column(name)
        with pytest.raises(UsageError, match="missing required column 'p'"):
            table.column("p")

    def test_bad_number_on_a_late_line(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("id\tx\n" + "".join(f"r{i}\t{i}.5\n" for i in range(5000)) + "\n# c\nlast\tx1\n")
        _, table = read_table(p)
        with pytest.raises(UsageError, match=r"t.tsv:5004: column 'x': cannot parse 'x1' as a number"):
            table.floats("x")

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        rows=st.lists(
            st.tuples(
                st.one_of(st.floats(-8.0, 8.0), st.floats(45.0, 80.0), st.floats(-80.0, -45.0)),
                st.floats(0.01, 3.0),
            ),
            min_size=1,
            max_size=25,
        )
    )
    def test_bf_fdr_round_trip(self, tmp_path, rows):
        """bf then fdr ebf/bh: every file parses back to the arrays the library computes."""
        z = np.array([r[0] for r in rows])
        se = np.array([r[1] for r in rows])
        ids = tuple(f"t{i}" for i in range(len(rows)))
        inp, bf_out, ebf_out, bh_out = (tmp_path / n for n in ("in.tsv", "bf.tsv", "ebf.tsv", "bh.tsv"))
        _write_zse_table(inp, zip(ids, z.tolist(), se.tolist()))
        assert main(["bf", "--input", str(inp), "--output", str(bf_out)]) == 0
        _, table = read_table(bf_out)
        log_bf = log_bf_averaged_many(z, se)
        assert tuple(table.ids()) == ids
        for name, want in (("z", z), ("se", se), ("log_bf", log_bf), ("bf", exp_saturated(log_bf))):
            assert np.array_equal(table.floats(name), want), name
        batch = _batch_from_table(table)  # the bf / log_bf agreement check
        assert np.array_equal(batch.bf, exp_saturated(log_bf))

        assert main(["fdr", "--method", "ebf", "--input", str(bf_out), "--output", str(ebf_out)]) == 0
        _, report = read_table(ebf_out)
        _, want = decide("ebf", 0.05, 0.5, batch)
        assert tuple(report.ids()) == ids
        assert np.array_equal(report.floats("bf"), batch.bf)
        assert np.array_equal(report.floats("v_hat"), want.v_hat)
        assert np.array_equal(report.floats("rejected") == 1.0, want.rejected)
        assert np.array_equal(report.floats("auto") == 1.0, want.auto_rejected)
        assert np.array_equal(_batch_from_table(report).bf, batch.bf)

        assert main(["fdr", "--method", "bh", "--input", str(bf_out), "--output", str(bh_out)]) == 0
        _, report = read_table(bh_out)
        p = two_sided_normal_p(z)
        _, want = decide("bh", 0.05, pvalues=p)
        assert np.array_equal(report.floats("p"), p)
        assert np.array_equal(report.floats("q"), want.qvalues)
        assert np.array_equal(report.floats("rejected") == 1.0, want.rejected)


def _summary_lines(n: int = 300) -> list[str]:
    """An (id, z, se) table's lines, with comment and blank lines among the rows, and comment lines that
    ``str.splitlines`` breaks in two at a vertical tab, a line separator, a next-line or a lone carriage return."""
    rng = np.random.default_rng(4)
    lines = ["id\tz\tse"]
    for i in range(n):
        lines.append(f"t{i:03d}\t{rng.normal()!r}\t{rng.uniform(0.1, 0.5)!r}")
        lines += {7: ["# a comment\x0b# split by a vertical tab"], 11: [" "],
                  19: ["# a comment\u2028# split by a line separator\x85# and a next-line"],
                  29: ["# a comment\r# split by a carriage return", ""]}.get(i % 37, [])
    return lines


# Rows of the table: two in its first 4 kB block and two in its last.
_FIRST, _FIRST_2, _LATE, _LATE_2 = 15, 25, 260, 285
_MARK = "\ue000"  # stands for a byte that is not UTF-8


def _defective(row: str, defect: str, twin: str) -> str:
    """``row`` with ``defect``; a duplicate takes the id of the row ``twin``."""
    rid, z, se = row.split("\t")
    return {
        "number": f"{rid}\tx1\t{se}",
        "fields": f"{row}\textra",
        "empty-id": f" \t{z}\t{se}",
        "duplicate": f"{twin.split(chr(9))[0]}\t{z}\t{se}",
        "not-utf8": f"{rid}\t{z}{_MARK}\t{se}",
        "scale": f"{rid}\t{z}\t1e-170",
    }[defect]


_MESSAGES = {
    "number": "column 'z': cannot parse 'x1' as a number",
    "fields": "expected 3 fields, found 4",
    "empty-id": "id must be a non-empty string",
    "duplicate": "duplicate id",
    "not-utf8": "not UTF-8 text: byte 0xff (invalid start byte)",
    "scale": "standard error 1e-170 squares to 0.0",
}
# Which rows fail how, and which of them the error names: each defect in the first block, in a later block
# and in both (a duplicate id across two blocks), and a later check's failure in one block beside an
# earlier check's failure in the other.
_PLACEMENTS = {
    **{f"{d}-first": ({_FIRST: d}, _FIRST) for d in _MESSAGES if d != "duplicate"},
    **{f"{d}-late": ({_LATE: d}, _LATE) for d in _MESSAGES if d != "duplicate"},
    **{f"{d}-both": ({_FIRST: d, _LATE: d}, _FIRST) for d in _MESSAGES if d != "duplicate"},
    "duplicate-first": ({_FIRST_2: "duplicate"}, _FIRST_2),
    "duplicate-late": ({_LATE_2: "duplicate"}, _LATE_2),
    "duplicate-across": ({_LATE: "duplicate"}, _LATE),
    "fields-after-number": ({_FIRST: "number", _LATE: "fields"}, _LATE),
    "not-utf8-after-fields": ({_FIRST: "fields", _LATE: "not-utf8"}, _LATE),
    "duplicate-before-number": ({_FIRST_2: "duplicate", _LATE: "number"}, _FIRST_2),
    "number-before-scale": ({_FIRST: "scale", _LATE: "number"}, _LATE),
}
_TWINS = {_FIRST_2: _FIRST, _LATE_2: _LATE, _LATE: _FIRST}  # the row whose id a duplicate takes
# Bytes per read block: the whole 14 kB table in one, in four, and in fourteen.
_BLOCKS = (1 << 30, 4096, 1024)


def _row_line(text: str, row: int) -> int:
    """The line of data row ``row`` of a table's text, by ``str.splitlines``."""
    rows = [i for i, line in enumerate(text.splitlines(), 1) if line.strip() and not line.strip().startswith("#")]
    return rows[row + 1]


class TestTableBlocks:
    """``bf`` and ``fdr`` on a table read in one block or in many name the same first failure."""

    @staticmethod
    def _write(path: Path, defects: dict[int, str]) -> str:
        """Write the table with ``defects`` (data row -> defect); return its text, a byte not UTF-8 left marked."""
        lines = _summary_lines()
        rows = [i for i, line in enumerate(lines) if line.startswith("t")]
        for row, defect in defects.items():
            lines[rows[row]] = _defective(lines[rows[row]], defect, lines[rows[_TWINS.get(row, 0)]])
        text = "\n".join(lines) + "\n"
        path.write_bytes(text.encode().replace(_MARK.encode(), b"\xff"))
        return text

    def test_the_rows_lie_in_the_blocks_named(self, tmp_path, monkeypatch):
        from bfdr import cli

        self._write(tmp_path / "zse.tsv", {})
        data = (tmp_path / "zse.tsv").read_bytes()
        monkeypatch.setattr(cli, "_BLOCK_BYTES", 4096)
        blocks = list(cli._blocks(data, 0))
        assert len(blocks) == 4 and blocks[0][0] == 0 and blocks[-1][1] == len(data)
        assert all(a == b for (_, a), (b, _) in zip(blocks, blocks[1:]))
        assert all(4096 <= b - a and data[b - 1 : b] == b"\n" for a, b in blocks[:-1])
        assert data.index(f"\nt{_FIRST_2:03d}\t".encode()) < blocks[0][1]
        assert blocks[-1][0] < data.index(f"\nt{_LATE:03d}\t".encode())

    @pytest.mark.parametrize("placement", list(_PLACEMENTS))
    def test_the_first_failure_is_named_alike(self, tmp_path, capsys, monkeypatch, placement):
        from bfdr import cli

        defects, named = _PLACEMENTS[placement]
        table = tmp_path / "zse.tsv"
        text = self._write(table, defects)
        line = _row_line(text, named)
        outcomes = []
        for block_bytes in _BLOCKS:
            monkeypatch.setattr(cli, "_BLOCK_BYTES", block_bytes)
            code = main(["bf", "--input", str(table), "--output", str(tmp_path / "bf.tsv")])
            outcomes.append((code, capsys.readouterr().err))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        code, err = outcomes[0]
        assert code == 2 and err.startswith(f"error: {table}:{line}: ") and _MESSAGES[defects[named]] in err
        assert not (tmp_path / "bf.tsv").exists()

    @pytest.mark.parametrize("method", ["ebf", "bh"])
    def test_fdr_names_the_first_bad_cell_alike(self, tmp_path, capsys, monkeypatch, method):
        """A bad number in the first and a later block of the ``bf`` output, in the column each method reads."""
        from bfdr import cli

        table = tmp_path / "zse.tsv"
        self._write(table, {})
        assert main(["bf", "--input", str(table), "--output", str(tmp_path / "bf.tsv")]) == 0
        lines = (tmp_path / "bf.tsv").read_text().splitlines()
        column = "bf" if method == "ebf" else "z"
        j = lines[2].split("\t").index(column)
        for row in (40, 250):
            fields = lines[row].split("\t")
            fields[j] = "1,5"
            lines[row] = "\t".join(fields)
        (tmp_path / "bad.tsv").write_text("\n".join(lines) + "\n")
        outcomes = []
        for block_bytes in _BLOCKS:
            monkeypatch.setattr(cli, "_BLOCK_BYTES", block_bytes)
            argv = ["fdr", "--method", method, "--input", str(tmp_path / "bad.tsv"), "--output", str(tmp_path / "out.tsv")]
            outcomes.append((main(argv), capsys.readouterr().err))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert outcomes[0] == (2, f"error: {tmp_path / 'bad.tsv'}:41: column {column!r}: cannot parse '1,5' as a number\n")


class TestTableIO:
    @pytest.mark.parametrize(
        "cell", ["1_0", "1__0", "\u0661", "1\u0660", "\u00a01.5", "\uff11"], ids=["underscore", "underscores",
        "arabic-indic-one", "arabic-indic-zero", "nbsp", "fullwidth-one"]
    )
    @pytest.mark.parametrize("column", ["z", "se"])
    def test_a_number_is_ascii_without_underscores(self, tmp_path, capsys, cell, column):
        """``float`` reads each of these cells; a table cell names its line instead."""
        rows = [("a", "1.5", "0.5"), ("b", cell if column == "z" else "2", cell if column == "se" else "0.5")]
        inp = tmp_path / "in.tsv"
        inp.write_text("id\tz\tse\n" + "".join("\t".join(row) + "\n" for row in rows), encoding="utf-8")
        out = tmp_path / "out.tsv"
        assert main(["bf", "--input", str(inp), "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {inp}:3: column {column!r}: cannot parse {cell!r} as a number\n"
        assert not out.exists()

    def test_ids_outside_the_number_syntax_are_kept(self, tmp_path):
        """Only number cells are held to the syntax: ids may hold '_' and any letter."""
        inp = tmp_path / "in.tsv"
        inp.write_text("id\tz\tse\ngène_1\t1.5\t0.5\nb\t-2e0\t0.25\n", encoding="utf-8")
        _, table = read_table(inp)
        assert table.ids() == ["gène_1", "b"]
        assert table.floats("z").tolist() == [1.5, -2.0] and table.floats("se").tolist() == [0.5, 0.25]

    def test_an_undecodable_byte_names_its_line(self, tmp_path, capsys):
        inp, out = tmp_path / "in.tsv", tmp_path / "out.tsv"
        inp.write_bytes(b"id\tz\tse\na\t1.0\t0.2\n\xe9\t1.0\t0.2\n")
        assert main(["bf", "--input", str(inp), "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {inp}:3: not UTF-8 text: byte 0xe9 (invalid continuation byte)\n"
        assert not out.exists()

    def test_utf8_ids_under_an_ascii_locale(self, tmp_path):
        """Tables are read and written as UTF-8 whatever the locale's codec."""
        inp = tmp_path / "in.tsv"
        inp.write_bytes("id\tz\tse\n\u00e9\t1.0\t0.2\n".encode())
        env = dict(os.environ, PYTHONUTF8="0", LC_ALL="C", PYTHONPATH=os.pathsep.join(sys.path))
        argv = [sys.executable, "-m", "bfdr.cli", "bf", "--input", str(inp)]
        proc = subprocess.run([*argv, "--output", str(tmp_path / "c.tsv")], env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert main(["bf", "--input", str(inp), "--output", str(tmp_path / "utf8.tsv")]) == 0
        assert (tmp_path / "c.tsv").read_bytes() == (tmp_path / "utf8.tsv").read_bytes()
        assert "\n\u00e9\t".encode() in (tmp_path / "c.tsv").read_bytes()

    def test_a_byte_order_mark_before_the_header(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_bytes(b"\xef\xbb\xbfid\tbf\na\t2.0\n")
        header, table = read_table(p)
        assert header == ["id", "bf"] and table.ids() == ["a"]

    def test_byte_order_mark_and_crlf_give_the_plain_tables_bytes(self, tmp_path):
        text = "# note\nid\tz\tse\n\u00e9\t1.0\t0.2\nb\t-3.5\t0.25\n"
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.mkdir()
        marked.mkdir()
        (plain / "in.tsv").write_bytes(text.encode())
        (marked / "in.tsv").write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode())
        for d in (plain, marked):
            assert main(["bf", "--input", str(d / "in.tsv"), "--output", str(d / "bf.tsv")]) == 0
        assert (plain / "bf.tsv").read_bytes() == (marked / "bf.tsv").read_bytes()

    def test_read_table_skips_comments_and_blanks(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("# note\tx\n\nid\tbf\na\t2.0\n\nb\t0.5\n")
        header, table = read_table(p)
        assert header == ["id", "bf"]
        assert (table.column("id"), table.column("bf")) == (["a", "b"], ["2.0", "0.5"])
        assert [table.line(i) for i in range(len(table))] == [4, 6]

    def test_read_table_field_count_mismatch(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("id\tbf\na\t2.0\textra\n")
        with pytest.raises(Exception, match="t.tsv:2"):
            read_table(p)

    def test_read_table_empty_file(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("")
        with pytest.raises(Exception, match="empty"):
            read_table(p)

    def test_records_round_trip_exactly(self, tmp_path):
        batch = Batch(["a", "b", "huge", "tiny"], log_bf=[math.log(2.5), math.log(0.125), 800.0, -800.0])
        p = tmp_path / "records.tsv"
        m = len(batch)
        write_tsv(
            p,
            Columns(
                {"id": batch.ids, "z": np.full(m, 1.3), "se": np.full(m, np.nan), "log_bf": batch.log_bf, "bf": batch.bf}
            ),
        )
        header, table = read_table(p)
        assert table.column("se") == ["NA"] * m
        back = _batch_from_table(table)
        assert back.ids == batch.ids
        assert np.array_equal(back.log_bf, batch.log_bf)
        assert np.array_equal(back.bf, batch.bf)

    def test_write_matches_row_by_row_formatting(self, tmp_path):
        """Blocks of columns write the bytes the per-cell writer wrote, across block edges."""
        rng = np.random.default_rng(4)
        m = 2 * _BLOCK_ROWS + 17
        x = rng.standard_normal(m) * 10.0 ** rng.integers(-30, 30, m)
        x[::97] = np.nan
        ids = [f"r{i}" for i in range(m)]
        n = rng.integers(-5, 10**12, m)
        flag = rng.random(m) < 0.5
        comments = [("alpha", 0.05), ("m", m), ("note", "a b")]
        p = tmp_path / "t.tsv"
        write_tsv(p, Columns({"id": ids, "x": x, "n": n, "flag": flag}), comments)
        rows = zip(ids, [None if math.isnan(v) else v for v in x.tolist()], n.tolist(), flag.tolist())
        assert p.read_text() == _tsv_by_row(["id", "x", "n", "flag"], rows, comments)

    def test_atomic_write_no_partial_on_row_failure(self, tmp_path):
        target = tmp_path / "out.tsv"

        class Unprintable:
            def __repr__(self):
                raise RuntimeError("boom")

        # The bad cell sits in the second block, after the first was written.
        column = np.array([1.0] * (_BLOCK_ROWS + 1) + [Unprintable()], dtype=object)
        with pytest.raises(RuntimeError):
            write_tsv(target, Columns({"id": [f"r{i}" for i in range(column.size)], "x": column}))
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_atomic_write_cleans_temp_on_rename_failure(self, tmp_path, monkeypatch):
        target = tmp_path / "out.tsv"

        def fail(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            write_tsv(target, Columns({"id": ["a"]}))
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []


class TestBfCommand:
    def test_zse_mode(self, tmp_path, capsys):
        inp = tmp_path / "in.tsv"
        _write_zse_table(inp, [("a", 2.0, 0.5), ("b", 0.0, 1.0)])
        out = tmp_path / "out.tsv"
        code = main(["bf", "--input", str(inp), "--output", str(out), "--json"])
        assert code == 0
        header, table = read_table(out)
        assert header == ["id", "z", "se", "log_bf", "bf"]
        got = dict(zip(table.ids(), table.floats("bf").tolist()))
        assert got["a"] == pytest.approx(_averaged_bf(2.0, 0.5), rel=1e-12)
        assert got["b"] == pytest.approx(_averaged_bf(0.0, 1.0), rel=1e-12)
        mirror = json.loads(Path(str(out) + ".json").read_text())
        assert [t["id"] for t in mirror["tests"]] == ["a", "b"]

    def test_raw_single_variant_mode(self, tmp_path):
        rng = np.random.default_rng(2)
        g = rng.binomial(2, 0.4, size=50).astype(float)
        y = 1.0 + 0.8 * g + rng.normal(size=50)
        np.savetxt(tmp_path / "y.txt", y)
        np.savetxt(tmp_path / "g.txt", g)
        inp = tmp_path / "genes.tsv"
        inp.write_text("id\ty_file\tg_file\nv1\ty.txt\tg.txt\n")
        out = tmp_path / "out.tsv"
        assert main(["bf", "--input", str(inp), "--output", str(out), "--sigma", "1.0"]) == 0
        header, table = read_table(out)
        z, se, log_bf, bf = (float(table.floats(name)[0]) for name in ("z", "se", "log_bf", "bf"))
        assert log_bf == float(log_bf_averaged_many(z, se))
        assert bf == math.exp(log_bf)  # bf and log_bf come from one kernel

    def test_estimate_sigma_bytes(self, tmp_path):
        """Single-variant rows get the least-squares Wald statistic with the residual sigma
        (n - 2 degrees of freedom); a multi-variant row gets the gene Bayes factor at --sigma."""
        rng = np.random.default_rng(6)
        manifest = ["id\ty_file\tg_file"]
        rows = []
        for i, k in enumerate((1, 1, 4, 1)):
            G = rng.binomial(2, 0.4, size=(30, k)).astype(float)
            y = 0.9 * G[:, 0] * (i == 0) + rng.normal(size=30)
            np.savetxt(tmp_path / f"y{i}.txt", y)
            np.savetxt(tmp_path / f"g{i}.txt", G)
            manifest.append(f"v{i}\ty{i}.txt\tg{i}.txt")
            y, G = np.loadtxt(tmp_path / f"y{i}.txt"), np.loadtxt(tmp_path / f"g{i}.txt", ndmin=2)
            if k == 1:
                z, se = _wald_with_estimated_sigma(y, G[:, 0])
                log_bf = float(log_bf_averaged_many(z, se))
            else:
                z = se = None
                log_bf = float(GeneDesign(G, 1.0).log_gene_bf(y)[0])
            rows.append((f"v{i}", z, se, log_bf, float(exp_saturated(log_bf)[0])))
        inp = tmp_path / "genes.tsv"
        inp.write_text("\n".join(manifest) + "\n")
        out = tmp_path / "out.tsv"
        assert main(["bf", "--input", str(inp), "--output", str(out), "--sigma", "1.0", "--estimate-sigma"]) == 0
        comments = [("omega_grid", "0.1,0.2,0.4,0.8,1.6"), ("m", 4)]
        assert out.read_text() == _tsv_by_row(["id", "z", "se", "log_bf", "bf"], rows, comments)

    @pytest.mark.parametrize(
        "y, g, sigma_flags",
        [
            pytest.param(np.arange(10.0), np.ones(10), ["--sigma", "1"], id="constant-g-known-sigma"),
            pytest.param(np.arange(10.0), np.ones(10), ["--estimate-sigma"], id="constant-g-estimated-sigma"),
            pytest.param(np.ones(10), np.arange(10.0) % 3, ["--estimate-sigma"], id="constant-y-estimated-sigma"),
        ],
    )
    def test_single_variant_row_error_names_its_line(self, tmp_path, capsys, y, g, sigma_flags):
        np.savetxt(tmp_path / "y.txt", y)
        np.savetxt(tmp_path / "g.txt", g)
        inp = tmp_path / "in.tsv"
        inp.write_text("id\ty_file\tg_file\nv1\ty.txt\tg.txt\n")
        out = tmp_path / "out.tsv"
        assert main(["bf", "--input", str(inp), "--output", str(out), *sigma_flags]) == 3
        assert capsys.readouterr().err.startswith(f"numerical error: {inp}:2: v1: ")
        assert not out.exists()

    def test_raw_gene_mode_needs_sigma(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        G = rng.binomial(2, 0.3, size=(30, 4)).astype(float)
        y = rng.normal(size=30)
        np.savetxt(tmp_path / "y.txt", y)
        np.savetxt(tmp_path / "G.txt", G)
        inp = tmp_path / "genes.tsv"
        inp.write_text("id\ty_file\tg_file\ngene1\ty.txt\tG.txt\n")
        out = tmp_path / "out.tsv"
        assert main(["bf", "--input", str(inp), "--output", str(out)]) == 2
        assert "--sigma" in capsys.readouterr().err
        assert main(["bf", "--input", str(inp), "--output", str(out), "--sigma", "1.0"]) == 0

    @pytest.mark.parametrize(
        "column, bad, expected",
        [
            pytest.param("z", "nan", "finite", id="z-nan"),
            pytest.param("z", "-inf", "finite", id="z-inf"),
            pytest.param("se", "-0.5", "positive and finite", id="se-negative"),
            pytest.param("se", "0", "positive and finite", id="se-zero"),
            pytest.param("se", "inf", "positive and finite", id="se-inf"),
            pytest.param("se", "nan", "positive and finite", id="se-nan"),
        ],
    )
    def test_bad_z_or_se_names_the_line(self, tmp_path, capsys, column, bad, expected):
        inp = tmp_path / "in.tsv"
        z, se = (bad, "0.2") if column == "z" else ("1.5", bad)
        inp.write_text(f"id\tz\tse\na\t0.3\t0.2\n# note\nb\t{z}\t{se}\n")
        out = tmp_path / "out.tsv"
        assert main(["bf", "--input", str(inp), "--output", str(out)]) == 2
        assert f"in.tsv:4: column {column!r}: {float(bad)!r} is not {expected}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "rows, message",
        [
            pytest.param("a\t1.0\t0.2\na\t2.0\t0.2\n", "in.tsv:3: duplicate id 'a'", id="duplicate"),
            pytest.param("a\t1.0\t0.2\n \t2.0\t0.2\n", "in.tsv:3: id must be a non-empty string", id="empty"),
        ],
    )
    def test_bad_zse_ids_name_the_line(self, tmp_path, capsys, rows, message):
        """Every table bf writes is one fdr accepts: ids are unique and non-empty."""
        inp = tmp_path / "in.tsv"
        inp.write_text("id\tz\tse\n" + rows)
        out = tmp_path / "out.tsv"
        assert main(["bf", "--input", str(inp), "--output", str(out)]) == 2
        assert f"error: {tmp_path / message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "second_id, message",
        [
            pytest.param("g0", "genes.tsv:3: duplicate id 'g0'", id="duplicate"),
            pytest.param(" ", "genes.tsv:3: id must be a non-empty string", id="empty"),
        ],
    )
    def test_bad_manifest_ids_name_the_line(self, tmp_path, capsys, second_id, message):
        rng = np.random.default_rng(4)
        for i in range(2):
            np.savetxt(tmp_path / f"y{i}.txt", rng.normal(size=20))
            np.savetxt(tmp_path / f"g{i}.txt", rng.binomial(2, 0.3, size=20))
        inp = tmp_path / "genes.tsv"
        inp.write_text(f"id\ty_file\tg_file\ng0\ty0.txt\tg0.txt\n{second_id}\ty1.txt\tg1.txt\n")
        out = tmp_path / "out.tsv"
        assert main(["bf", "--input", str(inp), "--output", str(out), "--sigma", "1.0"]) == 2
        assert f"error: {tmp_path / message}" in capsys.readouterr().err
        assert not out.exists()

    def test_omega_grid_reaches_the_comment_and_the_bayes_factors(self, tmp_path):
        inp = tmp_path / "in.tsv"
        _write_zse_table(inp, [("a", 2.0, 0.5), ("b", -0.4, 0.2)])
        out = tmp_path / "out.tsv"
        assert main(["bf", "--input", str(inp), "--output", str(out), "--omega-grid", "0.3,1.2", "--json"]) == 0
        assert _comments(out)["omega_grid"] == "0.3,1.2"
        assert json.loads(Path(str(out) + ".json").read_text())["omega_grid"] == [0.3, 1.2]
        _, table = read_table(out)
        expected = log_bf_averaged_many(np.array([2.0, -0.4]), np.array([0.5, 0.2]), OmegaGrid((0.3, 1.2)))
        assert table.floats("log_bf").tolist() == expected.tolist()
        assert expected.tolist() != log_bf_averaged_many(np.array([2.0, -0.4]), np.array([0.5, 0.2])).tolist()


class TestFdrCommand:
    def test_ebf_worked_example(self, tmp_path, capsys):
        inp = tmp_path / "in.tsv"
        inp.write_text("id\tbf\na\t0.5\nb\t0.8\nc\t2.0\n")
        out = tmp_path / "report.tsv"
        code = main(["fdr", "--input", str(inp), "--output", str(out), "--method", "ebf"])
        assert code == 0
        comments = _comments(out)
        assert float(comments["pi0_hat"]) == 2 / 3
        assert comments["d0"] == "2"
        assert comments["n_rejected"] == "0"
        assert float(comments["threshold"]) == 0.5  # v_hat of the top test
        assert "pi0_hat=0.666667" in capsys.readouterr().out

    def test_ebf_auto_column_present(self, tmp_path):
        # One extreme Bayes factor (>= m / alpha = 60) must be auto-marked.
        inp = tmp_path / "in.tsv"
        inp.write_text("id\tbf\na\t100.0\nb\t0.5\nc\t0.8\n")
        out = tmp_path / "report.tsv"
        assert main(
            ["fdr", "--input", str(inp), "--output", str(out), "--method", "ebf", "--alpha", "0.05"]
        ) == 0
        header, table = read_table(out)
        auto = dict(zip(table.ids(), table.column("auto")))
        rejected = dict(zip(table.ids(), table.column("rejected")))
        assert auto["a"] == "1" and rejected["a"] == "1"
        assert auto["b"] == "0"
        assert _comments(out)["n_auto_rejected"] == "1"

    def test_qbf_with_null_q_column(self, tmp_path):
        inp = tmp_path / "in.tsv"
        inp.write_text(
            "id\tbf\tnull_q\na\t0.2\t1.0\nb\t0.3\t1.0\nc\t1.5\t1.0\nd\t9.0\t1.0\n"
        )
        out = tmp_path / "report.tsv"
        assert main(["fdr", "--input", str(inp), "--output", str(out), "--method", "qbf"]) == 0
        assert float(_comments(out)["pi0_hat"]) == 1.0

    def test_qbf_without_quantiles_or_raw_data(self, tmp_path, capsys):
        inp = tmp_path / "in.tsv"
        inp.write_text("id\tbf\na\t0.5\n")
        out = tmp_path / "report.tsv"
        assert main(["fdr", "--input", str(inp), "--output", str(out), "--method", "qbf"]) == 2
        err = capsys.readouterr().err
        assert "null_q" in err

    @staticmethod
    def _write_raw_genes(tmp_path: Path, n_genes: int) -> Path:
        rng = np.random.default_rng(5)
        inp = tmp_path / "genes.tsv"
        lines = ["id\ty_file\tg_file"]
        for i in range(n_genes):
            G = rng.binomial(2, 0.3, size=(40, 5)).astype(float)
            y = rng.normal(size=40)
            np.savetxt(tmp_path / f"y{i}.txt", y)
            np.savetxt(tmp_path / f"G{i}.txt", G)
            lines.append(f"g{i}\ty{i}.txt\tG{i}.txt")
        inp.write_text("\n".join(lines) + "\n")
        return inp

    def test_qbf_from_raw_data_with_permutations(self, tmp_path):
        inp = self._write_raw_genes(tmp_path, 3)
        out = tmp_path / "report.tsv"
        code = main(
            [
                "fdr", "--input", str(inp), "--output", str(out), "--method", "qbf",
                "--perms", "19", "--sigma", "1.0", "--seed", "4",
            ]
        )
        assert code == 0
        header, table = read_table(out)
        assert len(table) == 3
        assert 0.0 <= float(_comments(out)["pi0_hat"]) <= 1.0

    def test_qbf_raw_data_identical_for_any_worker_count(self, tmp_path):
        inp = self._write_raw_genes(tmp_path, 6)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"report{threads}.tsv"
            code = main(
                [
                    "fdr", "--input", str(inp), "--output", str(out), "--method", "qbf",
                    "--perms", "29", "--sigma", "1.0", "--seed", "4", "--json",
                    "--threads", threads,
                ]
            )
            assert code == 0
            outputs.append((out.read_bytes(), out.with_suffix(".tsv.json").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_bh_from_p_column(self, tmp_path):
        inp = tmp_path / "in.tsv"
        inp.write_text("id\tp\na\t0.001\nb\t0.02\nc\t0.9\n")
        out = tmp_path / "report.tsv"
        assert main(["fdr", "--input", str(inp), "--output", str(out), "--method", "bh"]) == 0
        header, table = read_table(out)
        rejected = dict(zip(table.ids(), table.column("rejected")))
        assert rejected == {"a": "1", "b": "1", "c": "0"}
        assert float(_comments(out)["p_cutoff"]) == 0.02

    def test_storey_derives_p_from_z(self, tmp_path):
        inp = tmp_path / "in.tsv"
        _write_zse_table(inp, [("a", 5.0, 1.0), ("b", 0.1, 1.0), ("c", 0.2, 1.0)])
        out = tmp_path / "report.tsv"
        assert main(["fdr", "--input", str(inp), "--output", str(out), "--method", "storey"]) == 0
        header, table = read_table(out)
        pvals = dict(zip(table.ids(), table.floats("p").tolist()))
        assert pvals["a"] == pytest.approx(5.733031437583869e-07, rel=1e-9)

    def test_missing_p_and_z(self, tmp_path, capsys):
        inp = tmp_path / "in.tsv"
        inp.write_text("id\tbf\na\t2.0\n")
        out = tmp_path / "report.tsv"
        assert main(["fdr", "--input", str(inp), "--output", str(out), "--method", "bh"]) == 2
        assert "'p' column" in capsys.readouterr().err

    def test_bad_number_names_line_and_column(self, tmp_path, capsys):
        inp = tmp_path / "in.tsv"
        inp.write_text("id\tbf\na\t2.0\nb\toops\n")
        out = tmp_path / "report.tsv"
        assert main(["fdr", "--input", str(inp), "--output", str(out), "--method", "ebf"]) == 2
        err = capsys.readouterr().err
        assert ":3:" in err and "'bf'" in err and "oops" in err

    @pytest.mark.parametrize("method", ["bh", "storey"])
    @pytest.mark.parametrize("bad", ["nan", "-0.1", "1.5"])
    def test_p_out_of_range_names_the_line(self, tmp_path, capsys, method, bad):
        inp = tmp_path / "in.tsv"
        inp.write_text(f"id\tp\na\t0.1\n# note\nb\t{bad}\nc\t0.3\n")
        out = tmp_path / "report.tsv"
        assert main(["fdr", "--input", str(inp), "--output", str(out), "--method", method]) == 2
        assert f"in.tsv:4: column 'p': {float(bad)!r} is not in [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["bh", "storey"])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_nonfinite_z_names_the_line(self, tmp_path, capsys, method, bad):
        inp = tmp_path / "in.tsv"
        inp.write_text(f"id\tz\na\t0.1\nb\t{bad}\n")
        out = tmp_path / "report.tsv"
        assert main(["fdr", "--input", str(inp), "--output", str(out), "--method", method]) == 2
        assert f"in.tsv:3: column 'z': {float(bad)!r} is not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "-1", "0", "inf", "1e400"])
    def test_null_q_out_of_range_names_the_line(self, tmp_path, capsys, bad):
        inp = tmp_path / "in.tsv"
        inp.write_text(f"id\tbf\tnull_q\na\t2.0\t1.0\nb\t0.5\t{bad}\n")
        out = tmp_path / "report.tsv"
        assert main(["fdr", "--input", str(inp), "--output", str(out), "--method", "qbf"]) == 2
        assert f"in.tsv:3: column 'null_q': {float(bad)!r} is not positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_disagreeing_bf_and_log_bf_name_the_line(self, tmp_path, capsys):
        inp = tmp_path / "in.tsv"
        inp.write_text("id\tlog_bf\tbf\na\t0.0\t1.0\nb\t0.0\t1000000000.0\n")
        out = tmp_path / "report.tsv"
        assert main(["fdr", "--input", str(inp), "--output", str(out), "--method", "ebf"]) == 2
        err = capsys.readouterr().err
        assert "in.tsv:3:" in err and "disagree" in err
        assert not out.exists()

    def test_bf_outputs_with_saturated_rows_are_accepted(self, tmp_path):
        """bf writes the float max as bf beyond log_bf 709; fdr reads both columns back."""
        inp = tmp_path / "in.tsv"
        _write_zse_table(inp, [("a", 2.0, 0.5), ("s1", 60.0, 0.1), ("s2", -45.0, 0.3), ("n", 0.1, 1.0)])
        bf_out = tmp_path / "bf.tsv"
        assert main(["bf", "--input", str(inp), "--output", str(bf_out)]) == 0
        _, table = read_table(bf_out)
        assert table.floats("bf").tolist().count(sys.float_info.max) == 2
        assert table.floats("log_bf")[1:3].min() > 709.0  # rows s1 and s2
        out = tmp_path / "report.tsv"
        assert main(["fdr", "--input", str(bf_out), "--output", str(out), "--method", "ebf"]) == 0
        assert main(["fdr", "--input", str(bf_out), "--output", str(out), "--method", "bh"]) == 0

    def test_duplicate_ids_in_a_pvalue_table_name_the_line(self, tmp_path, capsys):
        inp = tmp_path / "in.tsv"
        inp.write_text("id\tp\na\t0.1\nb\t0.2\na\t0.3\n")
        out = tmp_path / "report.tsv"
        assert main(["fdr", "--input", str(inp), "--output", str(out), "--method", "bh"]) == 2
        assert "in.tsv:4: duplicate id 'a'" in capsys.readouterr().err

    def test_degenerate_gene_is_a_numerical_error(self, tmp_path, capsys):
        inp = tmp_path / "genes.tsv"
        np.savetxt(tmp_path / "y.txt", np.arange(20.0))
        np.savetxt(tmp_path / "G.txt", np.ones((20, 2)))
        inp.write_text("id\ty_file\tg_file\ng0\ty.txt\tG.txt\n")
        out = tmp_path / "report.tsv"
        code = main(
            [
                "fdr", "--input", str(inp), "--output", str(out), "--method", "qbf",
                "--perms", "9", "--sigma", "1.0",
            ]
        )
        assert code == 3
        assert "constant" in capsys.readouterr().err


def _record_table(path: Path, log_bf, null_q, p) -> None:
    """A table every fdr method can read: bf as ``bfdr bf`` writes it (the float max once saturated)."""
    bf = exp_saturated(np.asarray(log_bf, dtype=float))
    rows = zip(log_bf, bf.tolist(), null_q, p)
    lines = ["id\tlog_bf\tbf\tnull_q\tp"] + [f"t{i}\t{lb!r}\t{b!r}\t{q!r}\t{pv!r}" for i, (lb, b, q, pv) in enumerate(rows)]
    path.write_text("\n".join(lines) + "\n")


_MIXED = np.random.default_rng(31)
_RECORD_TABLES = {
    # every Bayes factor above 1 and every p-value at or below 1 - gamma: pi0_hat is 0 for ebf, qbf and storey
    "pi0-zero": ([0.7, 1.1, 2.0], [1.0, 1.0, 1.0], [0.1, 0.2, 0.3]),
    # saturated Bayes factors beyond the auto-rejection bound, and tied blocks of v_hat and p
    "saturated-ties": (
        [800.0, 800.0, 750.0, 0.5, -1.0, -1.0, -1.0, 2.0, 2.0],
        [1.0, 1.0, 1.0, 2.0, 0.5, 0.5, 0.5, 3.0, 3.0],
        [1e-300, 1e-300, 1e-200, 0.3, 0.9, 0.9, 0.9, 0.04, 0.04],
    ),
    "mixed": (
        (3.0 * _MIXED.normal(size=40)).tolist(),
        _MIXED.uniform(0.5, 3.0, size=40).tolist(),
        _MIXED.uniform(size=40).tolist(),
    ),
}


def _header_lines(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines() if line.startswith("# ")]


def _comment_line(key: str, value) -> str:
    """A header comment as the TSV writer formatted it before the run record: floats by repr."""
    return f"# {key}\t{repr(value) if isinstance(value, float) else str(value)}"


def _oracle_fdr(method: str, alpha: float, gamma: float, table_path: Path) -> tuple[list[str], str]:
    """The header comments and summary line of an fdr report, built as before the run record was.

    The one difference kept on purpose: Storey's ``pi0_hat`` of 0 now carries a note.
    """
    _, table = read_table(table_path)
    if method in ("bh", "storey"):
        p = table.floats("p")
        est, decision = decide(method, alpha, gamma, pvalues=p)
        comments = [("method", method), ("alpha", alpha), ("m", p.size), ("pi0_hat", decision.pi0.pi0_hat)]
        if method == "storey":
            comments.append(("gamma", gamma))
            if est.pi0_hat == 0.0:
                comments.append(("note", "no p-value above 1 - gamma; every q-value is 0"))
        comments += [("p_cutoff", decision.p_cutoff), ("n_rejected", decision.n_rejected)]
        summary = (
            f"{method}: m={p.size} pi0_hat={decision.pi0.pi0_hat:.6g} "
            f"p_cutoff={decision.p_cutoff:.6g} rejected={decision.n_rejected}"
        )
        return [_comment_line(k, v) for k, v in comments], summary
    batch = _batch_from_table(table)
    null_q = table.floats("null_q") if method == "qbf" else None
    est, report = decide(method, alpha, gamma, batch, null_q)
    comments = [("method", method), ("alpha", alpha), ("m", est.m), ("pi0_hat", est.pi0_hat)]
    comments += [("d0", est.d0)] if method == "ebf" else [("gamma", gamma)]
    if est.pi0_hat == 0.0:
        comments.append(("note", "pi0_hat is 0 (no evidence of a null fraction); every posterior is 1"))
    comments += [
        ("threshold", report.threshold),
        ("n_rejected", report.n_rejected),
        ("estimated_bfdr", report.estimated_bfdr),
        ("n_auto_rejected", int(np.count_nonzero(report.auto_rejected))),
    ]
    summary = (
        f"{method}: m={est.m} pi0_hat={est.pi0_hat:.6g} threshold={report.threshold:.6g} "
        f"rejected={report.n_rejected} estimated_bfdr={report.estimated_bfdr:.6g}"
    )
    return [_comment_line(k, v) for k, v in comments], summary


def _assert_mirror_is_the_record(out: Path) -> None:
    """The JSON mirror is the TSV's header record, key for key and in order, followed by the rows."""
    mirror = json.loads(Path(str(out) + ".json").read_text())
    assert list(mirror)[-1] == "tests"
    record = {k: v for k, v in mirror.items() if k != "tests"}
    comments = _comments(out)
    assert list(record) == list(comments)
    # JSON has no tuples: a list in the mirror is a tuple in the record.
    assert {k: _full(tuple(v) if isinstance(v, list) else v) for k, v in record.items()} == comments
    _, table = read_table(out)
    assert [t["id"] for t in mirror["tests"]] == table.ids()


def _comments_of(tmp_path: Path, table: str, method: str) -> dict[str, str]:
    out = tmp_path / f"{table}-{method}.out.tsv"
    assert main(["fdr", "--input", str(tmp_path / f"{table}.tsv"), "--output", str(out), "--method", method]) == 0
    return _comments(out)


class TestReportRecord:
    """Each report states its header facts once: the TSV comments, the JSON mirror and the summary line."""

    @pytest.mark.parametrize("method", ["ebf", "qbf", "bh", "storey"])
    @pytest.mark.parametrize("table", sorted(_RECORD_TABLES))
    def test_fdr_header_and_summary_match_the_oracle(self, tmp_path, capsys, method, table):
        inp = tmp_path / "in.tsv"
        _record_table(inp, *_RECORD_TABLES[table])
        out = tmp_path / "report.tsv"
        argv = ["fdr", "--input", str(inp), "--output", str(out), "--method", method, "--alpha", "0.1", "--gamma", "0.3"]
        assert main(argv + ["--json"]) == 0
        comments, summary = _oracle_fdr(method, 0.1, 0.3, inp)
        assert _header_lines(out) == comments
        assert capsys.readouterr().out == summary + "\n"
        _assert_mirror_is_the_record(out)

    def test_oracle_tables_reach_the_edge_cases(self, tmp_path):
        """pi0_hat 0 for every estimating method, saturated and auto-rejected rows, and ties."""
        for name, (log_bf, null_q, p) in _RECORD_TABLES.items():
            _record_table(tmp_path / f"{name}.tsv", log_bf, null_q, p)
        zero = [_comments_of(tmp_path, "pi0-zero", method)["pi0_hat"] for method in ("ebf", "qbf", "storey")]
        assert zero == ["0.0", "0.0", "0.0"]
        saturated = _comments_of(tmp_path, "saturated-ties", "ebf")
        assert int(saturated["n_auto_rejected"]) == 3
        _, table = read_table(tmp_path / "saturated-ties.tsv")
        assert table.floats("bf").tolist().count(sys.float_info.max) == 3
        _, report = read_table(tmp_path / "saturated-ties-ebf.out.tsv")
        v_hat = report.floats("v_hat").tolist()
        assert len(set(v_hat)) < len(v_hat)

    @pytest.mark.parametrize("grid", [None, "0.3,1.2"])
    def test_bf_zse_header_summary_and_mirror(self, tmp_path, capsys, grid):
        inp = tmp_path / "in.tsv"
        _write_zse_table(inp, [("a", 2.0, 0.5), ("s1", 60.0, 0.1), ("s2", 60.0, 0.1), ("n", 0.1, 1.0)])
        out = tmp_path / "bf.tsv"
        flags = [] if grid is None else ["--omega-grid", grid]
        assert main(["bf", "--input", str(inp), "--output", str(out), "--json", *flags]) == 0
        omegas = OmegaGrid((0.1, 0.2, 0.4, 0.8, 1.6) if grid is None else (0.3, 1.2)).omegas
        assert _header_lines(out) == ["# omega_grid\t" + ",".join(repr(w) for w in omegas), "# m\t4"]
        assert capsys.readouterr().out == f"wrote 4 Bayes factors to {out}\n"
        _assert_mirror_is_the_record(out)

    def test_bf_raw_rows_mirror(self, tmp_path):
        rng = np.random.default_rng(8)
        manifest = ["id\ty_file\tg_file"]
        for i, k in enumerate((1, 3)):
            np.savetxt(tmp_path / f"y{i}.txt", rng.normal(size=30))
            np.savetxt(tmp_path / f"g{i}.txt", rng.binomial(2, 0.4, size=(30, k)).astype(float))
            manifest.append(f"v{i}\ty{i}.txt\tg{i}.txt")
        inp = tmp_path / "genes.tsv"
        inp.write_text("\n".join(manifest) + "\n")
        out = tmp_path / "bf.tsv"
        assert main(["bf", "--input", str(inp), "--output", str(out), "--sigma", "1.0", "--json"]) == 0
        _assert_mirror_is_the_record(out)

    def test_storey_notes_a_zero_pi0_and_bh_never_does(self, tmp_path):
        inp = tmp_path / "in.tsv"
        inp.write_text("id\tp\na\t0.1\nb\t0.2\nc\t0.3\n")
        notes = {}
        for method in ("storey", "bh"):
            out = tmp_path / f"{method}.tsv"
            assert main(["fdr", "--input", str(inp), "--output", str(out), "--method", method]) == 0
            notes[method] = _comments(out).get("note")
        assert notes == {"storey": "no p-value above 1 - gamma; every q-value is 0", "bh": None}


class TestNonFiniteRawData:
    """A NaN or infinity in a y_file or g_file stops the run at its manifest line."""

    @pytest.mark.parametrize("bad_file", ["y.txt", "G.txt"])
    @pytest.mark.parametrize(
        "command",
        [["bf", "--sigma", "1.0"], ["fdr", "--method", "qbf", "--perms", "5", "--sigma", "1.0"]],
        ids=["bf", "fdr-qbf"],
    )
    def test_rejected_with_file_and_line(self, tmp_path, capsys, bad_file, command):
        rng = np.random.default_rng(8)
        np.savetxt(tmp_path / "y0.txt", rng.normal(size=20))
        np.savetxt(tmp_path / "G0.txt", rng.binomial(2, 0.3, size=(20, 3)))
        y, G = rng.normal(size=20), rng.binomial(2, 0.3, size=(20, 3)).astype(float)
        if bad_file == "y.txt":
            y[3] = np.nan
        else:
            G[3, 1] = np.nan
        np.savetxt(tmp_path / "y.txt", y)
        np.savetxt(tmp_path / "G.txt", G)
        inp = tmp_path / "genes.tsv"
        inp.write_text("id\ty_file\tg_file\ng0\ty0.txt\tG0.txt\ng1\ty.txt\tG.txt\n")
        out = tmp_path / "out.tsv"
        assert main([command[0], "--input", str(inp), "--output", str(out), *command[1:]]) == 2
        err = capsys.readouterr().err
        assert "genes.tsv:3: g1:" in err and bad_file in err and "non-finite" in err
        assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [["bf", "--sigma", "1.0"], ["fdr", "--method", "qbf", "--perms", "5", "--sigma", "1.0"]],
    ids=["bf", "fdr-qbf"],
)
def test_a_y_file_of_two_columns_is_bad_input_at_its_line(tmp_path, capsys, command):
    rng = np.random.default_rng(9)
    np.savetxt(tmp_path / "y.txt", rng.normal(size=(10, 2)))
    np.savetxt(tmp_path / "G.txt", rng.binomial(2, 0.3, size=(10, 3)))
    inp = tmp_path / "raw.tsv"
    inp.write_text("id\ty_file\tg_file\ngA\ty.txt\tG.txt\n")
    out = tmp_path / "out.tsv"
    assert main([command[0], "--input", str(inp), "--output", str(out), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert "raw.tsv:2: gA: " in err and "y.txt holds 2 columns; y must be one column" in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("empty", ["y.txt", "G.txt"])
@pytest.mark.parametrize(
    "command",
    [["bf", "--sigma", "1.0"], ["fdr", "--method", "qbf", "--perms", "5", "--sigma", "1.0"]],
    ids=["bf", "fdr-qbf"],
)
def test_an_empty_data_file_is_bad_input_at_its_line(tmp_path, capsys, command, empty):
    """An empty y_file or g_file is named at its manifest line, with no numpy warning."""
    rng = np.random.default_rng(9)
    np.savetxt(tmp_path / "y.txt", rng.normal(size=10))
    np.savetxt(tmp_path / "G.txt", rng.binomial(2, 0.3, size=(10, 3)))
    (tmp_path / empty).write_text("")
    inp = tmp_path / "raw.tsv"
    inp.write_text("id\ty_file\tg_file\ngA\ty.txt\tG.txt\n")
    out = tmp_path / "out.tsv"
    assert main([command[0], "--input", str(inp), "--output", str(out), *command[1:]]) == 2
    assert f"raw.tsv:2: gA: {tmp_path / empty} holds no data" in capsys.readouterr().err
    assert not out.exists()


def test_a_y_file_of_one_line_is_one_row_of_columns(tmp_path, capsys):
    """``1 2 3 4`` on one line is a row of four columns, not four values of y, whatever G's shape."""
    (tmp_path / "y.txt").write_text("1 2 3 4\n")
    (tmp_path / "G.txt").write_text("0\n1\n2\n1\n")
    inp = tmp_path / "raw.tsv"
    inp.write_text("id\ty_file\tg_file\ngA\ty.txt\tG.txt\n")
    out = tmp_path / "out.tsv"
    assert main(["bf", "--sigma", "1.0", "--input", str(inp), "--output", str(out)]) == 2
    assert f"raw.tsv:2: gA: {tmp_path / 'y.txt'} holds 4 columns; y must be one column" in capsys.readouterr().err
    assert not out.exists()


def test_main_registers_one_exit_hook_per_process(tmp_path):
    """Two in-process ``main`` calls register one exit hook, and it freezes the heap."""
    inp = tmp_path / "p.tsv"
    inp.write_text("id\tp\na\t0.01\nb\t0.5\n")
    call = f"main(['fdr', '--method', 'bh', '--input', {str(inp)!r}, '--output', {str(tmp_path / 'o.tsv')!r}])"
    code = (
        "import atexit, gc, json\n"
        "from bfdr.cli import main\n"
        "before = atexit._ncallbacks()\n"
        f"codes = [{call}, {call}]\n"
        "added = atexit._ncallbacks() - before\n"
        "atexit._run_exitfuncs()\n"
        "print(json.dumps([codes, added, gc.get_freeze_count() > 0]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0], 1, True]


_SQRT_TINY = math.sqrt(sys.float_info.min)  # the smallest float whose square is normal
_SQRT_MAX = math.sqrt(sys.float_info.max)  # the largest float whose square is finite


@pytest.mark.filterwarnings("error")
class TestDegenerateScales:
    """A standard error whose square is not a finite normal float, or a Wald statistic whose
    square is inf, stops the run at its line: exit 2, no output file, no numpy warning."""

    @pytest.mark.parametrize(
        "z, se, problem",
        [
            pytest.param(2.0, 1e-170, "standard error 1e-170 squares to 0.0, below the smallest normal float", id="se-tiny"),
            pytest.param(
                2.0,
                math.nextafter(_SQRT_TINY, 0.0),
                f"standard error {math.nextafter(_SQRT_TINY, 0.0)!r} squares to 2.225073858507201e-308, "
                "below the smallest normal float",
                id="se-one-ulp-low",
            ),
            pytest.param(1.0, 1e200, "standard error 1e+200 squares to inf", id="se-huge"),
            pytest.param(1e155, 1.0, "Wald statistic 1e+155 squares to inf", id="z-huge"),
            pytest.param(
                -math.nextafter(_SQRT_MAX, math.inf),
                1.0,
                f"Wald statistic {-math.nextafter(_SQRT_MAX, math.inf)!r} squares to inf",
                id="z-one-ulp-high",
            ),
        ],
    )
    def test_summary_row_names_its_line_and_id(self, tmp_path, capsys, z, se, problem):
        inp = tmp_path / "in.tsv"
        _write_zse_table(inp, [("a", 1.0, 0.2), ("b", z, se)])
        out = tmp_path / "out.tsv"
        assert main(["bf", "--input", str(inp), "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {inp}:3: b: {problem}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "z, se",
        [(2.0, _SQRT_TINY), (0.0, _SQRT_MAX), (_SQRT_MAX, 1.0), (-_SQRT_MAX, _SQRT_TINY)],
        ids=["se-at-sqrt-tiny", "se-at-sqrt-max", "z-at-sqrt-max", "both-at-their-edge"],
    )
    def test_summary_row_at_the_edge_is_computed(self, tmp_path, z, se):
        inp = tmp_path / "in.tsv"
        _write_zse_table(inp, [("a", z, se)])
        out = tmp_path / "out.tsv"
        assert main(["bf", "--input", str(inp), "--output", str(out)]) == 0
        _, table = read_table(out)
        log_bf = table.floats("log_bf")
        assert np.isfinite(log_bf).all()
        assert log_bf.tolist() == log_bf_averaged_many(np.array([z]), np.array([se])).tolist()

    @staticmethod
    def _manifest(d: Path) -> Path:
        """A manifest of four genes, single- and multi-variant."""
        rng = np.random.default_rng(3)
        lines = ["id\ty_file\tg_file"]
        for i, k in enumerate((1, 3, 1, 4)):
            G = rng.binomial(2, 0.3, size=(30, k)).astype(float)
            np.savetxt(d / f"y{i}.txt", rng.normal(size=30))
            np.savetxt(d / f"G{i}.txt", G)
            lines.append(f"g{i}\ty{i}.txt\tG{i}.txt")
        (d / "genes.tsv").write_text("\n".join(lines) + "\n")
        return d / "genes.tsv"

    @pytest.mark.parametrize(
        "command",
        [["bf"], ["fdr", "--method", "qbf", "--perms", "20", "--threads", "2"]],
        ids=["bf", "fdr-qbf"],
    )
    @pytest.mark.parametrize("sigma", ["1e-170", "5e-324"])
    def test_raw_data_names_the_gene(self, tmp_path, capsys, command, sigma):
        inp = self._manifest(tmp_path)
        out = tmp_path / "out.tsv"
        assert main([command[0], "--input", str(inp), "--output", str(out), "--sigma", sigma, *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {inp}:2: g0: standard error ")
        assert err.endswith(", below the smallest normal float\n")
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_a_scale_ratio_that_underflows_names_its_line(self, tmp_path, capsys):
        inp = tmp_path / "in.tsv"
        _write_zse_table(inp, [("a", 1.0, 0.2), ("b", 1.0, 1e-150)])
        out = tmp_path / "out.tsv"
        assert main(["bf", "--input", str(inp), "--output", str(out), "--omega-grid", "0.5,1e154"]) == 2
        assert capsys.readouterr().err == (
            f"error: {inp}:3: b: standard error 1e-150 is too small against omega 1e+154: "
            "se**2 / (omega**2 + se**2) underflows to 0\n"
        )
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_a_gene_whose_scale_ratio_underflows_is_named(self, tmp_path, capsys):
        inp = self._manifest(tmp_path)
        out = tmp_path / "out.tsv"
        argv = ["fdr", "--method", "qbf", "--perms", "20", "--sigma", "1e-150", "--omega-grid", "1e154", "--threads", "1"]
        assert main([*argv, "--input", str(inp), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {inp}:2: g0: standard error ")
        assert err.endswith(" is too small against omega 1e+154: se**2 / (omega**2 + se**2) underflows to 0\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "scenario, name",
        [
            (["--scenario", "1", "--m", "50"], "test 0"),
            (["--scenario", "2", "--m", "3", "--k-range", "3,4", "--perms", "9"], "gene 'gene00000'"),
            (["--scenario", "2", "--m", "3", "--k-range", "3,4", "--perms", "9", "--threads", "2"], "gene 'gene00000'"),
        ],
        ids=["scenario-1", "scenario-2", "scenario-2-threads-2"],
    )
    def test_sim_names_the_first_test_or_gene(self, tmp_path, capsys, monkeypatch, scenario, name):
        """A sigma too small for the Bayes factor is a usage error in both studies, raised by the shared check,
        also from a pool worker."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        out = tmp_path / "sim"
        assert main(["sim", *scenario, "--sigma", "1e-170", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name}: standard error ")
        assert err.endswith(", below the smallest normal float\n") and err.count("\n") == 1
        assert not (out / "results.tsv").exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_raw_data_qbf_names_the_first_monomorphic_gene(self, tmp_path, capsys, monkeypatch, threads):
        """A design that cannot be built is a numerical error at the first such gene's manifest line."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        inp = self._manifest(tmp_path)
        for i in (2, 3):
            np.savetxt(tmp_path / f"G{i}.txt", np.ones((30, 2)))
        out = tmp_path / "out.tsv"
        argv = ["fdr", "--method", "qbf", "--perms", "20", "--sigma", "1", "--threads", threads]
        assert main([*argv, "--input", str(inp), "--output", str(out)]) == 3
        assert capsys.readouterr().err == f"numerical error: {inp}:4: g2: all variant columns are constant\n"
        assert not out.exists()

    def test_raw_data_qbf_builds_each_design_once(self, tmp_path, monkeypatch):
        built = []
        init = GeneDesign.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(GeneDesign, "__init__", counting)
        inp = self._manifest(tmp_path)
        argv = ["fdr", "--method", "qbf", "--perms", "20", "--sigma", "1", "--threads", "1"]
        assert main([*argv, "--input", str(inp), "--output", str(tmp_path / "out.tsv")]) == 0
        assert len(built) == 4

    @pytest.mark.parametrize("k", [1, 3])
    def test_raw_data_on_both_sides_of_the_threshold(self, tmp_path, capsys, k):
        """sigma sets each se = sigma / sqrt(sxx), the smallest at the largest sxx: at 4x the
        smallest normal float its square is computed, at a quarter of it the gene is rejected.
        y is small, so that the Wald statistics near 1e150 still square to a finite float."""
        rng = np.random.default_rng(5)
        G = rng.binomial(2, 0.3, size=(30, k)).astype(float)
        np.savetxt(tmp_path / "y.txt", 1e-3 * rng.normal(size=30))
        np.savetxt(tmp_path / "G.txt", G)
        inp = tmp_path / "genes.tsv"
        inp.write_text("id\ty_file\tg_file\ng\ty.txt\tG.txt\n")
        Gc = G - G.mean(axis=0)
        root_sxx = math.sqrt(float(np.max(np.einsum("ij,ij->j", Gc, Gc))))
        out = tmp_path / "out.tsv"
        for factor, code in ((2.0, 0), (0.5, 2)):
            sigma = repr(factor * _SQRT_TINY * root_sxx)
            assert main(["bf", "--input", str(inp), "--output", str(out), "--sigma", sigma]) == code
        assert "g: standard error " in capsys.readouterr().err
        _, table = read_table(out)
        assert np.isfinite(table.floats("log_bf")).all()


_GENE_STAGES = [
    "studies.simulate_study_ii",
    "permutation.draw_permutations",
    "simulation.simulate_II",
    "permutation.observed_scan",
    "permutation.permute_null_quantile",
]
_TIMING_LINE = re.compile(r"\[timing\] pi0=(\S+) rep=(\d) (\S+): \d+\.\d\ds")


def _timing_stages(err: str) -> list[tuple[str, str, str]]:
    """(pi0, rep, stage) of each ``[timing]`` line of a command's stderr, which holds nothing else."""
    matches = [_TIMING_LINE.fullmatch(text) for text in err.splitlines()]
    assert all(matches), err
    return [m.groups() for m in matches]


class TestSimCommand:
    def test_scenario_1_outputs_and_determinism(self, tmp_path, capsys):
        args = [
            "sim", "--scenario", "1", "--m", "80", "--n", "30", "--pi0", "0.6",
            "--reps", "2", "--seed", "9",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a), "--json"]) == 0
        assert main(args + ["--out", str(out_b), "--json"]) == 0
        captured = capsys.readouterr()
        assert "[timing]" in captured.err
        assert "scenario 1" in captured.out
        for rel in (
            "results.tsv",
            "aggregate.tsv",
            "aggregate.json",
            "pi0_0.6_rep000/records.tsv",
            "pi0_0.6_rep000/truth.tsv",
            "pi0_0.6_rep001/records.tsv",
        ):
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()
        doc = json.loads((out_a / "aggregate.json").read_text())
        methods = {row["method"] for row in doc["aggregate"]}
        assert methods == {"ebf", "qbf", "bh", "storey"}
        assert all(len([r for r in doc["runs"] if r["method"] == m]) == 2 for m in methods)

    def test_scenario_1_records_feed_fdr(self, tmp_path):
        out = tmp_path / "sim"
        assert main(
            ["sim", "--scenario", "1", "--m", "50", "--n", "25", "--pi0", "0.5",
             "--out", str(out), "--seed", "3"]
        ) == 0
        records = out / "pi0_0.5_rep000" / "records.tsv"
        report = tmp_path / "report.tsv"
        assert main(
            ["fdr", "--input", str(records), "--output", str(report), "--method", "ebf"]
        ) == 0
        assert int(_comments(report)["m"]) == 50

    def test_scenario_2_thread_independence(self, tmp_path):
        args = [
            "sim", "--scenario", "2", "--m", "10", "--n", "40", "--pi0", "0.5",
            "--k-range", "5,9", "--perms", "15", "--perm-p", "15", "--seed", "2",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a), "--threads", "1"]) == 0
        assert main(args + ["--out", str(out_b), "--threads", "2"]) == 0
        for rel in (
            "results.tsv",
            "aggregate.tsv",
            "pi0_0.5_rep000/records.tsv",
            "pi0_0.5_rep000/truth.tsv",
        ):
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()
        header, table = read_table(out_a / "pi0_0.5_rep000" / "records.tsv")
        assert header == ["id", "z", "se", "log_bf", "bf", "null_q"]
        assert table.column("z")[0] == "NA"  # gene records carry no single z

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_all_monomorphic_gene_is_named(self, tmp_path, capsys, threads):
        args = [
            "sim", "--scenario", "2", "--m", "4", "--n", "3", "--k-range", "1,1",
            "--maf-range", "1e-6,1e-6", "--ld-decay", "0", "--pi0", "1", "--perms", "19",
            "--out", str(tmp_path / "sim"), "--threads", threads,
        ]
        assert main(args) == 3
        assert capsys.readouterr().err == (
            "numerical error: gene 'gene00000': all variant columns are constant\n"
        )

    @pytest.mark.filterwarnings("error")
    def test_calibration_without_a_usable_pair_exits_3(self, tmp_path, capsys):
        """No calibration pair with two varying variants: exit 3 naming the settings, no numpy warning, no output."""
        out = tmp_path / "sim"
        args = [
            "sim", "--scenario", "2", "--m", "3", "--n", "20000", "--perms", "9",
            "--maf-range", "1e-5,2e-5", "--seed", "1", "--out", str(out),
        ]
        assert main(args) == 3
        assert capsys.readouterr().err == (
            "numerical error: ld_decay=0.4 cannot be calibrated: none of the calibration's 1500 variant "
            "pairs has two varying dosage columns at latent coefficient 0.2499975 for allele frequencies "
            "in (1e-05, 2e-05)\n"
        )
        assert not out.exists()

    def test_constant_genotype_redraws_are_bounded(self, tmp_path, capsys):
        """maf 1e-6 at n=3 needs ~170,000 draws per test; the redraw cap fails it fast."""
        start = time.perf_counter()
        code = main(
            ["sim", "--scenario", "1", "--m", "3", "--n", "3", "--maf-range", "1e-6,1e-6",
             "--out", str(tmp_path / "sim"), "--seed", "1"]
        )
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical error: test 0: genotype constant after 1000 redraws at allele "
            "frequency f=1e-06 (n=3); raise the low end of maf_range or n\n"
        )

    def test_no_datasets_flag(self, tmp_path):
        out = tmp_path / "sim"
        assert main(
            ["sim", "--scenario", "1", "--m", "30", "--n", "20", "--pi0", "0.5",
             "--out", str(out), "--no-datasets"]
        ) == 0
        assert (out / "results.tsv").exists()
        assert not (out / "pi0_0.5_rep000").exists()

    @pytest.mark.parametrize(
        "scenario, defaults",
        [
            ("1", ["--m", "10000", "--n", "100"]),
            ("2", ["--n", "85", "--k-range", "40,120", "--n-causal-range", "1,5", "--ld-decay", "0.4"]),
        ],
    )
    def test_settings_at_their_defaults_change_no_byte(self, tmp_path, scenario, defaults):
        """Every study setting given at its documented default writes what giving none writes.

        Scenario 2 runs 3 genes in both runs, since 10,000 genes take minutes.
        """
        shared = ["--mu", "1.0", "--sigma", "1.0", "--phi-range", "0.5,1.5", "--maf-range", "0.05,0.5"]
        base = ["sim", "--scenario", scenario, "--pi0", "0.6", "--seed", "4", "--json"]
        if scenario == "2":
            base += ["--m", "3", "--perms", "9", "--perm-p", "9"]
        out_none, out_all = tmp_path / "none", tmp_path / "all"
        assert main(base + ["--out", str(out_none)]) == 0
        assert main(base + shared + defaults + ["--out", str(out_all)]) == 0
        files = sorted(p.relative_to(out_none) for p in out_none.rglob("*") if p.is_file())
        assert len(files) == 5
        assert files == sorted(p.relative_to(out_all) for p in out_all.rglob("*") if p.is_file())
        for rel in files:
            assert (out_none / rel).read_bytes() == (out_all / rel).read_bytes()

    @pytest.mark.parametrize(
        "flags, stages",
        [
            pytest.param(
                ["--scenario", "1", "--m", "40"],
                ["simulation.simulate_I", "cli.write_tsv", "studies.analyze_study_i"],
                id="scenario-1",
            ),
            pytest.param(
                ["--scenario", "2", "--m", "3", "--k-range", "3,4", "--perms", "9", "--perm-p", "9"],
                _GENE_STAGES + ["permutation.permutation_pvalue", "cli.write_tsv"],
                id="scenario-2",
            ),
            pytest.param(
                ["--scenario", "2", "--m", "3", "--k-range", "3,4", "--perms", "9", "--no-datasets"],
                _GENE_STAGES,
                id="scenario-2-no-datasets",
            ),
        ],
    )
    def test_timing_lines_name_each_stage_once_per_replicate(self, tmp_path, capsys, flags, stages):
        """Each stage once, in the order it was first recorded: an outer stage before those it runs."""
        argv = ["sim", *flags, "--n", "20", "--pi0", "0.5", "--reps", "2", "--seed", "1"]
        assert main(argv + ["--out", str(tmp_path / "sim")]) == 0
        expected = [("0.5", str(rep), stage) for rep in (0, 1) for stage in stages]
        assert _timing_stages(capsys.readouterr().err) == expected

    @pytest.mark.parametrize("write", [True, False], ids=["datasets", "no-datasets"])
    @pytest.mark.parametrize(
        "flags",
        [["--scenario", "1", "--m", "5000"], ["--scenario", "2", "--m", "5", "--k-range", "3,4", "--perms", "9"]],
        ids=["scenario-1", "scenario-2"],
    )
    def test_timing_stages_do_not_depend_on_threads(self, tmp_path, capsys, monkeypatch, flags, write):
        """Stages recorded in workers reach the same lines, in the same order, as in one process."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        argv = ["sim", *flags, "--n", "20", "--pi0", "0.9,0.5", "--reps", "2", "--seed", "4"]
        argv += [] if write else ["--no-datasets"]
        lines = []
        for threads in ("1", "2"):
            assert main(argv + ["--threads", threads, "--out", str(tmp_path / threads)]) == 0
            lines.append(_timing_stages(capsys.readouterr().err))
        assert lines[0] == lines[1]
        assert {(pi0, rep) for pi0, rep, _ in lines[0]} == {(pi0, rep) for pi0 in ("0.9", "0.5") for rep in "01"}
        assert len(lines[0]) == len(set(lines[0]))  # each stage once per dataset
        assert any(stage == "cli.write_tsv" for _, _, stage in lines[0]) == write

    @pytest.mark.parametrize("pi0", ["0.5,0.5", "0.5,0.5000001", "0.2,0.5,0.50000001"])
    def test_pi0_values_sharing_a_name(self, tmp_path, capsys, pi0):
        """Two values that print alike would share a dataset directory and a row label."""
        out = tmp_path / "x"
        assert main(["sim", "--scenario", "1", "--m", "10", "--pi0", pi0, "--out", str(out)]) == 2
        first, second = pi0.split(",")[-2:]
        assert f"--pi0 values {float(first)!r} and {float(second)!r} are both named pi0_0.5" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_pi0_list(self, tmp_path, capsys):
        assert main(
            ["sim", "--scenario", "1", "--m", "10", "--pi0", "0.5,1.2", "--out", str(tmp_path / "x")]
        ) == 2
        assert "--pi0" in capsys.readouterr().err


class TestFlagRanges:
    """A flag outside its range is a usage error (exit 2), raised before any work."""

    @pytest.mark.parametrize(
        "flags, message",
        [
            pytest.param(["fdr", "--method", "ebf", "--alpha", "1.5"], "--alpha must lie in (0, 1)", id='fdr-alpha'),
            pytest.param(["fdr", "--method", "storey", "--gamma", "1.5"], "--gamma must lie in (0, 1)", id='fdr-gamma'),
            pytest.param(["fdr", "--method", "bh", "--alpha", "nan"], "--alpha must lie in (0, 1)", id='fdr-alpha-nan'),
            pytest.param(["bf", "--sigma", "-1"], "--sigma must be positive and finite", id='bf-sigma'),
            pytest.param(["sim", "--scenario", "1", "--alpha", "0"], "--alpha must lie in (0, 1)", id='sim-alpha'),
            pytest.param(["sim", "--scenario", "2", "--gamma", "1.5"], "--gamma must lie in (0, 1)", id='sim-gamma'),
            pytest.param(["sim", "--scenario", "2", "--perms", "0"], "--perms must be at least 1", id='sim-perms'),
            pytest.param(["sim", "--scenario", "1", "--perms", "0"], "--perms must be at least 1", id='sim-1-perms'),
            pytest.param(["sim", "--scenario", "1", "--perm-p", "-1"], "--perm-p must not be negative", id='sim-1-perm-p'),
            pytest.param(["sim", "--scenario", "2", "--perm-p", "-1"], "--perm-p must not be negative", id='sim-perm-p'),
            pytest.param(["sim", "--scenario", "2", "--gamma", "0.05", "--perms", "9"], "--gamma * (--perms + 1) must be at least 1", id='sim-gamma-perms'),
            pytest.param(["fdr", "--method", "qbf", "--gamma", "0.05", "--perms", "9"], "--gamma * (--perms + 1) must be at least 1", id='fdr-qbf-gamma-perms'),
            pytest.param(["sim", "--scenario", "1", "--reps", "0"], "--reps must be at least 1", id='sim-reps-0'),
            pytest.param(["sim", "--scenario", "1", "--reps", "-1"], "--reps must be at least 1", id='sim-reps-negative'),
            pytest.param(["sim", "--scenario", "1", "--m", "0"], "sim settings: m must be a positive integer", id='sim-m'),
            pytest.param(["sim", "--scenario", "2", "--k-range", "9,5"], "sim settings: k_range must satisfy", id='sim-k-range'),
            pytest.param(["sim", "--scenario", "1", "--k-range", "9,5"], "sim settings: k_range must satisfy", id='sim-1-k-range'),
            pytest.param(["sim", "--scenario", "1", "--n-causal-range", "0,2"], "sim settings: n_causal_range must satisfy", id='sim-1-n-causal-range'),
            pytest.param(["sim", "--scenario", "2", "--m", "3", "--k-range", "3.9,4.5", "--n-causal-range", "1.7,2.2", "--perms", "9"], "sim settings: k_range must hold whole numbers", id='sim-k-range-fractional'),
            pytest.param(["sim", "--scenario", "2", "--m", "3", "--k-range", "3,4", "--n-causal-range", "1.7,2.2", "--perms", "9"], "sim settings: n_causal_range must hold whole numbers", id='sim-n-causal-range-fractional'),
            pytest.param(["sim", "--scenario", "1", "--ld-decay", "2"], "sim settings: ld_decay must lie in [0, 1]", id='sim-1-ld-decay'),
            pytest.param(["sim", "--scenario", "1", "--phi-range", "0.5,inf"], "sim settings: phi_range must be finite", id='sim-1-phi-range-inf'),
            pytest.param(["sim", "--scenario", "1", "--sigma", "inf"], "--sigma must be positive and finite", id='sim-1-sigma-inf'),
            pytest.param(["sim", "--scenario", "1", "--mu", "1e17"], "sim settings: mu=1e+17 swamps the noise", id='sim-1-mu-swamps'),
            pytest.param(["fdr", "--method", "qbf", "--threads", "-3"], "--threads must be at least 1", id='fdr-threads'),
            pytest.param(["fdr", "--method", "ebf", "--threads", "0"], "--threads must be at least 1", id='fdr-ebf-threads'),
            pytest.param(["sim", "--scenario", "2", "--threads", "0"], "--threads must be at least 1", id='sim-threads'),
            pytest.param(["sim", "--scenario", "1", "--threads", "-1"], "--threads must be at least 1", id='sim-1-threads'),
            pytest.param(["fdr", "--method", "qbf", "--seed", "-1"], "--seed (or $BFDR_SEED) must lie in [0, 2**64)", id='fdr-qbf-seed-negative'),
            pytest.param(["fdr", "--method", "ebf", "--seed", str(2**64)], "--seed (or $BFDR_SEED) must lie in [0, 2**64)", id='fdr-ebf-seed-2-64'),
        ],
    )
    def test_exits_2_before_any_output(self, tmp_path, capsys, flags, message):
        inp = tmp_path / "in.tsv"
        if flags[0] == "bf":
            np.savetxt(tmp_path / "y.txt", np.arange(10.0))
            np.savetxt(tmp_path / "g.txt", np.arange(10.0) % 3)
            inp.write_text("id\ty_file\tg_file\nv1\ty.txt\tg.txt\n")
        else:
            inp.write_text("id\tbf\tp\na\t2.0\t0.01\nb\t0.5\t0.6\n")
        out = tmp_path / "out"
        io = ["--out", str(out)] if flags[0] == "sim" else ["--input", str(inp), "--output", str(out)]
        small = ["--m", "20", "--n", "20", "--k-range", "3,5"] if flags[0] == "sim" else []
        assert main([flags[0], *small, *io, *flags[1:]]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("seed, env", [("-1", None), ("18446744073709551616", None), (None, "-3")])
    def test_fdr_seed_out_of_range_stops_before_reading_genes(self, tmp_path, capsys, monkeypatch, seed, env):
        """The seed is checked before any gene file is read: these files do not even exist."""
        inp = tmp_path / "genes.tsv"
        inp.write_text("id\ty_file\tg_file\ng0\tnone.txt\tnone.txt\n")
        if env is not None:
            monkeypatch.setenv(SEED_ENV_VAR, env)
        out = tmp_path / "report.tsv"
        argv = ["fdr", "--input", str(inp), "--output", str(out), "--method", "qbf", "--perms", "9", "--sigma", "1"]
        assert main(argv + ([] if seed is None else ["--seed", seed])) == 2
        assert capsys.readouterr().err.startswith("error: --seed (or $BFDR_SEED) must lie in [0, 2**64), got ")
        assert not out.exists()

    def test_sim_takes_any_integer_seed(self, tmp_path):
        """sim hashes its seed into per-dataset seeds, so any integer is a seed there."""
        for seed in ("-1", str(2**64)):
            argv = ["sim", "--scenario", "1", "--m", "20", "--n", "20", "--seed", seed, "--no-datasets"]
            assert main(argv + ["--out", str(tmp_path / seed)]) == 0

    def test_scenario_1_gamma_is_not_bound_to_perms(self, tmp_path):
        """Scenario 1's null quantiles are closed-form, so --gamma * (--perms + 1) < 1 is fine there."""
        argv = ["sim", "--scenario", "1", "--m", "20", "--n", "20", "--gamma", "0.005", "--perms", "9"]
        assert main(argv + ["--out", str(tmp_path / "sim")]) == 0


# Every numeric flag of each command, with a value it accepts. The lists
# (--omega-grid, --pi0, the --*-range pairs) are parsed by the command;
# the others by argparse.
_NUMERIC_FLAGS = {
    "bf": {"--sigma": "1.25", "--omega-grid": "0.1,10"},
    "fdr": {
        "--alpha": "0.05", "--gamma": "0.25", "--perms": "10", "--seed": "10", "--sigma": "1.25",
        "--omega-grid": "0.1,10", "--threads": "10",
    },
    "sim": {
        "--scenario": "2", "--m": "20", "--n": "20", "--pi0": "0.25", "--reps": "10", "--alpha": "0.05",
        "--gamma": "0.25", "--mu": "10", "--sigma": "1.25", "--phi-range": "0.25,1.5", "--maf-range": "0.05,0.25",
        "--k-range": "10,12", "--n-causal-range": "1,12", "--ld-decay": "0.25", "--perms": "10", "--perm-p": "10",
        "--omega-grid": "0.1,10", "--seed": "10", "--threads": "10",
    },
}
_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def _misspelled_flags():
    """Each numeric flag with its value's digits in Arabic-Indic, and with a ``_`` between two digits."""
    for command, flags in _NUMERIC_FLAGS.items():
        for flag, value in flags.items():
            yield pytest.param(command, flag, value.translate(_ARABIC_INDIC), id=f"{command}{flag}-arabic-indic")
            underscored = re.sub(r"(\d)(\d)", r"\1_\2", value, count=1)
            if underscored != value:
                yield pytest.param(command, flag, underscored, id=f"{command}{flag}-underscore")


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's own usage errors
        return exc.code


class TestNumberSyntax:
    """Every number a flag or ``$BFDR_SEED`` takes is ASCII without ``_``, as in a table cell."""

    def test_every_numeric_flag_is_listed(self):
        """The flags below are all the value flags of bf, fdr and sim but paths and choices of words."""
        from bfdr.cli import _FLOAT, _INT, build_parser

        subparsers = next(a for a in build_parser()._actions if a.dest == "command").choices
        for command, flags in _NUMERIC_FLAGS.items():
            valued = [a for a in subparsers[command]._actions if a.option_strings and a.nargs != 0]
            assert all(a.type in (None, _FLOAT, _INT) for a in valued)
            numeric = {a.option_strings[0] for a in valued if a.dest not in ("input", "output", "out", "method")}
            assert numeric == set(flags)

    @pytest.mark.parametrize("command, flag, value", list(_misspelled_flags()))
    def test_exits_2_naming_the_flag(self, tmp_path, capsys, command, flag, value):
        inp = tmp_path / "in.tsv"
        inp.write_text("id\tz\tse\tbf\tp\na\t1.0\t0.2\t2.0\t0.01\nb\t-0.5\t0.3\t0.5\t0.6\n")
        out = tmp_path / "out"
        argv = {
            "bf": ["bf", "--input", str(inp), "--output", str(out)],
            "fdr": ["fdr", "--method", "ebf", "--input", str(inp), "--output", str(out)],
            "sim": ["sim", "--scenario", "1", "--m", "20", "--out", str(out), "--no-datasets"],
        }[command]
        assert _exit_code([*argv, flag, value]) == 2
        err = capsys.readouterr().err
        assert flag in err and repr(value) in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["1_0", "١", "١٠"])
    def test_seed_environment_variable(self, tmp_path, capsys, monkeypatch, seed):
        monkeypatch.setenv(SEED_ENV_VAR, seed)
        out = tmp_path / "x"
        assert main(["sim", "--scenario", "1", "--m", "10", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: environment variable {SEED_ENV_VAR}={seed!r} is not an integer\n"
        assert not out.exists()


def _usage_error_inputs(d: Path) -> None:
    rng = np.random.default_rng(12)
    np.savetxt(d / "y.txt", rng.normal(size=20))
    np.savetxt(d / "y10.txt", rng.normal(size=10))
    np.savetxt(d / "G.txt", rng.binomial(2, 0.3, size=(20, 3)))
    (d / "text.txt").write_text("1.0\nabc\n")
    manifests = {"genes": "y.txt", "missing_y": "nope.txt", "text_y": "text.txt", "short_y": "y10.txt"}
    for name, y_file in manifests.items():
        (d / f"{name}.tsv").write_text(f"id\ty_file\tg_file\ng0\t{y_file}\tG.txt\n")
    (d / "noid.tsv").write_text("name\tbf\na\t2.0\n")
    (d / "z.tsv").write_text("id\tz\na\t1.0\n")
    (d / "other.tsv").write_text("id\tfoo\na\t1.0\n")
    (d / "zse.tsv").write_text("id\tz\tse\na\t1.0\t0.2\n")
    (d / "zsez.tsv").write_text("id\tz\tse\tz\na\t1.0\t0.2\t3.0\n")
    (d / "bfbf.tsv").write_text("# two bf columns\nid\tbf\tbf\na\t2.0\t0.5\n")


class TestUsageErrors:
    """Bad input files and flag values exit 2 with their message and write nothing."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["fdr", "--method", "ebf", "--input", "noid.tsv"], "noid.tsv: missing required column 'id'", id="missing-column"),
            pytest.param(["fdr", "--method", "bh", "--input", "absent.tsv"], "cannot read ", id="unreadable-input"),
            pytest.param(["bf", "--input", "zse.tsv", "--omega-grid", "0.1,abc"], "--omega-grid: cannot parse '0.1,abc' as comma-separated numbers", id="omega-grid-text"),
            pytest.param(["bf", "--input", "zse.tsv", "--omega-grid", ","], "--omega-grid: empty list", id="omega-grid-empty"),
            pytest.param(["bf", "--input", "zse.tsv", "--omega-grid", "0.1,-1"], "--omega-grid: omega values must be positive and finite", id="omega-grid-negative"),
            pytest.param(["sim", "--scenario", "1", "--phi-range", "0.5"], "--phi-range: expected low,high", id="range-one-value"),
            pytest.param(["sim", "--scenario", "2", "--k-range", "3,4,5"], "--k-range: expected low,high", id="range-three-values"),
            pytest.param(["fdr", "--method", "ebf", "--input", "z.tsv"], "z.tsv: need a 'bf' or 'log_bf' column", id="no-bf-column"),
            pytest.param(["fdr", "--method", "ebf", "--input", "bfbf.tsv"], "bfbf.tsv:2: duplicate column 'bf'", id="fdr-column-twice"),
            pytest.param(["bf", "--input", "zsez.tsv"], "zsez.tsv:1: duplicate column 'z'", id="bf-column-twice"),
            pytest.param(["bf", "--sigma", "1", "--input", "missing_y.tsv"], "cannot read ", id="unreadable-y-file"),
            pytest.param(["bf", "--sigma", "1", "--input", "text_y.tsv"], "text.txt: cannot parse numeric data", id="non-numeric-y-file"),
            pytest.param(["bf", "--sigma", "1", "--input", "short_y.tsv"], "short_y.tsv:2: g0: y has 10 rows but G has 20", id="y-g-row-mismatch"),
            pytest.param(["bf", "--estimate-sigma", "--input", "genes.tsv"], "gene-level input (multi-column g_file) needs --sigma", id="gene-needs-sigma"),
            pytest.param(["bf", "--input", "other.tsv"], "other.tsv: need columns (id, z, se) or (id, y_file, g_file)", id="unknown-columns"),
            pytest.param(["fdr", "--method", "qbf", "--sigma", "1", "--input", "genes.tsv"], "qbf from raw data needs --perms >= 1", id="qbf-raw-without-perms"),
            pytest.param(["fdr", "--method", "qbf", "--perms", "9", "--input", "genes.tsv"], "qbf from raw data needs --sigma", id="qbf-raw-without-sigma"),
        ],
    )
    def test_exits_2_with_its_message_and_no_output(self, tmp_path, capsys, argv, message):
        _usage_error_inputs(tmp_path)
        before = set(tmp_path.iterdir())
        argv = [str(tmp_path / a) if a.endswith(".tsv") else a for a in argv]
        out = ["--out", str(tmp_path / "sim")] if argv[0] == "sim" else ["--output", str(tmp_path / "out.tsv")]
        assert main(argv + out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert set(tmp_path.iterdir()) == before

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["bf", "--input", "zse.tsv", "--omega-grid", "0.1,1e300"], id="bf"),
            pytest.param(["fdr", "--method", "ebf", "--input", "zse.tsv", "--omega-grid", "1e300"], id="fdr"),
            pytest.param(["sim", "--scenario", "1", "--m", "10", "--omega-grid", "1e300"], id="sim-1"),
            pytest.param(["sim", "--scenario", "2", "--m", "3", "--omega-grid", "1e300"], id="sim-2"),
        ],
    )
    def test_an_omega_whose_square_overflows_exits_2(self, tmp_path, capsys, argv):
        """Every Bayes factor would be NaN: the grid rejects such an omega, with no numpy warning."""
        self.test_exits_2_with_its_message_and_no_output(
            tmp_path, capsys, argv, "--omega-grid: omega value 1e+300 is too large: its square overflows"
        )


class TestSeeds:
    def test_env_seed_matches_explicit_flag(self, tmp_path, monkeypatch):
        base = ["sim", "--scenario", "1", "--m", "40", "--n", "20", "--pi0", "0.5"]
        out_env, out_flag = tmp_path / "env", tmp_path / "flag"
        monkeypatch.setenv(SEED_ENV_VAR, "11")
        assert main(base + ["--out", str(out_env)]) == 0
        monkeypatch.delenv(SEED_ENV_VAR)
        assert main(base + ["--out", str(out_flag), "--seed", "11"]) == 0
        assert (out_env / "results.tsv").read_bytes() == (out_flag / "results.tsv").read_bytes()

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        base = ["sim", "--scenario", "1", "--m", "40", "--n", "20", "--pi0", "0.5"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv(SEED_ENV_VAR, "11")
        assert main(base + ["--out", str(out_a), "--seed", "12"]) == 0
        monkeypatch.delenv(SEED_ENV_VAR)
        assert main(base + ["--out", str(out_b), "--seed", "12"]) == 0
        assert (out_a / "results.tsv").read_bytes() == (out_b / "results.tsv").read_bytes()

    def test_non_integer_env_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
        assert main(
            ["sim", "--scenario", "1", "--m", "10", "--pi0", "0.5", "--out", str(tmp_path / "x")]
        ) == 2
        assert SEED_ENV_VAR in capsys.readouterr().err


class TestEntryPoints:
    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_missing_subcommand_arguments(self):
        with pytest.raises(SystemExit) as exc:
            main(["fdr"])
        assert exc.value.code == 2

    def test_module_runs_in_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-c", "from bfdr.cli import main; raise SystemExit(main(['--version']))"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "bfdr" in proc.stdout
