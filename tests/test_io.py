import csv
import io
import os
import signal
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from zmcounts import io as zio
from zmcounts.diagnostics import ProbTable
from zmcounts.errors import InvalidSpecError
from zmcounts.experiments import ExperimentRow
from zmcounts.filtering import FilterResult
from zmcounts.io import (
    _write_csv,
    read_counts_csv,
    write_acf_pacf_csv,
    write_counts_csv,
    write_experiment_csv,
    write_filtered_csv,
    write_probtable_csv,
    write_residuals_csv,
)

# floats that need all 17 significant digits, extremes, signed zero and
# non-finite values
FLOATS = np.array([
    0.1, 1.0 / 3.0, 2.0 / 3.0, -1.2345678901234567e-5, 1e-300, 5e-324,
    1.7976931348623157e308, -0.0, 0.0, 12.0, np.inf, -np.inf, np.nan,
])
COUNTS = np.array([0, 1, 7, 2**40, 2**62, 3, 0, 5, 9, 11, 13, 0, 4], dtype=np.int64)


def _cell(x):
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def csv_writer_bytes(header, rows) -> bytes:
    """The reference: the rows as csv.writer writes them, ints as ints and
    floats with 17 significant digits."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(x) for x in row])
    return buf.getvalue().encode()


@pytest.mark.usefixtures("writer_mode")
class TestWritersMatchCsvWriter:
    def test_counts(self, tmp_path):
        path = tmp_path / "c.csv"
        write_counts_csv(path, COUNTS)
        expected = csv_writer_bytes(["t", "y"], zip(range(len(COUNTS)), COUNTS))
        assert path.read_bytes() == expected
        write_counts_csv(path, COUNTS, intensities=FLOATS)
        expected = csv_writer_bytes(["t", "y", "lambda"], zip(range(len(COUNTS)), COUNTS, FLOATS))
        assert path.read_bytes() == expected

    def test_counts_from_a_list(self, tmp_path):
        path = tmp_path / "c.csv"
        write_counts_csv(path, [1, 2, 3])
        assert path.read_bytes() == b"t,y\r\n0,1\r\n1,2\r\n2,3\r\n"

    def test_filtered(self, tmp_path):
        path = tmp_path / "f.csv"
        unused = np.zeros(len(FLOATS))
        result = FilterResult(
            lambda_filtered=FLOATS, error_var=FLOATS[::-1], prediction=unused,
            pred_var=unused, gain=unused, innovation=-FLOATS, innovation_var=unused,
            clamped=unused.astype(bool),
        )
        write_filtered_csv(path, COUNTS, result)
        expected = csv_writer_bytes(
            ["t", "y", "lambda_filtered", "error_var", "innovation"],
            zip(range(len(FLOATS)), COUNTS, FLOATS, FLOATS[::-1], -FLOATS),
        )
        assert path.read_bytes() == expected

    def test_residuals_and_acf(self, tmp_path):
        path = tmp_path / "r.csv"
        write_residuals_csv(path, FLOATS)
        assert path.read_bytes() == csv_writer_bytes(
            ["t", "pearson_residual"], zip(range(len(FLOATS)), FLOATS)
        )
        write_acf_pacf_csv(path, FLOATS, FLOATS[::-1])
        assert path.read_bytes() == csv_writer_bytes(
            ["lag", "acf", "pacf"], zip(range(len(FLOATS)), FLOATS, FLOATS[::-1])
        )

    def test_probtable(self, tmp_path):
        path = tmp_path / "p.csv"
        table = ProbTable(support=np.arange(len(FLOATS)), fitted=FLOATS,
                          empirical=FLOATS[::-1], fitted_tail=1.0 / 7.0)
        write_probtable_csv(path, table)
        rows = list(zip(range(len(FLOATS)), FLOATS, FLOATS[::-1]))
        rows.append(("tail", 1.0 / 7.0, 0.0))
        assert path.read_bytes() == csv_writer_bytes(["k", "fitted", "empirical"], rows)

    def test_experiment(self, tmp_path):
        path = tmp_path / "e.csv"
        keys = ("rho", "omega", "beta", "p", "a")
        row = ExperimentRow("zmnb", "gar1", omega=-0.1, rho=0.8, beta=0.5, p=1.0,
                            n=1000, replicates=200, a=0.5)
        mean = dict(zip(keys, FLOATS[:5]))
        mse = dict(zip(keys, FLOATS[8:]))
        res = SimpleNamespace(row=row, mean=mean, mse=mse, completed=199, discarded=1)
        write_experiment_csv(path, [res, res])
        header = (["family", "intensity", "n", "replicates"]
                  + [f"{s}_{k}" for s in ("true", "mean", "mse") for k in keys]
                  + ["completed", "discarded"])
        line = (["zmnb", "gar1", 1000, 200] + [row.true_values()[k] for k in keys]
                + [mean[k] for k in keys] + [mse[k] for k in keys] + [199, 1])
        assert path.read_bytes() == csv_writer_bytes(header, [line, line])


# values whose runs the writer must keep apart or print alike: signed zeros,
# NaNs of either sign, infinities and 17-digit values
RUN_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 0.1, 1.0 / 3.0, 5e-324]),
    st.floats(),
)
FLOAT_RUNS = st.lists(st.tuples(RUN_VALUES, st.integers(1, 6)), min_size=1, max_size=12)


@pytest.mark.usefixtures("writer_mode")
class TestWriterRuns:
    """Columns built from runs of equal values, which the writer formats
    once per run, against the csv.writer reference."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(runs=FLOAT_RUNS)
    @example(runs=[(-0.0, 3), (0.0, 3), (-0.0, 1), (0.0, 2)])
    @example(runs=[(0.25, 40)])
    @example(runs=[(1.0, 1), (2.0, 1), (1.0, 1), (2.0, 5)])
    @example(runs=[(np.nan, 2), (-np.nan, 2), (np.inf, 3), (-np.inf, 3)])
    def test_bytes_match_csv_writer(self, tmp_path, runs):
        col = np.array([value for value, length in runs for _ in range(length)])
        n = len(col)
        ints = np.arange(n, dtype=np.int64) % 5 * 2**40
        header = ["t", "y", "a", "b"]
        path = tmp_path / "runs.csv"
        _write_csv(path, header, "%d,%d,%.17g,%.17g", range(n), ints, col, col[::-1])
        expected = csv_writer_bytes(header, zip(range(n), ints, col, col[::-1]))
        assert path.read_bytes() == expected


def split_table(n):
    """A table whose back half outgrows a pipe's buffer at n = 20000."""
    rng = np.random.default_rng(n)
    return (["t", "y", "lambda"], "%d,%d,%.17g",
            range(n), rng.integers(0, 2**40, n), rng.standard_normal(n))


def reference_bytes(table):
    header, _, *columns = table
    return csv_writer_bytes(header, zip(*columns))


def no_child_exists():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestSplitWriter:
    """The back half of a long table is formatted in a forked child; every
    way that can go wrong gives the serial bytes or the parent's error, and
    leaves no child behind."""

    def test_split_starts_at_split_rows(self, tmp_path, monkeypatch, forced_split):
        monkeypatch.setattr(zio, "_SPLIT_ROWS", 2**15)
        for n, forks in ((2**15 - 1, 0), (2**15, 1)):
            header, fmt, *columns = split_table(n)
            zio._write_csv(tmp_path / "t.csv", header, fmt, *columns)
            assert len(forced_split) == forks
            assert (tmp_path / "t.csv").read_bytes() == reference_bytes(split_table(n))

    @pytest.mark.parametrize("n", [1, 2, 3, 20000])
    @pytest.mark.parametrize("failure", ["raise", "kill"])
    def test_failed_child_falls_back_to_the_same_bytes(self, tmp_path, monkeypatch,
                                                       forced_split, n, failure):
        expected = reference_bytes(split_table(n))
        parent, format_rows = os.getpid(), zio._format_rows

        def child_fails(fmt, columns, lo, hi):
            if os.getpid() != parent:
                if failure == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("child failed")
            return format_rows(fmt, columns, lo, hi)

        monkeypatch.setattr(zio, "_format_rows", child_fails)
        header, fmt, *columns = split_table(n)
        zio._write_csv(tmp_path / "t.csv", header, fmt, *columns)
        assert len(forced_split) == 1
        assert (tmp_path / "t.csv").read_bytes() == expected
        assert no_child_exists()

    @pytest.mark.parametrize("n", [2, 20000])
    def test_parent_error_leaves_no_child(self, tmp_path, monkeypatch, forced_split, n):
        parent, format_rows = os.getpid(), zio._format_rows

        def parent_fails(fmt, columns, lo, hi):
            if os.getpid() == parent and lo == 0:
                raise RuntimeError("parent failed")
            return format_rows(fmt, columns, lo, hi)

        monkeypatch.setattr(zio, "_format_rows", parent_fails)
        header, fmt, *columns = split_table(n)
        with pytest.raises(RuntimeError, match="parent failed"):
            zio._write_csv(tmp_path / "t.csv", header, fmt, *columns)
        assert len(forced_split) == 1
        assert no_child_exists()
        assert not (tmp_path / "t.csv").exists()

    def test_one_cpu_is_serial(self, tmp_path, monkeypatch, forced_split):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        header, fmt, *columns = split_table(1000)
        zio._write_csv(tmp_path / "t.csv", header, fmt, *columns)
        assert forced_split == []
        assert (tmp_path / "t.csv").read_bytes() == reference_bytes(split_table(1000))

    def test_a_second_thread_means_serial(self, tmp_path, forced_split):
        done = threading.Event()
        thread = threading.Thread(target=done.wait, args=(60,))
        thread.start()
        try:
            header, fmt, *columns = split_table(1000)
            zio._write_csv(tmp_path / "t.csv", header, fmt, *columns)
        finally:
            done.set()
            thread.join(10)
        assert not thread.is_alive()
        assert forced_split == []
        assert (tmp_path / "t.csv").read_bytes() == reference_bytes(split_table(1000))

    def test_failed_fork_is_serial(self, tmp_path, monkeypatch, forced_split):
        def no_fork():
            raise OSError("fork failed")

        monkeypatch.setattr(os, "fork", no_fork)
        header, fmt, *columns = split_table(1000)
        zio._write_csv(tmp_path / "t.csv", header, fmt, *columns)
        assert (tmp_path / "t.csv").read_bytes() == reference_bytes(split_table(1000))
        assert no_child_exists()


def oracle_read_counts_csv(path, column=None) -> np.ndarray:
    """The reader as it was before its one-pass parse: it keeps the non-blank
    lines and parses them as a list."""
    blank = ' \t",'
    path = Path(path)
    lines = [line for line in path.read_text().splitlines() if line.strip(blank)]
    if not lines:
        raise InvalidSpecError(f"no data in {path}")
    header = None
    first = next(csv.reader(lines[:1]))
    try:
        [float(cell) for cell in first]
    except ValueError:
        header = [cell.strip() for cell in first]
        lines = lines[1:]
    if not lines:
        raise InvalidSpecError(f"no data rows in {path}")
    if column is None:
        if header and "y" in header:
            idx = header.index("y")
        else:
            idx = len(next(csv.reader(lines[:1]))) - 1
    elif isinstance(column, int) or (isinstance(column, str) and column.lstrip("-").isdigit()):
        idx = int(column)
    else:
        if header is None or column not in header:
            raise InvalidSpecError(f"column {column!r} not found in {path}")
        idx = header.index(column)
    try:
        arr = np.loadtxt(lines, delimiter=",", quotechar='"', comments=None, usecols=idx, ndmin=1)
    except ValueError as err:
        raise InvalidSpecError(f"cannot parse counts from {path}: {err}") from err
    if not np.all(np.isfinite(arr)) or np.any(arr < 0) or np.any(arr != np.round(arr)):
        raise InvalidSpecError(f"column {idx} of {path} is not a non-negative integer series")
    return arr.astype(np.int64)


BLANK_LINES = ["", " ", "\t", " \t ", ",", ",,", '""', '"",""', ' , ']
NAMES = ["t", "y", "count", "x"]


@st.composite
def count_csvs(draw):
    """A counts CSV text with blank lines put in at random places, and a
    ``column`` argument of any form."""
    width = draw(st.integers(1, 4))
    quote = draw(st.sampled_from(["never", "sometimes"]))

    def cell(text):
        if quote == "sometimes" and draw(st.booleans()):
            return f'"{text}"'
        return draw(st.sampled_from([text, text, f" {text}", f"{text} "]))

    cells = st.one_of(st.integers(0, 10**6).map(str),
                      st.sampled_from(["1.5", "x", "", "-1", "2.0", "1e1", "inf"]))
    lines = []
    header = draw(st.booleans())
    if header:
        names = draw(st.lists(st.sampled_from(NAMES), min_size=width, max_size=width))
        lines.append(",".join(cell(name) for name in names))
    for _ in range(draw(st.integers(0, 6))):
        row_width = draw(st.sampled_from([width] * 4 + [max(width - 1, 1), width + 1]))
        row = [draw(st.integers(0, 50).map(str)) if draw(st.integers(0, 9)) else draw(cells)
               for _ in range(row_width)]
        lines.append(",".join(cell(c) for c in row))
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BLANK_LINES)))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    column = draw(st.one_of(
        st.none(), st.integers(-5, 5), st.integers(-5, 5).map(str), st.sampled_from(NAMES),
    ))
    return text, column


def outcome(read, path, column):
    try:
        return read(path, column=column)
    except Exception as err:  # the type is compared
        return type(err)


class TestReaderMatchesOracle:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=count_csvs())
    @example(case=("t,y\n0,1\n,\n2,3\n", None))
    @example(case=("\n \n\"\"\nt,y\r\n0,1\r\n\r\n2,3", "y"))
    @example(case=('t,y\n0,"1\n"\n5,6\n', None))  # a quoted cell across a blank line
    @example(case=("t,y\n0,1\n2,3\x0c4,5\n", 0))  # a line break only splitlines sees
    def test_same_counts_or_same_error(self, tmp_path, case):
        text, column = case
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode())
        got = outcome(read_counts_csv, path, column)
        want = outcome(oracle_read_counts_csv, path, column)
        if isinstance(want, np.ndarray):
            assert isinstance(got, np.ndarray) and got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        else:
            assert got is want


def write_text(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode())
    return path


class TestReadCounts:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.csv"
        write_counts_csv(path, COUNTS, intensities=np.ones(len(COUNTS)))
        got = read_counts_csv(path)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, [int(c) for c in COUNTS])

    def test_header_default_is_y(self, tmp_path):
        path = write_text(tmp_path, "a,y,b\n1,2,3\n4,5,6\n")
        np.testing.assert_array_equal(read_counts_csv(path), [2, 5])

    def test_no_header_default_is_last_column(self, tmp_path):
        path = write_text(tmp_path, "1,2,3\n4,5,6\n")
        np.testing.assert_array_equal(read_counts_csv(path), [3, 6])

    def test_header_without_y_defaults_to_last_column(self, tmp_path):
        path = write_text(tmp_path, "idx,count\n0,7\n1,8\n")
        np.testing.assert_array_equal(read_counts_csv(path), [7, 8])

    def test_column_by_name_index_and_negative_index(self, tmp_path):
        path = write_text(tmp_path, "t,y,extra\n0,1,9\n1,2,8\n")
        np.testing.assert_array_equal(read_counts_csv(path, column="extra"), [9, 8])
        np.testing.assert_array_equal(read_counts_csv(path, column=0), [0, 1])
        np.testing.assert_array_equal(read_counts_csv(path, column="1"), [1, 2])
        np.testing.assert_array_equal(read_counts_csv(path, column=-1), [9, 8])
        np.testing.assert_array_equal(read_counts_csv(path, column="-2"), [1, 2])

    def test_blank_and_whitespace_lines_are_skipped(self, tmp_path):
        path = write_text(tmp_path, "\n  \nt,y\n0,1\n\n \t \n1,2\n,\n2,3\n\n")
        np.testing.assert_array_equal(read_counts_csv(path), [1, 2, 3])

    def test_quoted_cells(self, tmp_path):
        path = write_text(tmp_path, '"t","y"\n"0","4"\n1,"5"\n')
        np.testing.assert_array_equal(read_counts_csv(path), [4, 5])

    def test_crlf_line_endings(self, tmp_path):
        path = write_text(tmp_path, "t,y\r\n0,4\r\n1,5\r\n\r\n")
        np.testing.assert_array_equal(read_counts_csv(path), [4, 5])

    def test_padded_cells_and_float_notation(self, tmp_path):
        path = write_text(tmp_path, "t, y\n0, 4 \n1,5.0\n2,1e1\n")
        np.testing.assert_array_equal(read_counts_csv(path, column="y"), [4, 5, 10])

    def test_single_row(self, tmp_path):
        path = write_text(tmp_path, "t,y\n0,3\n")
        np.testing.assert_array_equal(read_counts_csv(path), [3])

    @pytest.mark.parametrize(
        "text, column",
        [
            ("", None),  # empty file
            (" \n\n", None),  # blank lines only
            ("t,y\n", None),  # a header with no data
            ("t,y\n\n  \n", None),
            ("t,y\n0,1\n1\n2,3\n", None),  # a ragged row without the column
            ("0,1\n1\n", 1),
            ("t,y\n0,1.5\n", None),  # a non-integer value
            ("t,y\n0,x\n", None),
            ("t,y\n0,\n", None),  # an empty cell
            ("t,y\n0,-1\n", None),  # a negative value
            ("t,y\n0,inf\n", None),
            ("t,y\n0,nan\n", None),
            ("t,y\n0,1\n", "count"),  # a missing column
            ("0,1\n", "count"),  # a name without a header
            ("t,y\n0,1\n", 5),  # an index past the last column
        ],
    )
    def test_parse_failures_are_typed(self, tmp_path, text, column):
        path = write_text(tmp_path, text)
        with pytest.raises(InvalidSpecError):
            read_counts_csv(path, column=column)
