"""File formats: count CSVs, filtered/residual/diagnostic tables, metadata.

What the CSV outputs guarantee: floats carry 17 significant digits, so every
value round-trips exactly; lines end in "\r\n" and no field is quoted, so
the bytes are those ``csv.writer`` writes; and a seeded session writes the
same bytes every time, so golden files stay byte-stable.

Where a long session spends its time: at n = 1e5 a ``simulate -> filter ->
diagnose`` session converts about 400k floats to decimal, and those
conversions are the floor of its CSV io.  A float column in which most rows
repeat the row before (the filter's error variance once its gain settles) is
converted once per run of equal values.  A counts file is parsed in one
``np.loadtxt`` pass over it wherever that pass sees the same lines as a parse
of its non-blank lines would.

A table of at least ``_SPLIT_ROWS`` rows is formatted on two CPUs when the
process may run on two or more and has no other thread: a forked child
formats rows ``[n//2, n)`` and sends their bytes through a pipe while the
parent formats and encodes the header and rows ``[0, n//2)``, then writes
the joined bytes with one write.  Each process slices the columns before
converting them, so neither touches the other's Python objects.  The bytes
are those of one process; if the fork fails or the child does not exit 0,
the parent formats the back half itself, so a child's failure never fails a
write.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import threading
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .errors import InvalidSpecError

# characters of a line that holds only blank cells
_BLANK = ' \t",'
# bytes that str.splitlines takes for line breaks and a file read with
# universal newlines does not, and the quote, whose cells may span lines in
# a file but not in a list of lines
_NOT_LINEWISE = (b'"', b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")
_LOADTXT = {"delimiter": ",", "quotechar": '"', "comments": None, "ndmin": 1}
# rows from which a table's back half is formatted in a forked child.  On a
# 2-CPU VM at 120-200 MB RSS a 5-column table broke even near 16k rows (23.2
# against 21.9 ms) and gained at 32k (45.9 against 38.4 ms); tables of fewer
# columns save less per row, hence the margin
_SPLIT_ROWS = 2**15


def _float_runs(col):
    """The cells of a float column formatted once per run of equal bit
    patterns, or None when fewer than half of its rows repeat the row
    before.  Bits, not ``==``: -0.0 == 0.0, yet they print as -0 and 0."""
    bits = col.view(np.int64)
    starts = np.flatnonzero(bits[1:] != bits[:-1]) + 1
    if 2 * (len(starts) + 1) > len(col):
        return None
    starts = np.concatenate(([0], starts))
    lengths = np.diff(starts, append=len(col))
    cells = ["%.17g" % x for x in col[starts].tolist()]
    return chain.from_iterable(map(repeat, cells, lengths.tolist()))


def _format_rows(fmt, columns, lo, hi) -> str:
    """Rows ``[lo, hi)`` of the columns, one ``fmt`` line each.  Each column
    is sliced before its cells become Python objects, so a process creates
    objects only for the rows it formats."""
    specs = fmt.split(",")
    cells = []
    for i, col in enumerate(columns):
        if isinstance(col, range):
            cells.append(col[lo:hi])
            continue
        col = np.asarray(col)[lo:hi]
        runs = _float_runs(col) if specs[i] == "%.17g" and col.dtype == np.float64 else None
        if runs is None:
            cells.append(col.tolist())
        else:
            specs[i] = "%s"
            cells.append(runs)
    line = ",".join(specs) + "\r\n"
    return "".join([line % row for row in zip(*cells)])


def _can_split(n) -> bool:
    """Whether rows ``[n//2, n)`` may go to a forked child: the table is long
    enough to repay the fork, the process may run on a second CPU, and no
    other thread could hold a lock that the child would need."""
    return (
        n >= _SPLIT_ROWS
        and hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
        and threading.active_count() == 1
    )


def _format_split(fmt, columns, n) -> list[bytes]:
    """Rows ``[0, n)`` in two parts, encoded: the front half formatted here,
    the back half in a forked child that sends it through a pipe.  If the
    fork fails or the child does not exit 0, the back half is formatted here;
    either way the bytes are those of ``_format_rows(fmt, columns, 0, n)``."""
    mid = n // 2
    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(rfd)
        os.close(wfd)
        return [_format_rows(fmt, columns, 0, n).encode()]
    if pid == 0:  # the child never returns into the caller
        code = 1
        try:
            os.close(rfd)
            with open(wfd, "wb") as pipe:
                pipe.write(_format_rows(fmt, columns, mid, n).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    try:
        # closing the read end, also when formatting here raises, lets a
        # child blocked on the pipe fail with EPIPE and exit
        with open(rfd, "rb") as pipe:
            front = _format_rows(fmt, columns, 0, mid).encode()
            back = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    if status:
        back = _format_rows(fmt, columns, mid, n).encode()
    return [front, back]


def _write_csv(path, header, fmt, *columns) -> None:
    """Write the header and one ``fmt`` line per row of the columns with a
    single write, encoded as UTF-8.  Lines end in "\r\n" and no field is
    quoted, so the bytes are those that ``csv.writer`` writes for these
    fields.  ``fmt`` is one comma-separated spec per column.  A long table
    is formatted in two halves on two CPUs when :func:`_can_split` allows;
    the bytes are the same."""
    n = min(map(len, columns), default=0)
    if _can_split(n):
        body = _format_split(fmt, columns, n)
    else:
        body = [_format_rows(fmt, columns, 0, n).encode()]
    Path(path).write_bytes(b"".join([(",".join(header) + "\r\n").encode(), *body]))


def _layout(lines, column, path) -> tuple[int, int]:
    """The number of the first data line and the index of the count column,
    from an iterator over the numbered non-blank lines of a counts CSV."""
    number, first = next(lines, (None, None))
    if first is None:
        raise InvalidSpecError(f"no data in {path}")
    header = None
    cells = next(csv.reader([first]))
    try:
        [float(cell) for cell in cells]
    except ValueError:
        header = [cell.strip() for cell in cells]
        number, first = next(lines, (None, None))
        if first is None:
            raise InvalidSpecError(f"no data rows in {path}")
    if column is None:
        if header and "y" in header:
            idx = header.index("y")
        else:
            idx = len(next(csv.reader([first]))) - 1
    elif isinstance(column, int) or (isinstance(column, str) and column.lstrip("-").isdigit()):
        idx = int(column)
    else:
        if header is None or column not in header:
            raise InvalidSpecError(f"column {column!r} not found in {path}")
        idx = header.index(column)
    return number, idx


def read_counts_csv(path, column=None) -> np.ndarray:
    """Read one integer count column from a CSV with or without a header.

    ``column`` selects by header name or zero-based index (negative counts
    from the end); the default is a column named ``y`` when a header is
    present, else the last column.  Blank lines are skipped, cells may be
    quoted, and any parse failure raises :class:`InvalidSpecError`.

    An ASCII file with no quote and no line break other than "\n" and
    "\r" is parsed in one ``np.loadtxt`` pass over the file, which skips
    empty lines itself.  Every other file, and one that this pass rejects
    (such as one with a blank-cell line among its data), is parsed as the
    list of its non-blank lines.  On the files the one pass takes, both
    parses see the same lines, so they return the same counts.
    """
    path = Path(path)
    arr = None
    raw = path.read_bytes()
    if raw.isascii() and not any(byte in raw for byte in _NOT_LINEWISE):
        with path.open(encoding="ascii") as fh:
            nonblank = ((i, line.rstrip("\n")) for i, line in enumerate(fh)
                        if line.strip(_BLANK + "\n"))
            start, idx = _layout(nonblank, column, path)
        try:
            arr = np.loadtxt(path, skiprows=start, usecols=idx, **_LOADTXT)
        except ValueError:
            pass
    if arr is None:
        lines = [line for line in path.read_text().splitlines() if line.strip(_BLANK)]
        start, idx = _layout(enumerate(lines), column, path)
        try:
            arr = np.loadtxt(lines[start:], usecols=idx, **_LOADTXT)
        except ValueError as err:
            raise InvalidSpecError(f"cannot parse counts from {path}: {err}") from err
    if not np.all(np.isfinite(arr)) or np.any(arr < 0) or np.any(arr != np.round(arr)):
        raise InvalidSpecError(f"column {idx} of {path} is not a non-negative integer series")
    return arr.astype(np.int64)


def write_counts_csv(path, counts, intensities=None) -> None:
    t = range(len(counts))
    if intensities is None:
        _write_csv(path, ["t", "y"], "%d,%d", t, counts)
    else:
        _write_csv(path, ["t", "y", "lambda"], "%d,%d,%.17g", t, counts, intensities)


def write_filtered_csv(path, counts, result) -> None:
    """Columns: t, y, lambda_filtered, error_var, innovation."""
    n = len(result)
    _write_csv(
        path, ["t", "y", "lambda_filtered", "error_var", "innovation"],
        "%d,%d,%.17g,%.17g,%.17g", range(n), np.asarray(counts)[:n],
        result.lambda_filtered, result.error_var, result.innovation,
    )


def write_residuals_csv(path, residuals) -> None:
    _write_csv(path, ["t", "pearson_residual"], "%d,%.17g", range(len(residuals)), residuals)


def write_acf_pacf_csv(path, acf, pacf) -> None:
    _write_csv(path, ["lag", "acf", "pacf"], "%d,%.17g,%.17g", range(len(acf)), acf, pacf)


def write_probtable_csv(path, table) -> None:
    _write_csv(
        path, ["k", "fitted", "empirical"], "%s,%.17g,%.17g",
        [*np.asarray(table.support).tolist(), "tail"],
        np.append(table.fitted, table.fitted_tail), np.append(table.empirical, 0.0),
    )


def write_experiment_csv(path, results) -> None:
    """Rows mirror the simulation-table layout: true values, mean estimates,
    per-parameter MSEs and replicate accounting."""
    keys = ("rho", "omega", "beta", "p", "a")
    header = ["family", "intensity", "n", "replicates"] + [
        f"{kind}_{k}" for kind in ("true", "mean", "mse") for k in keys
    ] + ["completed", "discarded"]
    rows = [
        (res.row.family, res.row.intensity_family, res.row.n, res.row.replicates,
         *(d[k] for d in (res.row.true_values(), res.mean, res.mse) for k in keys),
         res.completed, res.discarded)
        for res in results
    ]
    fmt = "%s,%s,%d,%d," + ",".join(["%.17g"] * 3 * len(keys)) + ",%d,%d"
    _write_csv(path, header, fmt, *zip(*rows))


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def write_metadata(path, command: str, config: dict, seed) -> None:
    from . import __version__

    meta = {
        "command": command,
        "seed": seed,
        "config_sha256": config_hash(config),
        "version": __version__,
    }
    Path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def write_fit_json(path, fit_result, se=None) -> None:
    doc = fit_result.to_dict()
    if se is not None:
        doc["se"] = se
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_fit_json(path) -> dict:
    """Read a ``fit.json``; a file that is not JSON or lacks the family, the
    intensity family or one of the estimates omega, rho, beta and p raises
    :class:`InvalidSpecError`."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except ValueError as err:
        raise InvalidSpecError(f"cannot parse fit file {path}: {err}") from err
    if not isinstance(doc, dict) or not isinstance(doc.get("estimates"), dict):
        raise InvalidSpecError(f"fit file {path} holds no estimates object")
    missing = [key for key in ("family", "intensity_family") if key not in doc] + [
        f"estimates.{key}" for key in ("omega", "rho", "beta", "p") if key not in doc["estimates"]
    ]
    if missing:
        raise InvalidSpecError(f"fit file {path} lacks {', '.join(missing)}")
    return doc
