"""File formats: count CSVs, filtered/residual/diagnostic tables, metadata.

Floats are written with 17 significant digits so outputs round-trip exactly
and golden files stay byte-stable.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import InvalidSpecError

# characters of a line that holds only blank cells
_BLANK = ' \t",'


def _write_csv(path, header, fmt, *columns) -> None:
    """Write the header and one ``fmt`` line per row of the columns with a
    single write.  Lines end in "\r\n" and no field is quoted, so the bytes
    are those that ``csv.writer`` writes for these fields."""
    line = fmt + "\r\n"
    rows = zip(*[np.asarray(col).tolist() for col in columns])
    text = ",".join(header) + "\r\n" + "".join([line % row for row in rows])
    Path(path).write_text(text, newline="")


def read_counts_csv(path, column=None) -> np.ndarray:
    """Read one integer count column from a CSV with or without a header.

    ``column`` selects by header name or zero-based index (negative counts
    from the end); the default is a column named ``y`` when a header is
    present, else the last column.  Blank lines are skipped, cells may be
    quoted, and any parse failure raises :class:`InvalidSpecError`.
    """
    path = Path(path)
    lines = [line for line in path.read_text().splitlines() if line.strip(_BLANK)]
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
    return json.loads(Path(path).read_text())
