"""CSV emission for experiment artifacts.

Every number is written with 17 significant digits so a reader parsing
the file recovers the exact double, which is what makes the byte-level
determinism contract of the harness meaningful.
"""

import csv

import numpy as np


def _format(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if not np.isfinite(v):
        raise ValueError(f"non-finite value {v!r} cannot be written to CSV")
    return f"{v:.17g}"


def emit_csv(data, path, header):
    """Write a matrix, series, or list of row tuples as an RFC-4180 CSV.

    A 1-d array becomes one column; an empty series yields a header-only
    file. Strings pass through, numbers are formatted round-trippably.
    """
    float_matrix = False
    if isinstance(data, np.ndarray):
        if data.ndim == 1:
            rows = [(v,) for v in data]
        elif data.ndim == 2:
            rows = data
            float_matrix = data.dtype.kind == "f"
        else:
            raise ValueError("only 1-d or 2-d arrays can be written")
    else:
        rows = data
    if float_matrix and not np.isfinite(data).all():
        raise ValueError("non-finite value cannot be written to CSV")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        if float_matrix:
            # a formatted finite double never needs quoting, so rows skip
            # csv.writer and the per-value dispatch of _format: same bytes,
            # each row one % on a row format, written one row at a time to
            # keep memory flat
            fmt = ",".join(["%.17g"] * data.shape[1]) + "\n"
            for row in data:
                fh.write(fmt % tuple(row.tolist()))
        else:
            for row in rows:
                writer.writerow([_format(v) for v in row])


def read_csv(path):
    """Parse a CSV back into (header, rows of strings)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader]


def read_matrix(path) -> np.ndarray:
    """Parse a numeric CSV body into a float array (rows may be empty)."""
    _, rows = read_csv(path)
    if not rows:
        return np.empty((0, 0))
    return np.array([[float(v) for v in row] for row in rows])
