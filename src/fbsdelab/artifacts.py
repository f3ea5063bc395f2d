"""The one CSV table format of every data artifact.

A table is ``# `` comment lines, one line of column names and one row of
``%.17g`` values per tuple, so that every float reads back to its bits.
``write_table`` writes any sequence of rows; ``write_grid`` writes the rows of
one array on a space-time grid, (t_i, x_j, a[i, j]) in t-major order, with
the same bytes and without formatting t or x more than once.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = ["write_table", "write_grid"]

_CELL = "%.17g"


@contextmanager
def _table(path, comments, columns):
    """The open file of a table, its comment lines and column line written."""
    with open(path, "w") as fh:
        fh.writelines(f"# {line}\n" for line in comments)
        fh.write(",".join(columns) + "\n")
        yield fh


def write_table(path, comments, columns, rows) -> None:
    """Write ``comments``, the ``columns`` line and ``rows``, one row at a time."""
    fmt = ",".join([_CELL] * len(columns)) + "\n"
    with _table(path, comments, columns) as fh:
        fh.writelines(fmt % row for row in rows)


def write_grid(path, comments, columns, t, x, a) -> None:
    """``write_table`` of the rows (t_i, x_j, a[i, j]), t-major.

    Each x is formatted once per grid and each t once per time row: a time
    row's line template is the x texts joined by its t text, and one ``%``
    fills in that row's values.
    """
    parts = [""] + [f",{_CELL % v},{_CELL}\n" for v in np.asarray(x, dtype=float).tolist()]
    with _table(path, comments, columns) as fh:
        for ti, row in zip(np.asarray(t, dtype=float).tolist(),
                           np.asarray(a, dtype=float)):
            fh.write((_CELL % ti).join(parts) % tuple(row.tolist()))
