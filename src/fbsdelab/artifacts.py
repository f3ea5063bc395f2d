"""The one CSV table format of every data artifact.

A table is ``# `` comment lines, one line of column names and one row of
``%.17g`` values per tuple, so that every float reads back to its bits.
"""

from __future__ import annotations

__all__ = ["write_table"]


def write_table(path, comments, columns, rows) -> None:
    """Write ``comments``, the ``columns`` line and ``rows``, one row at a time."""
    fmt = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.writelines(f"# {line}\n" for line in comments)
        fh.write(",".join(columns) + "\n")
        fh.writelines(fmt % row for row in rows)
