"""The package's two file formats: column CSV and JSON documents.

CSV floats carry 17 significant digits, so every value round-trips exactly;
integer columns are written as plain integers.  JSON documents are indented
with sorted keys and reject NaN and infinities, which are not valid JSON.
Both formats are deterministic, so a fixed seed gives byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import NumericError

# rows formatted per write: bounds the memory of the per-cell strings
_ROWS_PER_WRITE = 4096


def _cells(column: np.ndarray) -> list[str]:
    if column.dtype.kind == "f":
        return [f"{v:.17g}" for v in column.tolist()]
    return [f"{v}" for v in column.tolist()]


def write_csv(path, columns: dict[str, np.ndarray]) -> None:
    """Write equal-length columns under a header of the dict's keys."""
    arrays = [np.asarray(c) for c in columns.values()]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for lo in range(0, len(arrays[0]), _ROWS_PER_WRITE):
            cells = [_cells(a[lo : lo + _ROWS_PER_WRITE]) for a in arrays]
            fh.write("".join(",".join(row) + "\n" for row in zip(*cells)))


def write_json(path, doc: dict) -> None:
    """Write ``doc`` indented, with sorted keys and a trailing newline.

    A non-finite float raises :class:`NumericError` before the file is opened.
    """
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"{path}: {exc}") from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")
