"""The one writer of a run's files, and their two formats.

A run produces documents: a ``.csv`` document is a ``{column: array}`` dict,
written as column CSV; any other is a JSON object.  CSV floats carry 17
significant digits, so every value round-trips exactly; integer columns are
written as plain integers.  JSON documents are indented with sorted keys.
Both formats are deterministic, so a fixed seed gives byte-identical files.

A CSV column may hold NaN (a curve bin with too few shots has no mean or
variance) but no infinity, and a JSON document neither, which is not valid
JSON.  :func:`write_documents` checks every document before it opens any
file, so a run that fails the check leaves its output directory as it was.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import NumericError

# rows formatted per write: bounds the memory of the per-cell strings
_ROWS_PER_WRITE = 4096


def _cells(column: np.ndarray) -> list[str]:
    """The column's cells as text; each distinct value is formatted once.

    Values are told apart by bit pattern, so ``-0.0`` keeps its sign.
    """
    bits = np.ascontiguousarray(column).view(f"u{column.itemsize}")
    _, first, inverse = np.unique(bits, return_index=True, return_inverse=True)
    spec = ".17g" if column.dtype.kind == "f" else ""
    text = [format(v, spec) for v in column[first].tolist()]
    return [text[i] for i in inverse.tolist()]


def write_csv(path, columns: dict[str, np.ndarray]) -> None:
    """Write equal-length columns under a header of the dict's keys."""
    arrays = [np.asarray(c) for c in columns.values()]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for lo in range(0, len(arrays[0]), _ROWS_PER_WRITE):
            cells = [_cells(a[lo : lo + _ROWS_PER_WRITE]) for a in arrays]
            fh.write("".join(",".join(row) + "\n" for row in zip(*cells)))


def write_documents(outdir: Path, documents: dict[str, dict]) -> None:
    """Write each document to ``outdir / name``.

    Every JSON document is serialized and every CSV column checked for
    infinities first; a failure raises :class:`NumericError` naming the file
    (and column) before any file is opened.
    """
    texts = {}
    for name, doc in documents.items():
        if name.endswith(".csv"):
            for column, values in doc.items():
                if np.isinf(values).any():
                    raise NumericError(f"{name}: column {column} holds an infinity")
        else:
            try:
                texts[name] = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
            except ValueError as exc:
                raise NumericError(f"{name}: {exc}") from exc
    for name, doc in documents.items():
        if name in texts:
            with open(outdir / name, "w") as fh:
                fh.write(texts[name])
        else:
            write_csv(outdir / name, doc)
