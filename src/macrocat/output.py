"""The one writer of a run's files, and their two formats.

A run produces documents: a ``.csv`` document is a ``{column: array}`` dict,
written as column CSV; any other is a JSON object.  CSV floats carry 17
significant digits, so every value round-trips exactly; integer columns are
written as plain integers and bool columns as ``True``/``False``.  JSON
documents are indented with sorted keys.  Both formats are deterministic,
so a fixed seed gives byte-identical files.

A CSV column may hold NaN (a curve bin with too few shots has no mean or
variance) but no infinity, and a JSON document neither, which is not valid
JSON.  :func:`write_documents` checks every document before it opens any
file, so a run that fails the check leaves its output directory as it was.

A CSV document is written 4096 rows at a time, each block as one ``%``
format call over its cells in row order.  A column whose block repeats a
value formats each distinct value once (values told apart by bit pattern,
so ``-0.0`` keeps its sign) and passes the texts as ``%s``; a column without
repeats passes its numbers, as ``%.17g`` for floats and ``%s`` (``str``) for
the rest.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import NumericError

# rows formatted per write: bounds the memory of one block's text
_ROWS_PER_WRITE = 4096


def _block_cells(column: np.ndarray) -> tuple[str, list]:
    """The format spec and the arguments of one column's cells in a block."""
    bits = np.ascontiguousarray(column).view(f"u{column.itemsize}")
    distinct, inverse = np.unique(bits, return_inverse=True)
    spec = "%.17g" if column.dtype.kind == "f" else "%s"
    if distinct.size == column.size:
        return spec, column.tolist()
    text = np.array([spec % v for v in distinct.view(column.dtype).tolist()], dtype=object)
    return "%s", text[inverse].tolist()


def write_csv(path, columns: dict[str, np.ndarray]) -> None:
    """Write equal-length columns under a header of the dict's keys."""
    arrays = [np.asarray(c) for c in columns.values()]
    width = len(arrays)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for lo in range(0, len(arrays[0]), _ROWS_PER_WRITE):
            blocks = [a[lo : lo + _ROWS_PER_WRITE] for a in arrays]
            specs, cells = [], [None] * (len(blocks[0]) * width)
            for k, block in enumerate(blocks):
                spec, cells[k::width] = _block_cells(block)
                specs.append(spec)
            fh.write((",".join(specs) + "\n") * len(blocks[0]) % tuple(cells))


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
