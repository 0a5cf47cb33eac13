"""The one writer of a run's files, and their two formats.

A run produces documents: a ``.csv`` document is a ``{column: array}`` dict,
written as column CSV; any other is a JSON object.  CSV floats carry 17
significant digits (``%.17g``), so every value round-trips exactly; integer
columns are written as plain integers.  JSON documents are indented with
sorted keys.  Both formats are deterministic, so a fixed seed gives
byte-identical files.

A CSV column may hold NaN (a curve bin with too few shots has no mean or
variance) but no infinity, and a JSON document neither, which is not valid
JSON.  :func:`write_documents` checks every document before it opens any
file, so a run that fails the check leaves its output directory as it was.

A CSV document is written 2048 rows at a time.  Each block becomes one
``uint8`` byte matrix, built in numpy: a row of fixed-width cell fields,
each followed by its ``,`` or ``\\n``, with the zero byte as padding; one
compaction drops the padding and the bytes go to the file as they are.
In a block of 256 rows or more, a column that repeats a value formats each
distinct value once (values told apart by bit pattern, so ``-0.0`` keeps
its sign).

Most floats need no Python formatting.  Inside its fixed-point range
(``1e-4 <= |x| < 1e17`` after rounding, and ``±0``) ``%.17g`` writes the
digits of the integer nearest ``|x| * 10**(16 - k)``, ``k`` the decimal
exponent, with the point after digit ``k``, trailing fraction zeros
dropped.  That integer is computed exactly in float64: every ``10**t``
with ``t <= 22`` is an exact double, and Dekker's (1971) error-free product
gives ``|x| * 10**t`` as an exact pair of doubles, which is then rounded
half to even.  The other floats, whose ``%.17g`` text has an exponent
(``|x| < 1e-4``, subnormals included, ``|x| >= 1e17``), NaN and infinities,
keep CPython's ``%.17g``: scaling them would need powers of ten that are
not exact doubles.  They are formatted with one ``%`` call per block over
just those cells.  Integers and the float digits are turned into text
through one table of 4-digit texts.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import NumericError

# rows formatted per write: bounds the memory of one block's text
_ROWS_PER_WRITE = 2048
# the smallest block searched for repeated values: in a smaller one, finding
# them costs more than formatting them
_SEARCH_ROWS = 256

# the 4-digit texts "0000" to "9999", built from the 2-digit "00" to "99"
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), dtype=np.uint16)
_QUADS = np.stack(np.broadcast_arrays(_PAIRS[:, None], _PAIRS), axis=-1).view(np.uint32).ravel()
_MINUS, _DOT, _ZERO, _COMMA, _NEWLINE = b"-.0,\n"
# an exponent-form text is at most 24 bytes: "-2.2250738585072014e-308"
_EXP_WIDTH = 24

# 10**t, t = 0..22, each an exact double, and its Veltkamp split into two
# halves of at most 26 significant bits
_TEN = 10.0 ** np.arange(23)
_SPLIT = 134217729.0  # 2**27 + 1
_TEN_HI = _SPLIT * _TEN - (_SPLIT * _TEN - _TEN)
_TEN_LO = _TEN - _TEN_HI
# 10, 100, ..., 10**19: an unsigned integer has 1 + (its insertion point) digits
_DECADES = 10 ** np.arange(1, 20, dtype=np.uint64)
# the 8-byte type each column kind is read as
_WORDS = {"f": np.float64, "i": np.int64}


def _digits(v: np.ndarray) -> np.ndarray:
    """Row i: the 24 decimal digits of ``v[i]`` (any uint64), zero-padded on
    the left, as ASCII bytes."""
    # three words of 8 digits, each split into two 4-digit table indices
    words = np.empty((v.size, 3), np.int64)
    q = v // 100000000
    top = q // 100000000
    words[:, 0] = top
    words[:, 1] = q - top * 100000000
    words[:, 2] = v - q * 100000000
    quads = np.empty((v.size, 3, 2), np.intp)
    np.floor_divide(words, 10000, out=quads[..., 0])
    np.subtract(words, quads[..., 0] * 10000, out=quads[..., 1])
    return _QUADS.take(quads).view(np.uint8).reshape(-1, 24)


def _two_product(a: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(p, e)`` with ``p + e == a * 10**t`` exactly and ``p`` the rounded
    product: Dekker's product of two Veltkamp-split doubles."""
    p = a * _TEN[t]
    a_hi = _SPLIT * a
    a_hi -= a_hi - a
    a_lo = a - a_hi
    b_hi, b_lo = _TEN_HI[t], _TEN_LO[t]
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def _significand(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(k, n)``: ``n`` is the 17-digit integer nearest ``a * 10**(16 - k)``,
    ties to even, so ``%.17g`` writes the digits of ``n`` at decimal exponent
    ``k``.  For ``1e-4 <= a < 1e17``, and ``a == 0`` (``k`` 0, ``n`` 0)."""
    zero = (a == 0).nonzero()[0]
    if zero.size:
        a = a.copy()
        a[zero] = 2.0  # any value off the edges checked below
    k = np.minimum(np.floor(np.log10(a)), 16).astype(np.intp)
    p, e = _two_product(a, 16 - k)
    # log10 can miss k by one next to a power of ten: the exact product
    # p + e must lie in [10**16, 10**17)
    edge = ((p <= 1e16) | (p >= 1e17)).nonzero()[0]
    if edge.size:
        pe, ee = p[edge], e[edge]
        k[edge] += (pe > 1e17) | ((pe == 1e17) & (ee >= 0))
        k[edge] -= (pe < 1e16) | ((pe == 1e16) & (ee < 0))
        p[edge], e[edge] = _two_product(a[edge], 16 - k[edge])
    # p >= 1e16 > 2**53 is an even integer, so rounding e half to even
    # rounds p + e half to even.  n never reaches 10**17: that would take a
    # double within 5e-18 (relative) below a power of ten, and the nearest
    # one below each is at least 8e-17 below it
    n = p.astype(np.int64) + np.rint(e).astype(np.int64)
    if zero.size:
        n[zero] = 0
        k[zero] = 0
    return k, n


# memo of _layout: its tables depend only on the exponent range
_layouts: dict = {}


def _layout(lo: int, hi: int) -> tuple[list, np.ndarray]:
    """The fixed-point field of decimal exponents ``lo..hi``.

    The field is a sign byte, the ``"0.000"`` lead of exponent ``lo`` if it
    is negative, and the 17 digits, each digit that ends the integer part of
    some exponent followed by a byte for the point.  Returns the runs of
    digit columns as ``(field columns, digit columns)``, and a table whose
    row ``((k - lo) * 17 + q) * 2 + negative``, ANDed over a field that
    holds 0xFF outside the digits, keeps digits ``0..max(k, q)`` and writes
    the sign, the lead and (if ``q > k``) the point of exponent ``k``; every
    other byte becomes the pad, 0.
    """
    got = _layouts.get((lo, hi))
    if got is None:
        first, last = max(lo, 0), min(hi, 15)  # the digits followed by a point byte
        cols, column = [], 1 + max(0, 1 - lo)
        for i in range(17):
            cols.append(column)
            column += 2 if first <= i <= last else 1
        table = np.zeros((hi - lo + 1, 17, 2, max(column, _EXP_WIDTH)), np.uint8)
        table[:, :, 1, 0] = _MINUS
        for k in range(lo, hi + 1):
            if k < 0:
                table[k - lo, :, :, 1 : 2 - k] = np.frombuffer(b"0." + b"0" * (-k - 1), np.uint8)
            for q in range(17):
                table[k - lo, q, :, cols[: max(k, q) + 1]] = 0xFF
                if q > k >= 0:
                    table[k - lo, q, :, cols[k] + 1] = _DOT
        runs = []
        for i, j, step in ((0, first, 1), (first, last + 1, 2), (max(first, last + 1), 17, 1)):
            if j > i:
                runs.append((slice(cols[i], cols[j - 1] + 1, step), slice(7 + i, 7 + j)))
        got = _layouts[lo, hi] = runs, table.reshape(-1, table.shape[-1])
    return got


def _fixed_cells(k: np.ndarray, digits: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """The fixed-point texts of the 17 digits ``digits[:, 7:]`` at decimal
    exponents ``k``, at least 24 bytes wide."""
    if not k.size:
        return np.zeros((0, _EXP_WIDTH), np.uint8)
    # the last nonzero digit; the table keeps the integer part's digits too
    last = np.empty(k.size, np.intp)
    last.fill(16)
    tail = (digits[:, 23] == _ZERO).nonzero()[0]
    if tail.size:
        nonzero = digits[tail, :6:-1] != _ZERO
        nonzero[:, -1] = True  # digit 0: only the value 0 has none, and its k = 0 keeps it
        last[tail] = 16 - nonzero.argmax(axis=1)
    lo = int(k.min())
    runs, table = _layout(lo, int(k.max()))
    cells = np.empty((k.size, table.shape[1]), np.uint8)
    cells.fill(0xFF)
    for columns, i in runs:
        cells[:, columns] = digits[:, i]
    cells &= table.take(((k - lo) * 17 + last) * 2 + negative, axis=0)
    return cells


def _float_cells(x: np.ndarray, k: np.ndarray, digits: np.ndarray, fixed, rest) -> np.ndarray:
    """The ``%.17g`` texts of ``x``: the ``fixed`` cells from ``k`` and
    ``digits``, the ``rest`` from one ``%`` call."""
    cells = _fixed_cells(k, digits, np.signbit(x[fixed]))
    if rest.size:
        cells, part = np.zeros((x.size, cells.shape[1]), np.uint8), cells
        cells[fixed] = part
        values = x[rest].tolist()
        text = ("%-24.17g" * len(values) % tuple(values)).encode().replace(b" ", b"\0")
        cells[rest, :_EXP_WIDTH] = np.frombuffer(text, np.uint8).reshape(-1, _EXP_WIDTH)
    return cells


# memo of _int_cells' tables, one per digit count
_int_tables: dict = {}


def _int_cells(digits: np.ndarray, u: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """The texts of the integers of magnitudes ``u`` and 24 right-aligned
    ``digits``."""
    ndigits = _DECADES.searchsorted(u, side="right") + 1
    width = int(ndigits.max())
    table = _int_tables.get(width)
    if table is None:
        # row 2 * d + negative: the sign, then the last d of the width digits
        table = np.zeros((width + 1, 2, 1 + width), np.uint8)
        table[:, 1, 0] = _MINUS
        for d in range(1, width + 1):
            table[d, :, 1 + width - d :] = 0xFF
        table = _int_tables[width] = table.reshape(-1, 1 + width)
    cells = np.empty((u.size, 1 + width), np.uint8)
    cells[:, 0] = 0xFF
    cells[:, 1:] = digits[:, 24 - width :]
    cells &= table.take(ndigits * 2 + negative, axis=0)
    return cells


def _block_text(blocks: list) -> bytes:
    """The CSV bytes of one block of rows."""
    # each column as 8-byte words: floats as float64, integers as int64
    values = [b.astype(_WORDS[b.dtype.kind], copy=False).view(np.uint64) for b in blocks]
    inverse = [None] * len(blocks)
    if blocks[0].size >= _SEARCH_ROWS:
        # a column that repeats a value formats each distinct value once
        ordered = np.sort(values, axis=1)
        new = ordered[:, 1:] != ordered[:, :-1]
        for j in (~new.all(axis=1)).nonzero()[0]:
            distinct = np.concatenate([ordered[j, :1], ordered[j, 1:][new[j]]])
            inverse[j] = distinct.searchsorted(values[j])
            values[j] = distinct
    kinds = [block.dtype.kind for block in blocks]
    floats = [j for j, kind in enumerate(kinds) if kind == "f"]
    ints = [j for j, kind in enumerate(kinds) if kind == "i"]

    # all float columns in one kernel call, over their fixed-point cells
    x = np.concatenate([values[j] for j in floats]).view(np.float64) if floats else _TEN[:0]
    a = np.abs(x)
    fixed = (a >= 1e-4) & (a < 1e17) | (a == 0)
    rest = (~fixed).nonzero()[0]
    k, n = _significand(a[fixed])
    # the integers' magnitudes and signs; one digits call for floats and integers
    magnitudes, negatives = [], []
    for j in ints:
        v = values[j]
        negative = v.view(np.int64) < 0
        magnitudes.append(np.negative(v, where=negative, out=v.copy()))
        negatives.append(negative)
    digits = _digits(np.concatenate([n.view(np.uint64)] + magnitudes))

    cells = [None] * len(blocks)
    if floats:
        float_cells = _float_cells(x, k, digits[: k.size], fixed, rest)
        start = 0
        for j in floats:
            cells[j] = float_cells[start : start + len(values[j])]
            start += len(values[j])
    start = k.size
    for j, magnitude, negative in zip(ints, magnitudes, negatives):
        cells[j] = _int_cells(digits[start : start + magnitude.size], magnitude, negative)
        start += magnitude.size
    for j, inv in enumerate(inverse):
        if inv is not None:
            # the distinct texts, without the bytes that are pad in all of them
            used = cells[j].any(axis=0).nonzero()[0]
            cells[j] = cells[j][:, used[0] : used[-1] + 1].take(inv, axis=0)

    width = sum(c.shape[1] + 1 for c in cells)
    text = bytearray(blocks[0].size * width)
    rows = np.frombuffer(text, np.uint8).reshape(-1, width)
    rows[:] = _COMMA
    end = 0
    for c in cells:
        rows[:, end : end + c.shape[1]] = c
        end += c.shape[1] + 1
    rows[:, -1] = _NEWLINE
    return text.translate(None, b"\0")


def write_csv(path, columns: dict[str, np.ndarray]) -> None:
    """Write equal-length float or integer columns under a header of the
    dict's keys."""
    arrays = [np.asarray(c) for c in columns.values()]
    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\n").encode())
        for lo in range(0, len(arrays[0]), _ROWS_PER_WRITE):
            fh.write(_block_text([a[lo : lo + _ROWS_PER_WRITE] for a in arrays]))


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
