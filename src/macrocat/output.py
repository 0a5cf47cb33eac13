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

Most floats need no Python formatting.  For ``1e-284 <= |x| < 1e17`` and
``±0``, ``%.17g`` writes the digits of the integer ``n`` nearest
``|x| * 10**(16 - k)``, ``k`` the decimal exponent after rounding: in
fixed-point form, the point after digit ``k``, when ``k >= -4``; else in
exponent form, which is the fixed-point text of the same digits at exponent
0 followed by ``e-XX``, with at least two exponent digits.  Either way
trailing fraction zeros are dropped, and the point with them, so one layout
writes both forms.  :func:`_significand` computes ``k`` and ``n`` in
float64, exactly: Dekker's (1971) error-free product with ``10**(16 - k)``,
held as a double-double where it is not an exact double.  Where rounding
that product could go either way it does not guess: as in Loitsch's Grisu3
(PLDI 2010), those cells are left to an exact formatter.  The cells
``%.17g`` formats itself are NaN, infinities, ``|x| >= 1e17``, ``|x| <
1e-284`` (subnormals included) and those near-tie cells, with one ``%``
call per block over just those cells.  Integers and the float digits are
turned into text through one table of 4-digit texts.
"""

from __future__ import annotations

import functools
import json
import math
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

# the smallest magnitude the kernel formats.  Its decimal exponents k >= -284
# keep t = 16 - k <= 300, so the split of 10**t stays finite (10**301 times
# 2**27 + 1 overflows); the double 1e-284 is above 10**-284
_LOW = 1e-284
_KMIN = -284
# the distance from a half within which an exponent-form cell's rounding is
# left to %: far above the kernel's error bound of 5e-15
_TIE_MARGIN = 1e-9
_SPLIT = 134217729.0  # 2**27 + 1
# 10, 100, ..., 10**19: an unsigned integer has 1 + (its insertion point) digits
_DECADES = 10 ** np.arange(1, 20, dtype=np.uint64)
# the 8-byte type each column kind is read as
_WORDS = {"f": np.float64, "i": np.int64}


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The kernel's tables and the exponent texts, built on first use.

    By biased binary exponent ``E`` of ``a`` (``0 < E <= 1079``, ``2**56 <
    1e17 < 2**57``): ``k0``, the decimal exponent of the binade's first
    double, and ``above``, the least double at or above ``10**(k0 + 1)``, so
    ``k = k0 + (a >= above)``; ``E = 0``, the zero, has ``k`` 0.  By
    ``t = 0..300``: ``10**t`` as ``hi + lo``, each rounded to a double from
    the exact integer, and ``hi``'s Veltkamp split.  By ``-k - 5``: the
    exponent form's suffixes ``e-05`` .. ``e-284``, zero-padded to 5 bytes.
    """
    # ceil[k - _KMIN], k = _KMIN..17: 1 / 10**j is rounded once, so it is off
    # 10**-j by less than an ulp
    ceil = []
    for j in range(-_KMIN, 0, -1):
        d = 1 / 10**j
        num, den = d.as_integer_ratio()
        ceil.append(d if num * 10**j >= den else math.nextafter(d, math.inf))
    ceil = np.array(ceil + [10.0**k for k in range(18)])
    first = np.ldexp(1.0, np.arange(1, 1080) - 1023)
    k0 = np.zeros(1080, np.intp)
    k0[1:] = ceil.searchsorted(first, side="right") - 1 + _KMIN
    above = np.full(1080, np.inf)
    above[1:] = ceil[k0[1:] + 1 - _KMIN]
    exact = [10**t for t in range(1 - _KMIN + 16)]
    hi = np.array([float(v) for v in exact])
    lo = np.array([float(v - int(h)) for v, h in zip(exact, hi)])
    hi_hi = _SPLIT * hi - (_SPLIT * hi - hi)
    texts = b"".join(f"e-{j:02d}".encode().ljust(5, b"\0") for j in range(5, 1 - _KMIN))
    exponents = np.frombuffer(texts, np.uint8).reshape(-1, 5)
    return k0, above, hi, lo, hi_hi, hi - hi_hi, exponents


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


def _significand(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(k, n, tie)``: ``n`` is the 17-digit integer nearest
    ``X = a * 10**(16 - k)``, ties to even, so ``%.17g`` writes the digits of
    ``n`` at decimal exponent ``k``, for ``1e-284 <= a < 1e17`` and ``a == 0``
    (``k`` 0, ``n`` 0).  At the indices ``tie`` ``n`` is not certain, and
    ``%`` formats those cells.

    ``k`` is exact: ``a``'s binary exponent leaves two candidates, and one
    comparison with the least double at or above a power of ten picks one.
    ``t = 16 - k`` runs from 0 to 300, and ``10**t = hi + lo + d``: ``hi``
    the rounded double, ``lo`` the rounded remainder, ``d`` what is left.
    Dekker's product of Veltkamp-split doubles gives ``a * hi = p + e``
    exactly; ``f`` is ``e + a * lo``, two roundings.  ``p >= 1e16 - 12 >
    2**53`` is an even integer, so ``n = p + rint(f)`` wherever ``p + f`` is
    too close to ``X`` for a half to lie between them.  With ``u = 2**-53``:

    * ``|lo| <= u hi`` and ``|d| <= u |lo|``, so ``|a d| <= u**2 a hi``;
    * ``a * lo`` rounds within ``u |a lo| <= u**2 a hi``;
    * ``|e| <= 8`` (``p < 2**57``) and ``|a lo| <= u a hi < 11.2``, so
      their sum is under 32 and rounds within ``2**-49``.

    As ``a hi < 1.00000000000000012e17``, ``u**2 a hi < 1.24e-15``, and
    ``|X - (p + f)| < 2 * 1.24e-15 + 1.78e-15 < 5e-15``: under 1e-14 of a
    unit in the 17th digit.  For ``t <= 22`` (``k >= -6``) ``hi`` is
    ``10**t`` exactly and ``lo`` is 0, so ``f = e`` and ``p + f = X``, exact
    ties included.  ``tie`` marks the exponent-form cells (``k <= -5``) whose
    ``f`` lies within ``_TIE_MARGIN`` of a half, where ``%`` decides.  That
    includes their exact ties: ``2**-25`` is ``2.98023223876953125e-08``.

    Rounding can carry ``n`` to ``10**17``, which is ``10**16`` at ``k + 1``.
    That takes a double within half a unit below a power of ten: none lies
    so close below ``10**-4 .. 10**17``, but one below each of nine decades
    from ``10**-14`` to ``10**-243`` does.
    """
    k0, above, hi, lo, hi_hi, hi_lo, _ = _tables()
    binade = a.view(np.int64) >> 52  # a >= 0: the sign bit is clear
    k = k0.take(binade)
    k += a >= above.take(binade)
    t = 16 - k
    p = a * hi.take(t)
    a_hi = _SPLIT * a
    a_hi -= a_hi - a
    a_lo = a - a_hi
    b_hi, b_lo = hi_hi.take(t), hi_lo.take(t)
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    n = p.astype(np.int64)
    # only the exponent-form cells can have lo != 0, a near tie or a carry
    tie = small = (k < -4).nonzero()[0]
    if small.size:
        f = e[small] + a[small] * lo.take(t[small])
        e[small] = f
        tie = small[np.abs(f - np.rint(f)) >= 0.5 - _TIE_MARGIN]
    n += np.rint(e).astype(np.int64)
    if small.size:
        carry = small[n[small] == 10**17]
        n[carry] = 10**16
        k[carry] += 1
    return k, n, tie


@functools.cache
def _layout(lo: int, hi: int) -> tuple[list, np.ndarray]:
    """The field of decimal exponents ``lo..hi``.

    The field is a sign byte, the ``"0.000"`` lead of exponent ``lo`` if it
    is negative, the 17 digits, each digit that ends the integer part of
    some exponent followed by a byte for the point, and 5 bytes for an
    exponent text.  Returns the runs of digit columns as ``(field columns,
    digit columns)``, the last run ending where the exponent text starts,
    and a table whose row ``((k - lo) * 17 + q) * 2 + negative``, ANDed over
    a field that holds 0xFF outside the digits, keeps digits ``0..max(k,
    q)`` and writes the sign, the lead and (if ``q > k``) the point of
    exponent ``k``; every other byte becomes the pad, 0.  The table is at
    least 24 bytes wide, room for any ``%.17g`` text.
    """
    first, last = max(lo, 0), min(hi, 15)  # the digits followed by a point byte
    cols, column = [], 2 - lo if lo < 0 else 1
    for i in range(17):
        cols.append(column)
        column += 2 if first <= i <= last else 1
    table = np.zeros((hi - lo + 1, 17, 2, max(column + 5, _EXP_WIDTH)), np.uint8)
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
    return runs, table.reshape(-1, table.shape[-1])


def _last_digits(digits: np.ndarray) -> np.ndarray:
    """The index, 0 to 16, of the last nonzero digit of ``digits[:, 7:]``;
    0 for the value 0."""
    last = np.empty(len(digits), np.intp)
    last.fill(16)
    tail = (digits[:, 23] == _ZERO).nonzero()[0]
    if tail.size:
        nonzero = digits[tail, :6:-1] != _ZERO
        nonzero[:, -1] = True
        last[tail] = 16 - nonzero.argmax(axis=1)
    return last


def _float_cells(x: np.ndarray, k: np.ndarray, digits: np.ndarray, slow) -> np.ndarray:
    """The ``%.17g`` texts of ``x``, from ``k`` and ``digits``, but for the
    ``slow`` cells: one ``%`` call formats those."""
    negative = np.signbit(x)
    # an exponent-form cell is laid out at exponent 0, then given its suffix;
    # the table keeps the integer part's digits too, and the value 0's k = 0
    # keeps its one digit
    wide = k < -4
    fixed = np.where(wide, 0, k)
    lo = int(fixed.min())
    runs, table = _layout(lo, int(fixed.max()))
    cells = np.empty((k.size, table.shape[1]), np.uint8)
    cells.fill(0xFF)
    for columns, i in runs:
        cells[:, columns] = digits[:, i]
    cells &= table.take(((fixed - lo) * 17 + _last_digits(digits)) * 2 + negative, axis=0)
    wide[slow] = False
    wide = wide.nonzero()[0]
    end = runs[-1][0].stop
    if wide.size:
        *_, exponents = _tables()
        cells[wide, end : end + 5] = exponents.take(-5 - k[wide], axis=0)
    else:
        # the exponent columns are pad in every cell: keep them out of the
        # row, whose compaction costs per byte
        cells = cells[:, : max(end, _EXP_WIDTH)]
    if slow.size:
        cells[slow] = 0
        cells[slow, :_EXP_WIDTH] = _percent_cells(x[slow])
    return cells


def _percent_cells(x: np.ndarray) -> np.ndarray:
    """CPython's ``%.17g`` texts of ``x``, in one ``%`` call, 24 bytes wide."""
    values = x.tolist()
    text = ("%-24.17g" * len(values) % tuple(values)).encode().replace(b" ", b"\0")
    return np.frombuffer(text, np.uint8).reshape(-1, _EXP_WIDTH)


@functools.cache
def _int_table(width: int) -> np.ndarray:
    """Row ``2 * d + negative``: the sign, then the last ``d`` of ``width``
    digits, to be ANDed over a 0xFF byte and the ``width`` digits."""
    table = np.zeros((width + 1, 2, 1 + width), np.uint8)
    table[:, 1, 0] = _MINUS
    for d in range(1, width + 1):
        table[d, :, 1 + width - d :] = 0xFF
    return table.reshape(-1, 1 + width)


def _int_cells(digits: np.ndarray, u: np.ndarray, negative: np.ndarray) -> np.ndarray:
    """The texts of the integers of magnitudes ``u`` and 24 right-aligned
    ``digits``."""
    ndigits = _DECADES.searchsorted(u, side="right") + 1
    width = int(ndigits.max())
    cells = np.empty((u.size, 1 + width), np.uint8)
    cells[:, 0] = 0xFF
    cells[:, 1:] = digits[:, 24 - width :]
    cells &= _int_table(width).take(ndigits * 2 + negative, axis=0)
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

    # all float columns in one kernel call.  % formats NaN, infinities,
    # |x| >= 1e17, the nonzero |x| below the kernel's range (the kernel runs
    # on 1 in their place) and the near ties the kernel finds
    x = np.concatenate([values[j] for j in floats]).view(np.float64) if floats else np.zeros(0)
    a = np.abs(x)
    slow = (~((a < 1e17) & ((a >= _LOW) | (a == 0)))).nonzero()[0]
    a[slow] = 1.0
    k, n, tie = _significand(a)
    if tie.size:
        slow = np.concatenate([slow, tie])
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
        float_cells = _float_cells(x, k, digits[: k.size], slow)
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
