"""Trace CSV rows: an exact numpy digit kernel with a ``%`` fallback.

The writer works in batches of rows.  A column that holds one value
through a batch is formatted once, into the row layout.  The other values
go through a numpy digit kernel, which writes the digits of runs of
same-layout rows into byte matrices; a guard sends it only values whose
text it provably gets right, and the rows with a value it refuses, or
with an event token, are formatted with ``%``.  ``locomotion`` imports
this module on the first ``SimTrace.write_csv``.
"""

from __future__ import annotations

import math
from operator import not_
from typing import TYPE_CHECKING, Iterator, List, TextIO

if TYPE_CHECKING:
    import numpy as np

# decimals of the numeric CSV columns, in TraceRecord field order: times
# and roll angles to 9, everything else to 6
_CSV_DECIMALS = (9, 6, 9) + (6,) * 10
_CSV_FIELDS = tuple(f"%.{d}f," for d in _CSV_DECIMALS)
_CSV_SCALES = tuple(10.0 ** d for d in _CSV_DECIMALS)


def _zero_bound(decimals: int) -> float:
    """Largest float that ``%.<decimals>f`` prints as zero.

    Half a unit of the last decimal is no float: the float nearest to it
    lies on one side, and that float's neighbour on the other.
    """
    half = float(f"5e-{decimals + 1}")
    zero = float(f"%.{decimals}f" % half) == 0
    return half if zero else math.nextafter(half, 0.0)


# dust that rounds to zero would print as "-0.000..."; the trace writes
# "0.000...", so the writer replaces it by zero before formatting
_ZERO_BOUNDS = tuple(_zero_bound(d) for d in _CSV_DECIMALS)
# rows per formatting batch: fewer batches make fewer numpy calls, but a
# batch's digit arrays take about 1 kB a row; at 2,048 rows a spindle10
# process peaked 2 MB higher than at 1,024
_CSV_BATCH = 1024


def _batch_text(block: np.ndarray, tokens: List[str]) -> Iterator[str]:
    """CSV text of a batch of trace rows, in row order, in pieces.

    A value ``x`` of ``d`` decimals prints as ``%.{d}f`` does.  With ``A
    = |x| * 10**d``, the digit kernel prints ``n = rint(A)`` only where
    that is provably what ``%`` prints: where ``|A - n| + A * 2**-51 <
    0.5``.  That holds only for a finite ``A < 2**50``, and ``A * 2**-51``
    is at least two ulps of ``A``.  The exact product lies within half an
    ulp of ``A``, so it is further than an ulp from the rounding tie and
    rounds to ``n`` too.  The text is a "-" (for ``x < 0`` and ``n > 0``
    only: the trace prints no negative zero), ``n // 10**d``, "." and the
    last ``d`` digits of ``n``.  Consecutive rows with the same sign and
    integer width in every varying column share one layout and go out as
    one byte matrix.  A row with an event token, or with a value the guard
    refuses, goes through the ``%`` row format.
    """
    import numpy as np
    rows = len(tokens)
    # a column with one value in the batch is formatted once, into the row
    # layout: equal floats print equal text, nan equals nothing (min and
    # max are nan), and no number prints a "%"
    columns = block.T.copy()
    same = (columns.min(axis=1) == columns.max(axis=1)).tolist()
    fixed = [fmt % (0.0 if abs(value) <= bound else value) if still else fmt
             for fmt, still, value, bound
             in zip(_CSV_FIELDS, same, block[0].tolist(), _ZERO_BOUNDS)]
    row = "".join(fixed) + "%s\n"
    vary = [k for k, still in enumerate(same) if not still]
    values = columns[vary]
    # nan, the infinities and values that overflow fail the guard quietly
    with np.errstate(invalid="ignore", over="ignore"):
        scaled = np.abs(values) * np.array(_CSV_SCALES)[vary, None]
        near = np.rint(scaled)
        exact = np.abs(scaled - near) + scaled * 2.0 ** -51 < 0.5
    kernel = exact.all(axis=0)
    if any(tokens):
        kernel &= np.fromiter(map(not_, tokens), bool, rows)
    # the layout key of a value: 32 for a sign, plus its integer width
    keys = ((values < 0) & (near > 0)).astype(np.int16) * 32
    np.copyto(near, 0.0, where=~exact)
    integers = near.astype(np.int64)
    del scaled, near, exact  # freed before the digit arrays are made
    texts = {}
    for decimals in (9, 6):
        group = [j for j, k in enumerate(vary) if _CSV_DECIMALS[k] == decimals]
        if not group:
            continue
        n = integers[group]
        top = len(str(int(n.max())))
        keys[group] += 1
        for power in range(decimals + 1, top):
            keys[group] += n >= 10 ** power
        # the digits of n, in chunks of four: int64 divisions split n
        # into int16 chunks, and int16 divisions by 1000, 100 and 10 give
        # the quotients q.  Digit i is q_i - 10 q_(i-1), which the low
        # bytes of the q give in wrapping uint8 arithmetic, so q keeps
        # only those
        chunks = -(-max(top, decimals + 1) // 4)
        quads = np.empty((chunks, *n.shape), np.int16)
        for m in range(chunks - 1, 0, -1):
            high = n // 10_000
            quads[m] = n - high * 10_000
            n = high
        quads[0] = n
        q = np.zeros((chunks, 5, *n.shape), np.uint8)
        for i, power in enumerate((1000, 100, 10)):
            q[:, i + 1] = quads // power
        q[:, 4] = quads
        digits = (q[:, 1:] - q[:, :-1] * 10).reshape(4 * chunks, *n.shape)
        # text, digit-major: the digits with "." after the integer ones
        whole = 4 * chunks - decimals
        text = np.empty((4 * chunks + 1, *n.shape), np.uint8)
        text[:whole] = digits[:whole]
        text[whole + 1:] = digits[whole:]
        text += ord("0")
        text[whole] = ord(".")
        for slot, j in enumerate(group):
            texts[j] = text[:, slot], whole
    # segments: a run of kernel rows with one layout, or rows for "%"
    cut = np.ones(rows, bool)
    cut[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0) | \
        (kernel[1:] != kernel[:-1])
    edges = np.flatnonzero(cut).tolist() + [rows]
    for a, b in zip(edges, edges[1:]):
        if not kernel[a]:
            part = values[:, a:b]
            bounds = np.array(_ZERO_BOUNDS)[vary, None]
            part = np.where(np.abs(part) <= bounds, 0.0, part)
            yield "".join(map(row.__mod__, zip(*part.tolist(), tokens[a:b])))
            continue
        # the run's line, with zeros where its digits go
        pieces, slots, pos = [], [], 0
        for k, piece in enumerate(fixed):
            if not same[k]:
                j = vary.index(k)
                text, whole = texts[j]
                sign, width = divmod(int(keys[j, a]), 32)
                size = width + 1 + _CSV_DECIMALS[k]
                slots.append((text[whole - width:], pos + sign, size))
                piece = "-" * sign + "0" * size + ","
            pieces.append(piece)
            pos += len(piece)
        line = ("".join(pieces) + "\n").encode()
        buffer = bytearray(line) * (b - a)
        out = np.frombuffer(buffer, np.uint8).reshape(b - a, len(line))
        for text, pos, size in slots:
            out[:, pos:pos + size] = text[:, a:b].T
        yield buffer.decode("ascii")


def write_rows(stream: TextIO, columns: np.ndarray, tokens: List[str]) -> None:
    """Write trace rows: ``columns`` in ``TraceRecord`` order, then the token."""
    for first in range(0, len(tokens), _CSV_BATCH):
        last = first + _CSV_BATCH
        for text in _batch_text(columns[first:last], tokens[first:last]):
            stream.write(text)
