"""Exact text encoding of float64 arrays for saved models and grids.

Each value is written as the 16 hex digits of its IEEE-754 binary64 bit
pattern, most significant byte first (``3ff0000000000000`` is 1.0), and
values are separated by one whitespace character.  The round trip is exact by
construction: no value passes through decimal, so -0.0 and subnormals come
back bit for bit.  A run of n values is always 17 n - 1 characters long,
which lets readers check a row by its length alone.

Saved artifacts are rows of such text, one row per line.  ``write_rows`` and
``read_rows`` are the one path every model and grid file goes through, and
they stream: the writer sends one row, or ROW_BLOCK rows of one value, to
the file at a time, and the reader decodes blocks of whole rows holding
about ROW_BLOCK values (one row when a row is longer).  The text held at
once is one row or one block, so saving holds about nothing beyond the
arrays and loading about the arrays alone, which the reader allocates
before it decodes into them.  Every value sits at a fixed offset, so a
block is read as a fixed number of characters.

Report tables (metrics, residual traces, trajectories) are CSV files, and
``write_csv`` is the one writer every one of them goes through.
"""

from __future__ import annotations

import os

import numpy as np

_WIDTH = 17  # 16 hex digits and one separator per value
ROW_BLOCK = 1024  # values per block of rows decoded, or of one-value rows written, at once


def encode_floats(values, sep: str) -> str:
    """The values, flattened in C order, as hex-float64 text joined by sep."""
    return np.ascontiguousarray(values, ">f8").tobytes().hex(sep, 8)


def decode_floats(text: str, count: int) -> np.ndarray:
    """Read exactly count values written by encode_floats, as a float64 array.

    Raises ValueError when the text does not hold count hex-float64 values.
    """
    if len(text) != _WIDTH * count - 1:
        raise ValueError(
            f"expected {count} hex-float64 values ({_WIDTH * count - 1} characters), found {len(text)} characters"
        )
    try:
        raw = bytes.fromhex(text)
    except ValueError as exc:
        raise ValueError(f"not hex-float64 text: {exc}") from None
    if len(raw) != 8 * count:
        raise ValueError(f"expected {count} hex-float64 values, found {len(raw) / 8:g}")
    return np.frombuffer(raw, ">f8").astype(float)


def write_rows(fh, arrays) -> None:
    """Write every row of each 2-D array, in order, as one line of text.

    A line holds the row's values as hex-float64 joined by single spaces and
    ends with a newline.  Rows of one value go ROW_BLOCK lines per write,
    longer rows one line per write.
    """
    for rows in arrays:
        step, sep = (ROW_BLOCK, "\n") if rows.shape[1] == 1 else (1, " ")
        for start in range(0, len(rows), step):
            fh.write(encode_floats(rows[start : start + step], sep))
            fh.write("\n")


def read_rows(fh, shapes, labels) -> tuple[list[np.ndarray], int]:
    """Read float64 arrays of the given (rows, values per row) shapes, in
    order, from the rest of the open file fh.

    Rows are lines as write_rows writes them, with no blank line between
    them, so a block of k rows of m values is exactly 17 m k characters,
    decoded straight into its array.  labels[i] names a row of array i in
    errors, ``{}`` standing for its index; an empty label adds no prefix.

    Returns the arrays and the number of non-blank lines left in the file,
    which is the shapes' row count only when the file holds exactly those
    rows.  A file that ends early is counted, not decoded, from the block it
    ends in, and a file too small to hold 16 hex digits per value is only
    counted, so a corrupt header cannot make the reader allocate more than
    the file could fill.

    Raises ValueError naming the row of a line that does not decode.
    """
    arrays = []
    if os.fstat(fh.fileno()).st_size >= 16 * sum(n_rows * row_len for n_rows, row_len in shapes):
        for (n_rows, row_len), label in zip(shapes, labels):
            out = np.empty((n_rows, row_len))
            width = _WIDTH * row_len  # characters per line, newline included
            rows_per_block = max(1, ROW_BLOCK // row_len)
            for start in range(0, n_rows, rows_per_block):
                stop = min(start + rows_per_block, n_rows)
                k = stop - start
                text = fh.read(k * width)
                if text[width - 1 :: width] == "\n" * k:
                    try:
                        out[start:stop] = decode_floats(text[:-1], k * row_len).reshape(k, row_len)
                        continue
                    except ValueError:
                        pass  # decoded again line by line below, to name the row
                lines = text.split("\n")
                present = sum(1 for ln in lines if ln.strip())
                if len(text) < k * width and present < k:  # the file ends in this block
                    return arrays, sum(len(a) for a in arrays) + start + present
                for i, line in enumerate(lines[:k]):
                    try:
                        out[start + i] = decode_floats(line, row_len)
                    except ValueError as exc:
                        raise ValueError(f"{label.format(start + i)}: {exc}" if label else str(exc)) from None
            arrays.append(out)
    return arrays, sum(len(a) for a in arrays) + sum(1 for ln in fh if not ln.isspace())


def write_csv(path: str, header: str, rows) -> None:
    """Write header, then each row's cells joined by ",", every line ending in
    "\n".  A str cell is written as it is, any other cell as %.17g, which
    reads back as the same float64 and writes an int as its digits.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(cell if isinstance(cell, str) else "%.17g" % cell for cell in row) + "\n")
