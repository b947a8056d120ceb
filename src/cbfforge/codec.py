"""Exact text encoding of float64 arrays for saved models and grids.

Each value is written as the 16 hex digits of its IEEE-754 binary64 bit
pattern, most significant byte first (``3ff0000000000000`` is 1.0), and
values are separated by one whitespace character.  The round trip is exact by
construction: no value passes through decimal, so -0.0 and subnormals come
back bit for bit.  A run of n values is always 17 n - 1 characters long,
which lets readers check a row by its length alone.
"""

from __future__ import annotations

import numpy as np

_WIDTH = 17  # 16 hex digits and one separator per value


def encode_floats(values, sep: str = " ") -> str:
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
