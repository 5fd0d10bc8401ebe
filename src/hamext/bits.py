"""Finite 0/1 words.

A bit string is a 1-D numpy array of uint8 values in {0, 1}; index 0 is
the first position. Helpers here coerce text/python sequences to that
form, count the disagreements of two strings up to each checkpoint
(prefix_distances, the one such count in hamext) and read the two
on-disk formats (and write the packed one):

* text: ASCII '0'/'1', one string per line;
* packed: an 8-byte little-endian bit count, then the bits packed
  little-endian within each byte; a reader refuses a payload of any
  other length, and set padding bits past the count.

Both formats round-trip bit-exactly.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from .errors import DomainError, HamextError, ResourceError


def as_bits(x) -> np.ndarray:
    """Coerce a str / iterable / ndarray to a uint8 array of 0s and 1s.

    Values must be integers (or booleans) equal to 0 or 1; anything else,
    negative and fractional values included, raises DomainError.
    """
    if isinstance(x, np.ndarray) and x.dtype == np.uint8:
        bits = x
    elif isinstance(x, str):
        if x.strip("01"):
            raise DomainError(f"bit string may contain only 0/1, got {x!r}")
        bits = np.frombuffer(x.encode("ascii"), dtype=np.uint8) - ord("0")
    else:
        try:
            vals = x if isinstance(x, np.ndarray) else np.asarray(list(x))
        except (OverflowError, TypeError, ValueError) as exc:
            raise DomainError(f"bit values must be 0 or 1: {exc}") from None
        if vals.size and (vals.dtype.kind not in "biu" or vals.min() < 0 or vals.max() > 1):
            raise DomainError(f"bit values must be the integers 0 or 1, got {vals.dtype} values")
        bits = vals.astype(np.uint8)
    if bits.ndim != 1:
        raise DomainError("bit strings are one-dimensional")
    if bits.size and bits.max() > 1:
        raise DomainError("bit values must be 0 or 1")
    return bits


# the largest integer with a float: 2^1024 - 2^970, halfway from the largest
# float to 2^1024, rounds to the even 2^1024 and overflows
FLOAT_CEILING = (1 << 1024) - (1 << 970) - 1


def _text(n: int) -> str:
    """n in decimal, or its size where the decimal would pass the digit
    limit of int-to-text."""
    if n.bit_length() <= 4096:
        return str(n)
    return f"<{'negative ' if n < 0 else ''}{n.bit_length()}-bit integer>"


def read_index(value, name: str, lo: int | None = 0, hi: int | None = None,
               error: type[HamextError] = DomainError, ceiling: int | None = None) -> int:
    """`value` as an int in lo..hi (None leaves that end open), read with
    operator.index, so 2.5, "3" and None are refused, not rounded;
    anything else raises `error`. A value in range but past `ceiling`, the
    most an exact or exhaustive computation takes on, raises ResourceError."""
    try:
        n = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if lo is not None and n < lo or hi is not None and n > hi:
        raise error(f"{name} {_text(n)} outside "
                    f"{'' if lo is None else _text(lo)}..{'' if hi is None else _text(hi)}")
    if ceiling is not None and n > ceiling:
        raise ResourceError(f"{name} {_text(n)} is past the resource ceiling {ceiling}")
    return n


def read_instance(value, kind, name: str, error: type[HamextError] = DomainError) -> None:
    """Refuse a `value` that is not a `kind` (a class, or typing.Callable
    for a rule) with `error`, not the TypeError or AttributeError of its
    first use."""
    if not isinstance(value, kind):
        raise error(f"{name} must be of type {kind.__name__}, got {value!r}")


def _real(value, name: str, kind: type = Fraction):
    """`value` read by `kind` (Fraction, exactly, or float) as a finite number;
    None, nan, ±inf and text that spells no number raise DomainError."""
    try:
        x = kind(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        x = math.nan
    if not -math.inf < x < math.inf:
        raise DomainError(f"{name} must be a finite number, got {value!r}")
    return x


def _collection(values, name: str, error: type[HamextError] = DomainError) -> list:
    """The members of the collection `values` in the order given; a value
    that is not a collection (an int, None) raises `error`."""
    try:
        return list(values)
    except TypeError:
        raise error(f"{name} values must come as a collection, got {values!r}") from None


def read_indices(values, name: str, lo: int | None = 0, hi: int | None = None,
                 error: type[HamextError] = DomainError) -> list[int]:
    """The members of the collection `values` in the order given, each
    read by read_index; a value that is not a collection raises `error`."""
    return [read_index(v, name, lo, hi, error) for v in _collection(values, name, error)]


def prefix_distances(X, Y, checkpoints) -> np.ndarray:
    """d(X|n, Y|n) at each checkpoint n, as int64 in the order given.

    Each n must be an integer in 0..len(X), and X and Y must share one
    length (DomainError otherwise).
    """
    x, y = as_bits(X), as_bits(Y)
    if x.size != y.size:
        raise DomainError(f"length mismatch: {x.size} vs {y.size}")
    ns = np.array(read_indices(checkpoints, "checkpoint", 0, x.size), dtype=np.int64)
    cum = np.cumsum(np.concatenate(([False], x != y)), dtype=np.int64)  # cum[n] = d(X|n, Y|n)
    return cum[ns]


def to_text(bits: np.ndarray) -> str:
    return "".join("1" if b else "0" for b in bits)


def bits_to_mask(bits: np.ndarray) -> int:
    """Pack bits into a python int, position i at bit i (LSB first)."""
    mask = 0
    for i in np.flatnonzero(bits):
        mask |= 1 << int(i)
    return mask


def read_text_bits(path) -> list[np.ndarray]:
    out = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(as_bits(line))
    return out


_HEADER_BYTES = 8


def write_packed_bits(path, bits) -> None:
    """Write a single bit string: 8-byte LE length header + packed bits."""
    bits = as_bits(bits)
    with open(path, "wb") as fh:
        fh.write(len(bits).to_bytes(_HEADER_BYTES, "little"))
        fh.write(np.packbits(bits, bitorder="little").tobytes())


def read_packed_bits(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER_BYTES)
        if len(header) != _HEADER_BYTES:
            raise DomainError(f"{path}: truncated packed-bit header")
        length = int.from_bytes(header, "little")
        payload = fh.read()
    need = (length + 7) // 8
    if len(payload) != need:
        raise DomainError(f"{path}: expected {need} payload bytes, got {len(payload)}")
    raw = np.frombuffer(payload, dtype=np.uint8)
    if length % 8 and raw[-1] >> (length % 8):
        raise DomainError(f"{path}: padding bits past bit {length} are set")
    return np.unpackbits(raw, count=length, bitorder="little")
