"""Finite 0/1 words.

A bit string is a 1-D numpy array of uint8 values in {0, 1}; index 0 is
the first position. Helpers here coerce text/python sequences to that
form and read/write the two on-disk formats:

* text: ASCII '0'/'1', one string per line;
* packed: an 8-byte little-endian bit count, then the bits packed
  little-endian within each byte.

Both formats round-trip bit-exactly.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import DimensionError, DomainError, HamextError


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


def read_index(value, name: str, lo: int | None = 0, hi: int | None = None,
               error: type[HamextError] = DomainError) -> int:
    """`value` as an int in lo..hi (None leaves that end open), read with
    operator.index, so 2.5, "3" and None are refused, not rounded;
    anything else raises `error`."""
    try:
        n = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if lo is not None and n < lo or hi is not None and n > hi:
        raise error(f"{name} {n} outside {'' if lo is None else lo}..{'' if hi is None else hi}")
    return n


def read_checkpoints(values, length: int | None = None) -> list[int]:
    """Prefix lengths in the order given, each read by read_index in
    0..length (>= 0 with no length)."""
    try:
        values = list(values)
    except TypeError:
        raise DomainError(f"checkpoints must be integers, got {values!r}") from None
    return [read_index(n, "checkpoint", 0, length) for n in values]


def to_text(bits: np.ndarray) -> str:
    return "".join("1" if b else "0" for b in bits)


def bits_to_mask(bits: np.ndarray) -> int:
    """Pack bits into a python int, position i at bit i (LSB first)."""
    mask = 0
    for i in np.flatnonzero(bits):
        mask |= 1 << int(i)
    return mask


def mask_to_bits(mask: int, length: int) -> np.ndarray:
    out = np.zeros(length, dtype=np.uint8)
    i = 0
    while mask:
        if mask & 1:
            out[i] = 1
        mask >>= 1
        i += 1
    if i > length:
        raise DimensionError(f"mask needs {i} positions, only {length} given")
    return out


def write_text_bits(path, strings) -> None:
    """Write bit strings as ASCII lines (one string per line)."""
    with open(path, "w", encoding="ascii") as fh:
        for s in strings:
            fh.write(to_text(as_bits(s)))
            fh.write("\n")


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
    if len(payload) < need:
        raise DomainError(f"{path}: expected {need} payload bytes, got {len(payload)}")
    raw = np.frombuffer(payload[:need], dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:length].astype(np.uint8)
