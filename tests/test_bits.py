import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hamext.bits import (as_bits, bits_to_mask, read_packed_bits, read_text_bits,
                         to_text, write_packed_bits)
from hamext.errors import DomainError
from oracles import write_text_bits

bitlists = st.lists(st.integers(0, 1), max_size=200)


def test_as_bits_from_string():
    assert as_bits("0101").tolist() == [0, 1, 0, 1]


def test_as_bits_rejects_garbage():
    with pytest.raises(DomainError):
        as_bits("01x1")
    with pytest.raises(DomainError):
        as_bits([0, 2, 1])
    with pytest.raises(DomainError):
        as_bits(np.array([0, 2, 1], dtype=np.uint8))
    with pytest.raises(DomainError):
        as_bits(np.zeros((2, 3), dtype=np.uint8))


@pytest.mark.parametrize("values", [[-1], [0, -1, 1], [0.5], [1, 0.5], [0, 2 ** 70]])
def test_as_bits_rejects_negative_and_non_integer(values):
    with pytest.raises(DomainError):
        as_bits(values)


def test_as_bits_accepts_integer_and_bool_arrays():
    assert as_bits(np.array([1, 0, 1], dtype=np.int64)).tolist() == [1, 0, 1]
    assert as_bits([True, False]).tolist() == [1, 0]
    assert as_bits([]).tolist() == []


@given(bitlists)
def test_text_round_trip(bits):
    assert as_bits(to_text(as_bits(bits))).tolist() == bits


@given(bitlists)
def test_mask_round_trip(bits):
    assert bits_to_mask(as_bits(bits)) == int("".join(map(str, reversed(bits))) or "0", 2)


def test_text_file_round_trip(tmp_path):
    strings = ["", "0", "1", "0101100", "1" * 65]
    path = tmp_path / "x.txt"
    write_text_bits(path, strings)
    back = read_text_bits(path)
    # empty line is skipped on read; the empty string doesn't round-trip
    assert [to_text(b) for b in back] == [s for s in strings if s]


@given(bitlists)
@example([])  # no payload byte
@example([1] * 16)  # no padding bit
def test_packed_round_trip(bits):
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/x.bits"
        write_packed_bits(path, bits)
        assert read_packed_bits(path).tolist() == bits


def test_packed_header_is_length_little_endian(tmp_path):
    path = tmp_path / "x.bits"
    write_packed_bits(path, "10100000011")
    raw = path.read_bytes()
    assert raw[:8] == (11).to_bytes(8, "little")
    assert raw[8:] == np.packbits(as_bits("10100000011"), bitorder="little").tobytes()


def test_packed_truncation_detected(tmp_path):
    path = tmp_path / "x.bits"
    for raw in ((100).to_bytes(8, "little") + b"\x01", b"\x05\x00\x00"):  # payload, header
        path.write_bytes(raw)
        with pytest.raises(DomainError):
            read_packed_bits(path)


@pytest.mark.parametrize("payload", [b"\x1f\x00\x00\x00", b"\x3f"],
                         ids=["trailing_bytes", "set_padding_bit"])
def test_packed_payload_past_the_count_refused(tmp_path, payload):
    # both read as the 5 bits 11111, dropping the rest
    path = tmp_path / "x.bits"
    path.write_bytes((5).to_bytes(8, "little") + payload)
    with pytest.raises(DomainError):
        read_packed_bits(path)
