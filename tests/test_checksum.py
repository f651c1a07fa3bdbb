"""DSS checksum (§3.3.6): correctness and detection properties."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mptcp.checksum import (
    add_ones_complement,
    dss_checksum,
    ones_complement_sum,
    pseudo_header_sum,
    verify_dss_checksum,
)


class TestOnesComplement:
    def test_known_vector(self):
        # 0x0001 + 0x0203 = 0x0204
        assert ones_complement_sum(bytes([0x00, 0x01, 0x02, 0x03])) == 0x0204

    def test_odd_length_padded(self):
        assert ones_complement_sum(b"\xff") == 0xFF00

    def test_carry_folding(self):
        # 0xFFFF + 0x0001 -> carry folds back to 0x0001
        assert ones_complement_sum(bytes([0xFF, 0xFF, 0x00, 0x01])) == 0x0001

    def test_empty(self):
        assert ones_complement_sum(b"") == 0

    @given(st.binary(max_size=128), st.binary(max_size=128))
    def test_addition_decomposes_even_split(self, a, b):
        if len(a) % 2:
            a += b"\x00"
        combined = add_ones_complement(ones_complement_sum(a), ones_complement_sum(b))
        assert combined == ones_complement_sum(a + b)


def word_loop_sums(data) -> list[int]:
    """RFC 1071's plain word loop, with end-around carry, over every
    prefix of ``data``: entry ``n`` is the sum of ``data[:n]``, an odd
    tail byte padded with zero."""

    def add(total: int, word: int) -> int:
        total += word
        return (total & 0xFFFF) + (total >> 16)

    data = bytes(data)
    sums = [0]
    total = 0
    for index in range(0, len(data), 2):
        high = data[index] << 8
        sums.append(add(total, high))
        if index + 1 < len(data):
            total = add(total, high | data[index + 1])
            sums.append(total)
    return sums


def word_loop_sum(data) -> int:
    return word_loop_sums(data)[-1]


class TestShiftAddFold:
    """``ones_complement_sum`` folds its input before the remainder;
    every size, whether it takes no fold (up to 128 B) or several, must
    match the word loop."""

    def test_every_length_to_4096_matches_word_loop(self):
        backing = random.Random(1071).randbytes(4099)
        view = memoryview(backing)[3:]  # non-zero offset into the backing
        expected = word_loop_sums(view)
        for length in range(len(view) + 1):
            assert ones_complement_sum(view[:length]) == expected[length], length
            assert ones_complement_sum(bytes(view[:length])) == expected[length], length

    def test_jumbo_and_maximal_lengths(self):
        backing = random.Random(8960).randbytes(65535 + 5)
        for length in (8959, 8960, 65534, 65535):
            view = memoryview(backing)[5 : 5 + length]
            assert ones_complement_sum(view) == word_loop_sum(view), length

    def test_all_ones_sums_to_0xffff_not_zero(self):
        for length in (2, 2046, 2048, 2050, 4096, 8960, 65534):
            assert ones_complement_sum(b"\xff" * length) == 0xFFFF, length
        for length in (2047, 2049, 8959, 65535):
            data = b"\xff" * length
            assert ones_complement_sum(data) == word_loop_sum(data), length

    def test_nonzero_multiple_of_0xffff_sums_to_0xffff(self):
        for length in (100, 4094, 8958, 65532):
            data = random.Random(length).randbytes(length)
            complement = 0xFFFF - word_loop_sum(data)
            padded = data + complement.to_bytes(2, "big")
            assert word_loop_sum(padded) == 0xFFFF
            assert ones_complement_sum(padded) == 0xFFFF, length

    def test_all_zero_sums_to_zero(self):
        for length in (0, 1, 2047, 2048, 8960, 65535):
            assert ones_complement_sum(bytes(length)) == 0, length

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1024, max_value=20 * 1024),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=15),
        st.sampled_from(["random", "ones", "sparse"]),
    )
    def test_matches_word_loop_1k_to_20k(self, length, seed, offset, fill):
        rng = random.Random(seed)
        if fill == "random":
            backing = rng.randbytes(length + offset)
        elif fill == "ones":
            backing = b"\xff" * (length + offset)
        else:
            raw = bytearray(length + offset)
            for _ in range(8):
                raw[rng.randrange(len(raw))] = rng.randrange(256)
            backing = bytes(raw)
        view = memoryview(backing)[offset:]
        assert ones_complement_sum(view) == word_loop_sum(view)


class TestDSSChecksum:
    def test_verify_accepts_unmodified(self):
        payload = b"hello multipath world"
        checksum = dss_checksum(1000, 1, len(payload), payload)
        assert verify_dss_checksum(1000, 1, len(payload), payload, checksum)

    def test_detects_payload_modification(self):
        payload = bytearray(b"hello multipath world")
        checksum = dss_checksum(1000, 1, len(payload), bytes(payload))
        payload[3] ^= 0xFF
        assert not verify_dss_checksum(1000, 1, len(payload), bytes(payload), checksum)

    def test_detects_length_change(self):
        payload = b"abcdef"
        checksum = dss_checksum(7, 1, len(payload), payload)
        assert not verify_dss_checksum(7, 1, len(payload) + 2, payload + b"xy", checksum)

    def test_detects_dsn_change(self):
        payload = b"abcdef"
        checksum = dss_checksum(7, 1, len(payload), payload)
        assert not verify_dss_checksum(8, 1, len(payload), payload, checksum)

    def test_sharing_payload_sum_with_tcp(self):
        """§3.3.6: the payload sum is computed once and combined into
        both the TCP and the DSS checksums."""
        payload = bytes(range(100))
        partial = ones_complement_sum(payload)
        direct = dss_checksum(55, 66, len(payload), payload)
        via_parts = (~add_ones_complement(pseudo_header_sum(55, 66, len(payload)), partial)) & 0xFFFF
        assert direct == via_parts

    @given(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=0xFFFF),
    )
    def test_pseudo_header_sum_equals_sum_of_encoded_header(self, dsn, ssn, length):
        header = dsn.to_bytes(4, "big") + ssn.to_bytes(4, "big") + length.to_bytes(2, "big") + bytes(2)
        assert pseudo_header_sum(dsn, ssn, length) == ones_complement_sum(header)

    @given(
        st.binary(min_size=1, max_size=256),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
    )
    def test_roundtrip_any_payload(self, payload, dsn, ssn):
        checksum = dss_checksum(dsn, ssn, len(payload), payload)
        assert 0 <= checksum <= 0xFFFF
        assert verify_dss_checksum(dsn, ssn, len(payload), payload, checksum)

    @given(
        st.binary(min_size=2, max_size=128),
        st.integers(min_value=0, max_value=127),
    )
    def test_single_byte_flip_always_detected(self, payload, position):
        position %= len(payload)
        checksum = dss_checksum(9, 9, len(payload), payload)
        corrupted = bytearray(payload)
        corrupted[position] ^= 0x5A
        assert not verify_dss_checksum(9, 9, len(payload), bytes(corrupted), checksum)
