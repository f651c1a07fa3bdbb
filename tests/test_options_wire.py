"""TCP and MPTCP option wire encodings: round-trips, sizes, budgets,
the segment wire codec, and the value-type contract every option and
``Endpoint`` keeps."""

import copy
import dataclasses
import pickle
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mptcp.options import (
    DSS,
    AddAddr,
    FastClose,
    MPCapable,
    MPFail,
    MPJoin,
    MPPrio,
    MPTCPOption,
    RemoveAddr,
)
from repro.net.options import (
    MSSOption,
    NoOperation,
    SACKOption,
    SACKPermitted,
    TCPOption,
    TimestampsOption,
    UnknownOption,
    WindowScaleOption,
    decode_options,
    encode_options,
    fits_option_space,
    options_length,
)
from repro.net.packet import ACK, PSH, SYN, Endpoint, Segment, segment_from_wire

from conftest import random_payload


def roundtrip(options):
    return decode_options(encode_options(options))


class TestStandardOptions:
    def test_mss_roundtrip(self):
        assert roundtrip([MSSOption(1460)]) == [MSSOption(1460)]

    def test_wscale_roundtrip(self):
        assert roundtrip([WindowScaleOption(7)]) == [WindowScaleOption(7)]

    def test_timestamps_roundtrip(self):
        option = TimestampsOption(tsval=0xDEADBEEF, tsecr=0x12345678)
        assert roundtrip([option]) == [option]

    def test_sack_permitted_roundtrip(self):
        assert roundtrip([SACKPermitted()]) == [SACKPermitted()]

    def test_sack_blocks_roundtrip(self):
        option = SACKOption(blocks=((100, 200), (400, 500)))
        assert roundtrip([option]) == [option]

    def test_nop_padding_dropped_on_decode(self):
        blob = encode_options([WindowScaleOption(3)])  # 3 bytes -> padded to 4
        assert len(blob) == 4
        assert decode_options(blob) == [WindowScaleOption(3)]

    def test_unknown_option_survives(self):
        option = UnknownOption(unknown_kind=99, body=b"xy")
        assert roundtrip([option]) == [option]

    def test_syn_option_set_fits_budget(self):
        options = [
            MSSOption(1448),
            WindowScaleOption(10),
            TimestampsOption(1, 0),
            SACKPermitted(),
            MPCapable(sender_key=0xABCD),
        ]
        assert fits_option_space(options)

    def test_truncated_option_raises(self):
        with pytest.raises(ValueError):
            decode_options(bytes([2]))  # MSS kind, missing length

    def test_bad_length_raises(self):
        with pytest.raises(ValueError):
            decode_options(bytes([2, 1]))  # length < 2

    def test_multiple_options_order_preserved(self):
        options = [MSSOption(1400), SACKPermitted(), WindowScaleOption(5)]
        assert roundtrip(options) == options


class TestMPTCPOptions:
    def test_mp_capable_syn_form(self):
        option = MPCapable(sender_key=0x1122334455667788, checksum_required=True)
        (decoded,) = roundtrip([option])
        assert decoded.sender_key == option.sender_key
        assert decoded.receiver_key is None
        assert decoded.checksum_required

    def test_mp_capable_third_ack_form(self):
        option = MPCapable(sender_key=1, receiver_key=2, checksum_required=False)
        (decoded,) = roundtrip([option])
        assert decoded.receiver_key == 2
        assert not decoded.checksum_required

    def test_mp_join_syn_form(self):
        option = MPJoin(address_id=3, token=0xCAFEBABE, nonce=0x1234)
        (decoded,) = roundtrip([option])
        assert (decoded.token, decoded.nonce, decoded.address_id) == (
            0xCAFEBABE,
            0x1234,
            3,
        )
        assert decoded.mac is None

    def test_mp_join_synack_form(self):
        option = MPJoin(address_id=1, mac=0xAABBCCDD00112233, nonce=0x99)
        (decoded,) = roundtrip([option])
        assert decoded.mac == 0xAABBCCDD00112233
        assert decoded.nonce == 0x99
        assert decoded.token is None

    def test_mp_join_ack_form(self):
        option = MPJoin(address_id=1, mac=0x42)
        (decoded,) = roundtrip([option])
        assert decoded.mac == 0x42
        assert decoded.nonce is None and decoded.token is None

    def test_dss_full_roundtrip(self):
        option = DSS(
            data_ack=1000, dsn=2000, subflow_seq=1, length=1448, checksum=0xBEEF
        )
        (decoded,) = roundtrip([option])
        assert decoded == option

    def test_dss_ack_only(self):
        (decoded,) = roundtrip([DSS(data_ack=777)])
        assert decoded.data_ack == 777
        assert decoded.dsn is None

    def test_dss_mapping_without_checksum(self):
        option = DSS(dsn=5, subflow_seq=9, length=100, checksum=None)
        (decoded,) = roundtrip([option])
        assert decoded.checksum is None
        assert decoded.length == 100

    def test_dss_data_fin_flag(self):
        (decoded,) = roundtrip([DSS(data_ack=1, dsn=50, subflow_seq=0, length=0, data_fin=True)])
        assert decoded.data_fin

    def test_dss_with_ack_and_checksum_fits_with_timestamps(self):
        dss = DSS(data_ack=1, dsn=2, subflow_seq=3, length=1448, checksum=0xFFFF)
        assert fits_option_space([TimestampsOption(1, 2), dss])

    def test_two_full_mappings_do_not_fit(self):
        """§3.3.5: this is why a coalescing middlebox must drop a DSM."""
        dss = DSS(data_ack=1, dsn=2, subflow_seq=3, length=1448, checksum=0xFFFF)
        assert not fits_option_space([TimestampsOption(1, 2), dss, dss])

    def test_add_addr_roundtrip(self):
        option = AddAddr(address_id=5, ip="192.168.1.7")
        assert roundtrip([option]) == [option]

    def test_add_addr_with_port(self):
        option = AddAddr(address_id=5, ip="10.0.0.2", port=8080)
        assert roundtrip([option]) == [option]

    def test_add_addr_rejects_bad_ip(self):
        with pytest.raises(ValueError):
            AddAddr(address_id=1, ip="not-an-ip").encode()

    def test_remove_addr_roundtrip(self):
        assert roundtrip([RemoveAddr(address_id=9)]) == [RemoveAddr(address_id=9)]

    def test_mp_prio_roundtrip(self):
        assert roundtrip([MPPrio(backup=True, address_id=2)]) == [
            MPPrio(backup=True, address_id=2)
        ]

    def test_mp_fail_roundtrip(self):
        assert roundtrip([MPFail(dsn=0x1122334455)]) == [MPFail(dsn=0x1122334455)]

    def test_fastclose_roundtrip(self):
        option = FastClose(receiver_key=0xFEEDFACE)
        assert roundtrip([option]) == [option]


class TestOptionProperties:
    @given(
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.booleans(),
    )
    def test_mp_capable_any_key_roundtrips(self, key, checksum):
        option = MPCapable(sender_key=key, checksum_required=checksum)
        assert roundtrip([option]) == [option]

    @given(
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=0, max_value=(1 << 32) - 1),
        st.integers(min_value=1, max_value=(1 << 32) - 1),
        st.integers(min_value=1, max_value=0xFFFF),
        st.one_of(st.none(), st.integers(min_value=0, max_value=0xFFFF)),
    )
    def test_dss_any_fields_roundtrip(self, data_ack, dsn, ssn, length, checksum):
        option = DSS(
            data_ack=data_ack, dsn=dsn, subflow_seq=ssn, length=length, checksum=checksum
        )
        assert roundtrip([option]) == [option]

    @given(st.lists(st.sampled_from([
        MSSOption(1448), SACKPermitted(), WindowScaleOption(8),
        TimestampsOption(5, 6), DSS(data_ack=1),
    ]), max_size=4))
    def test_encoded_length_matches_helper(self, options):
        assert len(encode_options(options)) == options_length(options)

    @given(st.binary(min_size=0, max_size=30))
    def test_unknown_bodies_roundtrip(self, body):
        option = UnknownOption(unknown_kind=200, body=body)
        assert roundtrip([option]) == [option]


# ----------------------------------------------------------------------
# Value-type tripwire: options and endpoints are shared between
# segments, sockets and middlebox ledgers, so each is an immutable
# slotted value compared by (type, fields).
# ----------------------------------------------------------------------
VALUES = [
    NoOperation(),
    MSSOption(1448),
    WindowScaleOption(7),
    SACKPermitted(),
    SACKOption(blocks=((100, 200), (400, 500))),
    TimestampsOption(5, 6),
    UnknownOption(unknown_kind=99, body=b"xy"),
    MPCapable(sender_key=1, receiver_key=2),
    MPJoin(address_id=1, token=7, nonce=9),
    DSS(data_ack=1, dsn=2, subflow_seq=3, length=4, checksum=5, data_fin=True),
    AddAddr(address_id=1, ip="10.0.0.2", port=80),
    RemoveAddr(address_id=3),
    MPPrio(backup=True, address_id=2),
    MPFail(dsn=11),
    FastClose(receiver_key=12),
    Endpoint("10.0.0.1", 80),
]


def _concrete_option_classes(cls=TCPOption):
    found = set()
    for sub in cls.__subclasses__():
        # (A slots=True dataclass replaces its class; the discarded
        # original may linger in __subclasses__.)
        if getattr(sys.modules[sub.__module__], sub.__name__) is sub:
            found |= _concrete_option_classes(sub)
            found.add(sub)
    return found - {MPTCPOption}


def _fields(value):
    return value._fields if isinstance(value, Endpoint) else value.__match_args__


class TestValueTypes:
    def test_every_option_class_is_covered(self):
        assert {type(value) for value in VALUES} - {Endpoint} == _concrete_option_classes()

    @pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
    def test_slotted_and_immutable(self, value):
        assert not hasattr(value, "__dict__")
        for name in _fields(value)[:1] + ("unrelated",):
            with pytest.raises(AttributeError):
                setattr(value, name, 1)

    @pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
    def test_equal_and_hashed_by_type_and_fields(self, value):
        fields = [getattr(value, name) for name in _fields(value)]
        twin = type(value)(*fields)
        assert twin == value and hash(twin) == hash(value) and twin is not value
        assert {value: "x"}[twin] == "x"
        if fields:
            other = type(value)(*([fields[0] + fields[0]] + fields[1:]))
            assert other != value

    def test_same_fields_of_another_kind_are_unequal(self):
        assert MSSOption(7) != WindowScaleOption(7)
        assert RemoveAddr(3) != MPFail(3)

    @pytest.mark.parametrize("value", VALUES, ids=lambda value: type(value).__name__)
    def test_copy_and_pickle_roundtrip(self, value):
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert clone == value and type(clone) is type(value)

    @pytest.mark.parametrize(
        "option", [v for v in VALUES if isinstance(v, TCPOption)], ids=lambda v: type(v).__name__
    )
    def test_wire_length_fixed_and_exact(self, option):
        assert option.wire_len == len(option.encode())
        expected = [] if isinstance(option, NoOperation) else [option]  # padding is dropped
        assert decode_options(encode_options([option])) == expected

    def test_options_run_no_generated_code(self):
        for cls in _concrete_option_classes():
            assert not dataclasses.is_dataclass(cls), cls
            for method in ("__init__", "__setattr__", "__eq__", "__hash__"):
                # Written in an options module, or object's own (C) slot.
                code = getattr(getattr(cls, method), "__code__", None)
                assert code is None or code.co_filename.endswith("options.py"), (cls, method)

    def test_endpoint_keeps_str_order_and_key_behaviour(self):
        endpoint = Endpoint("10.0.0.1", 80)
        assert str(endpoint) == "10.0.0.1:80"
        assert repr(endpoint) == "Endpoint(ip='10.0.0.1', port=80)"
        unsorted = [Endpoint("10.0.0.2", 1), Endpoint("10.0.0.1", 90), Endpoint("10.0.0.1", 8)]
        assert sorted(unsorted) == [unsorted[2], unsorted[1], unsorted[0]]
        flows = {(endpoint, Endpoint("10.9.0.1", 443)): 1}
        assert flows[(Endpoint("10.0.0.1", 80), Endpoint("10.9.0.1", 443))] == 1

    def test_endpoint_equals_its_plain_tuple(self):
        # A NamedTuple: equal (and hashed equal) to the bare pair.
        assert Endpoint("10.0.0.1", 80) == ("10.0.0.1", 80)
        assert hash(Endpoint("10.0.0.1", 80)) == hash(("10.0.0.1", 80))


# ----------------------------------------------------------------------
# Segment wire codec: Segment.to_wire / segment_from_wire
# ----------------------------------------------------------------------
class TestSegmentWire:
    def test_roundtrip_plain(self):
        seg = Segment(
            src=Endpoint("10.0.0.1", 43210),
            dst=Endpoint("10.9.0.1", 80),
            seq=12345,
            ack=67890,
            flags=SYN | ACK,
            window=65535,
            payload=b"",
        )
        back = segment_from_wire(seg.to_wire())
        assert (back.src, back.dst) == (seg.src, seg.dst)
        assert (back.seq, back.ack, back.flags, back.window) == (
            seg.seq,
            seg.ack,
            seg.flags,
            seg.window,
        )
        assert bytes(back.payload) == b""
        assert back.options == []

    def test_roundtrip_payload_and_mptcp_options(self):
        payload = random_payload(1448, seed=3)
        seg = Segment(
            src=Endpoint("192.168.100.200", 65535),
            dst=Endpoint("10.99.0.1", 8080),
            seq=(1 << 32) - 2,  # near the wrap: the codec must not widen
            ack=7,
            flags=PSH | ACK,
            window=123456 >> 1,
            payload=payload,
            options=[
                MPCapable(sender_key=0xDEADBEEF, receiver_key=0xFEEDFACE),
                DSS(data_ack=123_456, dsn=999_999, subflow_seq=42, length=1448),
            ],
        )
        back = segment_from_wire(seg.to_wire())
        assert bytes(back.payload) == payload
        kinds = [type(opt).__name__ for opt in back.options]
        assert kinds == ["MPCapable", "DSS"]
        cap = back.options[0]
        assert (cap.sender_key, cap.receiver_key) == (0xDEADBEEF, 0xFEEDFACE)
        dss = back.options[1]
        assert (dss.dsn, dss.subflow_seq, dss.length, dss.data_ack) == (
            999_999,
            42,
            1448,
            123_456,
        )
        assert back.seq == (1 << 32) - 2

    def test_rejects_truncated_blob(self):
        seg = Segment(
            src=Endpoint("10.0.0.1", 1),
            dst=Endpoint("10.0.0.2", 2),
            seq=0,
            ack=0,
            flags=ACK,
            window=0,
            payload=b"hello",
        )
        wire = seg.to_wire()
        with pytest.raises(ValueError):
            segment_from_wire(wire[:-3])
        with pytest.raises(ValueError):
            segment_from_wire(b"\x00" * 4)

    @staticmethod
    def _segment(payload=b"hello", options=()):
        return Segment(
            src=Endpoint("10.0.0.1", 1),
            dst=Endpoint("10.0.0.2", 2),
            seq=1,
            ack=2,
            flags=ACK,
            window=3,
            payload=payload,
            options=list(options),
        )

    @pytest.mark.parametrize(
        "option", [v for v in VALUES if isinstance(v, TCPOption)], ids=lambda v: type(v).__name__
    )
    def test_every_option_kind_survives_the_segment_wire(self, option):
        # Through the framing (blob length in the header) and the
        # latched decoder registry, not just the bare option codec.
        wire = self._segment(options=[option]).to_wire()
        back = segment_from_wire(wire)
        expected = [] if isinstance(option, NoOperation) else [option]  # padding is dropped
        assert back.options == expected
        assert bytes(back.payload) == b"hello"
        if expected:
            assert back.to_wire() == wire  # re-encoding is byte-stable

    def test_roundtrip_keeps_created_at_and_payload_length(self):
        seg = self._segment(payload=b"abc")
        seg.created_at = 12.375
        back = segment_from_wire(seg.to_wire())
        assert back.created_at == 12.375
        assert back.payload_len == 3

    def test_memoryview_payload_serialises_as_bytes(self):
        # Sockets hand segments zero-copy views over their send buffer.
        buffer = b"0123456789"
        view = memoryview(buffer)[2:7]
        wire = self._segment(payload=view).to_wire()
        assert wire == self._segment(payload=b"23456").to_wire()
        back = segment_from_wire(wire)
        assert type(back.payload) is bytes and back.payload == b"23456"

    # Header 37 B, "10.0.0.1" and "10.0.0.2" 8 B each, MSS option 4 B,
    # payload 5 B: 62 B in all.
    @pytest.mark.parametrize(
        "cut",
        [
            lambda wire: b"",
            lambda wire: wire[:20],
            lambda wire: wire[:37],
            lambda wire: wire[:41],
            lambda wire: wire[:55],
            lambda wire: wire[:-1],
            lambda wire: wire + b"\x00",
        ],
        ids=["empty", "mid-header", "header-only", "mid-src-ip", "mid-options", "short-payload",
             "trailing-byte"],
    )
    def test_rejects_every_length_mismatch(self, cut):
        wire = self._segment(options=[MSSOption(1448)]).to_wire()
        assert len(wire) == 62
        with pytest.raises(ValueError):
            segment_from_wire(cut(wire))
