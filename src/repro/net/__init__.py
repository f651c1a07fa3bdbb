"""Network substrate: wire-level packet model, links, paths and hosts.

This package knows nothing about TCP's algorithms — it only defines what
travels on the wire (segments with real header fields and encodable
options) and how it gets there (rate/delay/queue links, duplex paths with
middlebox element chains, hosts that demultiplex to bound sockets).
"""

from repro.net.packet import (
    ACK,
    FIN,
    PSH,
    RST,
    SYN,
    Endpoint,
    Segment,
    flags_repr,
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
    options_length,
    register_option,
)
from repro.net.link import Link, LinkStats
from repro.net.path import Path, PathElement
from repro.net.node import Host, Interface
from repro.net.network import Network

__all__ = [
    "ACK",
    "FIN",
    "PSH",
    "RST",
    "SYN",
    "Endpoint",
    "Segment",
    "flags_repr",
    "TCPOption",
    "NoOperation",
    "MSSOption",
    "WindowScaleOption",
    "TimestampsOption",
    "SACKPermitted",
    "SACKOption",
    "UnknownOption",
    "register_option",
    "decode_options",
    "encode_options",
    "options_length",
    "Link",
    "LinkStats",
    "Path",
    "PathElement",
    "Host",
    "Interface",
    "Network",
]
