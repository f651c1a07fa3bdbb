"""Source file -> layer.

Attribution is by *file*, never by function name, so a refactor that
renames or splits functions cannot move time between layers.  A file
this table has not seen falls to its package's ``.other`` layer (or the
package's single layer), so a new module is attributed, not dropped.
"""

from __future__ import annotations

import os

# Files with a layer of their own, relative to src/repro/.
_FILES = {
    "sim/engine.py": "sim.engine",
    "sim/wheel.py": "sim.wheel",
    "net/link.py": "net.link",
    "net/path.py": "net.path",
    "net/node.py": "net.node",
    "net/packet.py": "net.packet",
    "net/options.py": "net.packet",
    "net/payload.py": "net.payload",
    "tcp/socket.py": "tcp.socket",
    "tcp/rtx.py": "tcp.rtx",
    "tcp/buffer.py": "tcp.buffer",
    "mptcp/connection.py": "mptcp.connection",
    "mptcp/subflow.py": "mptcp.subflow",
    "mptcp/scheduler.py": "mptcp.scheduler",
    "mptcp/ooo.py": "mptcp.ooo",
    "mptcp/checksum.py": "mptcp.checksum",
    "mptcp/options.py": "mptcp.options",
    "mptcp/keys.py": "mptcp.keys",
}

# Package -> layer for every other file in it.
_PACKAGES = {
    "sim": "sim.other",
    "net": "net.other",
    "tcp": "tcp.other",
    "mptcp": "mptcp.other",
    "middlebox": "middlebox",
    "apps": "apps",
    "study": "study",
    "experiments": "experiments",
    "check": "check",
    "stats": "stats",
}

# Everything that is not simulator code: the stdlib, and repro packages
# no workload executes (the static analyzer).  C builtins (heapq,
# hashlib, gc.collect) are not profiled as frames, so their time stays
# with the layer that called them.
HOST = "host.other"

LAYERS = (
    "sim.engine",
    "sim.wheel",
    "sim.other",
    "net.link",
    "net.path",
    "net.node",
    "net.packet",
    "net.payload",
    "net.other",
    "middlebox",
    "tcp.socket",
    "tcp.rtx",
    "tcp.buffer",
    "tcp.other",
    "mptcp.connection",
    "mptcp.subflow",
    "mptcp.scheduler",
    "mptcp.ooo",
    "mptcp.checksum",
    "mptcp.options",
    "mptcp.keys",
    "mptcp.other",
    "apps",
    "study",
    "experiments",
    "check",
    "stats",
    HOST,
)

_WORKLOADS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workloads.py")


def layer_of_repro_path(relative: str) -> str:
    """Layer of a path relative to ``src/repro/`` (posix separators)."""
    if relative in _FILES:
        return _FILES[relative]
    package = relative.split("/", 1)[0] if "/" in relative else ""
    return _PACKAGES.get(package, HOST)


def layer_of(filename: str, repro_root: str) -> str:
    """Layer of a code object's ``co_filename``; ``repro_root`` is the
    directory of the imported ``repro`` package."""
    prefix = repro_root.rstrip(os.sep) + os.sep
    if filename.startswith(prefix):
        return layer_of_repro_path(filename[len(prefix) :].replace(os.sep, "/"))
    # The workload drivers are application code: their callbacks (send
    # pumps, accept handlers) run inside the simulation.
    if filename == _WORKLOADS_FILE:
        return "apps"
    return HOST
