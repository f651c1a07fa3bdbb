"""FED01 fixture: lookahead-safety for conservative-parallel cuts.

``add_cut`` delays are checked everywhere; zero-delay scheduling and
live-segment shipping are checked in the forward closure of boundary
delivery (``*Boundary*`` methods plus the window entry points).
"""


def build_topology(group, link):
    group.add_cut(link, 0, 1, 0.0)  # line 10: FED01 (positional zero delay)
    group.add_cut(link, 0, 1, delay=-0.5)  # line 11: FED01 (negative keyword)
    group.add_cut(link, 0, 1, delay=0.015)  # fine: positive lookahead
    group.add_cut(link, 0, 1, delay=compute())  # fine: not statically constant


def compute():
    return 0.01


class CutBoundary:
    def __init__(self, sim, conn):
        self.sim = sim
        self.conn = conn
        self.outbox = []

    def deliver(self, segment, delay):
        self.sim.call_soon(self.forward, segment)  # line 27: FED01 (call_soon)
        self.sim.schedule(0, self.forward, segment)  # line 28: FED01 (zero delay)
        self.sim.schedule(delay, self.forward, segment)  # fine: carried delay
        self.sim.post_at(1.5, self.forward, segment)  # fine: absolute time

    def forward(self, segment):
        self.outbox.append(segment)  # line 33: FED01 (live segment, no codec)
        self.outbox.append(segment.to_wire())  # fine: sanctioned codec
        self.conn.send(segment)  # line 35: FED01 (live segment over channel)
        self.conn.send(segment.to_wire())  # fine: wire bytes over channel
        self.outbox.append(segment)  # analyze: ok(FED01): fixture demonstrates a waiver

