"""HOT01 fixture: annotations are not allocation sites.

Under ``from __future__ import annotations`` an annotation is never
evaluated, so the list inside ``Callable[[Simulator], None]`` and the
``dict[...]`` return type cost nothing at run time; only the real
display in ``on_event``'s body is a finding.
"""

from __future__ import annotations

from typing import Callable, Optional


class Simulator:
    def __init__(self):
        self.queue = []

    def schedule(self, delay, callback):
        self.queue.append((delay, callback))

    def run(self):
        while self.queue:
            _, callback = self.queue.pop()
            callback(self)


def on_event(sim: Simulator, hook: Optional[Callable[[Simulator], None]] = None) -> dict[str, list[int]]:
    pending: list[Callable[[Simulator], None]]
    seen: Optional[Callable[[Simulator], None]] = hook
    counts = {"events": len(sim.queue)}  # line 30: HOT01 (dict literal)
    return counts if seen is None else {}  # line 31: HOT01 (dict literal)


def main():
    sim = Simulator()
    sim.schedule(0.1, on_event)
    sim.run()
