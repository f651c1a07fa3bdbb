"""CPX01 fixture: O(n) scans over growth-class state in the hot loop.

Collections are tagged via the seed table (``_rtx_queue``) or a
``# grows:`` comment; tags propagate through assignments and return
summaries.  Scan idioms over unbounded classes flag inside the
``Simulator.run`` closure; ``bounded`` tags and dict-kind membership
stay clean, and untagged list locals only flag on aggregation idioms
(as "undeclared growth").  ``cold`` is never reached from the loop.
"""


class Simulator:
    def __init__(self):
        self.queue: list = []
        self._rtx_queue = []  # seeded: SEGMENTS
        self.flows = []  # grows: connections
        self.names = {}  # grows: connections
        self.recent = []  # grows: bounded

    def schedule(self, delay, callback):
        self.queue.append((delay, callback))

    def run(self):
        while self.queue:
            _, callback = self.queue.pop()
            callback()
            self.dispatch()

    def dispatch(self):
        for flow in self.flows:  # line 30: CPX01 (sweep over CONNECTIONS)
            if flow in self.flows:  # line 31: CPX01 (list membership)
                pass
        if "primary" in self.names:  # fine: dict membership is O(1)
            pass
        self._rtx_queue.pop(0)  # line 35: CPX01 (pop(0) over SEGMENTS)
        for entry in self.recent:  # fine: bounded by construction
            pass


def fetch_mappings():  # grows: return=mappings
    return []


def oldest():
    table = fetch_mappings()
    return min(table)  # line 46: CPX01 (reduction, class via return summary)


def tally():
    values = [1, 2, 3]
    for value in values:  # fine: sweeps over untagged state are allowed
        pass
    values.sort()  # line 53: CPX01 (undeclared growth: demand a tag)


def budgeted(sim):
    # over a committed budget of 0; cpx01_budget.json grants 1
    queue = sim._rtx_queue
    return sum(queue)  # line 59: CPX01 (reduction over SEGMENTS)


def waived(sim):
    sim._rtx_queue.insert(0, None)  # analyze: ok(CPX01): fixture demonstrates a waiver


def cold(sim):
    # fine: unreachable from Simulator.run, scans are free
    return [flow for flow in sim.flows if flow]


def main():
    sim = Simulator()
    sim.schedule(0.1, oldest)
    sim.schedule(0.2, tally)
    sim.schedule(0.3, budgeted)
    sim.schedule(0.4, waived)
    sim.run()


class Registry:
    def __init__(self):
        self.peers = ["# grows: connections"]  # a string literal, not a tag

    def sweep(self):
        for peer in self.peers:  # line 85: fine, untagged (the tag was a string)
            pass


def arm(sim, registry):
    sim.schedule(0.5, registry.sweep)
