"""DET03 fixture: iteration over sets, whatever the function does."""


class Node:
    def __init__(self, sim):
        self.sim = sim
        self.peers = set()

    def kick_all(self) -> None:
        for peer in self.peers:  # line 10: DET03 (set attribute)
            self.sim.schedule(0.0, peer)

    def kick_local_set(self) -> None:
        pending = {object(), object()}
        for item in pending:  # line 15: DET03 (local set)
            self.sim.schedule(0.0, item)

    def kick_dict(self, table: dict) -> None:
        for value in table.values():  # fine: dict order is insertion order
            self.sim.schedule(0.0, value)

    def kick_sorted(self) -> None:
        for peer in sorted(self.peers):  # fine: explicit ordering
            self.sim.schedule(0.0, peer)

    def commented(self) -> None:
        for peer in self.peers:  # analyze: ok(DET03): a comment cannot waive — line 27: DET03
            self.sim.schedule(0.0, peer)

    def report(self, table: dict) -> list:
        # fine: dict order is insertion order
        return [value for value in table.values()]

    def kick_annotated(self, make) -> None:
        listed: set = []
        for item in listed:  # fine: the value is a list, whatever the annotation says
            self.sim.schedule(0.0, item)
        built: set = list()
        for item in built:  # fine: the value's own kind wins here too
            self.sim.schedule(0.0, item)
        made: set = make()
        for item in made:  # line 42: DET03 (the value says nothing; the annotation does)
            self.sim.schedule(0.0, item)
