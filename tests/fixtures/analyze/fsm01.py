"""FSM01 fixture: a door machine whose state has one checked writer."""

import enum


class DoorState(enum.Enum):
    CLOSED = enum.auto()
    OPEN = enum.auto()
    LOCKED = enum.auto()
    BROKEN = enum.auto()


TRANSITIONS = frozenset(
    {
        (DoorState.CLOSED, DoorState.OPEN),
        (DoorState.OPEN, DoorState.CLOSED),
        (DoorState.CLOSED, DoorState.LOCKED),
        (DoorState.LOCKED, DoorState.CLOSED),
    }
)


class Door:
    def __init__(self):
        self.state = DoorState.CLOSED

    def _set_state(self, dst):
        if (self.state, dst) not in TRANSITIONS:
            raise RuntimeError(dst)
        self.state = dst

    def open(self):
        self._set_state(DoorState.OPEN)

    def lock(self):
        self._set_state(DoorState.LOCKED)

    def slam(self):
        self.state = DoorState.CLOSED  # line 39: FSM01 (bypasses _set_state)

    def restore(self, saved):
        self.state = saved  # line 42: FSM01 (any value, not only members)

    def remember(self):
        self.last, self.state = self.state, DoorState.OPEN  # line 45: FSM01

    def pried_open(self):
        self.state = DoorState.OPEN  # analyze: ok(FSM01): a comment cannot waive — line 48: FSM01


CLOSED, OPEN, LOCKED, BROKEN = DoorState  # members as module constants
