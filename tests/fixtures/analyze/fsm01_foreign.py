"""FSM01 fixture: a non-owner layer poking the door state directly."""

from tests.fixtures.analyze.fsm01 import LOCKED, DoorState


def vandalise(door):
    door.state = DoorState.BROKEN  # line 7: FSM01 (foreign-layer write)


def inspect(door, log):
    log.state = door.state  # not a member store: another object's .state
    return door.state is DoorState.OPEN


def wedge(door):
    door.state = LOCKED  # line 16: FSM01 (a member read as a module constant)
