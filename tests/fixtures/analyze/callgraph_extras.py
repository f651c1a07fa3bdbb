"""Function-index fixture: a named lambda and a functools.partial alias."""

from functools import partial


def kick(sim):
    return sim


bounce = lambda sim: kick(sim)  # noqa: E731

alias = partial(kick)
