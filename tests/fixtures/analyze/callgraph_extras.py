"""Callgraph fixture: lambdas, functools.partial, and decorators."""

from functools import partial


def traced(fn):
    return fn


def kick(sim):
    sim.schedule(0, None)  # analyze: ok(DET03)


bounce = lambda sim: kick(sim)  # noqa: E731


@traced
def decorated(sim):
    bounce(sim)


alias = partial(decorated)
