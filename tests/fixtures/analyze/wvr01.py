"""WVR01 fixture: stale and orphaned waivers are findings themselves."""
# analyze: file-ok(DET02): line 2, stale — nothing reads the wall clock

import random  # analyze: ok(DET01): genuine — suppresses the import finding


def stale_line(sim):
    sim.schedule(0, 1)
    return 2  # analyze: ok(DET01): line 9, stale — nothing random here


ORPHANED = 3  # analyze: ok(XYZ99): line 12, orphaned — no rule has this code
