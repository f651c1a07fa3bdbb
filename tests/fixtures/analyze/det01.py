"""DET01 fixture: entropy imports and os.urandom reads."""

import os
import random  # line 4: DET01 (import)
from uuid import uuid4  # line 5: DET01 (import from)


def bad_urandom() -> bytes:
    return os.urandom(8)  # line 9: DET01 (attribute read)


import random as rnd  # analyze: ok(DET01): a comment cannot waive — line 12: DET01


def fine(rng) -> int:
    return rng.getrandbits(8)
