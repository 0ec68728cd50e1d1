"""Suppression cases: the same RL001 hazards, annotated away.

The whole-file directive names RL003, a retired code (no rule reports
it, proving unknown codes are harmless), and each RL001 hazard
carries a line suppression.
"""

# repro-lint: disable-file=RL003

import random  # repro-lint: disable=RL001


def legacy_rng():
    return random.Random(0)  # repro-lint: disable=RL001


def unsuppressed():
    return random.random()  # line 18: the one RL001 that must survive
