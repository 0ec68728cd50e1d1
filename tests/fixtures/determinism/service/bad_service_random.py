"""RL001 positive cases: the service carve-out does not cover entropy.

Wall-clock and asyncio are legitimate in the service zone, but a load
fleet's loss pattern must replay from its seed -- ambient randomness
and OS entropy stay banned. Line numbers are asserted by
tests/test_static_determinism.py -- renumber there if this file changes.
"""


def unseeded_loss():
    import random  # line 11: RL001 (import random)

    return random.random() < 0.01  # line 13: RL001 (random.*)


def entropy_label():
    import uuid

    return uuid.uuid4()  # line 19: RL001 (uuid.uuid4)


def hash_ordered_sessions(sessions):
    return list({s.session_id for s in sessions})  # line 23: RL001
