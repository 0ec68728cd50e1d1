"""RL001 positive cases: every banned determinism hazard in one file.

Line numbers are asserted by tests/test_static_determinism.py --
renumber there if this file changes.
"""


def red_queue_fallback(rng=None):
    # The exact bug the determinism check prevents: the old REDQueue
    # fallback silently gave every queue the same constant-seed stream.
    if rng is None:
        import random  # line 12: RL001 (import random)

        rng = random.Random(0)  # line 14: RL001 (random.Random)
    return rng


def module_state():
    import numpy.random  # line 19: RL001 (numpy.random import)

    return numpy.random.rand()  # line 21: RL001 (numpy.random.rand)


def wall_clock():
    from time import perf_counter  # line 25: RL001 (time.perf_counter)

    return perf_counter()


def hash_order(flows):
    ids = {flow.flow_id for flow in flows}
    for flow_id in ids:  # fine: iterating a *name* is out of scope
        pass
    for flow_id in {f.flow_id for f in flows}:  # line 34: RL001 (set iter)
        pass
    return list({1, 2, 3})  # line 36: RL001 (list over set)


def sorted_is_fine(flows):
    return sorted({f.flow_id for f in flows})  # fine: sorted() wraps it
