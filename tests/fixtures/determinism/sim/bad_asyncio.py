"""RL001 positive cases: asyncio timers leaking into simulation code.

Line numbers are asserted by tests/test_static_determinism.py --
renumber there if this file changes.
"""


def schedule_with_asyncio():
    import asyncio  # line 9: RL001 (import asyncio)

    return asyncio.get_event_loop()  # line 11: RL001 (asyncio.*)


def sleepy_retry():
    from asyncio import sleep  # line 15: RL001 (from asyncio import)

    return sleep(0.1)


def loop_clock(loop):
    return loop.time()  # line 21: RL001 (loop.time() wall clock)


def private_loop_clock(_loop):
    return _loop.time()  # line 25: RL001 (loop.time() wall clock)


def innocent_time_method(tracer):
    return tracer.time()  # fine: not an event-loop receiver name
