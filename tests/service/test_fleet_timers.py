"""``FleetTimers``: the load fleet's one deadline heap behind one timer.

Driven by a scripted loop whose clock moves only when a handle fires,
so each test states exactly which entries one fire runs. One test per
way the heap can go wrong:

- a batch that keeps popping while entries are due runs what it pushes
  itself, and spins forever on an entry re-armed at ``now``;
- a handle left armed beside its replacement fires batches early;
- ties must run in push order;
- after ``close()`` nothing stays armed, and a delivery due after its
  client closed sends nothing.
"""

from repro.service import protocol
from repro.service.client import FleetTimers, LoadClient
from repro.service.impairment import ImpairmentConfig

from tests.service.test_scheduler_budget import SUITE_QA


class ScriptedHandle:
    def __init__(self, when, callback, args):
        self.when = when
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False

    def cancel(self):
        self.cancelled = True


class ScriptedLoop:
    """``time()`` and ``call_at`` only; :meth:`fire` runs one handle."""

    def __init__(self):
        self.now = 0.0
        self.handles = []

    def time(self):
        return self.now

    def call_at(self, when, callback, *args):
        handle = ScriptedHandle(when, callback, args)
        self.handles.append(handle)
        return handle

    def live(self):
        return [h for h in self.handles if not h.cancelled and not h.fired]

    def fire(self):
        """Run the earliest live handle, moving the clock to it."""
        handle = min(self.live(), key=lambda h: h.when)
        self.now = max(self.now, handle.when)
        handle.fired = True
        handle.callback(*handle.args)


def test_an_entry_pushed_inside_a_batch_runs_on_a_later_fire():
    loop = ScriptedLoop()
    timers = FleetTimers(loop)
    ran = []

    def sample(left):
        # Re-armed at ``now``, as a sample a few ulps before its end is.
        ran.append(("sample", loop.now))
        if left:
            timers.push(loop.now, sample, left - 1)

    timers.push(1.0, sample, 2)
    timers.push(1.0, ran.append, "delivery")
    loop.fire()
    assert ran == [("sample", 1.0), "delivery"]
    loop.fire()
    assert ran[2:] == [("sample", 1.0)]
    loop.fire()
    assert ran[3:] == [("sample", 1.0)]
    assert loop.live() == []


def test_a_batch_takes_what_asyncio_would_run_in_that_iteration():
    loop = ScriptedLoop()
    timers = FleetTimers(loop)
    ran = []
    timers.push(1.0, ran.append, "head")
    timers.push(1.0 + 1e-12, ran.append, "same iteration")
    timers.push(1.0 + 1e-6, ran.append, "next iteration")
    loop.fire()
    assert ran == ["head", "same iteration"]
    loop.fire()
    assert ran[2:] == ["next iteration"] and loop.now == 1.0 + 1e-6


def test_at_most_one_handle_is_live():
    loop = ScriptedLoop()
    timers = FleetTimers(loop)
    ran = []

    def first(when):
        ran.append(when)
        timers.push(10.0, ran.append, 10.0)  # behind the armed head

    for when in (5.0, 3.0, 4.0, 2.0):
        timers.push(when, ran.append, when)
        assert len(loop.live()) == 1
    timers.push(1.0, first, 1.0)
    assert [h.when for h in loop.live()] == [1.0]
    for _ in range(6):
        loop.fire()
        assert len(loop.live()) <= 1
    assert loop.live() == []
    # A stale handle would have fired a batch before its head was due.
    assert ran == [1.0, 2.0, 3.0, 4.0, 5.0, 10.0]
    assert [h.when for h in loop.handles if h.fired] == ran


def test_ties_run_in_push_order():
    loop = ScriptedLoop()
    timers = FleetTimers(loop)
    ran = []
    for name in "abcdef":
        timers.push(2.0 if name in "bdf" else 1.0, ran.append, name)
    loop.fire()
    loop.fire()
    assert ran == ["a", "c", "e", "b", "d", "f"]


def test_close_leaves_no_live_handle():
    loop = ScriptedLoop()
    timers = FleetTimers(loop)
    ran = []
    timers.push(1.0, ran.append, 1)
    timers.push(2.0, ran.append, 2)
    timers.close()
    assert loop.live() == [] and ran == []
    timers.push(3.0, ran.append, 3)
    assert len(loop.live()) == 1
    loop.fire()
    assert ran == [3] and loop.live() == []


class _Wire:
    def __init__(self):
        self.sent = []

    def sendto(self, data, addr=None):
        self.sent.append(data)


def _streaming_client(loop, timers):
    client = LoadClient(
        "127.0.0.1", 9, label="load0", duration=1.0, timers=timers,
        impairment=ImpairmentConfig(delay=0.02))
    client._loop = loop
    client.transport = _Wire()
    client.session_id = 7
    client.session_config = {
        "layer_rate": SUITE_QA.layer_rate,
        "max_layers": SUITE_QA.max_layers,
        "startup_delay": SUITE_QA.startup_delay,
    }
    client.datagram_received(
        protocol.encode_data(7, 0, 0, 1, 0.0, SUITE_QA.packet_size),
        ("127.0.0.1", 9))
    return client


def test_a_delivery_waits_on_the_heap_and_acks():
    loop = ScriptedLoop()
    client = _streaming_client(loop, FleetTimers(loop))
    assert client.transport.sent == []
    assert [h.when for h in loop.live()] == [0.02]
    loop.fire()
    assert client.transport.sent == [protocol.encode_ack(7, 0, 0.0)]


def test_a_delivery_due_after_its_client_closed_sends_nothing():
    loop = ScriptedLoop()
    client = _streaming_client(loop, FleetTimers(loop))
    client._closed = True
    loop.fire()
    assert client.transport.sent == [] and client.packets_received == 0
    assert loop.live() == []
