"""``LayerBufferSet`` against the object-per-layer set it replaced.

:class:`ReferenceBufferSet` / :class:`LayerAccount` are the previous
implementation, copied verbatim and kept here as the oracle: one
dataclass per layer, every layer visited on every call. The flat
struct-of-arrays set must be indistinguishable from it -- ``==`` on every
float, not ``approx``: same levels, same shortfall mapping in the same
key order, same return values and the same ``ValueError`` text.

:class:`Both` forwards each call to the two sets and compares the
outcomes, so :class:`~tests.core.test_properties.BufferMachine`'s rules
and invariants drive the pair unchanged.

Skipped wholesale when hypothesis is not installed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import settings, strategies as st  # noqa: E402
from hypothesis.stateful import invariant, rule  # noqa: E402

from repro.core.buffers import LayerBufferSet  # noqa: E402
from repro.core.units import Bytes, BytesPerSec, Seconds  # noqa: E402

from tests.core.test_properties import BufferMachine  # noqa: E402

LAYERS = 4


@dataclass
class LayerAccount:
    """Accounting for one layer."""

    delivered: Bytes = 0.0
    consumed: Bytes = 0.0
    active: bool = False
    consuming_since: Optional[Seconds] = None
    clock: Seconds = 0.0  # consumption clock position (simulation time)

    @property
    def level(self) -> Bytes:
        return self.delivered - self.consumed


class ReferenceBufferSet:
    """A set of per-layer buffers with independent consumption clocks.

    ``consume_until(t)`` advances every *consuming* layer's clock to ``t``,
    draining ``C * dt`` from each and reporting shortfalls (bytes a layer
    wanted to play but did not have). A layer can be active (being sent and
    buffered) before its consumption starts -- that is the startup window.
    """

    def __init__(self, layer_rate: BytesPerSec, max_layers: int) -> None:
        if layer_rate <= 0:
            raise ValueError("layer_rate must be positive")
        if max_layers < 1:
            raise ValueError("max_layers must be at least 1")
        self.layer_rate = layer_rate
        self.max_layers = max_layers
        self._accounts = [LayerAccount() for _ in range(max_layers)]

    # ---------------------------------------------------------- lifecycle

    def activate(self, layer: int, now: Seconds) -> None:
        """Start buffering (and clocking) layer ``layer`` at time ``now``."""
        acct = self._accounts[layer]
        if acct.active:
            raise ValueError(f"layer {layer} already active")
        acct.active = True
        acct.clock = now

    def start_consuming(self, layer: int, now: Seconds) -> None:
        """Begin draining ``layer`` at rate C from time ``now``."""
        acct = self._accounts[layer]
        if not acct.active:
            raise ValueError(f"layer {layer} not active")
        acct.consuming_since = now
        acct.clock = now

    def deactivate(self, layer: int) -> Bytes:
        """Stop layer ``layer``; returns the buffered bytes discarded."""
        acct = self._accounts[layer]
        if not acct.active:
            raise ValueError(f"layer {layer} not active")
        remaining = max(0.0, acct.level)
        self._accounts[layer] = LayerAccount()
        return remaining

    def is_active(self, layer: int) -> bool:
        return self._accounts[layer].active

    def is_consuming(self, layer: int) -> bool:
        return self._accounts[layer].consuming_since is not None

    # --------------------------------------------------------------- data

    def deliver(self, layer: int, nbytes: Bytes) -> None:
        """Record ``nbytes`` of layer data arriving at the receiver."""
        if nbytes < 0:
            raise ValueError("cannot deliver negative bytes")
        acct = self._accounts[layer]
        if not acct.active:
            return  # data for a dropped layer still plays but isn't tracked
        acct.delivered += nbytes

    def withdraw(self, layer: int, nbytes: Bytes) -> None:
        """Un-credit ``nbytes`` that turned out to be lost in transit.

        Used by send-time-crediting estimators when the congestion
        controller detects a loss. The account may momentarily go
        negative; :meth:`level` clamps reads at zero.
        """
        if nbytes < 0:
            raise ValueError("cannot withdraw negative bytes")
        acct = self._accounts[layer]
        if not acct.active:
            return
        acct.delivered -= nbytes

    def consume_until(self, now: Seconds) -> dict[int, Bytes]:
        """Advance all consumption clocks to ``now``.

        Returns ``{layer: shortfall_bytes}`` for layers that wanted more
        data than they had (underflow). Clocks advance even on shortfall;
        stall semantics (pausing) are the playout policy's job and are
        implemented by it calling :meth:`pause` instead.
        """
        shortfalls: dict[int, float] = {}
        for layer, acct in enumerate(self._accounts):
            if not acct.active or acct.consuming_since is None:
                continue
            dt = now - acct.clock
            if dt <= 0:
                continue
            want = self.layer_rate * dt
            take = min(want, max(0.0, acct.level))
            acct.consumed += take
            acct.clock = now
            if want - take > 1e-9:
                shortfalls[layer] = want - take
        return shortfalls

    def pause(self, now: Seconds) -> None:
        """Advance all clocks to ``now`` without consuming (playback stall)."""
        for acct in self._accounts:
            if acct.active and acct.consuming_since is not None:
                acct.clock = now

    # ------------------------------------------------------------ queries

    def level(self, layer: int) -> Bytes:
        """Buffered bytes of ``layer`` (clamped at zero)."""
        return max(0.0, self._accounts[layer].level)

    def levels(self, active_layers: int) -> list[Bytes]:
        """Base-first buffer levels of the first ``active_layers`` layers."""
        return [self.level(i) for i in range(active_layers)]

    def total(self, active_layers: Optional[int] = None) -> Bytes:
        """Sum of buffered bytes over the first ``active_layers`` layers."""
        n = self.max_layers if active_layers is None else active_layers
        return sum(self.level(i) for i in range(n))

    def delivered(self, layer: int) -> Bytes:
        """Cumulative bytes credited to ``layer``."""
        return self._accounts[layer].delivered

    def consumed(self, layer: int) -> Bytes:
        """Cumulative bytes the decoder has consumed from ``layer``."""
        return self._accounts[layer].consumed


# ------------------------------------------------------------ the harness


def outcome(call, *args):
    """``("ok", value)`` or ``("ValueError", text)`` of one call."""
    try:
        value = call(*args)
    except ValueError as exc:
        return "ValueError", str(exc)
    if isinstance(value, dict):
        value = list(value.items())  # dict == ignores key order
    return "ok", value


class Both:
    """The flat set and the oracle behind one interface.

    Every method call goes to both; the two outcomes (return value, or
    the ``ValueError`` text) must be equal and the flat set's is passed
    on.
    """

    def __init__(self, layer_rate, max_layers):
        self.flat = LayerBufferSet(layer_rate, max_layers)
        self.oracle = ReferenceBufferSet(layer_rate, max_layers)

    def __getattr__(self, name):
        def call(*args):
            got = outcome(getattr(self.flat, name), *args)
            assert got == outcome(getattr(self.oracle, name), *args), name
            if got[0] == "ValueError":
                raise ValueError(got[1])
            return dict(got[1]) if name == "consume_until" else got[1]
        return call


class DifferentialBufferMachine(BufferMachine):
    """``BufferMachine``'s rules over :class:`Both`, plus the corners
    the flat layout could get wrong."""

    def __init__(self):
        super().__init__()
        self.buffers = Both(layer_rate=1000.0, max_layers=LAYERS)
        self.played = 0.0

    @rule(layer=st.integers(0, LAYERS - 1),
          dt=st.floats(min_value=0.0, max_value=0.5))
    def restart_consuming(self, layer, dt):
        """A second ``start_consuming`` re-anchors the layer's clock."""
        self.now += dt
        if self.buffers.is_active(layer):
            self.buffers.start_consuming(layer, self.now)

    @rule(layer=st.integers(0, LAYERS - 1), nbytes=st.integers(1, 5000))
    def bad_calls(self, layer, nbytes):
        """Whichever calls are invalid in this state fail alike."""
        if self.buffers.is_active(layer):
            bad = [("activate", layer, self.now)]
        else:
            bad = [("start_consuming", layer, self.now),
                   ("deactivate", layer)]
        bad += [("deliver", layer, -nbytes), ("withdraw", layer, -nbytes)]
        for name, *args in bad:
            with pytest.raises(ValueError):
                getattr(self.buffers, name)(*args)

    @invariant()
    def every_read_agrees(self):
        buffers = self.buffers
        for layer in range(LAYERS):
            buffers.is_active(layer)
            buffers.is_consuming(layer)
            buffers.delivered(layer)
            buffers.consumed(layer)
            buffers.level(layer)
        buffers.total()
        for n in range(LAYERS + 1):
            buffers.levels(n)
            buffers.total(n)
        # What the playout reports as played counts every layer the set
        # ever had: it never falls, not even when a layer goes.
        assert buffers.flat.played >= self.played
        self.played = buffers.flat.played


TestDifferentialBufferMachine = DifferentialBufferMachine.TestCase
TestDifferentialBufferMachine.settings = settings(
    max_examples=5, stateful_step_count=50, deadline=None)


@pytest.mark.slow
class TestDifferentialBufferMachineWide(DifferentialBufferMachine.TestCase):
    """The wide sweep, behind ``--run-slow`` (CI's fluid-differential
    job runs it on every push); tier-1 keeps the five-program smoke."""

    settings = settings(max_examples=80, stateful_step_count=50,
                        deadline=None)


@pytest.mark.parametrize("args", [(0.0, LAYERS), (1000.0, 0)])
def test_constructors_reject_alike(args):
    flat = outcome(LayerBufferSet, *args)
    assert flat[0] == "ValueError"
    assert flat == outcome(ReferenceBufferSet, *args)


def test_shortfall_mapping_is_ascending_whatever_the_start_order():
    pair = Both(layer_rate=1000.0, max_layers=LAYERS)
    for layer in (2, 0, 3, 1):  # consumption starts out of order
        pair.activate(layer, 0.0)
        pair.start_consuming(layer, 0.0)
    pair.deliver(1, 10_000)
    assert list(pair.consume_until(1.0)) == [0, 2, 3]
    pair.deactivate(2)
    assert list(pair.consume_until(2.0)) == [0, 3]
