"""Unit tests for the replay engine's one event queue: the memory
system's agenda, per-cycle buckets of records plus one heap of their
cycles."""

import pytest

from repro.core.config import GpuConfig
from repro.gpusim import MemorySystem
from repro.gpusim.memsys import _CALL


@pytest.fixture
def mem():
    return MemorySystem(GpuConfig(n_sms=1))


def call_at(mem, cycle, callback):
    """Put a callback record on the agenda bucket for ``cycle``."""
    mem._enqueue(cycle, (_CALL, callback))


class TestEventQueue:
    def test_fires_in_cycle_order(self, mem):
        fired = []
        call_at(mem, 5, lambda c: fired.append(("b", c)))
        call_at(mem, 2, lambda c: fired.append(("a", c)))
        mem.flush_due(10)
        assert fired == [("a", 2), ("b", 5)]

    def test_same_cycle_fifo(self, mem):
        fired = []
        for tag in "xyz":
            call_at(mem, 3, lambda c, t=tag: fired.append(t))
        assert mem.agenda_cycles == [3]  # one heap entry per bucket
        mem.flush_due(3)
        assert fired == ["x", "y", "z"]

    def test_only_due_events_fire(self, mem):
        fired = []
        call_at(mem, 1, lambda c: fired.append(1))
        call_at(mem, 9, lambda c: fired.append(9))
        mem.flush_due(5)
        assert fired == [1]
        assert mem.agenda_cycles == [9]

    def test_next_cycle(self, mem):
        """The heap's head is the earliest pending bucket."""
        assert not mem.agenda_cycles
        call_at(mem, 7, lambda c: None)
        call_at(mem, 3, lambda c: None)
        assert mem.agenda_cycles[0] == 3

    def test_callback_receives_its_own_cycle(self, mem):
        seen = []
        call_at(mem, 4, seen.append)
        mem.flush_due(100)  # flushed late, still reports cycle 4
        assert seen == [4]

    def test_cascading_same_cycle_events(self, mem):
        """A same-cycle enqueue made during a flush runs right after
        that flush."""
        fired = []

        def first(cycle):
            fired.append("first")
            call_at(mem, cycle + 1, lambda c: fired.append("later"))
            call_at(mem, cycle, lambda c: fired.append("second"))

        call_at(mem, 2, first)
        mem.flush_due(2)
        assert fired == ["first", "second"]
        assert mem.agenda_cycles == [3]


class TestDrain:
    def test_drain_fires_everything_in_order(self, mem):
        fired = []
        for cycle in (9, 3, 7, 3):
            call_at(mem, cycle, fired.append)
        assert mem.drain(0) == 9
        assert fired == [3, 3, 7, 9]
        assert not mem.agenda_cycles

    def test_drain_keeps_base_when_events_are_earlier(self, mem):
        """The returned base never moves backwards: buckets landing
        before the loop-exit cycle flush but don't shrink it."""
        call_at(mem, 4, lambda c: None)
        assert mem.drain(10) == 10

    def test_drain_handles_cascading_events(self, mem):
        fired = []

        def first(cycle):
            fired.append("first")
            call_at(mem, cycle + 5, lambda c: fired.append("second"))

        call_at(mem, 2, first)
        assert mem.drain(0) == 7
        assert fired == ["first", "second"]

    def test_drain_empty_returns_input_cycle(self, mem):
        assert mem.drain(42) == 42

    def test_drain_lands_real_fills(self, mem):
        """A demand miss's fill chain (L1 -> L2 -> DRAM and back) drains
        to its response cycle and leaves no MSHR in flight."""
        done = []
        mem.access(0, 0x1000, cycle=0, callback=done.append)
        assert mem.drain(0) == done[0] > 0
        assert mem.drain_complete()


class TestDrainCycleBase:
    def test_per_cycle_rates_pin_post_drain_denominator(self):
        """Regression pin for the single-pass drain: ``SimStats.cycles``
        is the post-drain base, so every rate in ``per_cycle_rates``
        shares it.  Simulated on a real scene so the trailing drain has
        in-flight memory responses to account for."""
        from repro.api import run
        from repro.core import SMOKE

        stats = run("WKND", "treelet-prefetch", SMOKE).stats
        rates = stats.per_cycle_rates()
        cycles = stats.cycles
        assert cycles > 0
        assert rates["ipc"] == stats.visits_completed / cycles
        assert rates["l2_bandwidth"] == stats.l2_bytes / cycles
        nonidle = (
            stats.busy_cycles + stats.stall_cycles + stats.mshr_stall_cycles
        )
        assert rates["stall_fraction"] == stats.stall_cycles / nonidle
        assert (
            rates["mshr_stall_fraction"] == stats.mshr_stall_cycles / nonidle
        )
        assert set(rates) == {
            "ipc",
            "l2_bandwidth",
            "dram_utilization",
            "stall_fraction",
            "mshr_stall_fraction",
        }
