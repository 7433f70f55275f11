"""Unit tests for the Figure 20 effectiveness classifier."""

import pytest

from repro.gpusim.cache import DEMANDED, AccessOutcome
from repro.prefetch import EffectivenessCounts, PrefetchEffectivenessTracker


@pytest.fixture
def tracker():
    return PrefetchEffectivenessTracker()


class TestClassification:
    def test_timely(self, tracker):
        tracker.on_prefetch_probe(1, AccessOutcome.MISS, None, None)
        tracker.on_fill(1, filled_by_prefetch=True)
        tracker.on_demand_probe(
            1,
            AccessOutcome.HIT,
            40,  # an untouched prefetch fill: its fill cycle
            None,
        )
        assert tracker.finalize().timely == 1

    def test_unused(self, tracker):
        tracker.on_prefetch_probe(1, AccessOutcome.MISS, None, None)
        tracker.on_fill(1, filled_by_prefetch=True)
        counts = tracker.finalize()
        assert counts.unused == 1

    def test_early(self, tracker):
        tracker.on_prefetch_probe(1, AccessOutcome.MISS, None, None)
        tracker.on_fill(1, filled_by_prefetch=True)
        tracker.on_eviction(1, 40)
        counts = tracker.finalize()
        assert counts.early == 1
        assert counts.unused == 0

    def test_evicting_demanded_line_is_not_early(self, tracker):
        tracker.on_prefetch_probe(1, AccessOutcome.MISS, None, None)
        tracker.on_fill(1, filled_by_prefetch=True)
        tracker.on_eviction(1, DEMANDED)
        counts = tracker.finalize()
        assert counts.early == 0
        assert counts.unused == 1

    def test_late_prefetch_pending_on_demand(self, tracker):
        tracker.on_prefetch_probe(
            1, AccessOutcome.PENDING_HIT, None, prior_owner_is_prefetch=False
        )
        assert tracker.finalize().late == 1

    def test_late_demand_catches_prefetch(self, tracker):
        tracker.on_prefetch_probe(1, AccessOutcome.MISS, None, None)
        tracker.on_demand_probe(
            1, AccessOutcome.PENDING_HIT, None, prior_owner_is_prefetch=True
        )
        assert tracker.finalize().late == 1

    def test_too_late(self, tracker):
        tracker.on_prefetch_probe(
            1,
            AccessOutcome.HIT,
            DEMANDED,
            None,
        )
        assert tracker.finalize().too_late == 1

    def test_redundant_prefetch_on_prefetched_line(self, tracker):
        tracker.on_prefetch_probe(
            1,
            AccessOutcome.HIT,
            0,  # a prefetch filled at cycle 0 is still untouched
            None,
        )
        assert tracker.finalize().redundant == 1

    def test_redundant_merge_into_prefetch_fill(self, tracker):
        tracker.on_prefetch_probe(
            1, AccessOutcome.PENDING_HIT, None, prior_owner_is_prefetch=True
        )
        assert tracker.finalize().redundant == 1

    def test_second_demand_hit_not_double_counted(self, tracker):
        tracker.on_prefetch_probe(1, AccessOutcome.MISS, None, None)
        tracker.on_fill(1, filled_by_prefetch=True)
        tracker.on_demand_probe(1, AccessOutcome.HIT, 40, None)
        tracker.on_demand_probe(1, AccessOutcome.HIT, DEMANDED, None)
        assert tracker.finalize().timely == 1


class TestCounts:
    def test_issued_total(self):
        counts = EffectivenessCounts(
            timely=2, late=1, too_late=1, early=1, unused=3, redundant=2
        )
        assert counts.issued == 10

    def test_fractions_sum_to_one(self):
        counts = EffectivenessCounts(
            timely=2, late=1, too_late=1, early=1, unused=3, redundant=2
        )
        assert sum(counts.fractions().values()) == pytest.approx(1.0)

    def test_fractions_fold_redundant_into_unused(self):
        counts = EffectivenessCounts(unused=1, redundant=1, timely=2)
        assert counts.fractions()["unused"] == pytest.approx(0.5)

    def test_empty_fractions_are_zero(self):
        assert all(v == 0.0 for v in EffectivenessCounts().fractions().values())

    def test_merge(self):
        a = EffectivenessCounts(timely=1, late=2)
        b = EffectivenessCounts(timely=3, early=1)
        a.merge(b)
        assert a.timely == 4 and a.late == 2 and a.early == 1
