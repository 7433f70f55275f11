"""Unit tests for the adaptive prefetch throttle (Section 7.1)."""

import pytest

from repro import SMOKE, Technique, run
from repro.prefetch import AdaptiveConfig, AdaptiveThrottle, EffectivenessCounts


def counts(timely=0, late=0, too_late=0, early=0, unused=0):
    return EffectivenessCounts(
        timely=timely, late=late, too_late=too_late, early=early,
        unused=unused,
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveConfig(epoch_cycles=0)
        with pytest.raises(ValueError):
            AdaptiveConfig(step=0.0)
        with pytest.raises(ValueError):
            AdaptiveConfig(min_threshold=0.5, max_threshold=0.25)


class TestController:
    def test_starts_wide_open(self):
        throttle = AdaptiveThrottle()
        assert throttle.threshold == 0.0
        assert throttle.fraction_to_prefetch(0.01) == 1.0

    def test_wasted_epoch_raises_threshold(self):
        throttle = AdaptiveThrottle(AdaptiveConfig(epoch_cycles=10))
        throttle.on_cycle(10, counts(unused=8, timely=2))
        assert throttle.threshold > 0.0
        assert throttle.adjustments == 1

    def test_useful_epoch_lowers_threshold(self):
        config = AdaptiveConfig(epoch_cycles=10, step=0.25)
        throttle = AdaptiveThrottle(config)
        throttle.on_cycle(10, counts(unused=8, timely=2))  # up
        high = throttle.threshold
        throttle.on_cycle(20, counts(unused=8, timely=12))  # delta mostly timely
        assert throttle.threshold < high

    def test_threshold_clamped(self):
        config = AdaptiveConfig(epoch_cycles=10, step=0.5, max_threshold=0.75)
        throttle = AdaptiveThrottle(config)
        total = counts()
        for epoch in range(1, 6):
            total = counts(unused=10 * epoch)  # always wasted
            throttle.on_cycle(epoch * 10, total)
        assert throttle.threshold == 0.75

    def test_no_activity_no_change(self):
        throttle = AdaptiveThrottle(AdaptiveConfig(epoch_cycles=10))
        throttle.on_cycle(10, counts())
        throttle.on_cycle(20, counts())
        assert throttle.threshold == 0.0
        assert throttle.adjustments == 0

    def test_between_epochs_no_change(self):
        throttle = AdaptiveThrottle(AdaptiveConfig(epoch_cycles=100))
        throttle.on_cycle(50, counts(unused=100))
        assert throttle.adjustments == 0

    def test_deltas_not_cumulative(self):
        """The controller reacts to per-epoch deltas, not lifetime totals."""
        config = AdaptiveConfig(epoch_cycles=10, step=0.25)
        throttle = AdaptiveThrottle(config)
        # Epoch 1: wasteful history.
        throttle.on_cycle(10, counts(unused=100))
        up = throttle.threshold
        # Epoch 2: only timely activity since.
        throttle.on_cycle(20, counts(unused=100, timely=50))
        assert throttle.threshold < up

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            AdaptiveThrottle().fraction_to_prefetch(2.0)

    def test_label_shows_threshold(self):
        assert "ADAPTIVE" in AdaptiveThrottle().label()


class TestIntegration:
    def test_adaptive_technique_runs(self):
        technique = Technique(
            traversal="treelet", layout="treelet", prefetch="treelet",
            adaptive=True,
        )
        result = run("SHIP", technique, SMOKE)
        assert result.cycles > 0

    def test_adaptive_requires_treelet_prefetch(self):
        with pytest.raises(ValueError):
            Technique(adaptive=True)

    def test_adaptive_throttles_relative_to_always(self):
        always = Technique(
            traversal="treelet", layout="treelet", prefetch="treelet"
        )
        adaptive = Technique(
            traversal="treelet", layout="treelet", prefetch="treelet",
            adaptive=True,
        )
        a = run("BUNNY", always, SMOKE)
        b = run("BUNNY", adaptive, SMOKE)
        # The throttle can only reduce (or match) issued prefetches.
        assert b.stats.prefetches_issued <= a.stats.prefetches_issued
