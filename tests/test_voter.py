"""Unit tests for the majority voters and the Section 6.5 area model."""

import random

import pytest

from repro.prefetch import (
    MajorityVoter,
    first_level_table_bytes,
    second_level_table_bytes,
    voter_latency_for_copies,
    voter_storage_bytes,
)


class StubWarp:
    def __init__(self, counts):
        self.alive_treelet_counts = dict(counts)

    def winner_treelet(self):
        if not self.alive_treelet_counts:
            return None
        return min(
            self.alive_treelet_counts,
            key=lambda t: (-self.alive_treelet_counts[t], t),
        )


class TestFullVoter:
    def test_picks_global_plurality(self):
        voter = MajorityVoter("full")
        warps = [StubWarp({1: 3, 2: 1}), StubWarp({2: 5})]
        winner, popularity, total = voter.decide(warps)
        assert winner == 2
        assert popularity == 6
        assert total == 9

    def test_tie_breaks_to_lowest_treelet(self):
        voter = MajorityVoter("full")
        warps = [StubWarp({5: 2}), StubWarp({3: 2})]
        winner, _, _ = voter.decide(warps)
        assert winner == 3

    def test_none_when_no_votes(self):
        voter = MajorityVoter("full")
        assert voter.decide([StubWarp({})]) is None

    def test_ignores_no_treelet_marker(self):
        voter = MajorityVoter("full")
        assert voter.decide([StubWarp({-1: 10})]) is None

    def test_full_voter_always_agrees_with_itself(self):
        voter = MajorityVoter("full")
        for counts in ({1: 2}, {3: 1, 4: 9}, {7: 5, 2: 5}):
            voter.decide([StubWarp(counts)])
        assert voter.stats.accuracy == 1.0

    def test_premerged_counts_decide_like_the_merge(self):
        """Given premerged counts, the voter picks the most votes, ties
        to the lowest treelet id, whatever the counts' insertion order,
        as it does when it merges the warps' counts itself."""
        rng = random.Random(5)
        for _ in range(500):
            treelets = rng.sample(range(40), rng.randint(1, 12))
            counts = {t: rng.randint(1, 4) for t in treelets}
            best = max(counts.values())
            expected = min(t for t, c in counts.items() if c == best)
            decision = MajorityVoter("full").decide([], counts=counts)
            assert decision == (expected, best, sum(counts.values()))
            assert decision == MajorityVoter("full").decide(
                [StubWarp(counts)]
            )


class TestPseudoVoter:
    def test_agrees_on_clear_majority(self):
        voter = MajorityVoter("pseudo")
        warps = [StubWarp({1: 10}), StubWarp({1: 8, 2: 2})]
        winner, _, _ = voter.decide(warps)
        assert winner == 1
        assert voter.stats.accuracy == 1.0

    def test_can_disagree_with_full_voter(self):
        """Minority counts are invisible past level one: treelet 2 leads
        globally (10 vs 9) but loses every warp except the last, so the
        pseudo voter never sees most of its support."""
        voter = MajorityVoter("pseudo")
        warps = [
            StubWarp({1: 3, 2: 2}),
            StubWarp({1: 3, 2: 2}),
            StubWarp({1: 3, 2: 2}),
            StubWarp({2: 4}),
        ]
        winner, _, _ = voter.decide(warps)
        assert winner == 1  # pseudo: level two sees 1->9, 2->4
        assert voter.stats.decisions == 1
        assert voter.stats.agreements == 0  # full voter picks 2 (10 > 9)

    def test_accuracy_tracks_agreements(self):
        voter = MajorityVoter("pseudo")
        voter.decide([StubWarp({1: 5})])  # agree
        voter.decide(
            [
                StubWarp({1: 3, 2: 2}),
                StubWarp({1: 3, 2: 2}),
                StubWarp({1: 3, 2: 2}),
                StubWarp({2: 4}),
            ]
        )  # disagree
        assert voter.stats.accuracy == pytest.approx(0.5)


class TestVoterConfig:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            MajorityVoter("quantum")

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            MajorityVoter("full", latency=-1)

    def test_period_is_at_least_one(self):
        assert MajorityVoter("full", latency=0).period == 1
        assert MajorityVoter("full", latency=32).period == 32


class TestAreaModel:
    def test_paper_table_sizes(self):
        assert first_level_table_bytes() == 108
        assert second_level_table_bytes() == 52

    def test_storage_scales_with_copies(self):
        assert voter_storage_bytes(1) == 108 + 52
        assert voter_storage_bytes(16) == 16 * 108 + 52

    def test_latency_for_copies_matches_figure_16(self):
        # 1 table -> 512 cycles, 4 tables -> 128, 16 tables -> 32.
        assert voter_latency_for_copies(1) == 512
        assert voter_latency_for_copies(4) == 128
        assert voter_latency_for_copies(16) == 32

    def test_latency_rounds_up_for_non_divisors(self):
        """Scanning 512 threads over 3 tables takes ceil(512/3) = 171
        cycles — the last partial pass still costs a full cycle."""
        assert voter_latency_for_copies(3) == 171
        assert voter_latency_for_copies(5) == 103
        # Copies beyond one table per warp-buffer entry don't help.
        assert voter_latency_for_copies(512) == voter_latency_for_copies(16)
        # Total scan work is never under-counted.
        for copies in range(1, 64):
            assert voter_latency_for_copies(copies) * copies >= 512

    def test_invalid_copies_rejected(self):
        with pytest.raises(ValueError):
            voter_latency_for_copies(0)
        with pytest.raises(ValueError):
            voter_storage_bytes(0)
