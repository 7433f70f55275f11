"""Unit tests for the majority voters, their vote tally, and the
Section 6.5 area model."""

import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import REPLAY_PRESETS
from repro.core.pipeline import SMOKE, build_gpu_model
from repro.gpusim import RayState
from repro.prefetch import (
    MajorityVoter,
    VoteTally,
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


def tally_of(warps):
    """The tally of ``warps``' merged votes, as an RT unit keeps it."""
    tally = VoteTally()
    for warp in warps:
        for treelet, count in warp.alive_treelet_counts.items():
            if treelet != -1:
                for _ in range(count):
                    tally.add(treelet)
    return tally


def vote(voter, warps):
    """``voter``'s decision over ``warps``' votes."""
    return voter.decide(tally_of(warps), warps)


def merge_scan(mode, warps):
    """The oracle: ``(winner, popularity, total_votes, full_winner)`` by
    merging every warp's counts and scanning them, or None."""
    merged = Counter()
    for warp in warps:
        merged.update(warp.alive_treelet_counts)
    merged.pop(-1, None)  # rays with no treelet info
    if not merged:
        return None
    total_votes = sum(merged.values())
    full_winner = min(merged, key=lambda t: (-merged[t], t))
    if mode == "full":
        winner = full_winner
    else:
        level_two = Counter()
        for warp in warps:
            warp_winner = warp.winner_treelet()
            if warp_winner is not None and warp_winner != -1:
                level_two[warp_winner] += warp.alive_treelet_counts[
                    warp_winner
                ]
        if not level_two:
            return None
        winner = min(level_two, key=lambda t: (-level_two[t], t))
    return winner, merged[winner], total_votes, full_winner


class TestFullVoter:
    def test_picks_global_plurality(self):
        voter = MajorityVoter("full")
        warps = [StubWarp({1: 3, 2: 1}), StubWarp({2: 5})]
        winner, popularity, total = vote(voter, warps)
        assert winner == 2
        assert popularity == 6
        assert total == 9

    def test_tie_breaks_to_lowest_treelet(self):
        voter = MajorityVoter("full")
        warps = [StubWarp({5: 2}), StubWarp({3: 2})]
        winner, _, _ = vote(voter, warps)
        assert winner == 3

    def test_none_when_no_votes(self):
        voter = MajorityVoter("full")
        assert vote(voter, [StubWarp({})]) is None

    def test_ignores_no_treelet_marker(self):
        voter = MajorityVoter("full")
        assert vote(voter, [StubWarp({-1: 10})]) is None

    def test_full_voter_always_agrees_with_itself(self):
        voter = MajorityVoter("full")
        for counts in ({1: 2}, {3: 1, 4: 9}, {7: 5, 2: 5}):
            vote(voter, [StubWarp(counts)])
        assert voter.stats.accuracy == 1.0

    def test_premerged_counts_decide_like_the_merge(self):
        """Over a tally, the voter picks the most votes, ties to the
        lowest treelet id, whatever the votes' arrival order, as the
        merge over the warps' counts does."""
        rng = random.Random(5)
        for _ in range(500):
            treelets = rng.sample(range(40), rng.randint(1, 12))
            counts = {t: rng.randint(1, 4) for t in treelets}
            best = max(counts.values())
            expected = min(t for t, c in counts.items() if c == best)
            decision = vote(MajorityVoter("full"), [StubWarp(counts)])
            assert decision == (expected, best, sum(counts.values()))
            assert decision == merge_scan("full", [StubWarp(counts)])[:3]


class TestPseudoVoter:
    def test_agrees_on_clear_majority(self):
        voter = MajorityVoter("pseudo")
        warps = [StubWarp({1: 10}), StubWarp({1: 8, 2: 2})]
        winner, _, _ = vote(voter, warps)
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
        winner, _, _ = vote(voter, warps)
        assert winner == 1  # pseudo: level two sees 1->9, 2->4
        assert voter.stats.decisions == 1
        assert voter.stats.agreements == 0  # full voter picks 2 (10 > 9)

    def test_accuracy_tracks_agreements(self):
        voter = MajorityVoter("pseudo")
        vote(voter, [StubWarp({1: 5})])  # agree
        vote(
            voter,
            [
                StubWarp({1: 3, 2: 2}),
                StubWarp({1: 3, 2: 2}),
                StubWarp({1: 3, 2: 2}),
                StubWarp({2: 4}),
            ],
        )  # disagree
        assert voter.stats.accuracy == pytest.approx(0.5)

    def test_reads_warps_only_when_pseudo(self):
        assert MajorityVoter("pseudo").reads_warps
        assert not MajorityVoter("full").reads_warps


#: one tally operation: ``(kind, treelet, other treelet)``.
TALLY_OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "move"]),
        st.integers(0, 7),
        st.integers(-1, 7),
    ),
    min_size=1,
    max_size=400,
)


class TestVoteTally:
    @settings(max_examples=150, deadline=None)
    @given(ops=TALLY_OPS)
    def test_top_and_total_match_brute_force(self, ops):
        """After every add, remove and move, the tally's winner and total
        equal a scan of its counts, and the lazy heap stays bounded."""
        tally = VoteTally()
        counts = Counter()
        for kind, treelet, other in ops:
            if kind == "add":
                tally.add(treelet)
                counts[treelet] += 1
            elif kind == "remove":
                if not counts[treelet]:
                    continue
                tally.remove(treelet)
                counts[treelet] -= 1
            else:  # a ray's vote moves from ``other`` to ``treelet``
                if other != -1 and not counts[other]:
                    other = -1
                tally.move(other, treelet)
                if other != -1:
                    counts[other] -= 1
                counts[treelet] += 1
            counts += Counter()  # drop zero entries
            assert tally.counts == dict(counts)
            assert tally.total == sum(counts.values())
            expected = (
                min(counts, key=lambda t: (-counts[t], t)) if counts else None
            )
            assert tally.top() == expected
            assert len(tally._heap) <= 2 * len(counts) + VoteTally.SLACK

    def test_heap_is_rebuilt_under_churn(self):
        """Moving votes back and forth pushes an entry per move; the heap
        is rebuilt before stale entries outgrow the live ones."""
        tally = VoteTally()
        for treelet in (1, 2, 3):
            tally.add(treelet)
        for step in range(1000):
            tally.move(1 + step % 3, 1 + (step + 1) % 3)
        assert len(tally._heap) <= 2 * 3 + VoteTally.SLACK
        assert tally.top() == min(
            tally.counts, key=lambda t: (-tally.counts[t], t)
        )
        assert tally.total == 3

    def test_move_to_or_from_no_vote(self):
        tally = VoteTally()
        tally.move(-1, 4)
        assert (tally.top(), tally.total) == (4, 1)
        tally.move(4, -1)
        assert (tally.top(), tally.total) == (None, 0)


def ray_votes(warp):
    """A stub of ``warp`` whose counts are its unfinished rays' lookahead
    treelets, counted afresh from the rays."""
    return StubWarp(Counter(
        ray.lookahead[ray.cursor]
        for ray in warp.rays
        if ray.state is not RayState.DONE
        and ray.lookahead[ray.cursor] != -1
    ))


#: the presets with a treelet prefetcher, hence a voter.
VOTER_PRESETS = sorted(
    name for name, technique in REPLAY_PRESETS.items()
    if technique.prefetch == "treelet"
)


@pytest.mark.parametrize("latency", [0, 32])
@pytest.mark.parametrize("mode", ["full", "pseudo"])
@pytest.mark.parametrize("preset", VOTER_PRESETS)
def test_replay_decisions_equal_the_merge_scan(
    preset, mode, latency, monkeypatch
):
    """Every decision of a smoke replay equals the merge-over-warps scan
    of the votes recounted from the rays, and the tally the RT unit
    keeps equals those votes merged."""
    decide = MajorityVoter.decide
    decisions = []

    def checked(self, tally, warps=(), cycle=0):
        warps = list(warps)
        stubs = [ray_votes(warp) for warp in warps]
        merged = Counter()
        for stub in stubs:
            merged.update(stub.alive_treelet_counts)
        assert tally.counts == dict(merged)
        assert tally.total == sum(merged.values())
        for warp, stub in zip(warps, stubs):
            if mode == "full":
                assert warp.alive_treelet_counts is None
            else:
                assert warp.alive_treelet_counts == stub.alive_treelet_counts
        expected = merge_scan(mode, stubs)
        agreements = self.stats.agreements
        decision = decide(self, tally, warps, cycle)
        if expected is None:
            assert decision is None
        else:
            winner, popularity, total, full_winner = expected
            assert decision == (winner, popularity, total)
            agreed = self.stats.agreements - agreements
            assert agreed == (winner == full_winner)
        decisions.append(decision)
        return decision

    monkeypatch.setattr(MajorityVoter, "decide", checked)
    technique = dataclasses.replace(
        REPLAY_PRESETS[preset], voter_mode=mode, voter_latency=latency
    )
    model, _, _, _ = build_gpu_model("WKND", technique, SMOKE)
    stats = model.run()
    assert any(decision is not None for decision in decisions)
    assert stats.voter_decisions == sum(d is not None for d in decisions)


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
