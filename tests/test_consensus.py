import random

import numpy as np
import pytest

from summ import consensus
from summ.consensus import (
    WcsResult,
    _project_row,
    borda_aggregate,
    cwcs_aggregate,
    cwcs_raw_weights,
    cwcs_weights,
    oracle_select,
    wcs_aggregate,
)
from summ.rouge import prepare_text
from summ.summarizers import RankList

from reference.consensus import wcs_grid_minimum
from reference.fixture import permutation_rank_lists
from reference.rouge import ngram_counts


def unigrams(summaries):
    return [ngram_counts(s, 1) for s in summaries]


def peer_weights(summaries):
    return cwcs_weights(cwcs_raw_weights(unigrams(summaries)))


def ranklist_with_ranks(ranks):
    """Build a rank list whose ranks equal the given permutation."""
    n = len(ranks)
    return RankList.from_scores([n - r for r in ranks])


class TestBorda:
    def test_single_list_identity(self):
        rl = ranklist_with_ranks([2, 1, 3])
        result = borda_aggregate([rl])
        assert result.ranks == rl.ranks
        assert isinstance(result, RankList)

    def test_hand_example(self):
        a = ranklist_with_ranks([1, 2, 3])
        b = ranklist_with_ranks([3, 1, 2])
        result = borda_aggregate([a, b])
        # mean ranks (2.0, 1.5, 2.5) -> order s1, s0, s2
        assert result.order() == [1, 0, 2]

    def test_identical_lists(self):
        rl = ranklist_with_ranks([4, 1, 3, 2])
        result = borda_aggregate([rl, rl, rl])
        assert result.ranks == rl.ranks

    def test_mismatched_length(self):
        with pytest.raises(ValueError):
            borda_aggregate(
                [ranklist_with_ranks([1, 2]), ranklist_with_ranks([1, 2, 3])]
            )

    def test_no_rank_list(self):
        with pytest.raises(ValueError, match="at least one rank list is required"):
            borda_aggregate([])

    def test_input_order_invariance(self):
        rng = random.Random(67)
        for _ in range(50):
            n = rng.randint(2, 8)
            lists = permutation_rank_lists(rng, rng.randint(2, 5), n)
            result = borda_aggregate(lists)
            shuffled = lists[:]
            rng.shuffle(shuffled)
            assert borda_aggregate(shuffled).ranks == result.ranks

    def test_sentence_relabeling_maps_output(self):
        # applying one index bijection to every input maps the output ranks
        # by the same bijection, up to ties resolved by the new indices
        rng = random.Random(68)
        for _ in range(30):
            n = rng.randint(2, 7)
            rank_rows = []
            for _ in range(rng.randint(2, 4)):
                ranks = list(range(1, n + 1))
                rng.shuffle(ranks)
                rank_rows.append(ranks)
            mapping = list(range(n))
            rng.shuffle(mapping)  # old index i -> new index mapping[i]
            lists = [ranklist_with_ranks(r) for r in rank_rows]
            relabeled = []
            for ranks in rank_rows:
                moved = [0] * n
                for old, rank in enumerate(ranks):
                    moved[mapping[old]] = rank
                relabeled.append(ranklist_with_ranks(moved))
            base = borda_aggregate(lists).scores
            mapped = borda_aggregate(relabeled).scores
            assert all(
                mapped[mapping[old]] == base[old] for old in range(n)
            )


def project(y):
    """``_project_row`` on ``y``, as a tuple."""
    return tuple(_project_row(y))


class TestProjectSimplex:
    def test_feasible_point_unchanged(self):
        assert project([0.5, 0.5]) == (0.5, 0.5)

    def test_hand_examples(self):
        assert project([2.0, 0.0]) == pytest.approx((1.0, 0.0))
        assert project([0.4, 0.3]) == pytest.approx((0.55, 0.45))


class TestWcs:
    def test_identical_lists_fixed_point(self):
        rl = ranklist_with_ranks([2, 1, 3])
        result = wcs_aggregate([rl, rl, rl], 0.5)
        assert isinstance(result, WcsResult)
        assert result.weights == pytest.approx((1 / 3,) * 3)
        assert result.objective == pytest.approx(0.5 / 3)
        assert result.rank_list.ranks == rl.ranks
        assert result.converged

    def test_high_lambda_forces_uniform(self):
        a = ranklist_with_ranks([1, 2, 3, 4])
        b = ranklist_with_ranks([4, 3, 2, 1])
        c = ranklist_with_ranks([1, 3, 2, 4])
        result = wcs_aggregate([a, b, c], 0.999)
        assert result.weights == pytest.approx((1 / 3,) * 3, abs=1e-2)

    def test_derived_symmetric_instance(self):
        a = ranklist_with_ranks([1, 2])  # normalized (0, 1)
        b = ranklist_with_ranks([2, 1])  # normalized (1, 0)
        result = wcs_aggregate([a, b], 0.5)
        assert result.weights == pytest.approx((0.5, 0.5))
        assert result.objective == pytest.approx(0.5)
        grid = wcs_grid_minimum(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.5, random.Random(0))
        assert result.objective <= grid + 1e-3

    def test_all_2x2_instances_match_dense_grid(self):
        rng = random.Random(0)
        perms = [[1, 2], [2, 1]]
        for pa in perms:
            for pb in perms:
                lists = [ranklist_with_ranks(pa), ranklist_with_ranks(pb)]
                result = wcs_aggregate(lists, 0.5)
                rows = np.array([
                    [(r - 1) for r in pa], [(r - 1) for r in pb]
                ], dtype=float)
                grid = wcs_grid_minimum(rows, 0.5, rng)
                assert result.objective <= grid + 1e-3

    def test_lambda_validation(self):
        a = ranklist_with_ranks([1, 2, 3])
        b = ranklist_with_ranks([1, 3, 2])
        wcs_aggregate([a, b], 0.0)
        for lambda_ in (1.0, -0.1, float("nan")):
            with pytest.raises(ValueError, match=r"lambda must lie in \[0, 1\)"):
                wcs_aggregate([a, b], lambda_)

    def test_non_convergence_flag(self, monkeypatch):
        monkeypatch.setattr(consensus, "WCS_MAX_ITER", 1)
        a = ranklist_with_ranks([1, 2, 3, 4])
        b = ranklist_with_ranks([4, 3, 2, 1])
        result = wcs_aggregate([a, b], 0.5)
        assert not result.converged
        assert result.iterations == 1

    def test_needs_two_lists(self):
        with pytest.raises(ValueError):
            wcs_aggregate([ranklist_with_ranks([1, 2])], 0.5)


class TestCwcsWeights:
    def test_disjoint_third_summary(self):
        s1 = [["storm", "hit"]]
        s3 = [["vote", "held"]]
        weights = peer_weights([s1, s1, s3])
        assert weights == pytest.approx((0.5, 0.5, 0.0))

    def test_two_summaries_half_overlap(self):
        weights = peer_weights([[["a", "b"]], [["a", "c"]]])
        assert weights == pytest.approx((0.5, 0.5))

    def test_all_disjoint_falls_back_to_uniform(self):
        weights = peer_weights([[["a"]], [["b"]], [["c"]]])
        assert weights == pytest.approx((1 / 3,) * 3)

    def test_peers_required(self):
        with pytest.raises(ValueError, match="peers required"):
            peer_weights([[["a"]]])

    def test_duplicate_system_raises_raw_weight(self):
        base = [[["a", "b", "c"]], [["x", "y", "z"]]]
        before = cwcs_raw_weights(unigrams(base))
        after = cwcs_raw_weights(unigrams(base + [base[0]]))
        assert after[0] >= before[0]


class TestCwcsAggregate:
    def test_hand_example(self):
        a = ranklist_with_ranks([1, 2, 3])
        b = ranklist_with_ranks([3, 1, 2])
        result = cwcs_aggregate([a, b], (0.75, 0.25))
        assert result.scores == pytest.approx((0.75, 0.625, 0.125))
        assert result.order() == [0, 1, 2]

    def test_dimension_mismatch(self):
        lists = [ranklist_with_ranks([1, 2]), ranklist_with_ranks([2, 1])]
        with pytest.raises(ValueError):
            cwcs_aggregate(lists, (1.0,))


class TestOracleSelect:
    def test_verbatim_reference_wins(self):
        reference = prepare_text("The storm hit the coast hard.")
        verbatim = [reference]
        other = [prepare_text("Voters elected a new mayor.")]
        index, score = oracle_select(
            unigrams([other, verbatim]), unigrams([[reference]]), n=1
        )
        assert index == 1
        assert score.recall == 1.0

    def test_tie_goes_to_first(self):
        reference = prepare_text("storm coast flood")
        candidate = [["storm", "coast", "flood"]]
        index, _ = oracle_select(
            unigrams([candidate, candidate, candidate]), unigrams([[reference]])
        )
        assert index == 0

    def test_requires_references(self):
        with pytest.raises(ValueError):
            oracle_select(unigrams([[["a"]]]), [])
