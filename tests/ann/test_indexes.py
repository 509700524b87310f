"""Tests for the exact and random-projection-forest ANN indexes."""

import numpy as np
import pytest

from repro.ann.exact import ExactIndex
from repro.ann.rpforest import RPForestIndex


@pytest.fixture(scope="module")
def points() -> np.ndarray:
    return np.random.default_rng(0).standard_normal((200, 16))


@pytest.fixture(scope="module")
def exact(points) -> ExactIndex:
    idx = ExactIndex(dim=16)
    for i, v in enumerate(points):
        idx.add(f"p{i}", v)
    return idx.build()


@pytest.fixture(scope="module")
def forest(points) -> RPForestIndex:
    idx = RPForestIndex(dim=16, num_trees=8, leaf_size=8, seed=0)
    for i, v in enumerate(points):
        idx.add(f"p{i}", v)
    return idx.build()


class TestExactIndex:
    def test_self_is_nearest(self, exact, points):
        assert exact.query(points[17], k=1)[0][0] == "p17"

    def test_scores_descending(self, exact, points):
        result = exact.query(points[0], k=10)
        scores = [s for _, s in result]
        assert scores == sorted(scores, reverse=True)

    def test_exclude(self, exact, points):
        result = exact.query(points[3], k=5, exclude={"p3"})
        assert all(k != "p3" for k, _ in result)

    def test_k_larger_than_index(self):
        idx = ExactIndex(dim=2)
        idx.add("a", np.array([1.0, 0.0]))
        assert len(idx.query(np.array([1.0, 0.0]), k=10)) == 1

    def test_empty_index(self):
        assert ExactIndex(dim=4).query(np.zeros(4), k=3) == []

    def test_dim_mismatch_rejected(self):
        idx = ExactIndex(dim=4)
        with pytest.raises(ValueError, match="dim"):
            idx.add("a", np.zeros(5))

    def test_zero_vector_handled(self):
        idx = ExactIndex(dim=3)
        idx.add("z", np.zeros(3))
        idx.add("a", np.array([1.0, 0, 0]))
        result = idx.query(np.array([1.0, 0, 0]), k=2)
        assert result[0][0] == "a"


class TestRPForest:
    def test_self_is_nearest(self, forest, points):
        assert forest.query(points[42], k=1)[0][0] == "p42"

    def test_recall_against_exact(self, forest, exact, points):
        """The forest must recover most of the exact top-10."""
        recalls = []
        for i in range(0, 50, 5):
            true_top = {k for k, _ in exact.query(points[i], k=10)}
            approx_top = {k for k, _ in forest.query(points[i], k=10)}
            recalls.append(len(true_top & approx_top) / 10)
        assert np.mean(recalls) > 0.8

    def test_search_k_improves_recall(self, points, exact):
        idx = RPForestIndex(dim=16, num_trees=2, leaf_size=4, seed=1)
        for i, v in enumerate(points):
            idx.add(f"p{i}", v)
        idx.build()
        q = points[7]
        true_top = {k for k, _ in exact.query(q, k=10)}
        small = {k for k, _ in idx.query(q, k=10, search_k=10)}
        large = {k for k, _ in idx.query(q, k=10, search_k=200)}
        assert len(large & true_top) >= len(small & true_top)

    def test_exclude(self, forest, points):
        result = forest.query(points[3], k=5, exclude={"p3"})
        assert all(k != "p3" for k, _ in result)

    def test_empty_index(self):
        idx = RPForestIndex(dim=4)
        assert idx.build().query(np.zeros(4), k=3) == []

    def test_auto_build_on_query(self, points):
        idx = RPForestIndex(dim=16, seed=0)
        for i, v in enumerate(points[:20]):
            idx.add(f"p{i}", v)
        assert idx.query(points[0], k=1)[0][0] == "p0"

    def test_add_invalidates_build(self, points):
        idx = RPForestIndex(dim=16, seed=0)
        for i, v in enumerate(points[:10]):
            idx.add(f"p{i}", v)
        idx.build()
        idx.add("new", points[11])
        assert "new" in [k for k, _ in idx.query(points[11], k=1)]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RPForestIndex(dim=0)
        with pytest.raises(ValueError):
            RPForestIndex(dim=4, num_trees=0)
        with pytest.raises(ValueError):
            RPForestIndex(dim=4, leaf_size=1)

    def test_dim_mismatch_rejected(self):
        idx = RPForestIndex(dim=4)
        with pytest.raises(ValueError, match="dim"):
            idx.add("a", np.zeros(3))

    def test_duplicate_points_ok(self):
        idx = RPForestIndex(dim=4, num_trees=4, leaf_size=2, seed=0)
        v = np.array([1.0, 2.0, 3.0, 4.0])
        for i in range(20):
            idx.add(f"dup{i}", v)
        idx.build()
        assert len(idx.query(v, k=5)) == 5

    def test_deterministic_given_seed(self, points):
        def build():
            idx = RPForestIndex(dim=16, num_trees=4, seed=5)
            for i, v in enumerate(points[:50]):
                idx.add(f"p{i}", v)
            return idx.build().query(points[3], k=5)

        assert build() == build()

    def test_restore_ignores_retired_state_keys(self, forest, points):
        # Catalogs saved while the forest had a second planting layout
        # carry "backend" / "trees" keys; restore must read around them.
        state = forest.persistent_state()
        assert "backend" not in state and "trees" not in state
        restored = RPForestIndex.restore_state(
            {**state, "backend": "array", "trees": []}
        )
        for i in (0, 77, 199):
            assert restored.query(points[i], k=5) == forest.query(points[i], k=5)


class TestRPForestMutation:
    def _built(self, points, n=80):
        idx = RPForestIndex(dim=16, num_trees=4, leaf_size=8, seed=0)
        for i, v in enumerate(points[:n]):
            idx.add(f"p{i}", v)
        return idx.build()

    def test_insert_found_without_replant(self, points):
        idx = self._built(points)
        idx.insert("fresh", points[100])
        # The fresh point is scanned exactly: it must be its own nearest hit.
        assert idx.query(points[100], k=1)[0][0] == "fresh"
        assert len(idx) == 81

    def test_insert_duplicate_rejected(self, points):
        idx = self._built(points)
        with pytest.raises(ValueError, match="duplicate"):
            idx.insert("p0", points[0])

    def test_delete_tombstones(self, points):
        idx = self._built(points)
        idx.delete("p7")
        assert "p7" not in idx
        assert len(idx) == 79
        assert all(k != "p7" for k, _ in idx.query(points[7], k=10))

    def test_delete_missing_raises(self, points):
        idx = self._built(points)
        with pytest.raises(KeyError, match="no ANN entry"):
            idx.delete("ghost")

    def test_replant_past_churn_bar(self, points):
        idx = self._built(points, n=20)
        for i in range(40, 47):
            idx.insert(f"f{i}", points[i])
        # Fresh inserts exceeded 25% of the forest: trees were re-planted.
        assert idx._fresh == set()
        assert len(idx) == 27
        assert idx.query(points[44], k=1)[0][0] == "f44"

    def test_reinsert_after_delete(self, points):
        idx = self._built(points, n=20)
        idx.delete("p3")
        idx.insert("p3", points[50])
        assert idx.query(points[50], k=1)[0][0] == "p3"


class TestIntervalRemove:
    def test_remove_then_query(self):
        from repro.ann.intervals import IntervalIndex
        from repro.relational.stats import numeric_stats

        idx = IntervalIndex()
        idx.add("a", numeric_stats([0.0, 1.0, 2.0]))
        idx.add("b", numeric_stats([100.0, 101.0]))
        idx.build()
        idx.remove("a")
        assert "a" not in idx
        assert len(idx) == 1
        hits = idx.query(numeric_stats([0.5, 1.5]))
        assert "a" not in hits

    def test_remove_missing_raises(self):
        from repro.ann.intervals import IntervalIndex

        with pytest.raises(KeyError, match="no interval entry"):
            IntervalIndex().remove("ghost")


class TestFreshDoesNotStarveBudget:
    def test_planted_points_found_with_large_fresh_set(self, points):
        """Fresh points are scanned ON TOP of the tree budget: a big fresh
        set must not evict planted points from the candidate pool."""
        idx = RPForestIndex(dim=16, num_trees=4, leaf_size=8, seed=0)
        for i, v in enumerate(points[:80]):
            idx.add(f"p{i}", v)
        idx.build()
        # 17 fresh inserts: above the k=1 budget (16), below the replant bar.
        for i in range(100, 117):
            idx.insert(f"f{i}", points[i])
        assert idx._fresh  # replant did not fire; fresh path is live
        # An exact planted vector must still be its own nearest neighbour.
        assert idx.query(points[5], k=1)[0][0] == "p5"
        # And an exact fresh vector must be too.
        assert idx.query(points[105], k=1)[0][0] == "f105"
