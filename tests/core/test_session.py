"""Tests for mutable lake sessions (incremental add/remove/refresh).

Covers the session API surface, the generation-counter invalidation
protocol, and the mutation edge cases: removing a table referenced by a
cached PK-FK link, zero-row / all-null additions, ``update_table`` flipping
a column's inferred type, and SRQL batches interleaved with mutations.
Cross-checking incremental results against cold fits on the three seed
lakes lives in ``test_incremental_parity.py``.
"""

from __future__ import annotations

import pytest

from repro.core.session import LakeSession, open_lake
from repro.core.system import CMDL, CMDLConfig
from repro.core.srql import Q
from repro.embed.hashing_embedder import HashingEmbedder
from repro.relational.catalog import DataLake, Document
from repro.relational.table import Column, Table


def session_config() -> CMDLConfig:
    """Fast, mutation-friendly config: no joint model, and the
    corpus-independent hashing embedder so incremental sketches are exactly
    what a cold fit would produce."""
    return CMDLConfig(use_joint=False, embedder=HashingEmbedder(seed=0))


@pytest.fixture()
def session(toy_lake) -> LakeSession:
    return open_lake(toy_lake, session_config())


@pytest.fixture()
def indexed_session(toy_lake) -> LakeSession:
    """Session pinned to the indexed path (the "auto" default resolves to
    exact at toy scale, which would leave no CandidateGenerator to test)."""
    config = session_config()
    config.discovery_strategy = "indexed"
    return open_lake(toy_lake, config)


CITIES_EXTRA = {
    "city": ["london", "madrid", "rome"],
    "mayor": ["sadiq", "jose", "roberto"],
}


# ------------------------------------------------------------------- open


class TestOpen:
    def test_cmdl_open_returns_session(self, toy_lake):
        cmdl = CMDL(session_config())
        session = cmdl.open(toy_lake)
        assert isinstance(session, LakeSession)
        assert session.engine is cmdl.engine
        assert session.generation == 0

    def test_open_lake_convenience(self, toy_lake):
        session = open_lake(toy_lake, session_config())
        assert session.discover(Q.joinable("drugs", top_n=2)).items

    def test_unfitted_cmdl_rejected(self, toy_lake):
        with pytest.raises(RuntimeError, match="fitted CMDL"):
            LakeSession(CMDL(session_config()), toy_lake)


# ------------------------------------------------- smoke: one add + query


class TestSmokeCycle:
    """The tier-1 smoke check: one add+query cycle must just work."""

    def test_add_then_query(self, session):
        before = session.discover(Q.joinable("drugs", top_n=2)).items
        session.add_table(Table.from_dict("capitals", CITIES_EXTRA))
        assert session.generation == 1
        hits = session.discover(Q.joinable("capitals", top_n=2))
        assert hits.ids() == ["cities"]  # shares the city value set
        # Pre-existing queries still serve identical results mid-session.
        assert session.discover(Q.joinable("drugs", top_n=2)).items == before


# ------------------------------------------------------------- mutators


class TestAddTable:
    def test_profile_and_uniqueness_updated(self, session):
        session.add_table(Table.from_dict("capitals", CITIES_EXTRA))
        assert "capitals.city" in session.profile.columns
        assert session.profile.columns_of_table("capitals") == [
            "capitals.city", "capitals.mayor",
        ]
        assert session.engine.uniqueness["capitals.mayor"] == 1.0

    def test_duplicate_name_rejected_atomically(self, session):
        with pytest.raises(ValueError, match="duplicate table"):
            session.add_table(Table.from_dict("drugs", {"x": ["1"]}))
        assert session.generation == 0  # nothing was committed

    def test_zero_row_table(self, session):
        session.add_table(Table("ghostly", [Column("name", []), Column("id", [])]))
        assert "ghostly.name" in session.profile.columns
        assert session.profile.columns["ghostly.name"].value_set == frozenset()
        # Still queryable, just never a hit.
        assert session.discover(Q.joinable("ghostly", top_n=2)).items == []
        assert session.discover(Q.joinable("drugs", top_n=2)).items

    def test_all_null_column(self, session):
        session.add_table(Table.from_dict(
            "sparse", {"val": ["na", "", "null"], "name": ["aspirin", "codeine", "x"]}
        ))
        sketch = session.profile.columns["sparse.val"]
        assert sketch.tags is not None and not sketch.tags.join_discovery
        hits = session.discover(Q.joinable("sparse", top_n=2))
        assert hits.ids() == ["drugs"]  # via the non-null name column


class TestAddDocument:
    def test_new_document_searchable(self, session):
        session.add_document(Document(
            doc_id="doc:morphine", title="Morphine receptor binding",
            text="Morphine binds the mu receptor strongly.",
        ))
        hits = session.discover(Q.content_search("morphine receptor", k=3))
        assert hits[1] == "doc:morphine"

    def test_df_filter_resync(self, session):
        """Adding documents can push a term over the corpus df cutoff; the
        session must re-sketch the *old* documents it drifts."""
        assert "inflammation" in session.profile.documents[
            "doc:aspirin"].content_bow.terms
        session.add_documents([
            Document(doc_id=f"doc:extra{i}", title=f"Extra {i}",
                     text="Chronic inflammation is discussed here.")
            for i in range(3)
        ])
        # 5 of 5 documents now mention it: dropped as non-discriminative,
        # including from the documents profiled before the mutation.
        assert "inflammation" not in session.profile.documents[
            "doc:aspirin"].content_bow.terms
        assert session.discover(Q.content_search("inflammation", k=5)).items == []


class TestRemove:
    def test_remove_table_forgets_everything(self, session):
        session.remove("cities")
        assert "cities" not in session.profile.table_columns
        assert "cities.city" not in session.profile.columns
        assert "cities.city" not in session.engine.uniqueness
        with pytest.raises(ValueError, match="unknown table"):
            session.discover(Q.joinable("cities", top_n=2))

    def test_remove_table_with_cached_pkfk_link(self, session):
        links = session.engine.pkfk_links()  # warms the sweep cache
        assert any(
            link.fk_column.startswith("targets.") for link in links
        )
        session.remove("targets")
        fresh = session.engine.pkfk_links()
        assert all(
            not link.pk_column.startswith("targets.")
            and not link.fk_column.startswith("targets.")
            for link in fresh
        )
        assert session.discover(Q.pkfk("drugs", top_n=2)).items == []

    def test_remove_document(self, session):
        session.remove("doc:aspirin")
        assert "doc:aspirin" not in session.profile.documents
        hits = session.discover(Q.content_search("aspirin", k=5))
        assert "doc:aspirin" not in hits.ids()

    def test_remove_unknown_raises(self, session):
        with pytest.raises(KeyError, match="no table or document"):
            session.remove("nonexistent")
        assert session.generation == 0


class TestUpdateTable:
    def test_type_change_is_absorbed(self, session):
        assert session.profile.columns["cities.population"].numeric is not None
        session.update_table(Table.from_dict("cities", {
            "city": ["london", "paris", "berlin", "madrid"],
            "population": ["huge", "large", "large", "large"],
        }))
        sketch = session.profile.columns["cities.population"]
        assert sketch.numeric is None
        assert "cities.population" not in session.indexes.column_numeric
        assert session.discover(Q.unionable("drugs", top_n=3)) is not None

    def test_value_change_changes_results(self, session):
        assert session.discover(Q.joinable("cities", top_n=2)).items == []
        session.update_table(Table.from_dict("cities", {
            "city": ["london", "paris"],
            "resident_drug": ["aspirin", "codeine"],
        }))
        assert session.discover(Q.joinable("cities", top_n=2)).ids() == ["drugs"]

    def test_update_unknown_raises(self, session):
        with pytest.raises(KeyError, match="no table"):
            session.update_table(Table.from_dict("ghost", {"x": ["1"]}))


# ------------------------------------------------ invalidation protocol


class TestInvalidationProtocol:
    def test_generation_bumps_per_mutation(self, session):
        session.add_table(Table.from_dict("capitals", CITIES_EXTRA))
        session.remove("capitals")
        assert session.generation == 2
        assert session.mutations == 2

    def test_invalidate_scope_validated(self, session):
        with pytest.raises(ValueError, match="invalid invalidate scope"):
            session.engine.invalidate("everything")

    def test_scope_pkfk_keeps_candidates(self, indexed_session):
        engine = indexed_session.engine
        engine.pkfk_links()
        generator = engine.candidates
        assert generator is not None
        engine.invalidate("pkfk")
        assert engine._pkfk_links == {}
        assert engine.candidates is generator
        assert engine.generation == 0

    def test_scope_candidates_drops_generator_not_generation(self, indexed_session):
        engine = indexed_session.engine
        scorer = engine.join_discovery
        engine.invalidate("candidates")
        assert engine.candidates is None
        assert engine.generation == 0
        assert engine.join_discovery is not scorer  # rebuilt lazily

    def test_scope_all_stamps_new_generation(self, indexed_session):
        engine = indexed_session.engine
        engine.invalidate("all")
        assert engine.generation == 1
        engine.joinable("drugs", top_n=2)  # rebuilds the generator lazily
        assert engine.candidates.generation == 1

    def test_stats_report_generation(self, session):
        session.discover(Q.joinable("drugs", top_n=2))
        assert session.engine.last_batch_stats.generation == 0
        session.add_table(Table.from_dict("capitals", CITIES_EXTRA))
        session.discover(Q.joinable("drugs", top_n=2))
        assert session.engine.last_batch_stats.generation == 1

    def test_batch_interleaved_with_mutations(self, session):
        workload = [Q.joinable("cities", top_n=2), Q.pkfk("drugs", top_n=2)]
        before = session.discover_batch(workload)
        assert before[0].items == []
        session.add_table(Table.from_dict("capitals", CITIES_EXTRA))
        after = session.discover_batch(workload)
        assert after[0].ids() == ["capitals"]
        assert after[1].items == before[1].items  # untouched operator
        session.remove("targets")
        assert session.discover_batch(workload)[1].items == []


# ------------------------------------------------------------- refresh


class TestRefresh:
    def test_refresh_restores_cold_fit_state(self, session, toy_lake):
        session.add_table(Table.from_dict("capitals", CITIES_EXTRA))
        old_engine = session.engine
        engine = session.refresh()
        assert engine is session.engine
        assert engine is not old_engine
        assert session.mutations == 0
        cold = CMDL(session_config()).fit(toy_lake)
        for q in (Q.joinable("capitals", top_n=3), Q.unionable("drugs", top_n=3)):
            assert session.discover(q).items == cold.discover(q).items

    def test_generation_monotonic_across_refresh(self, session):
        session.add_table(Table.from_dict("capitals", CITIES_EXTRA))
        assert session.generation == 1
        session.refresh()
        assert session.generation == 2


class TestPerSweepAutoStrategy:
    def test_pkfk_auto_reresolved_each_sweep(self, toy_lake, monkeypatch):
        """Under "auto" the exact-vs-indexed choice is made per sweep from
        the planner's size/density thresholds, not frozen at fit time."""
        config = session_config()
        config.discovery_strategy = "auto"
        session = open_lake(toy_lake, config)
        engine = session.engine

        engine.pkfk_links()
        assert set(engine._pkfk_links) == {"exact"}  # tiny lake: exact wins

        from repro.core.srql import planner

        monkeypatch.setattr(planner, "PKFK_EXACT_PAIR_LIMIT", 0)
        links = engine.pkfk_links()  # re-resolves: now past the "lake size" bar
        assert set(engine._pkfk_links) == {"exact", "indexed"}
        # Seed-scale probes reach full recall: same links either way.
        assert [(l.pk_column, l.fk_column) for l in links] == [
            (l.pk_column, l.fk_column)
            for l in engine.pkfk_links(strategy="exact")
        ]

    def test_mutation_refreshes_auto_resolution(self, toy_lake):
        config = session_config()
        config.discovery_strategy = "auto"
        session = open_lake(toy_lake, config)
        resolved_before = dict(session.engine.operator_strategy)
        session.add_table(Table.from_dict("capitals", CITIES_EXTRA))
        # Still below every crossover at toy scale, but re-resolved fresh.
        assert set(session.engine.operator_strategy) == set(resolved_before)


# ---------------------------------------------------------- joint model


@pytest.fixture(scope="module")
def joint_session(pharma_generated):
    """A session whose CMDL trained a joint model (frozen across mutations)."""
    cmdl = CMDL(CMDLConfig(sample_fraction=0.4, max_epochs=25, seed=0))
    return cmdl.open(pharma_generated.lake)


class TestJointDeltaIndexing:
    def test_mutations_keep_joint_space_live(self, joint_session):
        session = joint_session
        assert session.indexes.has_joint
        doc = sorted(session.profile.documents)[0]
        before = session.discover(
            Q.cross_modal(doc, top_n=3, representation="joint"))

        session.add_document(Document(
            doc_id="doc:joint-new", title="New enzyme inhibitor report",
            text="The inhibitor binds thymidylate synthase in the new assay.",
        ))
        session.add_table(Table.from_dict("trial_notes", {
            "note_id": [f"N{i}" for i in range(20)],
            "enzyme_name": [f"enzyme {i % 7}" for i in range(20)],
        }))
        # New DEs were embedded under the frozen model and delta-indexed.
        assert "doc:joint-new" in session.indexes.doc_joint
        text_cols = [
            c for c in session.profile.columns_of_table("trial_notes")
            if session.profile.columns[c].tags.text_discovery
        ]
        assert text_cols
        assert all(c in session.indexes.column_joint for c in text_cols)
        # Joint-representation queries still serve (unchanged for old DEs).
        after = session.discover(
            Q.cross_modal(doc, top_n=3, representation="joint"))
        assert after.items == before.items

        session.remove("trial_notes")
        session.remove("doc:joint-new")
        assert "doc:joint-new" not in session.indexes.doc_joint
        assert all(c not in session.indexes.column_joint for c in text_cols)


class TestGoldPairsRetention:
    def test_refresh_reuses_open_time_gold(self, toy_lake, monkeypatch):
        gold = [("doc:aspirin", "drugs.name", 1)]
        session = CMDL(session_config()).open(toy_lake, gold_pairs=gold)
        assert session.gold_pairs == gold
        seen = []
        original = CMDL.fit

        def spy(self, lake, gold_pairs=None):
            seen.append(gold_pairs)
            return original(self, lake, gold_pairs=gold_pairs)

        monkeypatch.setattr(CMDL, "fit", spy)
        session.refresh()
        assert seen == [gold]  # the open-time gold, not None
        replacement = [("doc:ibuprofen", "drugs.name", 1)]
        session.refresh(gold_pairs=replacement)
        assert seen == [gold, replacement]
        assert session.gold_pairs == replacement


class TestDrift:
    """session.drift(): OOV rate of post-fit DEs vs the fit vocabulary."""

    NEOLOGISMS = {"blarfle": ["wuggish", "snorfling", "quibblet"]}

    def test_zero_after_open(self, session):
        assert session.drift() == 0.0

    def test_novel_vocabulary_raises_drift(self, session):
        session.add_table(Table.from_dict("neologisms", self.NEOLOGISMS))
        assert session.drift() > 0.5  # nearly every term is unseen

    def test_known_vocabulary_keeps_drift_zero(self, session):
        session.add_document(Document(
            doc_id="doc:aspirin2",
            title="Aspirin and cox synthase",
            text="Aspirin inhibits cox synthase and reduces inflammation.",
        ))
        assert session.drift() == 0.0

    def test_removing_the_drifted_de_prunes_its_contribution(self, session):
        session.add_table(Table.from_dict("neologisms", self.NEOLOGISMS))
        assert session.drift() > 0.0
        session.remove("neologisms")
        # The lake is back to fit-time vocabulary: no spurious drift (and
        # so no spurious auto-refresh) from DEs that are no longer there.
        assert session.drift() == 0.0

    def test_update_replaces_drift_contribution(self, session):
        session.add_table(Table.from_dict("neologisms", self.NEOLOGISMS))
        assert session.drift() > 0.0
        session.update_table(Table.from_dict("neologisms", {
            "name": ["aspirin", "ibuprofen"],  # fit-time vocabulary
        }))
        drift = session.drift()
        assert drift < 0.5  # only the table-name metadata terms remain OOV

    def test_refresh_resets_drift(self, session):
        session.add_table(Table.from_dict("neologisms", self.NEOLOGISMS))
        assert session.drift() > 0.0
        session.refresh()
        assert session.drift() == 0.0

    def test_threshold_validated(self, toy_lake):
        with pytest.raises(ValueError, match="auto_refresh_threshold"):
            open_lake(toy_lake, session_config(), auto_refresh_threshold=2.0)

    def test_auto_refresh_triggers_on_threshold(self, toy_lake):
        session = open_lake(
            toy_lake, session_config(), auto_refresh_threshold=0.05
        )
        session.add_table(Table.from_dict("neologisms", self.NEOLOGISMS))
        # The mutation pushed drift past the bound: the session refreshed
        # itself (commit bump + refresh bump, mutation counter reset).
        assert session.mutations == 0
        assert session.drift() == 0.0
        assert session.generation == 2

    def test_below_threshold_no_refresh(self, toy_lake):
        # Drift must *exceed* the bound: at the maximum threshold of 1.0
        # even a fully-OOV mutation (drift == 1.0) never triggers.
        session = open_lake(
            toy_lake, session_config(), auto_refresh_threshold=1.0
        )
        session.add_table(Table.from_dict("neologisms", self.NEOLOGISMS))
        assert session.mutations == 1
        assert session.generation == 1
        assert 0.0 < session.drift() <= 1.0


class TestRefreshRestampsCandidates:
    def test_candidates_generation_matches_engine_after_refresh(self, indexed_session):
        session = indexed_session
        session.add_table(Table.from_dict("capitals", CITIES_EXTRA))
        engine = session.refresh()
        engine.joinable("drugs", top_n=2)  # materialise the generator
        assert engine.candidates is not None
        assert engine.candidates.generation == engine.generation
