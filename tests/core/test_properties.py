"""Property-based tests on core discovery invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.discovery import DiscoveryResultSet
from repro.core.pkfk import PKFKLink, PKFKLinkIndex
from repro.core.profiler import Profiler
from repro.relational.catalog import DataLake, Document
from repro.relational.table import Table

values = st.text(alphabet="abcdefgh", min_size=1, max_size=4)
columns = st.lists(values, min_size=3, max_size=12)


def lake_from_columns(cols: dict[str, list[str]]) -> DataLake:
    lake = DataLake("prop")
    for i, (name, vals) in enumerate(cols.items()):
        lake.add_table(Table.from_dict(f"t{i}", {name: vals}))
    lake.add_document(Document("d0", "title", "some text about " + " ".join(
        v for vals in cols.values() for v in vals[:2])))
    return lake


class TestJoinScoreProperties:
    @settings(max_examples=15, deadline=None)
    @given(columns, columns)
    def test_join_score_symmetric_and_bounded(self, a, b):
        from repro.core.joinability import JoinDiscovery

        lake = lake_from_columns({"col_a": a, "col_b": b})
        profile = Profiler(embedding_dim=8, num_hashes=32, seed=0).profile(lake)
        jd = JoinDiscovery(profile)
        s_ab = jd.score("t0.col_a", "t1.col_b")
        s_ba = jd.score("t1.col_b", "t0.col_a")
        assert s_ab == pytest.approx(s_ba)
        assert 0.0 <= s_ab <= 1.0

    @settings(max_examples=15, deadline=None)
    @given(columns)
    def test_identical_columns_perfect_join(self, a):
        from repro.core.joinability import JoinDiscovery

        lake = lake_from_columns({"col_a": a, "col_b": list(a)})
        profile = Profiler(embedding_dim=8, num_hashes=32, seed=0).profile(lake)
        jd = JoinDiscovery(profile)
        assert jd.score("t0.col_a", "t1.col_b") == pytest.approx(1.0)


class TestUnionScoreProperties:
    @settings(max_examples=10, deadline=None)
    @given(columns, columns)
    def test_ensemble_bounded(self, a, b):
        from repro.core.unionability import UnionDiscovery

        lake = lake_from_columns({"col_a": a, "col_b": b})
        profile = Profiler(embedding_dim=8, num_hashes=32, seed=0).profile(lake)
        ud = UnionDiscovery(profile)
        score = ud.ensemble_score("t0.col_a", "t1.col_b")
        assert -1.0 <= score <= 1.0 + 1e-9

    @settings(max_examples=10, deadline=None)
    @given(columns)
    def test_self_union_is_top(self, a):
        from repro.core.unionability import UnionDiscovery

        lake = lake_from_columns({"col_a": a, "col_a2": list(a),
                                  "zzz": ["qqq"] * len(a)})
        profile = Profiler(embedding_dim=8, num_hashes=32, seed=0).profile(lake)
        ud = UnionDiscovery(profile)
        hits = ud.unionable_tables("t0", k=3)
        assert hits and hits[0][0] == "t1"


class TestDRSAlgebra:
    items = st.lists(
        st.tuples(st.text(alphabet="abc", min_size=1, max_size=2),
                  st.floats(min_value=0.01, max_value=10)),
        max_size=6, unique_by=lambda kv: kv[0],
    )

    @given(items, items)
    def test_intersect_subset_of_unite(self, a, b):
        da = DiscoveryResultSet(a, operation="a")
        db = DiscoveryResultSet(b, operation="b")
        inter = set(da.intersect(db).ids())
        union = set(da.unite(db).ids())
        assert inter <= union

    @given(items, items)
    def test_unite_commutative_in_ids(self, a, b):
        da = DiscoveryResultSet(a, operation="a")
        db = DiscoveryResultSet(b, operation="b")
        assert set(da.unite(db).ids()) == set(db.unite(da).ids())

    @given(items)
    def test_self_intersect_identity_ids(self, a):
        da = DiscoveryResultSet(a, operation="a")
        assert set(da.intersect(da).ids()) == set(da.ids())


class TestProfilerInvariants:
    @settings(max_examples=10, deadline=None)
    @given(columns)
    def test_encoding_dimension_fixed(self, a):
        lake = lake_from_columns({"col_a": a})
        profile = Profiler(embedding_dim=16, num_hashes=32, seed=0).profile(lake)
        for sketch in list(profile.columns.values()) + list(
                profile.documents.values()):
            assert sketch.encoding.shape == (32,)
            assert np.isfinite(sketch.encoding).all()

    @settings(max_examples=10, deadline=None)
    @given(columns)
    def test_value_set_matches_column(self, a):
        lake = lake_from_columns({"col_a": a})
        profile = Profiler(embedding_dim=8, num_hashes=32, seed=0).profile(lake)
        sketch = profile.columns["t0.col_a"]
        assert sketch.value_set == frozenset(
            lake.column("t0.col_a").distinct_values)


def scan_tables_for(links, table_name, table_of):
    """The retired per-query linear scan over the whole link list — the
    reference :class:`PKFKLinkIndex` must reproduce byte for byte."""
    best: dict[str, float] = {}
    for link in links:
        pk_table = table_of(link.pk_column)
        fk_table = table_of(link.fk_column)
        if pk_table == table_name and fk_table != table_name:
            best[fk_table] = max(best.get(fk_table, 0.0), link.score)
        elif fk_table == table_name and pk_table != table_name:
            best[pk_table] = max(best.get(pk_table, 0.0), link.score)
    return sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))


class TestPKFKLinkIndex:
    # Few tables / columns / score levels: ties, several links per table
    # pair, tables on both the PK and FK side and same-table links all
    # turn up within a handful of examples.
    column_ids = st.builds(
        "t{}.c{}".format, st.integers(0, 3), st.integers(0, 2)
    )
    levels = st.sampled_from([0.0, 0.5, 1.0])
    link_lists = st.lists(
        st.builds(PKFKLink, column_ids, column_ids, levels, levels, levels),
        max_size=24,
    )

    @settings(max_examples=200, deadline=None)
    @given(link_lists, link_lists)
    def test_tables_for_equals_linear_scan(self, shard_a, shard_b):
        def table_of(column_id):
            return column_id.split(".")[0]

        index = PKFKLinkIndex.merged([shard_a, shard_b], table_of)
        assert sorted(index.links, key=id) == sorted(shard_a + shard_b, key=id)
        keys = [(-l.score, l.pk_column, l.fk_column) for l in index.links]
        assert keys == sorted(keys)
        for table in ("t0", "t1", "t2", "t3", "t-unknown"):
            assert index.tables_for(table) == scan_tables_for(
                index.links, table, table_of
            )
        assert PKFKLinkIndex(index.links, table_of).links is index.links
