"""PK-FK join discovery (paper §5.1, §6.2).

A PK-FK link is an inclusion dependency: the FK column's values must be
(largely) contained in the PK column; the PK column must look like a key
(cardinality ratio close to 1); and the two columns should have similar
names. CMDL scores inclusion with Jaccard *set containment* (vs Aurum's
Jaccard similarity), which lifts recall when FKs cover only part of the key
domain; schema-name similarity filters out coincidental containments.
Numeric columns use the numeric-overlap measure (same as Aurum, hence the
identical ChEBI results in Table 4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.candidates import CandidateGenerator, resolve_strategy
from repro.core.profiler import DESketch, Profile
from repro.relational.stats import numeric_overlap
from repro.text.similarity import cached_name_similarity, jaccard_containment


@dataclass(frozen=True)
class PKFKLink:
    """A discovered PK-FK relationship with its component scores."""

    pk_column: str
    fk_column: str
    containment: float
    name_score: float
    pk_uniqueness: float

    @property
    def score(self) -> float:
        return self.containment * self.name_score * self.pk_uniqueness


def _link_order(link: PKFKLink) -> tuple:
    """Canonical link order: best score first, ids break ties."""
    return (-link.score, link.pk_column, link.fk_column)


class PKFKLinkIndex:
    """A lake-wide PK-FK link list with its table-level adjacency.

    The link graph is the EKG's PK-FK edge set (paper §2.1): it is merged
    once per generation scope and a ``pkfk`` read is a neighbour lookup.
    ``links`` is the canonical sorted list, kept as the very object passed
    in; ``table_of`` resolves a column id to its table name (a profile
    lookup for the monolithic engine, the merged catalog's for the sharded
    and served executors). Immutable after construction, so one index may
    be shared by concurrent readers.
    """

    def __init__(self, links: list[PKFKLink], table_of):
        self.links = links
        best: dict[str, dict[str, float]] = {}
        for link in links:
            pk_table = table_of(link.pk_column)
            fk_table = table_of(link.fk_column)
            if pk_table == fk_table:
                continue
            score = link.score
            for table, other in ((pk_table, fk_table), (fk_table, pk_table)):
                row = best.setdefault(table, {})
                row[other] = max(row.get(other, 0.0), score)
        self._ranked = {
            table: sorted(row.items(), key=lambda kv: (-kv[1], kv[0]))
            for table, row in best.items()
        }

    @classmethod
    def merged(cls, link_lists, table_of) -> "PKFKLinkIndex":
        """The index over per-shard link lists (each FK's owner shard
        reports its links, so the lists are disjoint)."""
        links = [link for link_list in link_lists for link in link_list]
        links.sort(key=_link_order)
        return cls(links, table_of)

    def tables_for(self, table_name: str) -> list[tuple[str, float]]:
        """Tables PK-FK-linked to ``table_name`` — on either side of a
        link — with the best link score per table, ranked ``(-score,
        name)``. The shared list: slice it, do not mutate it."""
        return self._ranked.get(table_name, [])


class PKFKDiscovery:
    """Discovers PK-FK links over all tagged column pairs of a profile."""

    def __init__(
        self,
        profile: Profile,
        uniqueness_map: dict[str, float],
        containment_threshold: float = 0.85,
        name_threshold: float = 0.35,
        key_uniqueness_threshold: float = 0.85,
        numeric_threshold: float = 0.85,
        candidates: CandidateGenerator | None = None,
        strategy: str | None = None,
    ):
        # Note the key-uniqueness default of 0.85 (not 1.0): real lakes
        # contain duplicated keys (DrugBank, §6.2), so CMDL accepts
        # near-keys — raising recall at some precision cost, exactly the
        # DrugBank trade-off of Table 4.
        """``uniqueness_map`` gives distinct/non-missing per column id.

        ``strategy="indexed"`` restricts the FK candidates of each PK to the
        index probes (name, value containment, numeric range) instead of all
        tagged columns; ``strategy="exact"`` is the brute-force oracle.
        """
        self.profile = profile
        self.uniqueness = uniqueness_map
        self.containment_threshold = containment_threshold
        self.name_threshold = name_threshold
        self.key_uniqueness_threshold = key_uniqueness_threshold
        self.numeric_threshold = numeric_threshold
        self.candidates = candidates
        self.strategy = resolve_strategy(strategy, candidates)

    def candidate_pk_entries(self) -> list[tuple["DESketch", float]]:
        """Local candidate-PK (sketch, uniqueness) pairs, sorted by id.

        PK candidacy — pkfk-tagged and key-like — is a per-column property,
        so this is the gather unit of the sharded sweep: every shard
        contributes its local PKs and receives the lake-wide set back.
        """
        out = []
        for cid in sorted(self.profile.columns):
            sketch = self.profile.columns[cid]
            if sketch.tags is None or not sketch.tags.pkfk_discovery:
                continue
            uniqueness = self.uniqueness.get(cid, 0.0)
            if uniqueness >= self.key_uniqueness_threshold:
                out.append((sketch, uniqueness))
        return out

    def _candidate_fks(self) -> list[str]:
        return sorted(
            cid for cid, sketch in self.profile.columns.items()
            if sketch.tags is not None and sketch.tags.pkfk_discovery
        )

    def discover(self, table_scope: set[str] | None = None) -> list[PKFKLink]:
        """All PK-FK links (optionally restricted to a table subset)."""
        return self.links_for(self.candidate_pk_entries(), table_scope=table_scope)

    def links_for(
        self,
        pk_entries: list[tuple["DESketch", float]],
        table_scope: set[str] | None = None,
    ) -> list[PKFKLink]:
        """PK-FK links between the given PK entries and *local* FK columns.

        ``pk_entries`` are ``(sketch, uniqueness)`` pairs and may include
        foreign PKs (columns profiled on other shards): every pair check is
        a pure function of the two sketches. :meth:`discover` is this over
        the local PK set; the sharded sweep broadcasts the lake-wide PK set
        to every shard and unions the per-shard link lists — each (PK, FK)
        pair is checked exactly once, by the shard owning the FK.
        """
        links: list[PKFKLink] = []
        if table_scope is not None:
            pk_entries = [
                (sketch, uniqueness) for sketch, uniqueness in pk_entries
                if sketch.table_name in table_scope
            ]
        if self.strategy == "indexed":
            fks = []  # unused: each PK gets its own pool below
            pools = self.candidates.pkfk_candidates_batch_for(
                [sketch for sketch, _ in pk_entries],
                numeric_threshold=self.numeric_threshold,
                table_scope=table_scope,
            )
        else:
            fks = self._candidate_fks()
        for pk_sketch, pk_uniqueness in pk_entries:
            pk = pk_sketch.de_id
            if self.strategy == "indexed":
                # No need to sort the pool: every surviving pair is appended
                # and the final links.sort canonicalises the output order.
                fk_pool = pools[pk]
            else:
                fk_pool = fks
            for fk in fk_pool:
                fk_sketch = self.profile.columns[fk]
                if fk == pk or fk_sketch.table_name == pk_sketch.table_name:
                    continue
                if table_scope is not None and fk_sketch.table_name not in table_scope:
                    continue
                name_score = cached_name_similarity(
                    pk_sketch.column_name, fk_sketch.column_name
                )
                if name_score < self.name_threshold:
                    continue
                if pk_sketch.numeric is not None and fk_sketch.numeric is not None:
                    inclusion = numeric_overlap(fk_sketch.numeric, pk_sketch.numeric)
                    threshold = self.numeric_threshold
                else:
                    inclusion = jaccard_containment(
                        fk_sketch.value_set, pk_sketch.value_set
                    )
                    threshold = self.containment_threshold
                if inclusion < threshold:
                    continue
                links.append(
                    PKFKLink(
                        pk_column=pk,
                        fk_column=fk,
                        containment=inclusion,
                        name_score=name_score,
                        pk_uniqueness=pk_uniqueness,
                    )
                )
        links.sort(key=_link_order)
        return links
