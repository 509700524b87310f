"""The CMDL facade: profile -> index -> label -> train -> discover.

:class:`CMDL` wires every component of Figure 2 into a single ``fit`` call
over a :class:`~repro.relational.catalog.DataLake`, returning a
:class:`~repro.core.discovery.DiscoveryEngine`. Diagnostics from each stage
(profiling times, labeling report, joint-training result) are retained on
the instance for the efficiency experiments (§6.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.discovery import DiscoveryEngine
from repro.core.indexes import IndexCatalog
from repro.core.joint.minibatch import MiniBatchGenerator
from repro.core.joint.model import JointRepresentationModel
from repro.core.joint.trainer import JointTrainer, TrainingResult
from repro.core.joint.triplets import TripletGenerator
from repro.core.labeling import LabelingReport, TrainingDatasetGenerator
from repro.core.profiler import FitStats, Profile, Profiler
from repro.core.srql.planner import (
    validate_operator_strategies,
    validate_strategy,
)
from repro.relational.catalog import DataLake
from repro.utils.timing import Timer
from repro.weaklabel.lf import LabelingFunction


@dataclass
class CMDLConfig:
    """All knobs, defaulted to the paper's settings (§6, "Default Settings").

    * ``sample_fraction`` = 10% of DEs for the labeling sample;
    * ``batch_fraction`` = 8% mini-batch matrix size;
    * ``hard_sampling`` = "average" cutoff, enabled by default;
    * ``margin`` (triplet loss beta) = 0.2;
    * joint model: 200-d input (2 x 100-d solo), 100-d output.
    """

    embedding_dim: int = 100
    num_hashes: int = 128
    pooling: str = "mean"
    ranker: str = "bm25"

    use_joint: bool = True
    sample_fraction: float = 0.1
    top_k_probe: int = 10
    gold_relative_threshold: float = 0.5

    batch_fraction: float = 0.08
    positive_threshold: float = 0.5
    hard_sampling: str = "average"
    margin: float = 0.2
    learning_rate: float = 1e-3
    max_epochs: int = 120
    hidden_layers: list[int] = field(default_factory=lambda: [160, 128])
    joint_dim: int = 100

    pkfk_containment_threshold: float = 0.85
    pkfk_name_threshold: float = 0.35
    pkfk_key_uniqueness: float = 0.85

    #: Structured-discovery path: "indexed" serves join/union/PK-FK candidate
    #: generation from the sketch indexes (sub-linear probes, §6.4);
    #: "exact" brute-forces every eligible pair (the correctness oracle);
    #: "auto" (the default) lets the SRQL planner pick per operator via its
    #: size/density heuristic — exact sweeps win on small lakes, probes on
    #: large ones (the crossover the sharded benchmarks measure per shard;
    #: in a sharded session every shard resolves "auto" against its own
    #: shard-local size).
    discovery_strategy: str = "auto"
    #: Per-operator strategy overrides, e.g. ``{"pkfk": "exact"}``; keys are
    #: "joinable" / "unionable" / "pkfk", values as discovery_strategy.
    operator_strategies: dict[str, str] = field(default_factory=dict)

    #: Document pipeline override. ``None`` builds the default
    #: :class:`~repro.text.pipeline.DocumentPipeline` per fit. The sharded
    #: lake passes per-shard pipelines pinned to the corpus-wide df filter
    #: so shard-local fits keep document bags byte-identical to a
    #: monolithic fit.
    document_pipeline: object | None = None

    #: Word embedder for the solo encodings. ``None`` trains the default
    #: blended embedder on the lake's own text at fit time. Pass a
    #: corpus-independent embedder (e.g.
    #: :class:`~repro.embed.hashing_embedder.HashingEmbedder`) when lake
    #: *sessions* must keep exact embedding parity under mutation: the
    #: blended embedder is frozen at fit, so embeddings of DEs added later
    #: reflect the fit-time corpus until :meth:`LakeSession.refresh`.
    embedder: object | None = None

    seed: int = 0
    extra_labeling_functions: list[LabelingFunction] = field(default_factory=list)


class CMDL:
    """Cross Modal Data Discovery over Structured and Unstructured Data Lakes."""

    def __init__(self, config: CMDLConfig | None = None):
        self.config = config or CMDLConfig()
        self.profiler: Profiler | None = None
        self.profile: Profile | None = None
        self.indexes: IndexCatalog | None = None
        self.joint_model: JointRepresentationModel | None = None
        self.labeling_report: LabelingReport | None = None
        self.training_result: TrainingResult | None = None
        self.engine: DiscoveryEngine | None = None
        #: Stage timing of the last :meth:`fit` (see
        #: :class:`~repro.core.profiler.FitStats`).
        self.fit_stats: FitStats | None = None

    # ------------------------------------------------------------------ fit

    def fit(
        self,
        lake: DataLake,
        gold_pairs: list[tuple[str, str, int]] | None = None,
    ) -> DiscoveryEngine:
        """Build the full CMDL stack over ``lake``.

        ``gold_pairs`` — optional tiny (doc, col, label) ground truth; when
        supplied, the labeling stage prunes weak LFs against it (the paper's
        "joint embedding + gold tuning" variant).
        """
        cfg = self.config
        # Fail on a bad strategy knob here, with the allowed values spelled
        # out, rather than deep inside the discovery stack after profiling.
        validate_strategy(cfg.discovery_strategy)
        validate_operator_strategies(cfg.operator_strategies)
        with Timer() as t_total:
            self.profiler = Profiler(
                embedding_dim=cfg.embedding_dim,
                num_hashes=cfg.num_hashes,
                pooling=cfg.pooling,
                embedder=cfg.embedder,
                pipeline=cfg.document_pipeline,
                seed=cfg.seed,
            )
            self.profile = self.profiler.profile(lake)
            with Timer() as t_index:
                self.indexes = IndexCatalog(
                    self.profile, ranker=cfg.ranker, seed=cfg.seed, bulk=True
                )

            with Timer() as t_train:
                if cfg.use_joint and self.profile.documents:
                    self._train_joint(gold_pairs)

            uniqueness = {c.qualified_name: c.uniqueness for c in lake.columns}
            self.engine = DiscoveryEngine(
                profile=self.profile,
                indexes=self.indexes,
                joint_model=self.joint_model,
                uniqueness=uniqueness,
                pkfk_params={
                    "containment_threshold": cfg.pkfk_containment_threshold,
                    "name_threshold": cfg.pkfk_name_threshold,
                    "key_uniqueness_threshold": cfg.pkfk_key_uniqueness,
                },
                strategy=cfg.discovery_strategy,
                operator_strategies=cfg.operator_strategies,
            )
        self.fit_stats = self.profile.fit_stats
        self.fit_stats.index_seconds = t_index.elapsed
        self.fit_stats.index_breakdown = dict(self.indexes.index_breakdown)
        self.fit_stats.train_seconds = t_train.elapsed
        self.fit_stats.total_seconds = t_total.elapsed
        return self.engine

    # ----------------------------------------------------------- sessions

    def open(
        self,
        lake: DataLake,
        gold_pairs=None,
        shards: int | None = None,
        router=None,
        auto_refresh_threshold: float | None = None,
    ):
        """Fit on ``lake`` and return a mutable session.

        The session keeps the fitted system live while the lake churns:
        ``add_table`` / ``add_document`` / ``remove`` / ``update_table``
        maintain the profile and every index incrementally (delta
        sketching, index inserts/deletes with lazy rebuilds) instead of
        refitting, and ``refresh()`` restores full cold-fit equivalence
        (embedder + joint model retrained).

        ``shards=N`` (or an explicit ``router``) partitions the lake into N
        independently-fitted shards and returns a
        :class:`~repro.core.sharding.ShardedLakeSession` instead: shards
        fit concurrently on a thread pool, mutations route to the owning
        shard, and SRQL queries scatter-gather across shards. Shards share
        corpus-wide document-frequency / BM25 statistics, so a sharded
        session answers exactly as a monolithic one (see the sharding
        module docs). The shard pool, which also runs ``refresh()`` and
        query scatter, has one thread per shard capped at the host's cores
        (a single-core host runs shards serially).
        ``auto_refresh_threshold`` arms the embedding-drift auto-refresh on
        the session (each shard of a sharded session refreshes itself on
        its own schedule).
        """
        if shards is not None or router is not None:
            from repro.core.sharding import ShardedLakeSession

            return ShardedLakeSession(
                lake,
                config=self.config,
                shards=shards,
                router=router,
                gold_pairs=gold_pairs,
                auto_refresh_threshold=auto_refresh_threshold,
            )
        from repro.core.session import LakeSession

        self.fit(lake, gold_pairs=gold_pairs)
        return LakeSession(
            self, lake, gold_pairs=gold_pairs,
            auto_refresh_threshold=auto_refresh_threshold,
        )

    @staticmethod
    def load(path):
        """Reopen a catalog written by ``session.save(path)`` — no refit.

        Returns a live :class:`~repro.core.session.LakeSession` or
        :class:`~repro.core.sharding.ShardedLakeSession` (whichever was
        saved) restored entirely from disk: profiles, every index
        structure, embedder/pipeline state, and the engine's fit-time
        strategy decisions come back verbatim, and any write-ahead journal
        tail left by the previous writer is replayed. Top-k results for
        all six SRQL primitives match the saved session byte-for-byte.
        """
        from repro.store import load_catalog

        return load_catalog(path)

    # ------------------------------------------------------------ internals

    def _train_joint(self, gold_pairs) -> None:
        cfg = self.config
        generator = TrainingDatasetGenerator(
            self.profile,
            self.indexes,
            sample_fraction=cfg.sample_fraction,
            top_k=cfg.top_k_probe,
            gold_relative_threshold=cfg.gold_relative_threshold,
            seed=cfg.seed,
            extra_lfs=cfg.extra_labeling_functions,
        )
        dataset, self.labeling_report = generator.generate(gold_pairs=gold_pairs)
        if not dataset:
            return

        encodings = {
            de_id: sketch.encoding
            for de_id, sketch in {**self.profile.documents,
                                  **self.profile.columns}.items()
        }
        batches = MiniBatchGenerator(
            dataset, batch_fraction=cfg.batch_fraction, seed=cfg.seed
        )
        triplet_gen = TripletGenerator(
            encodings,
            positive_threshold=cfg.positive_threshold,
            hard_sampling=cfg.hard_sampling,
        )
        self.joint_model = JointRepresentationModel(
            in_dim=2 * cfg.embedding_dim,
            hidden=cfg.hidden_layers,
            out_dim=cfg.joint_dim,
            seed=cfg.seed,
        )
        trainer = JointTrainer(
            self.joint_model,
            margin=cfg.margin,
            lr=cfg.learning_rate,
            max_epochs=cfg.max_epochs,
        )
        self.training_result = trainer.train(batches, triplet_gen)

        doc_vectors = self.joint_model.embed_all(
            {d: s.encoding for d, s in self.profile.documents.items()}
        )
        text_columns = set(self.profile.text_discovery_columns())
        col_vectors = self.joint_model.embed_all(
            {c: s.encoding for c, s in self.profile.columns.items()
             if c in text_columns}
        )
        self.indexes.index_joint_embeddings(doc_vectors, col_vectors)
