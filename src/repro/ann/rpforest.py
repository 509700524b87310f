"""Random-projection tree forest (Annoy-style approximate NN index).

Each tree recursively partitions the points: at a node, two distinct points
are sampled and the splitting hyperplane is the perpendicular bisector of
the segment between them (Annoy's "two means" split in its simplest form).
Leaves hold at most ``leaf_size`` points. A query descends every tree with a
shared max-heap prioritised by margin distance, collecting at least
``search_k`` candidates, which are then re-ranked exactly by cosine.

Trees are planted level-synchronously into flat CSR-style node arrays
(children / plane / offset / leaf spans); queries walk the arrays with no
object graph in the hot path.

Every node draws its randomness from its *position* — a splitmix64-style
hash of ``(seed, tree, heap-path)``, no per-node Generator construction in
the hot path — and candidate rows are projected with one
``matrix[idx] @ normal`` GEMV per node, so a recursive depth-first planter
using the same split rule plants bit-identical trees (the parity suite
keeps one as its reference). (A stacked GEMM over a whole level is NOT
bitwise equal to per-plane GEMV on this BLAS; reassociating the reduction
could flip the side of a point sitting on a split boundary, which is why
projections stay per-node.)
"""

from __future__ import annotations

import heapq

import numpy as np

_MASK64 = (1 << 64) - 1
#: splitmix64 stream increment (golden-ratio gamma).
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """splitmix64 finaliser: avalanche one 64-bit word."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _reference_rows(keys: list[str], norms: np.ndarray, source) -> np.ndarray:
    """Rows persisted as references: ``source(key) / norm`` per key, as one
    vectorised division. The norms are re-measured first, so a source
    vector that is not the one the row was normalised from is refused."""
    vectors = []
    for key in keys:
        vector = None if source is None else source(key)
        if vector is None:
            raise KeyError(f"unresolved row reference {key!r}")
        vectors.append(vector)
    stacked = np.stack(vectors)
    found = np.linalg.norm(stacked, axis=1)
    found[~(found > 0)] = 1.0  # zero vectors were stored with divisor 1
    if not np.allclose(found, norms, rtol=1e-9, atol=0.0):
        raise ValueError("row references disagree with their recorded norms")
    return stacked / norms[:, None]


class RPForestIndex:
    """Forest of random-projection trees with exact candidate re-ranking.

    Supports delta maintenance: :meth:`insert` keeps new points in a "fresh"
    set that every query scans exactly (no recall loss) until they exceed
    :attr:`REPLANT_FRACTION` of the forest, at which point the trees are
    re-planted; :meth:`delete` tombstones a key (filtered at query time) and
    compacts once tombstones pass the same fraction.
    """

    #: Fresh-insert / tombstone fraction that triggers a tree re-plant.
    REPLANT_FRACTION = 0.25

    #: Depth past which a node becomes a leaf regardless of size (guards
    #: against adversarial point sets that refuse to split).
    MAX_DEPTH = 32

    def __init__(
        self,
        dim: int,
        num_trees: int = 8,
        leaf_size: int = 16,
        seed: int = 0,
    ):
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if num_trees <= 0 or leaf_size <= 1:
            raise ValueError("num_trees must be >=1 and leaf_size >= 2")
        self.dim = dim
        self.num_trees = num_trees
        self.leaf_size = leaf_size
        self.seed = seed
        self._keys: list[str] = []
        self._rows: list[np.ndarray] = []
        #: Per row, the divisor that normalised it: ``row == vector / norm``
        #: (1.0 for a zero vector, which is stored as is).
        self._norms: list[float] = []
        self._matrix: np.ndarray | None = None
        self._planted = False
        self._clear_arrays()
        #: Live key -> row index (tombstoned rows have no entry here).
        self._key_pos: dict[str, int] = {}
        self._fresh: set[int] = set()
        self._deleted_idx: set[int] = set()

    # -------------------------------------------------------------- build

    def _append_row(self, key: str, vector: np.ndarray) -> None:
        """Normalise one vector and append it as the next row (every row
        enters through here, so ``_norms`` always matches ``_rows``)."""
        if len(vector) != self.dim:
            raise ValueError(f"vector has dim {len(vector)}, index expects {self.dim}")
        norm = np.linalg.norm(vector)
        if norm > 0:
            self._rows.append(vector / norm)
            self._norms.append(float(norm))
        else:
            self._rows.append(np.asarray(vector, dtype=float))
            self._norms.append(1.0)
        self._keys.append(key)
        self._key_pos[key] = len(self._keys) - 1

    def add(self, key: str, vector: np.ndarray) -> None:
        self._append_row(key, vector)
        self._matrix = None
        self._planted = False

    def build_bulk(self, entries: list[tuple[str, np.ndarray]]) -> "RPForestIndex":
        """Add a whole ``(key, vector)`` batch and plant the forest once.

        Row normalisation matches :meth:`add` exactly (same per-row norm),
        so the planted forest is identical to per-item adds followed by
        :meth:`build` — without invalidating the matrix/trees per point.
        """
        for key, vector in entries:
            if key in self._key_pos:
                raise ValueError(f"duplicate ANN key {key!r}")
            self._append_row(key, vector)
        return self.build()

    def build(self) -> "RPForestIndex":
        """(Re)build the forest over all live points."""
        if self._deleted_idx:
            live = [i for i in range(len(self._keys)) if i not in self._deleted_idx]
            self._keys = [self._keys[i] for i in live]
            self._rows = [self._rows[i] for i in live]
            self._norms = [self._norms[i] for i in live]
            self._key_pos = {k: i for i, k in enumerate(self._keys)}
            self._deleted_idx = set()
        self._fresh = set()
        self._clear_arrays()
        if not self._rows:
            self._matrix = np.zeros((0, self.dim))
            self._planted = True
            return self
        self._matrix = np.vstack(self._rows)
        self._plant_arrays()
        self._planted = True
        return self

    # ----------------------------------------------------------- mutation

    def __contains__(self, key: str) -> bool:
        return key in self._key_pos

    def insert(self, key: str, vector: np.ndarray) -> None:
        """Add one point to a built forest (delta path).

        The point joins the fresh set, which queries scan exactly alongside
        the tree candidates — zero recall loss — until fresh points exceed
        :attr:`REPLANT_FRACTION` of the forest and the trees are re-planted.
        (On an unbuilt forest this is just :meth:`add`; a previously
        tombstoned key re-enters as a new row, no rebuild needed.)
        """
        if key in self._key_pos:
            raise ValueError(f"duplicate ANN key {key!r}")
        if self._matrix is None:
            self.add(key, vector)
            return
        self._append_row(key, vector)
        # The matrix is NOT extended per insert (that would copy O(n*d) per
        # point): fresh rows are scored straight from _rows until the next
        # re-plant folds them in.
        self._fresh.add(len(self._keys) - 1)
        self._maybe_replant()

    def delete(self, key: str) -> None:
        """Tombstone one point; compacts/re-plants past the churn bar."""
        idx = self._key_pos.pop(key, None)
        if idx is None:
            raise KeyError(f"no ANN entry for key {key!r}")
        self._deleted_idx.add(idx)
        self._fresh.discard(idx)
        self._maybe_replant()

    def _maybe_replant(self) -> None:
        live = max(len(self), 1)
        if (
            len(self._fresh) > self.REPLANT_FRACTION * live
            or len(self._deleted_idx) > self.REPLANT_FRACTION * live
        ):
            self.build()

    # ----------------------------------------------------------- planting

    def _node_words(self, tree: int, path: int) -> tuple[int, int]:
        """Two decorrelated 64-bit hash words of one tree node.

        ``path`` is the heap-style position id (root 1, children ``2p`` /
        ``2p+1``): a node's randomness depends only on where it sits, never
        on the order the builder visits nodes in — which is what lets the
        level-synchronous builder and a recursive one plant bit-identical
        trees. Integer mixing (splitmix64) instead of a
        ``default_rng`` per node keeps planting out of Generator
        construction, which dominated the build at lake scale.
        """
        base = _mix64(_mix64(self.seed ^ (tree * _SPLITMIX_GAMMA)) ^ path)
        return base, _mix64(base + _SPLITMIX_GAMMA)

    def _split_plane(
        self, indexes, tree: int, path: int
    ) -> tuple[np.ndarray, float, tuple[int, int, float]]:
        """Sample one node's splitting hyperplane: the perpendicular bisector
        of two distinct sampled points (random plane if they coincide).

        ``indexes`` may be a list or an int array; both hit identical
        scalar arithmetic. Also returns the
        plane's provenance ``(a, b, norm)`` — matrix rows and divisor with
        ``normal == (matrix[a] - matrix[b]) / norm`` — with ``a == b == -1``
        for a random plane, which only its own values can reproduce.
        """
        h1, h2 = self._node_words(tree, path)
        n = len(indexes)
        i = h1 % n
        j = h2 % (n - 1)
        if j >= i:  # j drawn from [0, n-1) then shifted past i: j != i, uniform
            j += 1
        a, b = int(indexes[i]), int(indexes[j])
        p, q = self._matrix[a], self._matrix[b]
        normal = p - q
        norm = np.linalg.norm(normal)
        if norm < 1e-12:
            # Identical sample points: random hyperplane through the origin
            # (rare enough that a seeded Generator is fine here).
            normal = np.random.default_rng(h1).standard_normal(self.dim)
            norm = np.linalg.norm(normal)
            a = b = -1
        provenance = (a, b, float(norm))
        normal = normal / norm
        midpoint = (p + q) / 2.0
        offset = float(normal @ midpoint)
        return normal, offset, provenance

    def _plant_arrays(self) -> None:
        """Plant all trees level-synchronously into flat node arrays.

        The frontier carries ``(tree, path, node id, row-index array)``
        entries for one depth at a time; splits partition index *arrays*
        with boolean masks (no per-element Python), and leaves append their
        spans to one flat ``_leaf_items`` vector CSR-style. Projections are
        one ``matrix[idx] @ normal`` GEMV per node — see the module
        docstring for why that, plus position-keyed randomness, makes the
        planting order irrelevant.
        """
        n = self._matrix.shape[0]
        left: list[int] = []
        right: list[int] = []
        plane_of: list[int] = []
        offsets: list[float] = []
        leaf_start: list[int] = []
        leaf_end: list[int] = []
        leaf_chunks: list[np.ndarray] = []
        planes: list[np.ndarray] = []
        provenance: list[tuple[int, int, float]] = []
        items_written = 0

        def alloc() -> int:
            left.append(-1)
            right.append(-1)
            plane_of.append(-1)
            offsets.append(0.0)
            leaf_start.append(0)
            leaf_end.append(0)
            return len(left) - 1

        def seal_leaf(node: int, idx: np.ndarray) -> None:
            nonlocal items_written
            leaf_start[node] = items_written
            items_written += int(idx.size)
            leaf_end[node] = items_written
            leaf_chunks.append(idx)

        all_idx = np.arange(n, dtype=np.int64)
        self._tree_roots = [alloc() for _ in range(self.num_trees)]
        frontier: list[tuple[int, int, int, np.ndarray]] = [
            (tree, 1, root, all_idx) for tree, root in enumerate(self._tree_roots)
        ]
        depth = 0
        while frontier:
            next_frontier: list[tuple[int, int, int, np.ndarray]] = []
            for tree, path, node, idx in frontier:
                if idx.size <= self.leaf_size or depth > self.MAX_DEPTH:
                    seal_leaf(node, idx)
                    continue
                normal, offset, source = self._split_plane(idx, tree, path)
                projections = self._matrix[idx] @ normal - offset
                mask = projections <= 0
                left_idx = idx[mask]
                right_idx = idx[~mask]
                if left_idx.size == 0 or right_idx.size == 0:
                    seal_leaf(node, idx)
                    continue
                plane_of[node] = len(planes)
                planes.append(normal)
                provenance.append(source)
                offsets[node] = offset
                lo, hi = alloc(), alloc()
                left[node] = lo
                right[node] = hi
                next_frontier.append((tree, 2 * path, lo, left_idx))
                next_frontier.append((tree, 2 * path + 1, hi, right_idx))
            frontier = next_frontier
            depth += 1

        self._node_left = np.asarray(left, dtype=np.int32)
        self._node_right = np.asarray(right, dtype=np.int32)
        self._node_plane = np.asarray(plane_of, dtype=np.int32)
        self._node_offset = np.asarray(offsets, dtype=np.float64)
        self._planes = np.vstack(planes) if planes else np.zeros((0, self.dim))
        self._plane_pairs = np.array(
            [(a, b) for a, b, _ in provenance], dtype=np.int64
        ).reshape(-1, 2)
        self._plane_norms = np.array(
            [norm for _, _, norm in provenance], dtype=np.float64
        )
        self._leaf_start = np.asarray(leaf_start, dtype=np.int64)
        self._leaf_end = np.asarray(leaf_end, dtype=np.int64)
        self._leaf_items = (
            np.concatenate(leaf_chunks) if leaf_chunks else np.zeros(0, dtype=np.int64)
        )

    def _clear_arrays(self) -> None:
        """Empty the planted state. Children are node
        ids (-1 = leaf); internal nodes carry a row of ``_planes`` plus an
        offset; leaves carry a [start, end) span into ``_leaf_items``.
        ``_plane_pairs`` / ``_plane_norms`` record where each plane came
        from (see :meth:`_split_plane`) so persistence can derive it."""
        self._tree_roots: list[int] = []
        self._node_left = np.zeros(0, dtype=np.int32)
        self._node_right = np.zeros(0, dtype=np.int32)
        self._node_plane = np.zeros(0, dtype=np.int32)
        self._node_offset = np.zeros(0, dtype=np.float64)
        self._planes = np.zeros((0, self.dim))
        self._plane_pairs = np.zeros((0, 2), dtype=np.int64)
        self._plane_norms = np.zeros(0, dtype=np.float64)
        self._leaf_start = np.zeros(0, dtype=np.int64)
        self._leaf_end = np.zeros(0, dtype=np.int64)
        self._leaf_items = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self._keys) - len(self._deleted_idx)

    # -------------------------------------------------------- persistence

    def persistent_state(self, source=None) -> dict:
        """Keys, per-row norms and tree structure; only underivable values.

        Rows: ``source`` (``key -> vector | None``) names where each
        entry's input vector lives outside the forest — the profile's
        sketch. A row is stored as a *reference* (nothing but its key and
        its 8-byte norm) when it is live and ``source(key) / norm``
        reproduces it bit for bit; tombstoned rows, rows whose source has
        moved on, and every row when no source is given stay explicit.
        Restore recomputes references with one vectorised division, which
        is correctly rounded and so identical on any BLAS.

        Planes: a split plane is ``(matrix[a] - matrix[b]) /
        norm`` for its recorded ``(a, b, norm)`` (see :meth:`_split_plane`)
        and is derived on restore; only random fallback planes (coincident
        sample points) are stored.

        ``matrix_rows`` records how many leading rows the planted matrix
        covered (-1 = never planted): post-plant inserts only extend
        ``_rows``, so ``_matrix == stacked_rows[:m]`` always holds and the
        matrix need not be stored twice. ``_key_pos`` is derived (live keys
        only) and rebuilt on restore.
        """
        n = len(self._keys)
        rows = np.vstack(self._rows) if self._rows else np.zeros((0, self.dim))
        norms = np.asarray(self._norms, dtype=np.float64)
        explicit = np.ones(n, dtype=bool)
        if source is not None:
            live = [(i, source(key)) for key, i in self._key_pos.items()]
            live = [(i, v) for i, v in live if v is not None]
            if live:
                idx = np.array([i for i, _ in live], dtype=np.int64)
                derived = np.stack([v for _, v in live]) / norms[idx, None]
                same = (
                    derived.view(np.uint64) == rows[idx].view(np.uint64)
                ).all(axis=1)
                explicit[idx[same]] = False
        random_planes = self._plane_pairs[:, 0] < 0
        return {
            "dim": self.dim,
            "num_trees": self.num_trees,
            "leaf_size": self.leaf_size,
            "seed": self.seed,
            "keys": list(self._keys),
            "norms": norms,
            "explicit": np.flatnonzero(explicit),
            "rows": rows[explicit],
            "matrix_rows": -1 if self._matrix is None else int(self._matrix.shape[0]),
            "planted": self._planted,
            "fresh": sorted(self._fresh),
            "deleted_idx": sorted(self._deleted_idx),
            "tree_roots": list(self._tree_roots),
            "node_left": self._node_left,
            "node_right": self._node_right,
            "node_plane": self._node_plane,
            "node_offset": self._node_offset,
            "plane_pairs": self._plane_pairs,
            "plane_norms": self._plane_norms,
            "planes": self._planes[random_planes],
            "leaf_start": self._leaf_start,
            "leaf_end": self._leaf_end,
            "leaf_items": self._leaf_items,
            "n": n,
        }

    @classmethod
    def restore_state(cls, state: dict, source=None) -> "RPForestIndex":
        """Inverse of :meth:`persistent_state`. Reference rows resolve
        through ``source``; one it cannot resolve raises :class:`KeyError`,
        and a resolved vector whose norm disagrees with the recorded one
        raises :class:`ValueError` — never a silently wrong row."""
        index = cls(
            dim=state["dim"],
            num_trees=state["num_trees"],
            leaf_size=state["leaf_size"],
            seed=state["seed"],
        )
        n, dim = state["n"], state["dim"]
        index._keys = list(state["keys"])
        norms = np.asarray(state["norms"], dtype=np.float64)
        explicit = np.asarray(state["explicit"], dtype=np.int64)
        rows = np.empty((n, dim))
        rows[explicit] = state["rows"]
        refs = np.setdiff1d(np.arange(n), explicit, assume_unique=True)
        if refs.size:
            rows[refs] = _reference_rows(
                [index._keys[i] for i in refs], norms[refs], source
            )
        index._rows = [rows[i] for i in range(n)]
        index._norms = norms.tolist()
        m = state["matrix_rows"]
        index._matrix = None if m < 0 else rows[:m]
        pairs = np.asarray(state["plane_pairs"], dtype=np.int64).reshape(-1, 2)
        plane_norms = np.asarray(state["plane_norms"], dtype=np.float64)
        derived = pairs[:, 0] >= 0
        planes = np.empty((len(pairs), dim))
        planes[~derived] = state["planes"]
        # The same elementwise subtract-then-divide _split_plane ran.
        planes[derived] = (
            rows[pairs[derived, 0]] - rows[pairs[derived, 1]]
        ) / plane_norms[derived, None]
        index._planes = planes
        index._plane_pairs = pairs
        index._plane_norms = plane_norms
        index._planted = state["planted"]
        index._fresh = set(state["fresh"])
        index._deleted_idx = set(state["deleted_idx"])
        index._tree_roots = list(state["tree_roots"])
        index._node_left = np.asarray(state["node_left"], dtype=np.int32)
        index._node_right = np.asarray(state["node_right"], dtype=np.int32)
        index._node_plane = np.asarray(state["node_plane"], dtype=np.int32)
        index._node_offset = np.asarray(state["node_offset"], dtype=np.float64)
        index._leaf_start = np.asarray(state["leaf_start"], dtype=np.int64)
        index._leaf_end = np.asarray(state["leaf_end"], dtype=np.int64)
        index._leaf_items = np.asarray(state["leaf_items"], dtype=np.int64)
        # Live keys only; a re-inserted (previously tombstoned) key's live
        # row is the later one, so last-write-wins over the enumeration.
        index._key_pos = {
            key: i for i, key in enumerate(index._keys)
            if i not in index._deleted_idx
        }
        return index

    # -------------------------------------------------------------- query

    def _walk_arrays(self, q: np.ndarray, budget: int) -> set[int]:
        """Candidate row ids from the flat-array trees (shared heap walk)."""
        candidates: set[int] = set()
        heap: list[tuple[float, int, int]] = []
        counter = 0
        for root in self._tree_roots:
            heapq.heappush(heap, (-np.inf, counter, root))
            counter += 1
        left, right = self._node_left, self._node_right
        plane_of, offsets = self._node_plane, self._node_offset
        planes = self._planes
        items, starts, ends = self._leaf_items, self._leaf_start, self._leaf_end
        while heap and len(candidates) < budget:
            _, _, node = heapq.heappop(heap)
            while left[node] >= 0:
                margin = float(planes[plane_of[node]] @ q - offsets[node])
                near, far = (
                    (left[node], right[node]) if margin <= 0
                    else (right[node], left[node])
                )
                heapq.heappush(heap, (-abs(margin), counter, far))
                counter += 1
                node = near
            candidates.update(items[starts[node]:ends[node]].tolist())
        return candidates

    def query(
        self,
        vector: np.ndarray,
        k: int = 10,
        search_k: int | None = None,
        exclude: set[str] | None = None,
    ) -> list[tuple[str, float]]:
        """Top-k keys by cosine similarity with approximate candidate search.

        ``search_k`` is the candidate budget (default: ``k * num_trees * 4``,
        matching Annoy's rule of thumb); higher values trade speed for recall.
        The walk explores the most promising branch across all trees first
        via a shared priority queue over (negative margin, tiebreak, node),
        like Annoy.
        """
        if self._matrix is None or (not self._planted and self._rows):
            self.build()
        if self._matrix.shape[0] == 0:
            return []
        exclude = exclude or set()
        norm = np.linalg.norm(vector)
        q = vector / norm if norm > 0 else np.asarray(vector, dtype=float)
        budget = search_k if search_k is not None else max(k * self.num_trees * 4, k)

        candidates = self._walk_arrays(q, budget)
        # Fresh (not-yet-planted) points are always scanned exactly, ON TOP
        # of the tree budget (they must not starve the tree walk), so
        # incremental inserts lose no recall between re-plants.
        candidates.update(self._fresh)

        scored = []
        planted = self._matrix.shape[0]
        for idx in candidates:
            if idx in self._deleted_idx:
                continue
            key = self._keys[idx]
            if key in exclude:
                continue
            row = self._matrix[idx] if idx < planted else self._rows[idx]
            scored.append((key, float(row @ q)))
        scored.sort(key=lambda kv: (-kv[1], kv[0]))
        return scored[:k]
