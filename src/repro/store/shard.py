"""One durable catalog file: the SQLite layer under a saved shard.

Each shard of a saved lake (a monolithic session counts as one shard) is a
single SQLite file in WAL mode holding

* ``meta`` — schema version, generation stamp, lake name;
* ``lake_tables`` / ``lake_documents`` — the raw lake rows, pickled, with
  ``rowid`` preserving the live session's dict insertion order (writes are
  DELETE+INSERT, replicating dict move-to-end semantics);
* ``sketches`` — one pickled :class:`~repro.core.profiler.DESketch` per DE
  (minhash values pickle as ``uint32``, see
  :func:`~repro.sketch.minhash.narrow_values`);
* ``state`` + ``arrays`` — named state sections: the residual pickle of a
  ``persistent_state()`` dict plus its extracted numpy slabs as typed blobs
  (see :mod:`repro.store.codec`);
* ``journal`` — the write-ahead mutation tail since the last checkpoint.

Schema version 2 stores every slab once: an index section whose entries are
exact functions of a sketch (minhash signatures, normalised solo vectors,
RP-forest split planes) keeps only keys, norms and tree structure and
refers to the ``sketches`` rows of the same file for the values. A version
1 file (index sections carrying their own copies) is refused, not read.

The wrapper stays dumb on purpose: it moves payloads, it does not know what
a profile or an index is. Orchestration lives in
:mod:`repro.store.catalog`.
"""

from __future__ import annotations

import sqlite3
from pathlib import Path

from repro.store import codec

#: Bumped on any incompatible layout change; a mismatch refuses to open.
SCHEMA_VERSION = 2


class CatalogCorrupt(ValueError):
    """A shard catalog file is unreadable, truncated, or the wrong schema.

    Subclasses :class:`ValueError` so pre-existing schema-mismatch
    handlers keep working; carries the shard path in its message so a
    worker boot failure names the exact file to inspect.
    """

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS lake_tables (
    name TEXT PRIMARY KEY,
    payload BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS lake_documents (
    doc_id TEXT PRIMARY KEY,
    payload BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS sketches (
    de_id TEXT PRIMARY KEY,
    kind TEXT NOT NULL,
    payload BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS state (
    section TEXT PRIMARY KEY,
    payload BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS arrays (
    section TEXT NOT NULL,
    idx INTEGER NOT NULL,
    dtype TEXT NOT NULL,
    shape TEXT NOT NULL,
    data BLOB NOT NULL,
    PRIMARY KEY (section, idx)
);
CREATE TABLE IF NOT EXISTS journal (
    seq INTEGER PRIMARY KEY,
    op TEXT NOT NULL,
    payload BLOB NOT NULL
);
"""

#: Row tables addressable through the generic row helpers.
_ROW_TABLES = {
    "lake_tables": "name",
    "lake_documents": "doc_id",
}


class ShardStore:
    """SQLite-backed storage for one shard of a saved lake catalog."""

    def __init__(self, path: str | Path, create: bool = False):
        self.path = Path(path)
        if not create and not self.path.exists():
            raise FileNotFoundError(f"no shard catalog at {self.path}")
        # check_same_thread=False: sharded sessions run mutators from pool
        # threads; the store serialises its own writes at the session layer.
        self._closed = False
        self.conn = sqlite3.connect(str(self.path), check_same_thread=False)
        try:
            self.conn.execute("PRAGMA journal_mode=WAL")
            self.conn.execute("PRAGMA synchronous=NORMAL")
        except sqlite3.DatabaseError as exc:
            if create:
                raise
            raise CatalogCorrupt(
                f"catalog file {self.path} is not a readable shard "
                f"catalog: {exc}"
            ) from exc
        if create:
            self.conn.executescript(_SCHEMA)
            self.put_meta("schema_version", str(SCHEMA_VERSION))
            self.conn.commit()
        else:
            try:
                found = self.get_meta("schema_version")
            except sqlite3.DatabaseError as exc:
                raise CatalogCorrupt(
                    f"catalog file {self.path} is not a readable shard "
                    f"catalog: {exc}"
                ) from exc
            if found != str(SCHEMA_VERSION):
                raise CatalogCorrupt(
                    f"catalog file {self.path} has schema version {found!r}; "
                    f"this build reads version {SCHEMA_VERSION}"
                )

    # --------------------------------------------------------------- meta

    def put_meta(self, key: str, value: str) -> None:
        self.conn.execute(
            "INSERT INTO meta (key, value) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET value = excluded.value",
            (key, value),
        )

    def get_meta(self, key: str, default: str | None = None) -> str | None:
        row = self.conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return default if row is None else row[0]

    # --------------------------------------------------------------- rows

    def put_row(self, table: str, key: str, obj) -> None:
        """DELETE+INSERT: a rewritten row moves to the end of the rowid
        order, exactly as a re-added key moves to the end of a dict."""
        key_col = _ROW_TABLES[table]
        self.conn.execute(f"DELETE FROM {table} WHERE {key_col} = ?", (key,))
        self.conn.execute(
            f"INSERT INTO {table} ({key_col}, payload) VALUES (?, ?)",
            (key, codec.dumps(obj)),
        )

    def delete_row(self, table: str, key: str) -> None:
        key_col = _ROW_TABLES[table]
        self.conn.execute(f"DELETE FROM {table} WHERE {key_col} = ?", (key,))

    def iter_rows(self, table: str):
        """(key, object) pairs in rowid order — the live dict's order."""
        key_col = _ROW_TABLES[table]
        for key, payload in self.conn.execute(
            f"SELECT {key_col}, payload FROM {table} ORDER BY rowid"
        ):
            yield key, codec.loads(payload)

    def clear(self, table: str) -> None:
        if table not in _ROW_TABLES and table not in ("sketches", "journal"):
            raise ValueError(f"not a clearable table: {table!r}")
        self.conn.execute(f"DELETE FROM {table}")

    # ----------------------------------------------------------- sketches

    def put_sketch(self, de_id: str, kind: str, sketch) -> None:
        self.conn.execute("DELETE FROM sketches WHERE de_id = ?", (de_id,))
        self.conn.execute(
            "INSERT INTO sketches (de_id, kind, payload) VALUES (?, ?, ?)",
            (de_id, kind, codec.dumps(sketch)),
        )

    def delete_sketch(self, de_id: str) -> None:
        self.conn.execute("DELETE FROM sketches WHERE de_id = ?", (de_id,))

    def iter_sketches(self):
        for de_id, kind, payload in self.conn.execute(
            "SELECT de_id, kind, payload FROM sketches"
        ):
            yield de_id, kind, codec.loads(payload)

    # -------------------------------------------------------------- state

    def put_state(self, section: str, obj) -> None:
        """Store one state section: residual pickle + extracted slabs."""
        arrays: list = []
        residual = codec.split_arrays(obj, arrays)
        self.conn.execute("DELETE FROM arrays WHERE section = ?", (section,))
        self.conn.execute(
            "INSERT INTO state (section, payload) VALUES (?, ?) "
            "ON CONFLICT(section) DO UPDATE SET payload = excluded.payload",
            (section, codec.dumps(residual)),
        )
        for idx, array in enumerate(arrays):
            dtype, shape, data = codec.encode_array(array)
            self.conn.execute(
                "INSERT INTO arrays (section, idx, dtype, shape, data) "
                "VALUES (?, ?, ?, ?, ?)",
                (section, idx, dtype, shape, data),
            )

    def get_state(self, section: str):
        row = self.conn.execute(
            "SELECT payload FROM state WHERE section = ?", (section,)
        ).fetchone()
        if row is None:
            raise KeyError(f"catalog file {self.path} has no section {section!r}")
        arrays = [
            codec.decode_array(dtype, shape, data)
            for dtype, shape, data in self.conn.execute(
                "SELECT dtype, shape, data FROM arrays "
                "WHERE section = ? ORDER BY idx",
                (section,),
            )
        ]
        residual = codec.loads(row[0])
        if not arrays:
            # Array-free sections (postings, vocabularies, journal-sized
            # metadata) skip the placeholder walk entirely — it dominates
            # reopen time on large residual structures otherwise.
            return residual
        return codec.join_arrays(residual, arrays)

    # ------------------------------------------------------------ journal

    def append_journal(self, seq: int, op: str, payload) -> None:
        # OR REPLACE keeps the append idempotent: after an ack-lost crash
        # the front-end cannot know whether the row committed, and a
        # supervised retry must not trip the seq primary key.
        self.conn.execute(
            "INSERT OR REPLACE INTO journal (seq, op, payload) VALUES (?, ?, ?)",
            (seq, op, codec.dumps(payload)),
        )

    def delete_journal(self, seq: int) -> None:
        self.conn.execute("DELETE FROM journal WHERE seq = ?", (seq,))

    def journal_entries(self) -> list[tuple[int, str, object]]:
        return [
            (seq, op, codec.loads(payload))
            for seq, op, payload in self.conn.execute(
                "SELECT seq, op, payload FROM journal ORDER BY seq"
            )
        ]

    def clear_journal(self) -> None:
        self.conn.execute("DELETE FROM journal")

    # ------------------------------------------------------------- admin

    def integrity_check(self) -> None:
        """Boot-time integrity gate: SQLite ``PRAGMA quick_check``.

        Raises :class:`CatalogCorrupt` (naming the shard path) when the
        file is torn or internally inconsistent, so a corrupt catalog
        fails at worker boot instead of as an opaque mid-query error.
        """
        try:
            rows = self.conn.execute("PRAGMA quick_check").fetchall()
        except sqlite3.DatabaseError as exc:
            raise CatalogCorrupt(
                f"catalog file {self.path} failed SQLite quick_check: {exc}"
            ) from exc
        findings = [row[0] for row in rows if row[0] != "ok"]
        if findings:
            raise CatalogCorrupt(
                f"catalog file {self.path} failed SQLite quick_check: "
                + "; ".join(findings)
            )

    def payload_bytes(self) -> dict[str, int]:
        """Payload bytes per component of this file: the pickled payloads
        of each row table, and per state section its residual plus its
        slabs (``state:<section>``). What :meth:`file_bytes` holds beyond
        their sum is SQLite's own: keys, page and index structure, slack."""
        sizes = {}
        for table in ("lake_tables", "lake_documents", "sketches", "journal"):
            (sizes[table],) = self.conn.execute(
                f"SELECT COALESCE(SUM(LENGTH(payload)), 0) FROM {table}"
            ).fetchone()
        for section, size in self.conn.execute(
            "SELECT section, LENGTH(payload) FROM state"
        ):
            sizes[f"state:{section}"] = size
        for section, size in self.conn.execute(
            "SELECT section, SUM(LENGTH(data)) FROM arrays GROUP BY section"
        ):
            sizes[f"state:{section}"] = sizes.get(f"state:{section}", 0) + size
        return sizes

    def commit(self) -> None:
        self.conn.commit()

    def close(self) -> None:
        """Commit and release the connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.conn.commit()
        self.conn.close()

    def file_bytes(self) -> int:
        """On-disk size (checkpointing the WAL first for an honest figure)."""
        self.conn.commit()
        self.conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        return self.path.stat().st_size
