"""Durable lake catalogs: save a fitted session, reopen without refit.

Public surface::

    session = repro.open_lake(lake)       # fit once
    session.save("catalog/")              # durable on-disk catalog
    ...
    session = repro.open_lake("catalog/")   # reopen: no refit
    session = repro.CMDL.load("catalog/")   # equivalent

See :mod:`repro.store.catalog` for the on-disk layout and the write-ahead
mutation journal. A checkpoint is one function, ``checkpoint_shard``: it
writes what a shard session holds that the ``ShardImage`` of its file does
not (the catalog store and the process shard worker both call it);
``footprint(path)`` reports a saved catalog's bytes per component.
"""

from repro.store.catalog import (
    DEFAULT_CHECKPOINT_EVERY,
    LakeStore,
    ShardImage,
    checkpoint_shard,
    footprint,
    load_catalog,
    read_manifest,
    replay_shard_journal,
    restore_shard_session,
    save_session,
)
from repro.store.shard import SCHEMA_VERSION, CatalogCorrupt, ShardStore

__all__ = [
    "DEFAULT_CHECKPOINT_EVERY",
    "CatalogCorrupt",
    "LakeStore",
    "SCHEMA_VERSION",
    "ShardImage",
    "ShardStore",
    "checkpoint_shard",
    "footprint",
    "load_catalog",
    "read_manifest",
    "replay_shard_journal",
    "restore_shard_session",
    "save_session",
]
