"""Durable lake catalogs: save a fitted session, reopen without refit.

Public surface::

    session = repro.open_lake(lake)       # fit once
    session.save("catalog/")              # durable on-disk catalog
    ...
    session = repro.open_lake("catalog/")   # reopen: no refit
    session = repro.CMDL.load("catalog/")   # equivalent

See :mod:`repro.store.catalog` for the on-disk layout, the write-ahead
mutation journal, and the incremental checkpoint machinery;
``footprint(path)`` reports a saved catalog's bytes per component.
"""

from repro.store.catalog import (
    DEFAULT_CHECKPOINT_EVERY,
    LakeStore,
    ShardDirt,
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
    "ShardDirt",
    "ShardStore",
    "footprint",
    "load_catalog",
    "read_manifest",
    "replay_shard_journal",
    "restore_shard_session",
    "save_session",
]
