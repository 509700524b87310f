"""The result cache lives in :mod:`repro.core.result_cache` (the in-process
sharded session owns one too); serving code imports it from here."""

from repro.core.result_cache import DEFAULT_ENTRIES, FRONT, ResultCache

__all__ = ["DEFAULT_ENTRIES", "FRONT", "ResultCache"]
