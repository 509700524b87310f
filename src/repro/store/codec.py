"""Typed-blob encoding for persisted state dictionaries.

``persistent_state()`` dictionaries mix plain Python values with (often
large) numpy arrays. Pickling the whole dict would work, but buries every
array inside one opaque blob — no per-array typing, no chance to store the
slabs as first-class rows. :func:`split_arrays` walks a state structure and
replaces every ndarray with an :class:`ArrayRef` placeholder, returning the
extracted arrays separately; the residual structure (plain scalars,
strings, dicts, dataclasses, Counters) pickles compactly, and each array is
stored as a ``(dtype, shape, bytes)`` triple via :func:`encode_array`.
:func:`join_arrays` is the exact inverse.

Arrays nested inside *objects* (e.g. a dataclass kept as residual state)
stay inside the residual pickle — the split only walks
dicts, lists and tuples, which is where every ``persistent_state()`` slab
lives by convention.
"""

from __future__ import annotations

import json
import pickle

import numpy as np

#: Pickle protocol for every persisted payload.
PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


class ArrayRef:
    """Placeholder for an extracted array: index into the section's slab list."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __reduce__(self):
        return (ArrayRef, (self.index,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArrayRef({self.index})"


def split_arrays(obj, arrays: list[np.ndarray]):
    """Replace every ndarray reachable through dict/list/tuple containers
    with an :class:`ArrayRef`, appending the array to ``arrays``."""
    if isinstance(obj, np.ndarray):
        arrays.append(np.ascontiguousarray(obj))
        return ArrayRef(len(arrays) - 1)
    if isinstance(obj, dict):
        return {key: split_arrays(value, arrays) for key, value in obj.items()}
    if isinstance(obj, list):
        return [split_arrays(value, arrays) for value in obj]
    if isinstance(obj, tuple):
        return tuple(split_arrays(value, arrays) for value in obj)
    return obj


def join_arrays(obj, arrays: list[np.ndarray]):
    """Inverse of :func:`split_arrays`: resolve every placeholder."""
    if isinstance(obj, ArrayRef):
        return arrays[obj.index]
    if isinstance(obj, dict):
        return {key: join_arrays(value, arrays) for key, value in obj.items()}
    if isinstance(obj, list):
        return [join_arrays(value, arrays) for value in obj]
    if isinstance(obj, tuple):
        return tuple(join_arrays(value, arrays) for value in obj)
    return obj


def encode_array(array: np.ndarray) -> tuple[str, str, bytes]:
    """One array as a typed blob: ``(dtype string, shape json, raw bytes)``."""
    contiguous = np.ascontiguousarray(array)
    return contiguous.dtype.str, json.dumps(contiguous.shape), contiguous.tobytes()


def decode_array(dtype: str, shape: str, data: bytes) -> np.ndarray:
    """Rebuild an array from its typed blob (writable: restored structures
    may mutate their slabs in place, e.g. the embedder's bucket table)."""
    buffer = bytearray(data)
    return np.frombuffer(buffer, dtype=np.dtype(dtype)).reshape(json.loads(shape))


def dumps(obj) -> bytes:
    """Pickle one payload with the store's protocol."""
    return pickle.dumps(obj, protocol=PICKLE_PROTOCOL)


def loads(blob: bytes):
    return pickle.loads(blob)
