"""Deterministic fault injection for the process serving backend.

The fault spec is read per launch: each worker launch request carries
the spec armed in the front-end's ``REPRO_SERVE_FAULTS`` at that moment
(:func:`armed`), the forked worker installs it in its own environment,
reads its plan from there at boot, and fires the planned faults at
named points. Arming or clearing a spec therefore affects exactly the
workers launched afterwards — at boot or as a crash respawn — and never
one already running. Nothing here is probabilistic: a fault either fires
at its point or it does not, so every recovery test replays identically.

Spec grammar — ``;``-separated directives::

    crash:<point>[@marker]        kill the worker (os._exit) at a point
    delay:<op>:<seconds>[@marker] sleep before replying to <op>
    mid_frame:<op>[@marker]       send a truncated reply frame, then exit
    corrupt:<op>[@marker]         send a garbage length prefix, then exit

Crash points:

* ``boot`` — before the catalog is opened (respawn loops hit this).
* ``after_journal_append`` — after the journal row is committed but
  before the append is acknowledged, i.e. inside the crash window
  between ``journal_append`` and the op body on the front-end.
* ``mid_checkpoint`` — after the checkpoint staged its writes (what the
  shard session holds that the file does not) but before the journal
  tail is cleared/committed (SQLite rolls the uncommitted writes back,
  so the journal must survive).

``<op>`` matches the top-level RPC op *or* any sub-op inside a
``batch`` payload, so ``delay:keyword:5`` delays scatter-gather reads.

The optional ``@marker`` names a filesystem path used as a one-shot
latch **across processes**: the first worker to reach the fault creates
the file with ``O_CREAT | O_EXCL`` and fires; every later worker (e.g.
the respawned replacement mid-retry) sees the file and skips the fault.
Without a marker the fault fires every time it is reached — a permanent
``crash:boot`` is how the circuit-breaker tests keep a shard down.

Use :func:`inject` from tests::

    with faults.inject(f"crash:after_journal_append@{tmp_path}/once"):
        server = LakeServer(catalog, backend="process")
        ...
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: Environment variable carrying the fault spec into shard workers.
FAULT_ENV = "REPRO_SERVE_FAULTS"

#: Exit status used by injected crashes, distinct from real tracebacks.
CRASH_EXIT_CODE = 73

CRASH_POINTS = ("boot", "after_journal_append", "mid_checkpoint")
_KINDS = ("crash", "delay", "mid_frame", "corrupt")


@dataclass(frozen=True)
class Fault:
    kind: str  # crash | delay | mid_frame | corrupt
    where: str  # crash point for "crash", op name otherwise
    seconds: float = 0.0  # delay duration
    marker: str | None = None  # one-shot latch path (None = every time)


def parse(spec: str) -> list[Fault]:
    """Parse a ``REPRO_SERVE_FAULTS`` spec into :class:`Fault` entries."""
    faults = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        directive, _, marker = chunk.partition("@")
        fields = directive.split(":")
        kind = fields[0]
        if kind not in _KINDS:
            raise ValueError(f"unknown fault kind {kind!r} in {chunk!r}")
        if kind == "crash":
            if len(fields) != 2 or fields[1] not in CRASH_POINTS:
                raise ValueError(
                    f"crash fault needs a point from {CRASH_POINTS}: {chunk!r}"
                )
            faults.append(Fault("crash", fields[1], marker=marker or None))
        elif kind == "delay":
            if len(fields) != 3:
                raise ValueError(f"delay fault needs op and seconds: {chunk!r}")
            faults.append(
                Fault("delay", fields[1], float(fields[2]), marker or None)
            )
        else:  # mid_frame | corrupt
            if len(fields) != 2:
                raise ValueError(f"{kind} fault needs an op name: {chunk!r}")
            faults.append(Fault(kind, fields[1], marker=marker or None))
    return faults


def _take(marker: str | None) -> bool:
    """Claim a one-shot marker; ``True`` if this process should fire."""
    if marker is None:
        return True
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def _ops_in(op: str, payload) -> set[str]:
    """The top-level op plus any sub-ops inside a ``batch`` payload."""
    ops = {op}
    if op == "batch" and isinstance(payload, dict):
        for sub in payload.get("ops", ()):
            if isinstance(sub, (list, tuple)) and sub:
                ops.add(sub[0])
    return ops


class FaultPlan:
    """The faults a single worker process checks at its named points."""

    def __init__(self, faults: list[Fault] | None = None):
        self.faults = faults or []

    @classmethod
    def from_env(cls) -> "FaultPlan":
        spec = os.environ.get(FAULT_ENV, "")
        return cls(parse(spec) if spec else [])

    def __bool__(self) -> bool:
        return bool(self.faults)

    # ------------------------------------------------------------- hooks

    def crash(self, point: str) -> None:
        """Die here if a ``crash:<point>`` fault is armed (never returns)."""
        for fault in self.faults:
            if fault.kind == "crash" and fault.where == point and _take(fault.marker):
                os._exit(CRASH_EXIT_CODE)

    def reply_action(self, op: str, payload) -> Fault | None:
        """The delay/mid_frame/corrupt fault armed for this request, if any.

        ``delay`` faults sleep here and return ``None`` (the reply then
        proceeds normally — the *parent's* deadline is what fires).
        ``mid_frame``/``corrupt`` faults are returned for the serve loop
        to act on, since they need access to the raw frame.
        """
        ops = _ops_in(op, payload)
        for fault in self.faults:
            if fault.kind == "crash" or fault.where not in ops:
                continue
            if not _take(fault.marker):
                continue
            if fault.kind == "delay":
                time.sleep(fault.seconds)
                return None
            return fault
        return None


# --------------------------------------------------------------------------
# Parent-side helpers (tests / benchmarks)


def armed() -> str | None:
    """The spec armed right now: what a worker launched now runs with."""
    return os.environ.get(FAULT_ENV)


def install(spec: str) -> None:
    """Arm a fault spec for every worker spawned after this call."""
    parse(spec)  # validate eagerly, in the parent
    os.environ[FAULT_ENV] = spec


def clear() -> None:
    """Disarm fault injection for future worker spawns."""
    os.environ.pop(FAULT_ENV, None)


@contextmanager
def inject(spec: str):
    """Context manager: arm ``spec``, restore the previous spec on exit."""
    previous = os.environ.get(FAULT_ENV)
    install(spec)
    try:
        yield
    finally:
        if previous is None:
            clear()
        else:
            os.environ[FAULT_ENV] = previous
