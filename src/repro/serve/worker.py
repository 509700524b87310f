"""Shard worker process: one ``shard-NNNN.sqlite`` behind an RPC pipe.

The child side (:func:`main`, run as ``python -m repro.serve.worker``)
restores its shard with the catalog-reopen path — PR 7's measurement is
that reopening is ~13x cheaper than refitting, which is what makes
per-shard worker processes a reasonable unit of deployment *and* what
makes crash recovery cheap: a respawned worker reopens its shard file,
verifies integrity (``PRAGMA quick_check``), replays its own journal
tail (:func:`repro.store.replay_shard_journal`) to the exact pre-crash
state, then answers framed requests until ``shutdown`` or EOF.

Next to the request pipe the child keeps a second *heartbeat* pipe,
answered by a daemon thread regardless of what the serve loop is doing —
so the parent can tell a hung worker (request deadline fires, heartbeat
still answers) from a dead one (both pipes broken).

The parent side (:class:`ShardWorker`) spawns the child over
``socketpair``\\ s inherited by fd, serialises callers onto the single
in-flight request the protocol allows, converts transport failures into
the typed :class:`~repro.serve.rpc.RPCError` hierarchy, and is reaped on
GC via ``weakref.finalize`` as a backstop for servers never closed.
:class:`WorkerSupervisor` holds the respawn policy: capped exponential
backoff between attempts and a circuit breaker that marks the shard
unavailable after N consecutive failures.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
import traceback
import weakref
from pathlib import Path
from threading import Lock

from repro.serve import faults
from repro.serve.rpc import (
    Connection,
    ConnectionClosed,
    FrameCorrupt,
    RPCError,
    RemoteShardError,
    WorkerCrashed,
    WorkerTimeout,
    _U32,
    _U64,
    MAX_PART_BYTES,
    check_response,
    frame_bytes,
)


# ---------------------------------------------------------------- child side


def _replay_context(shard_path: Path, index: int):
    """What shard-local journal replay needs from the rest of the catalog:
    an ``owns_document`` predicate and the sibling shards' journal tails.

    A sharded catalog's ``add_documents`` journal entries can batch
    documents owned by several shards while the record sits in one
    shard's journal, so recovery must (a) filter its own entries by the
    router and (b) read the siblings' journals for entries holding its
    documents. Sibling files are only *read* — WAL mode serves a reader
    alongside the live sibling worker — and entries merge by the global
    seq, so replay order matches the original mutation order.
    """
    catalog_path = shard_path.parent / "catalog.sqlite"
    if not catalog_path.exists():
        return None, None
    from repro.core.sharding import ShardRouter
    from repro.store import ShardStore

    catalog_db = ShardStore(catalog_path)
    try:
        if catalog_db.get_meta("kind") != "sharded":
            return None, None
        num_shards = int(catalog_db.get_meta("num_shards", "1"))
        state = catalog_db.get_state("router")
    finally:
        catalog_db.close()
    router = ShardRouter(
        state["num_shards"],
        assignments=dict(state["assignments"]),
        seed=state["seed"],
    )
    sibling_entries = []
    for i in range(num_shards):
        if i == index:
            continue
        sibling = ShardStore(shard_path.parent / f"shard-{i:04d}.sqlite")
        try:
            sibling_entries.extend(sibling.journal_entries())
        finally:
            sibling.conn.close()  # read-only peek: no commit, just release
    return (lambda doc_id: router.shard_of(doc_id) == index), sibling_entries


def _heartbeat_loop(conn: Connection) -> None:
    """Echo pings forever; runs as a daemon thread so the parent can
    distinguish a hung serve loop (pings answered) from a dead process."""
    while True:
        try:
            op, _ = conn.recv()
        except Exception:
            return
        if op != "ping":
            return
        try:
            conn.send(("ok", {"pid": os.getpid()}))
        except Exception:
            return


def _sabotage_reply(conn: Connection, fault, result) -> None:
    """Fire a mid_frame / corrupt reply fault, then die.

    Either way the stream is beyond repair afterwards, so the worker
    exits with the injected-crash status rather than limp on.
    """
    sock = conn._sock
    try:
        if fault.kind == "mid_frame":
            frame = frame_bytes(("ok", result))
            sock.sendall(frame[: max(5, len(frame) // 2)])
        else:  # corrupt: a length prefix past the sanity bound
            sock.sendall(_U32.pack(2) + _U64.pack(MAX_PART_BYTES + 1))
    except OSError:
        pass
    os._exit(faults.CRASH_EXIT_CODE)


def _serve_loop(conn: Connection, db, host, plan: faults.FaultPlan) -> None:
    """Answer requests until shutdown/EOF. Op errors are shipped back as
    ``("err", traceback)`` frames; the worker survives them."""
    from repro.store.catalog import _write_shard_full

    while True:
        try:
            op, payload = conn.recv()
        except (RPCError, OSError):
            return  # parent closed the pipe (or died): exit quietly
        payload = payload or {}
        try:
            if op == "shutdown":
                conn.send(("ok", None))
                return
            if op == "batch":
                result = [
                    host.handle(sub_op, sub_payload or {})
                    for sub_op, sub_payload in payload["ops"]
                ]
            elif op == "journal_append":
                db.append_journal(payload["seq"], payload["op"], payload["payload"])
                db.commit()
                # The crash window the recovery tests aim at: the entry
                # is durable but the ack never leaves and the op body
                # never runs — replay at respawn must apply it.
                plan.crash("after_journal_append")
                result = None
            elif op == "journal_delete":
                db.delete_journal(payload["seq"])
                db.commit()
                result = None
            elif op == "journal_entries":
                result = list(db.journal_entries())
            elif op == "checkpoint":
                _write_shard_full(db, host.session)
                # Rewrite staged but journal not yet cleared/committed:
                # SQLite rolls the rewrite back, the journal survives.
                plan.crash("mid_checkpoint")
                db.clear_journal()
                db.commit()
                result = None
            else:
                result = host.handle(op, payload)
        except BaseException:
            try:
                conn.send(("err", traceback.format_exc()))
            except (RPCError, OSError):
                return
            continue
        if plan:
            fault = plan.reply_action(op, payload)
            if fault is not None:
                _sabotage_reply(conn, fault, result)
        try:
            conn.send(("ok", result))
        except (RPCError, OSError):
            return


def main(argv: list[str] | None = None) -> int:
    """Child entry point:
    ``python -m repro.serve.worker <shard.sqlite> <req_fd> <hb_fd> <index>``."""
    from repro.serve.ops import OPS, ShardHost
    from repro.store import ShardStore, replay_shard_journal, restore_shard_session

    argv = sys.argv[1:] if argv is None else argv
    shard_path, req_fd = Path(argv[0]), int(argv[1])
    hb_fd = int(argv[2]) if len(argv) > 2 else None
    index = int(argv[3]) if len(argv) > 3 else 0
    conn = Connection(socket.socket(fileno=req_fd))
    hb_conn = Connection(socket.socket(fileno=hb_fd)) if hb_fd is not None else None
    plan = faults.FaultPlan.from_env()
    try:
        plan.crash("boot")
        db = ShardStore(shard_path)
        db.integrity_check()
        session = restore_shard_session(db)
        owns_document, sibling_entries = _replay_context(shard_path, index)
        replayed = replay_shard_journal(
            db,
            session,
            owns_document=owns_document,
            sibling_entries=sibling_entries,
        )
        host = ShardHost(session, OPS)
        journal_seq = max((seq for seq, _, _ in db.journal_entries()), default=0)
        conn.send(
            (
                "ok",
                {
                    "ready": True,
                    "pid": os.getpid(),
                    "replayed": replayed,
                    "journal_seq": journal_seq,
                },
            )
        )
    except BaseException:
        try:
            conn.send(("err", traceback.format_exc()))
        except (RPCError, OSError):
            pass
        conn.close()
        return 1
    if hb_conn is not None:
        threading.Thread(
            target=_heartbeat_loop, args=(hb_conn,), daemon=True
        ).start()
    try:
        _serve_loop(conn, db, host, plan)
    finally:
        conn.close()
        db.close()
    return 0


# --------------------------------------------------------------- parent side


def _reap(proc: subprocess.Popen, conn: Connection, hb_conn: Connection) -> None:
    """GC / close backstop: drop the pipes, then escalate politely.

    Must never raise: it runs on crashed children (already-dead pids),
    via ``weakref.finalize`` at interpreter teardown, and twice when an
    explicit ``close()`` precedes GC.
    """
    conn.close()
    hb_conn.close()
    try:
        if proc.poll() is None:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
    except OSError:
        pass


def _child_env() -> dict:
    """The child must import :mod:`repro` from the same tree the parent
    runs, whatever the parent's launch mechanism put on ``sys.path``."""
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing else os.pathsep.join([src_root, existing])
    )
    return env


class ShardWorker:
    """Parent-side handle on one shard worker process.

    ``request_timeout`` is the default deadline for :meth:`call`; any
    transport failure marks the handle ``broken`` (the connection can no
    longer be trusted — a timed-out request may complete later and leave
    a stale frame in the pipe) and surfaces as :class:`WorkerCrashed`,
    :class:`WorkerTimeout`, or :class:`FrameCorrupt`.
    """

    def __init__(
        self,
        shard_path: str | Path,
        index: int = 0,
        request_timeout: float | None = None,
    ):
        self.index = index
        self.path = Path(shard_path)
        self.request_timeout = request_timeout
        parent_sock, child_sock = socket.socketpair()
        hb_parent, hb_child = socket.socketpair()
        try:
            # Spawned via -c rather than -m: runpy would re-execute this
            # module on top of the copy the import graph already loaded.
            self.proc = subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    "import sys; from repro.serve.worker import main; "
                    "sys.exit(main(sys.argv[1:]))",
                    str(self.path),
                    str(child_sock.fileno()),
                    str(hb_child.fileno()),
                    str(index),
                ],
                pass_fds=(child_sock.fileno(), hb_child.fileno()),
                env=_child_env(),
            )
        finally:
            child_sock.close()
            hb_child.close()
        self.conn = Connection(parent_sock)
        self.hb_conn = Connection(hb_parent)
        self._lock = Lock()
        self._hb_lock = Lock()
        self._closed = False
        self.broken = False
        self._finalizer = weakref.finalize(
            self, _reap, self.proc, self.conn, self.hb_conn
        )

    # ------------------------------------------------------------ liveness

    def _state(self) -> str:
        code = self.proc.poll()
        return "still running" if code is None else f"exit code {code}"

    def _who(self) -> str:
        return f"shard worker {self.index} (pid {self.proc.pid}, {self._state()})"

    @property
    def alive(self) -> bool:
        return not self._closed and self.proc.poll() is None

    @property
    def usable(self) -> bool:
        """Safe to route requests here: open, unbroken, process alive."""
        return not self._closed and not self.broken and self.proc.poll() is None

    def ping(self, timeout: float = 1.0) -> bool:
        """Heartbeat round-trip on the control pipe.

        ``False`` means no answer within ``timeout`` — with the process
        still alive that is a *hung* worker, not a dead one.
        """
        with self._hb_lock:
            if not self.usable:
                return False
            try:
                self.hb_conn.send(("ping", {}), timeout=timeout)
                check_response(self.hb_conn.recv(timeout=timeout))
                return True
            except (RPCError, RemoteShardError, OSError):
                return False

    # ---------------------------------------------------------------- RPC

    def wait_ready(self, timeout: float | None = None) -> dict:
        """Block until the child finished restoring its shard."""
        try:
            return check_response(self.conn.recv(timeout=timeout))
        except WorkerTimeout:
            self.broken = True
            raise
        except ConnectionClosed as exc:
            self.broken = True
            raise WorkerCrashed(f"{self._who()} died during boot") from exc
        except FrameCorrupt:
            self.broken = True
            raise

    def call(self, op: str, payload: dict | None = None, timeout=...):
        """One RPC round-trip (callers are serialised on this worker)."""
        if timeout is ...:
            timeout = self.request_timeout
        with self._lock:
            if self._closed:
                raise WorkerCrashed(f"worker {self.index} is closed")
            if self.broken:
                raise WorkerCrashed(f"{self._who()} is broken (awaiting respawn)")
            try:
                self.conn.send((op, payload or {}), timeout=timeout)
                return check_response(self.conn.recv(timeout=timeout))
            except WorkerTimeout as exc:
                self.broken = True
                raise WorkerTimeout(f"{self._who()}: {op}: {exc}") from exc
            except ConnectionClosed as exc:
                self.broken = True
                raise WorkerCrashed(f"{self._who()} died during {op!r}") from exc
            except FrameCorrupt as exc:
                self.broken = True
                raise FrameCorrupt(f"{self._who()}: {op}: {exc}") from exc

    # --------------------------------------------------------------- admin

    def kill(self) -> None:
        """Hard stop: close pipes, kill the process, reap it. Idempotent,
        never raises — this is the supervisor's cleanup for a worker
        already presumed broken (no lock: closing the sockets unblocks
        any caller still waiting inside :meth:`call`)."""
        self._closed = True
        self.broken = True
        self.conn.close()
        self.hb_conn.close()
        try:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
        except OSError:
            pass

    def close(self) -> None:
        """Graceful shutdown: ask, wait, then let the reaper escalate.

        Idempotent and tolerant of a child that already exited — the
        shutdown round-trip is skipped for a dead or broken worker, and
        every transport failure on the way out is swallowed.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if not self.broken and self.proc.poll() is None:
                try:
                    self.conn.send(("shutdown", {}), timeout=5.0)
                    check_response(self.conn.recv(timeout=5.0))
                except (RPCError, RemoteShardError, OSError):
                    pass
        self._finalizer()  # close pipes + wait/terminate, then detach

    def __repr__(self) -> str:
        state = "alive" if self.alive else "closed"
        return f"ShardWorker(index={self.index}, pid={self.proc.pid}, {state})"


class WorkerSupervisor:
    """Respawn policy for shard workers: backoff + circuit breaker.

    Tracks *consecutive* failures per shard (a failed respawn attempt or
    a crash detected during service); a success resets the count. Once
    the count reaches ``max_respawns`` the circuit opens — the shard is
    reported :class:`~repro.serve.rpc.ShardUnavailable` without further
    respawn attempts until :meth:`reset` re-arms it. Between attempts,
    :meth:`backoff` sleeps ``backoff_base * 2^(failures-1)`` seconds,
    capped at ``backoff_cap``.
    """

    def __init__(
        self,
        max_respawns: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        sleep=time.sleep,
    ):
        self.max_respawns = max_respawns
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._sleep = sleep
        self._lock = Lock()
        self.failures: dict[int, int] = {}  # consecutive, resets on success
        self.respawns: dict[int, int] = {}  # lifetime, monotonic

    def tripped(self, shard: int) -> bool:
        with self._lock:
            return self.failures.get(shard, 0) >= self.max_respawns

    def note_failure(self, shard: int) -> None:
        with self._lock:
            self.failures[shard] = self.failures.get(shard, 0) + 1

    def note_ok(self, shard: int) -> None:
        with self._lock:
            self.failures[shard] = 0

    def note_respawn(self, shard: int) -> None:
        with self._lock:
            self.respawns[shard] = self.respawns.get(shard, 0) + 1

    def backoff(self, shard: int) -> None:
        with self._lock:
            failures = self.failures.get(shard, 0)
        if failures:
            delay = self.backoff_base * (2 ** (failures - 1))
            self._sleep(min(delay, self.backoff_cap))

    def reset(self, shard: int) -> None:
        """Re-arm an open circuit (administrative override)."""
        self.note_ok(shard)


if __name__ == "__main__":
    sys.exit(main())
