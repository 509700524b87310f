"""Shard worker processes: one ``shard-NNNN.sqlite`` behind an RPC pipe.

**Launch.** Workers are forked from a *zygote*, never started as fresh
interpreters. A server starts one zygote (:class:`Zygote`): a launcher
process that imports the worker's whole module graph — numpy, scipy and
:mod:`repro` — once, freezes it out of the garbage collector, and waits
on a control socket. A launch request carries the new worker's socket
ends (``SCM_RIGHTS``), its shard path and index, and the fault spec
armed at that moment (:func:`repro.serve.faults.armed`). The zygote
``fork()``\\ s, closes the request's descriptors in itself (a sibling
worker must never hold another worker's pipes), and answers with the
child's pid and a pidfd for it. Boot and every crash respawn therefore
cost one fork plus a shard restore, not an interpreter start whose
imports take several times as long as the restore itself.

The zygote stays single-threaded and opens no SQLite handle. It reaps
every worker as soon as it exits, writing the exit status to the
worker's status socket, and exits itself once its control socket is
closed and its last worker is gone. It is a direct child of the
front-end and is waited for on ``close()`` and GC, so every worker's
resource usage reaches the front-end's ``RUSAGE_CHILDREN``.

The child side (:func:`main`, run in the forked child) restores its
shard with the catalog-reopen path — reopening is ~13x cheaper than
refitting, which is what makes per-shard worker processes a reasonable
unit of deployment *and* what makes crash recovery cheap: a respawned
worker reopens its shard file, verifies integrity (``PRAGMA
quick_check``), replays its own journal tail
(:func:`repro.store.replay_shard_journal`) to the exact pre-crash state,
reports how long that took (``boot_s``) in its ready handshake, then
answers framed requests until ``shutdown`` or EOF.

Next to the request pipe the child keeps a second *heartbeat* pipe,
answered by a daemon thread regardless of what the serve loop is doing —
so the parent can tell a hung worker (request deadline fires, heartbeat
still answers) from a dead one (both pipes broken).

The parent side (:class:`ShardWorker`) holds the worker's sockets and a
Popen-shaped process handle (:class:`ForkedProcess`), serialises callers
onto the single in-flight request the protocol allows, converts
transport failures into the typed :class:`~repro.serve.rpc.RPCError`
hierarchy, and is reaped on GC via ``weakref.finalize`` as a backstop for
servers never closed. :class:`WorkerSupervisor` holds the respawn
policy: capped exponential backoff between attempts and a circuit
breaker that marks the shard unavailable after N consecutive failures.
"""

from __future__ import annotations

import gc
import os
import pickle
import select
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import traceback
import weakref
from contextlib import closing
from pathlib import Path
from threading import Lock

from repro.serve import faults
from repro.serve.ops import OPS, ShardHost
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
from repro.store import (
    ShardImage,
    ShardStore,
    checkpoint_shard,
    read_manifest,
    replay_shard_journal,
    restore_shard_session,
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
    with closing(ShardStore(catalog_path)) as catalog_db:
        manifest = read_manifest(catalog_db)
    if manifest.kind != "sharded":
        return None, None
    sibling_entries = []
    for i in range(manifest.num_shards):
        if i == index:
            continue
        sibling = ShardStore(shard_path.parent / f"shard-{i:04d}.sqlite")
        try:
            sibling_entries.extend(sibling.journal_entries())
        finally:
            sibling.conn.close()  # read-only peek: no commit, just release
    return (
        lambda doc_id: manifest.router.shard_of(doc_id) == index
    ), sibling_entries


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


def _serve_loop(
    conn: Connection, db, host, image: ShardImage, plan: faults.FaultPlan
) -> None:
    """Answer requests until shutdown/EOF. Op errors are shipped back as
    ``("err", traceback)`` frames; the worker survives them. ``image`` is
    what the shard file holds (see :func:`repro.store.checkpoint_shard`)."""
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
                staged = checkpoint_shard(db, host.session, image)
                # Writes staged but journal not yet cleared/committed:
                # SQLite rolls the writes back, the journal survives.
                plan.crash("mid_checkpoint")
                db.clear_journal()
                db.commit()
                image = staged
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


def main(shard_path: str, req_fd: int, hb_fd: int, index: int) -> int:
    """Worker entry point, run in the child a zygote forked: serve shard
    ``index`` from ``shard_path`` over the request and heartbeat sockets
    ``req_fd`` / ``hb_fd``."""
    shard_path = Path(shard_path)
    conn = Connection(socket.socket(fileno=req_fd))
    hb_conn = Connection(socket.socket(fileno=hb_fd))
    plan = faults.FaultPlan.from_env()
    try:
        plan.crash("boot")
        started = time.perf_counter()
        db = ShardStore(shard_path)
        db.integrity_check()
        session = restore_shard_session(db)
        image = ShardImage.of(session)  # the journal tail is not on file
        owns_document, sibling_entries = _replay_context(shard_path, index)
        replayed = replay_shard_journal(
            db,
            session,
            owns_document=owns_document,
            sibling_entries=sibling_entries,
        )
        host = ShardHost(session, OPS)
        boot_s = time.perf_counter() - started
        journal_seq = max((seq for seq, _, _ in db.journal_entries()), default=0)
        conn.send(
            (
                "ok",
                {
                    "ready": True,
                    "pid": os.getpid(),
                    "replayed": replayed,
                    "journal_seq": journal_seq,
                    "boot_s": boot_s,
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
    threading.Thread(target=_heartbeat_loop, args=(hb_conn,), daemon=True).start()
    try:
        _serve_loop(conn, db, host, image, plan)
    finally:
        conn.close()
        db.close()
    return 0


# -------------------------------------------------------------------- zygote

#: A worker's exit status, as the zygote writes it to the status socket.
_STATUS = struct.Struct("<i")

#: ``returncode`` of a worker whose zygote died before reaping it: the
#: status went to whichever process adopted the orphan.
LOST_STATUS = 255

#: Upper bound on one launch request or reply (a SOCK_SEQPACKET message).
_MAX_MESSAGE = 1 << 16

#: Seconds to wait for a zygote that should be exiting or reaping anyway.
_REAP_WAIT = 5.0


def _run_worker(control, fds, children, request) -> None:
    """The forked child: drop the zygote's descriptors, arm the launch's
    fault spec, run :func:`main`. Never returns."""
    code = 1
    try:
        signal.signal(signal.SIGINT, signal.default_int_handler)
        control.close()
        os.close(fds[2])  # the zygote's end of this worker's status socket
        for pidfd, (_, status_fd) in children.items():
            os.close(pidfd)
            os.close(status_fd)
        path, index, spec = request
        if spec:
            faults.install(spec)
        else:
            faults.clear()
        code = main(path, fds[0], fds[1], index)
    except BaseException:
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def _fork_worker(control, message: bytes, fds: list, children, poller) -> None:
    """Fork one worker for a launch request and answer with its pid and a
    pidfd; a failed fork is answered with its errno."""
    try:
        pid = os.fork()
    except OSError as exc:
        for fd in fds:
            os.close(fd)
        reply, pidfds = ("err", exc.errno, exc.strerror), []
    else:
        if pid == 0:
            _run_worker(control, fds, children, pickle.loads(message))
        # Close the worker's sockets here at once: a sibling forked later
        # would otherwise inherit them and the worker would never see EOF.
        os.close(fds[0])
        os.close(fds[1])
        pidfd = os.pidfd_open(pid)
        children[pidfd] = (pid, fds[2])
        poller.register(pidfd, select.POLLIN)
        reply, pidfds = ("ok", pid), [pidfd]
    try:
        socket.send_fds(control, [pickle.dumps(reply)], pidfds)
    except OSError:
        pass  # the front-end hung up; the worker sees EOF and exits


def _reap_child(fd: int, children, poller) -> None:
    pid, status_fd = children.pop(fd)
    poller.unregister(fd)
    os.close(fd)
    _, status = os.waitpid(pid, 0)
    try:
        os.write(status_fd, _STATUS.pack(os.waitstatus_to_exitcode(status)))
    except OSError:
        pass  # the front-end already let go of this worker
    os.close(status_fd)


def zygote_main(control_fd: int) -> int:
    """Zygote entry point: preload, then fork one worker per request on
    ``control_fd`` and reap each as it exits, until the control socket is
    closed and no worker is left."""
    # Ctrl-C at a terminal reaches the whole process group; the zygote
    # ends when its front-end hangs up, not on the front-end's signals.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Importing this module imported everything a worker runs (restoring
    # and replaying a shard imports nothing further): keep it out of the
    # collector's reach, so no child's collection copies those pages.
    gc.freeze()
    control = socket.socket(fileno=control_fd)
    children: dict[int, tuple[int, int]] = {}  # pidfd -> (pid, status fd)
    poller = select.poll()
    poller.register(control, select.POLLIN)
    listening = True
    while listening or children:
        for fd, _ in poller.poll():
            if fd in children:
                _reap_child(fd, children, poller)
                continue
            try:
                message, fds, _, _ = socket.recv_fds(control, _MAX_MESSAGE, 3)
            except OSError:
                message, fds = b"", []
            if message and len(fds) == 3:
                _fork_worker(control, message, fds, children, poller)
                continue
            for fd in fds:
                os.close(fd)
            poller.unregister(control)
            control.close()
            listening = False
    return 0


def _exited(pidfd: int, timeout: float | None) -> bool:
    """Whether the process behind ``pidfd`` exits within ``timeout``."""
    poller = select.poll()
    poller.register(pidfd, select.POLLIN)
    return bool(poller.poll(None if timeout is None else 1000 * timeout))


class ForkedProcess:
    """Popen-shaped handle on a worker a zygote forked: ``pid``,
    ``returncode``, :meth:`poll`, :meth:`wait`, :meth:`kill`,
    :meth:`terminate`.

    The zygote, not this process, is the worker's parent, so there is no
    ``waitpid`` here. Liveness comes from a pidfd, which turns readable
    once the worker exits and through which a signal can never reach a
    recycled pid; the exit status comes from the socket the zygote writes
    it to when it reaps the worker.
    """

    def __init__(self, pid: int, pidfd: int, status: socket.socket, zygote):
        self.pid = pid
        self.returncode: int | None = None
        self._pidfd = pidfd
        self._status = status
        self._lock = Lock()
        # The zygote exits only after its workers; holding its handle
        # here makes the handle's finalizer (which waits for the zygote)
        # run only once every worker it forked is gone.
        self._zygote = zygote

    def _collect(self) -> None:
        """Record the exit status and release the descriptors (the
        worker has exited; its zygote reaps it promptly)."""
        with self._lock:
            if self.returncode is not None:
                return
            self._status.settimeout(_REAP_WAIT)
            try:
                data = self._status.recv(_STATUS.size)
            except OSError:
                data = b""
            self._status.close()
            os.close(self._pidfd)
            self.returncode = (
                _STATUS.unpack(data)[0] if len(data) == _STATUS.size
                else LOST_STATUS
            )

    def poll(self) -> int | None:
        if self.returncode is None and _exited(self._pidfd, 0):
            self._collect()
        return self.returncode

    def wait(self, timeout: float | None = None) -> int:
        if self.returncode is None:
            if not _exited(self._pidfd, timeout):
                raise subprocess.TimeoutExpired(f"shard worker {self.pid}", timeout)
            self._collect()
        return self.returncode

    def send_signal(self, sig: int) -> None:
        with self._lock:
            if self.returncode is None:
                try:
                    signal.pidfd_send_signal(self._pidfd, sig)
                except ProcessLookupError:
                    pass  # exited, status not collected yet

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)

    def terminate(self) -> None:
        self.send_signal(signal.SIGTERM)


def _stop_zygote(proc: subprocess.Popen, control: socket.socket) -> None:
    """Hang up and wait for the zygote (it exits once its last worker is
    gone). Never raises; runs on ``close()``, on GC and at teardown."""
    control.close()
    try:
        proc.wait(timeout=_REAP_WAIT)
    except subprocess.TimeoutExpired:
        proc.kill()  # a worker outlived its handle: give up on the zygote
        proc.wait()
    except OSError:
        pass


class Zygote:
    """Front-end handle on one zygote process (see the module docs).

    :meth:`fork_worker` may be called from several threads. Any failure
    to launch through this zygote — it died, stopped answering, or the
    front-end ran out of descriptors — raises ``OSError``; the owner then
    :meth:`detach`\\ es it and starts another.
    """

    def __init__(self):
        control, remote = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        try:
            # Started via -c rather than -m: runpy would re-execute this
            # module on top of the copy the import graph already loaded.
            self.proc = subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    "import sys; from repro.serve.worker import zygote_main; "
                    "sys.exit(zygote_main(int(sys.argv[1])))",
                    str(remote.fileno()),
                ],
                pass_fds=(remote.fileno(),),
                env=_child_env(),
            )
        except BaseException:
            control.close()
            raise
        finally:
            remote.close()
        self._control = control
        self._lock = Lock()
        self._finalizer = weakref.finalize(self, _stop_zygote, self.proc, control)

    def fork_worker(
        self, shard_path: Path, index: int, timeout: float | None = None
    ) -> tuple[ForkedProcess, socket.socket, socket.socket]:
        """Fork one worker for ``shard_path``: its process handle plus the
        front-end ends of its request and heartbeat sockets. The fault
        spec armed *now* travels with the request."""
        ends, child_ends = [], []
        try:
            for _ in range(3):  # request, heartbeat, exit status
                end, child_end = socket.socketpair()
                ends.append(end)
                child_ends.append(child_end)
            request = pickle.dumps((str(shard_path), index, faults.armed()))
            with self._lock:
                self._control.settimeout(timeout)
                socket.send_fds(
                    self._control, [request], [s.fileno() for s in child_ends]
                )
                message, pidfds, _, _ = socket.recv_fds(
                    self._control, _MAX_MESSAGE, 1
                )
            for pidfd in pidfds:  # fds received by SCM_RIGHTS lack CLOEXEC
                os.set_inheritable(pidfd, False)
            if not message:
                raise ConnectionResetError(
                    f"zygote (pid {self.proc.pid}) hung up"
                )
            reply = pickle.loads(message)
            if reply[0] != "ok":
                raise OSError(reply[1], f"zygote could not fork: {reply[2]}")
        except BaseException:
            for end in ends:
                end.close()
            raise
        finally:
            for child_end in child_ends:
                child_end.close()  # the worker has its own copies now
        request_end, heartbeat_end, status_end = ends
        process = ForkedProcess(reply[1], pidfds[0], status_end, self)
        return process, request_end, heartbeat_end

    def detach(self) -> None:
        """Hang up without waiting: the zygote forks nothing more and
        exits once the workers it forked are gone; this handle's finalizer
        waits for it when the last of them has been collected."""
        self._control.close()

    def close(self) -> None:
        """Hang up and wait for the zygote to exit — after the workers it
        forked are closed. Idempotent."""
        self._finalizer()


# --------------------------------------------------------------- parent side


def _reap(proc: ForkedProcess, conn: Connection, hb_conn: Connection) -> None:
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
    """The zygote must import :mod:`repro` from the same tree the parent
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

    Constructed directly, a worker is forked by a zygote of its own that
    exits with it; a server forks all of its workers from one shared
    zygote through :meth:`forked`. ``boot_s`` is the worker's own timing
    of its catalog open, integrity check, restore and journal replay, set
    by :meth:`wait_ready`.
    """

    def __init__(
        self,
        shard_path: str | Path,
        index: int = 0,
        request_timeout: float | None = None,
    ):
        zygote = Zygote()
        try:
            self._start(zygote, shard_path, index, request_timeout)
        finally:
            zygote.detach()

    @classmethod
    def forked(
        cls,
        zygote: Zygote,
        shard_path: str | Path,
        index: int = 0,
        request_timeout: float | None = None,
    ) -> "ShardWorker":
        """A worker forked by ``zygote``; ``OSError`` if the launch fails."""
        worker = cls.__new__(cls)
        worker._start(zygote, shard_path, index, request_timeout)
        return worker

    def _start(self, zygote, shard_path, index, request_timeout) -> None:
        self.index = index
        self.path = Path(shard_path)
        self.request_timeout = request_timeout
        self.proc, request_end, heartbeat_end = zygote.fork_worker(
            self.path, index, timeout=request_timeout
        )
        self.conn = Connection(request_end)
        self.hb_conn = Connection(heartbeat_end)
        self.boot_s: float | None = None
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
            ready = check_response(self.conn.recv(timeout=timeout))
            self.boot_s = ready["boot_s"]
            return ready
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
