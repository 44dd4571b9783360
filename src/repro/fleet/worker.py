"""The shard worker: one :class:`~repro.fleet.shard.Shard` per process.

:func:`worker_main` is the child-process request loop behind the
``ShardWorker`` protocol. It owns exactly one shard, receives the
shard's slice of the event feed over a pipe (the supervisor partitions
by ``shard_of``), and answers every request in order:

================================  =========================================
request                           response
================================  =========================================
``("apply", [events])``           ``("ok", n_applied)`` or ``("err", message)``
``("slowdowns", [machines])``     ``("slowdowns", {m: (comp, comm, conf)})``
``("ping",)``                     ``("pong", applied, state_hash)``
``("hash",)``                     ``("hash", digest)``
``("replay", upto, checkpoint)``  ``("replayed", ReplayResult)``
``("inject", kind, after)``       ``("ok",)``
``("shutdown",)``                 ``("ok",)`` then the process exits
================================  =========================================

Responses come back strictly FIFO — a pipe is an ordered byte stream
and the loop answers one request before reading the next — so the
parent matches acknowledgements to requests positionally (its pending
:class:`~repro.fleet.admission.BoundedQueue` per worker).

``("apply", [events])`` carries a bounded *frame* of validated events
(the supervisor coalesces up to ``SupervisorPolicy.batch_size`` per
shard) and is acknowledged once per frame; a :class:`~repro.errors
.ModelError` mid-frame aborts the frame with ``("err", message)`` and
the supervisor kills and replays the worker, so partially applied
frames never survive. Stream accounting, heartbeat checkpoints and
replay verification all live on frame boundaries.

``("inject", kind, after)`` is the chaos hook: after *after* more
applied events — counted through frame payloads, not messages — the
worker SIGKILLs itself mid-handler (``exit``), wedges without
answering (``hang``), or lets an exception escape the loop
(``raise``). The supervision tree must treat all three the same way —
quarantine, respawn, replay — which is exactly what the chaos soak
asserts.

``("replay", upto_seq, checkpoint)`` rebuilds the shard from the
durable :class:`~repro.experiments.journal.EventLog`: the worker replays
every owned event with ``seq < upto_seq`` that it has not read yet
through :func:`~repro.fleet.shard.replay_stream` and answers with the
*cumulative* :class:`~repro.fleet.shard.ReplayResult` — replayed count,
rolling stream chain, and whether the pre-quarantine checkpoint was
reproduced. Its journal cursor and chain persist across requests, so
a catch-up round costs O(events logged since the last round), not
O(history), and never parses a line at or past ``upto_seq`` (the
supervisor bounds it by the log's sequence counter, so a torn tail is
never consumed). The supervisor verifies each round against its own
cumulative accounting (:mod:`repro.fleet.supervisor`). Bit-identical or
quarantined.
"""

from __future__ import annotations

import os
import select
import struct
import time
import traceback
from dataclasses import dataclass
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Sequence

from ..errors import ModelError
from .admission import BoundedQueue
from .shard import ArrayShard, replay_stream

__all__ = ["worker_main", "WorkerHandle", "WorkerUnavailable", "FAULT_KINDS"]

#: Chaos-injection kinds ``("inject", kind, after)`` understands.
FAULT_KINDS = ("exit", "hang", "raise")

#: Exit status for an injected crash — distinguishable from SIGKILL's
#: 137 in the supervisor's post-mortem, identical in its handling.
_CRASH_STATUS = 113


class WorkerUnavailable(Exception):
    """The worker's pipe is gone (process died or closed its end)."""


def worker_main(
    conn: Any,
    shard_id: int,
    machine_ids: Sequence[int],
    tables: tuple[Any, Any, Any],
    log_path: str | None,
) -> None:
    """Child-process entry point: serve one shard until shutdown/EOF."""
    from ..experiments.journal import JournalCursor

    shard = ArrayShard(shard_id, machine_ids, *tables)
    # Journal read position and rolling stream hash, both cumulative
    # across replay rounds.
    cursor = JournalCursor(log_path) if log_path is not None else None
    chain = b""
    fault: dict[str, Any] | None = None
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return  # parent went away; nothing left to serve
            op = msg[0]
            if op == "apply":
                failure: str | None = None
                applied = 0
                for event in msg[1]:
                    if fault is not None:
                        fault["after"] -= 1
                        if fault["after"] <= 0:
                            kind = fault["kind"]
                            fault = None
                            if kind == "exit":
                                os._exit(_CRASH_STATUS)
                            if kind == "hang":
                                time.sleep(3600.0)
                            if kind == "raise":
                                raise RuntimeError(
                                    "injected fault: exception inside the apply handler"
                                )
                    try:
                        shard.apply(event)
                    except ModelError as exc:
                        failure = str(exc)
                        break
                    applied += 1
                if failure is not None:
                    conn.send(("err", failure))
                else:
                    conn.send(("ok", applied))
            elif op == "slowdowns":
                answer = {}
                for machine in msg[1]:
                    comp, comm, conf = shard.slowdowns(machine)
                    answer[machine] = (comp, comm, int(conf))
                conn.send(("slowdowns", answer))
            elif op == "ping":
                conn.send(("pong", shard.applied, shard.state_hash()))
            elif op == "hash":
                conn.send(("hash", shard.state_hash()))
            elif op == "replay":
                result = replay_stream(
                    shard,
                    cursor.read(msg[1]),
                    checkpoint=msg[2],
                    chain=chain,
                    already=shard.applied,
                )
                chain = result.chain
                conn.send(("replayed", result))
            elif op == "inject":
                fault = {"kind": str(msg[1]), "after": int(msg[2])}
                conn.send(("ok",))
            elif op == "shutdown":
                conn.send(("ok",))
                return
            else:
                conn.send(("err", f"unknown worker op {op!r}"))
    except Exception:  # pragma: no cover - crash path exercised via chaos tests
        traceback.print_exc()
        os._exit(os.EX_SOFTWARE)


@dataclass
class PendingRequest:
    """One in-flight request awaiting its FIFO acknowledgement."""

    kind: str
    sent_at: float
    deadline: float | None
    meta: Any = None


class WorkerHandle:
    """Parent-side proxy for one shard worker process.

    Owns the process, the parent end of the pipe, and the FIFO of
    in-flight requests (a :class:`~repro.fleet.admission.BoundedQueue`,
    so per-worker depth is bounded and its ``full`` state is the
    cross-process backpressure signal). The handle is deliberately
    dumb: all supervision policy — deadlines, heartbeats, respawn,
    replay verification — lives in
    :class:`~repro.fleet.supervisor.SupervisedFleetService`.

    ``state`` is the worker lifecycle state machine::

        spawn ──► "replaying" ──verified──► "live"
          ▲            │                      │
          │            └──────── failure ─────┤
          └──breaker allows──── "dead" ◄──────┘

    (A first-boot worker starts "live": an empty shard trivially
    matches an empty stream.) A replaying worker whose in-flight round
    is the *handover* round (``handover``) also takes apply frames,
    which queue behind that round in the pipe.
    """

    LIVE = "live"
    REPLAYING = "replaying"
    DEAD = "dead"

    def __init__(
        self,
        ctx: Any,
        shard_id: int,
        machine_ids: Sequence[int],
        tables: tuple[Any, Any, Any],
        log_path: str | None,
        max_inflight: int,
        now: float,
    ) -> None:
        self.shard_id = int(shard_id)
        self.pending: BoundedQueue = BoundedQueue(max_inflight)
        self.state = self.LIVE
        self.last_ping = now
        #: The in-flight replay round is the last one: events admitted
        #: after it was sent are framed behind it instead of replayed.
        self.handover = False
        parent_conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=worker_main,
            args=(child_conn, shard_id, tuple(machine_ids), tables, log_path),
            name=f"fleet-worker-{shard_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.conn = parent_conn

    @property
    def pid(self) -> int | None:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def accepting(self) -> bool:
        """Takes apply frames: live, or replaying its handover round."""
        return self.state == self.LIVE or (
            self.state == self.REPLAYING and self.handover
        )

    def _send_with_deadline(self, msg: tuple, timeout: float) -> None:
        """``conn.send`` that cannot block forever on a full OS pipe.

        A plain ``Connection.send`` to a worker that has stopped
        reading (wedged in a handler, chaos ``hang``) blocks in
        ``write(2)`` once the kernel pipe buffer fills — with batched
        apply frames a handful of frames is enough — and then no
        supervision tick ever runs again to enforce the very deadline
        that would have failed the worker. So the pipe is written
        non-blocking under a wall-clock budget; a stall past *timeout*
        raises :class:`WorkerUnavailable` (the stream may have a
        partial message in it, so the connection is unusable and the
        caller must fail the worker — which the journal replay makes
        safe).
        """
        payload = bytes(ForkingPickler.dumps(msg))
        # The exact byte framing of Connection._send_bytes.
        if len(payload) > 0x7FFFFFFF:  # pragma: no cover - frames are bounded
            data = struct.pack("!i", -1) + struct.pack("!Q", len(payload)) + payload
        else:
            data = struct.pack("!i", len(payload)) + payload
        buf = memoryview(data)
        try:
            fd = self.conn.fileno()
        except (OSError, ValueError) as exc:
            raise WorkerUnavailable(str(exc)) from exc
        end = time.monotonic() + timeout
        os.set_blocking(fd, False)
        try:
            while buf:
                try:
                    written = os.write(fd, buf)
                except BlockingIOError:
                    written = 0
                except OSError as exc:
                    raise WorkerUnavailable(str(exc)) from exc
                if written:
                    buf = buf[written:]
                    continue
                remaining = end - time.monotonic()
                if remaining <= 0:
                    raise WorkerUnavailable(
                        f"send stalled {timeout:.1f}s: worker not draining its pipe"
                    )
                select.select([], [fd], [], min(remaining, 0.05))
        finally:
            try:
                os.set_blocking(fd, True)
            except OSError:  # pragma: no cover - conn torn down mid-send
                pass

    def request(
        self,
        msg: tuple,
        kind: str,
        deadline: float | None,
        now: float,
        meta: Any = None,
    ) -> bool:
        """Send *msg*; False means the in-flight window is full.

        Raises :class:`WorkerUnavailable` when the pipe is broken or
        the send stalls past the request deadline — the caller routes
        that into the failure path.
        """
        if self.pending.full:
            return False
        self._send_with_deadline(msg, deadline if deadline is not None else 60.0)
        self.pending.offer(PendingRequest(kind, now, deadline, meta))
        return True

    def poll_ack(self) -> tuple[PendingRequest, tuple] | None:
        """Receive one acknowledgement if ready; None when none pending.

        Raises :class:`WorkerUnavailable` on a broken/EOF pipe, and on
        a response with no matching request (protocol desync).
        """
        if not len(self.pending):
            return None
        try:
            if not self.conn.poll(0):
                return None
            response = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise WorkerUnavailable(str(exc)) from exc
        entry = self.pending.take()
        return entry, response

    def wait_ack(self, timeout: float, clock: Callable[[], float]) -> tuple | None:
        """Block up to *timeout* seconds for the next acknowledgement."""
        deadline = clock() + timeout
        while True:
            remaining = deadline - clock()
            if remaining <= 0:
                return None
            try:
                if self.conn.poll(min(remaining, 0.05)):
                    ack = self.poll_ack()
                    if ack is not None:
                        return ack
            except (EOFError, OSError) as exc:
                raise WorkerUnavailable(str(exc)) from exc

    def oldest(self) -> PendingRequest | None:
        """The in-flight request whose acknowledgement is due next."""
        return self.pending.peek()

    def kill(self) -> None:
        """Forcibly terminate the process and close the pipe."""
        try:
            if self.process.is_alive():
                self.process.kill()
            self.process.join(timeout=5.0)
        except (OSError, ValueError):  # pragma: no cover - teardown races
            pass
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass

    def shutdown(self, timeout: float = 2.0) -> None:
        """Ask the worker to exit cleanly; escalate to kill."""
        try:
            self._send_with_deadline(("shutdown",), timeout)
        except WorkerUnavailable:
            pass
        self.process.join(timeout=timeout)
        self.kill()
