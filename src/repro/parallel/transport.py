"""Length-prefixed asyncio RPC transport of the remote shard fabric.

The wire format is deliberately minimal — the lane/task protocol was shaped
for remote workers from the start (plain picklable dicts and tuples), so the
transport only needs framing, request/reply correlation and failure
classification:

* **Frame**: a 4-byte big-endian unsigned length ``N`` followed by ``N``
  bytes of pickle.  Frames above :data:`MAX_FRAME_BYTES` are refused on both
  sides before any allocation, so a corrupt length prefix cannot balloon
  memory.
* **Request**: ``(seq, lane, op, payload)`` — ``seq`` is a per-connection
  monotonically increasing correlation id, ``lane`` the stable lane
  identity (workers pin each lane's shard state to one executor thread by
  this id, surviving reconnects), ``op`` a registered operation name.
* **Reply**: ``(seq, ok, payload)`` — ``ok=False`` carries
  ``(exc_type, message, traceback)`` and is re-raised coordinator-side as
  :class:`~repro.exceptions.RemoteCallError`.

Replies are matched by ``seq``; anything with a *stale* sequence number is
discarded, which makes duplicated frames (a chaos proxy, a retransmitting
middlebox) harmless instead of desynchronising the stream.  A reply from
the *future* can only mean protocol corruption and severs the connection.

:class:`RpcConnection` is the client half used by the coordinator's lane
pool; the server half lives in :mod:`repro.parallel.worker`.  Per-call
timeouts are enforced with ``asyncio.wait_for``; once a call times out the
connection is poisoned (the reply stream can no longer be trusted) and the
lane above it re-pins.  :class:`RetryPolicy` centralises the exponential
backoff used for connection establishment and idempotent calls — the sleep
function is injectable so tests drive it without wall-clock waits.

Every operation that crosses this transport is **declared** with the
:func:`rpc_op` decorator, which records its name, its one handler and —
crucially — whether it is idempotent.  Retries are only ever attached to
registered-idempotent ops: :meth:`RemoteWorkerPool.submit <repro.parallel.remote.RemoteWorkerPool.submit>`
refuses ``retryable=True`` for anything else at runtime, and the project
linter (``python -m repro.lint``, rule RPL002) cross-checks the same
invariant statically, so idempotency claims live in one machine-checked
registry instead of docstrings.
"""

from __future__ import annotations

import asyncio
import pickle
import struct
from collections.abc import Awaitable, Callable, Iterator
from dataclasses import dataclass, field
from typing import Any, TypeVar

from repro.exceptions import FabricError, RemoteCallError

__all__ = [
    "MAX_FRAME_BYTES",
    "FrameError",
    "TransportClosed",
    "RetryPolicy",
    "RpcConnection",
    "RpcOpSpec",
    "encode_frame",
    "idempotent_ops",
    "is_idempotent",
    "op_spec",
    "read_frame",
    "registered_ops",
    "rpc_op",
]

#: Hard bound on a single frame's payload (pickle) size.  Shard bootstraps
#: ship row lists, so this is generous; anything larger is a protocol error.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_LENGTH = struct.Struct("!I")


class FrameError(FabricError):
    """A frame violated the wire format (oversized, truncated, unpicklable)."""


class TransportClosed(FabricError):
    """The peer went away mid-conversation (EOF, reset, poisoned stream)."""


# ----------------------------------------------------------------------
# The RPC-op registry: idempotency as declared, machine-checked fact
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RpcOpSpec:
    """One declared fabric operation and its one implementation.

    ``idempotent=True`` asserts that re-running the op after an *ambiguous*
    transport failure (the reply was lost — the op may or may not have
    executed) lands on the same state: stateless, read-only, or
    overwrite-on-rerun operations qualify.  Anything whose re-execution
    could double-apply an effect must be declared ``idempotent=False`` and
    is never retried — its failure path is lane loss and re-bootstrap.
    ``handler`` takes the request payload and returns the reply payload;
    every lane — in-host or on a remote worker — dispatches to it.
    """

    name: str
    idempotent: bool
    handler: Callable[[Any], Any] = field(compare=False, repr=False)


_RPC_OPS: dict[str, RpcOpSpec] = {}

_C = TypeVar("_C", bound=Callable[[Any], Any])


def rpc_op(name: str, *, idempotent: bool) -> Callable[[_C], _C]:
    """Declare a fabric RPC op, recording the decorated function as its handler.

    Each op has exactly one implementation, so a second declaration of a
    name raises :class:`~repro.exceptions.FabricError` immediately (at
    import time) — whatever its idempotency flag.  The decorated handler is
    tagged with its spec (``handler.__rpc_op__``).
    """

    def decorate(handler: _C) -> _C:
        if name in _RPC_OPS:
            raise FabricError(
                f"RPC op {name!r} is already declared "
                f"(idempotent={_RPC_OPS[name].idempotent}); every op has one "
                "implementation and one retry contract"
            )
        spec = RpcOpSpec(name=name, idempotent=idempotent, handler=handler)
        _RPC_OPS[name] = spec
        handler.__rpc_op__ = spec  # type: ignore[attr-defined]
        return handler

    return decorate


def op_spec(name: str) -> RpcOpSpec:
    """The declared spec of op ``name``; unknown names raise."""
    try:
        return _RPC_OPS[name]
    except KeyError:
        known = ", ".join(sorted(_RPC_OPS)) or "(none declared)"
        raise FabricError(f"unknown RPC op {name!r}; declared ops: {known}") from None


def is_idempotent(name: str) -> bool:
    """Whether ``name`` is a *declared idempotent* op (unknown names are not)."""
    spec = _RPC_OPS.get(name)
    return spec is not None and spec.idempotent


def registered_ops() -> tuple[str, ...]:
    """Every declared op name, sorted."""
    return tuple(sorted(_RPC_OPS))


def idempotent_ops() -> frozenset[str]:
    """The declared-idempotent op names — the only ops a retry may touch."""
    return frozenset(name for name, spec in _RPC_OPS.items() if spec.idempotent)


def encode_frame(message: Any) -> bytes:
    """One wire frame: length prefix plus the pickled message."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {len(payload)} bytes exceeds the {MAX_FRAME_BYTES}-byte bound"
        )
    return _LENGTH.pack(len(payload)) + payload


async def read_frame(reader: asyncio.StreamReader) -> tuple[Any, int]:
    """Read exactly one frame; returns ``(message, wire_bytes)``.

    Raises :class:`TransportClosed` on EOF.  EOF *between* frames and EOF
    *inside* a frame are the same failure to a caller (the conversation is
    over either way), so both surface as :class:`TransportClosed` — the
    distinction only matters to chaos tests, which assert on recovery
    behaviour, not on which byte died.
    """
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except (asyncio.IncompleteReadError, ConnectionError, OSError) as exc:
        raise TransportClosed(f"connection closed while reading a frame: {exc}") from exc
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"incoming frame announces {length} bytes, above the "
            f"{MAX_FRAME_BYTES}-byte bound — corrupt stream"
        )
    try:
        payload = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError, OSError) as exc:
        raise TransportClosed(f"connection closed mid-frame: {exc}") from exc
    try:
        return pickle.loads(payload), _LENGTH.size + length
    except Exception as exc:  # noqa: BLE001 - anything unpicklable is a frame error
        raise FrameError(f"undecodable frame payload: {exc}") from exc


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff shared by connect and idempotent-call retries.

    ``attempts`` counts *tries*, not retries (1 means no retry at all);
    delays grow ``base_delay * factor**i`` capped at ``max_delay``.  The
    sleep coroutine is injectable so tests exercise the schedule without
    waiting on the wall clock.
    """

    attempts: int = 3
    base_delay: float = 0.05
    factor: float = 2.0
    max_delay: float = 2.0
    sleep: Callable[[float], Awaitable[None]] = field(default=asyncio.sleep, repr=False)

    def delays(self) -> Iterator[float]:
        """The backoff delay *after* each failed try (one fewer than tries)."""
        for i in range(max(0, self.attempts - 1)):
            yield min(self.max_delay, self.base_delay * (self.factor**i))

    async def run(self, attempt: Callable[[], Awaitable[Any]]) -> Any:
        """Run ``attempt`` under the policy; re-raises the last failure.

        Only transport-level failures (:class:`TransportClosed`,
        :class:`FrameError`, ``ConnectionError``, ``OSError``,
        ``asyncio.TimeoutError``) are retried — a
        :class:`~repro.exceptions.RemoteCallError` means the peer is healthy
        and re-running would re-execute a failed operation.
        """
        delays = self.delays()
        while True:
            try:
                return await attempt()
            except RemoteCallError:
                raise
            except (TransportClosed, FrameError, ConnectionError, OSError, asyncio.TimeoutError):
                # next() must not leak StopIteration into this coroutine
                # (PEP 479 turns it into a RuntimeError); a None sentinel
                # re-raises the transport failure instead.
                delay = next(delays, None)
                if delay is None:
                    raise
                await self.sleep(delay)


class RpcConnection:
    """One client connection to a shard worker, multiplexing calls by ``seq``.

    Calls are serialised through an internal lock (one request in flight per
    connection — lanes are single-worker executors, so there is never
    anything to overlap) and correlated by sequence number, which is what
    lets the connection discard duplicated or stale replies injected by a
    fault proxy.  After a timeout or stream error the connection is
    *poisoned*: the pending reply could arrive at any point, so no further
    call may trust the stream, and :meth:`call` fails fast until the owner
    reconnects.

    Byte counters (:attr:`bytes_sent` / :attr:`bytes_received`) feed the
    fabric's transport statistics.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._lock = asyncio.Lock()
        self._seq = 0
        self._poisoned: str | None = None
        self.bytes_sent = 0
        self.bytes_received = 0
        self.calls = 0

    @classmethod
    async def open(
        cls,
        host: str,
        port: int,
        retry: RetryPolicy | None = None,
        connect_timeout: float = 5.0,
    ) -> "RpcConnection":
        """Connect with backoff (a just-spawned worker may not be listening yet)."""
        policy = retry or RetryPolicy()

        async def attempt() -> "RpcConnection":
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), connect_timeout
            )
            return cls(reader, writer)

        try:
            return await policy.run(attempt)
        except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
            raise TransportClosed(f"cannot connect to worker {host}:{port}: {exc}") from exc

    @property
    def healthy(self) -> bool:
        return self._poisoned is None and not self._writer.is_closing()

    def _poison(self, reason: str) -> None:
        self._poisoned = reason

    async def call(self, lane: str, op: str, payload: Any, timeout: float | None) -> Any:
        """One request/reply round-trip; raises typed transport errors.

        * :class:`TransportClosed` — EOF / reset / poisoned stream; the lane
          is lost and its shard state must be re-bootstrapped.
        * ``asyncio.TimeoutError`` — no reply within ``timeout``; the call
          may or may not have executed, so the stream is poisoned too.
        * :class:`~repro.exceptions.RemoteCallError` — the worker ran the
          operation and it raised; lane and state remain healthy.
        """
        async with self._lock:
            if self._poisoned is not None:
                raise TransportClosed(f"connection poisoned: {self._poisoned}")
            self._seq += 1
            seq = self._seq
            frame = encode_frame((seq, lane, op, payload))
            try:
                return await asyncio.wait_for(self._round_trip(seq, frame), timeout)
            except asyncio.TimeoutError:
                self._poison(f"no reply to {op!r} (seq {seq}) within {timeout}s")
                raise
            except (TransportClosed, FrameError, ConnectionError, OSError) as exc:
                self._poison(str(exc))
                raise

    async def _round_trip(self, seq: int, frame: bytes) -> Any:
        self.calls += 1
        self.bytes_sent += len(frame)
        self._writer.write(frame)
        await self._writer.drain()
        while True:
            reply, wire_bytes = await read_frame(self._reader)
            self.bytes_received += wire_bytes
            reply_seq, ok, result = reply
            if reply_seq < seq:
                # A duplicated or stale reply (fault injection, retransmit):
                # drop it and keep reading for ours.
                continue
            if reply_seq > seq:
                raise FrameError(
                    f"reply sequence {reply_seq} from the future (awaiting {seq})"
                )
            if ok:
                return result
            exc_type, message, remote_traceback = result
            raise RemoteCallError(exc_type, message, remote_traceback)

    async def close(self) -> None:
        self._poison("closed")
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
