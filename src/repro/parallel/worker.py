"""The standalone shard worker process of the remote fabric.

``python -m repro.parallel.worker --host 127.0.0.1 --port 0`` starts one
worker: an asyncio server speaking the length-prefixed RPC protocol of
:mod:`repro.parallel.transport`.  It is a network skin, not a
re-implementation: every request names an op, and the worker runs the
handler the :func:`~repro.parallel.transport.rpc_op` registry recorded for
it — the shard ops of :mod:`repro.parallel.sharded`, the very functions the
in-host lanes run, plus this module's own ``ping`` and ``shutdown``.

Execution model
---------------
Every request names a **lane** (a stable string identity chosen by the
coordinator).  The worker pins each lane to its own single-thread executor,
created on first use and kept for the worker's lifetime, so

* a lane's operations run strictly in submission order (the pipelining
  contract of ``incremental_update_many``);
* the SQLite-backed state a lane's bootstrap creates is only ever touched
  from the thread that created it (SQLite connections are thread-affine);
* a *reconnecting* coordinator (after a severed connection) reaches the
  same executor thread by sending the same lane id — shard state survives
  connection loss, though the coordinator conservatively re-bootstraps
  after any ambiguous failure.

Different lanes run concurrently; shard states live in the worker's copy of
:data:`repro.parallel.sharded._SHARD_STATES`, exactly as they do in a
process lane.  Bootstrap and ``full_summary`` hold each shard's group
summary on its state, and one ``reduce_summaries`` call per worker claims
and merges the held summaries of that worker's lanes before they cross the
network (see :func:`repro.parallel.sharded._reduce_summaries`).

The worker prints ``READY <host> <port>`` on stdout once listening (the
spawn helpers parse it — ``--port 0`` binds an ephemeral port) and exits on
SIGTERM/SIGINT or a ``shutdown`` request; its shard states die with the
process.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import traceback
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.exceptions import FabricError
from repro.parallel import sharded as _sharded
from repro.parallel.transport import (
    FrameError,
    TransportClosed,
    encode_frame,
    op_spec,
    read_frame,
    rpc_op,
)

__all__ = ["ShardWorker", "main"]


class ShardWorker:
    """One remote shard host: lane-pinned execution over the RPC protocol."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self._requested_port = port
        self._server: asyncio.base_events.Server | None = None
        self._lane_executors: dict[str, ThreadPoolExecutor] = {}
        self._shutdown = asyncio.Event()

    @property
    def port(self) -> int:
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self._requested_port
        )

    async def serve_until_shutdown(self) -> None:
        await self._shutdown.wait()
        await self.stop()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for executor in self._lane_executors.values():
            executor.shutdown(wait=False)
        self._lane_executors.clear()

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    message, _ = await read_frame(reader)
                except (TransportClosed, FrameError):
                    # EOF, reset, or corrupt framing: this conversation
                    # cannot continue (states survive for a reconnect).
                    break
                seq, lane, op, payload = message
                try:
                    handler = op_spec(op).handler
                except FabricError:
                    reply = (seq, False, ("FabricError", f"unknown op {op!r}", ""))
                else:
                    executor = self._lane_executors.setdefault(
                        lane, ThreadPoolExecutor(max_workers=1, thread_name_prefix=lane)
                    )
                    try:
                        result = await loop.run_in_executor(executor, handler, payload)
                        reply = (seq, True, result)
                    except Exception as exc:  # noqa: BLE001 - protocol boundary
                        reply = (
                            seq,
                            False,
                            (type(exc).__name__, str(exc), traceback.format_exc()),
                        )
                writer.write(encode_frame(reply))
                await writer.drain()
                if op == "shutdown":
                    self._shutdown.set()
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


@rpc_op("ping", idempotent=True)
def _ping(payload: Any) -> dict:
    """Liveness probe; reports how many shard states this worker holds."""
    return {"pong": True, "states": len(_sharded._SHARD_STATES)}


@rpc_op("shutdown", idempotent=True)
def _shutdown(payload: Any) -> bool:
    """Acknowledge; the connection handler then stops the worker."""
    return True


async def _amain(host: str, port: int) -> None:
    worker = ShardWorker(host, port)
    await worker.start()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, worker._shutdown.set)
    print(f"READY {worker.host} {worker.port}", flush=True)
    await worker.serve_until_shutdown()


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel.worker",
        description="Run one remote shard worker of the repro fabric.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=0, help="bind port (0 picks an ephemeral one)"
    )
    args = parser.parse_args(argv)
    try:
        asyncio.run(_amain(args.host, args.port))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
