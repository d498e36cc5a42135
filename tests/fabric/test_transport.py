"""Unit tests of the RPC wire layer: framing, retry policy, correlation.

Everything here runs in-process — hand-fed stream readers and throwaway
asyncio servers — so the wire rules (length bounds, EOF classification,
stale/future sequence numbers, poisoning) are pinned without forking a
single worker.
"""

from __future__ import annotations

import asyncio
import pickle
import socket

import pytest

from repro.exceptions import FabricError, RemoteCallError
from repro.parallel import transport as transport_module
from repro.parallel.transport import (
    FrameError,
    RetryPolicy,
    RpcConnection,
    TransportClosed,
    _LENGTH,
    encode_frame,
    idempotent_ops,
    is_idempotent,
    op_spec,
    read_frame,
    registered_ops,
    rpc_op,
)
from repro.parallel.worker import ShardWorker


def _feed(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


class TestFraming:
    def test_round_trip_preserves_message_and_counts_wire_bytes(self):
        message = {"op": "bootstrap", "rows": [(1, {"AC": "518"})], "n": 3}

        async def scenario():
            frame = encode_frame(message)
            decoded, wire_bytes = await read_frame(_feed(frame))
            assert decoded == message
            assert wire_bytes == len(frame)

        asyncio.run(scenario())

    def test_oversized_outgoing_frame_is_refused(self, monkeypatch):
        monkeypatch.setattr(transport_module, "MAX_FRAME_BYTES", 16)
        with pytest.raises(FrameError, match="exceeds"):
            encode_frame("x" * 64)

    def test_oversized_incoming_announcement_is_refused_before_allocation(
        self, monkeypatch
    ):
        monkeypatch.setattr(transport_module, "MAX_FRAME_BYTES", 16)

        async def scenario():
            with pytest.raises(FrameError, match="corrupt stream"):
                await read_frame(_feed(_LENGTH.pack(1 << 20)))

        asyncio.run(scenario())

    def test_eof_between_frames_is_transport_closed(self):
        async def scenario():
            with pytest.raises(TransportClosed):
                await read_frame(_feed(b""))

        asyncio.run(scenario())

    def test_eof_mid_frame_is_transport_closed(self):
        async def scenario():
            with pytest.raises(TransportClosed, match="mid-frame"):
                await read_frame(_feed(_LENGTH.pack(100) + b"short"))

        asyncio.run(scenario())

    def test_undecodable_payload_is_frame_error(self):
        garbage = b"\xde\xad\xbe\xef not a pickle"

        async def scenario():
            with pytest.raises(FrameError, match="undecodable"):
                await read_frame(_feed(_LENGTH.pack(len(garbage)) + garbage))

        asyncio.run(scenario())


class TestRetryPolicy:
    def test_delay_schedule_is_exponential_and_capped(self):
        policy = RetryPolicy(attempts=5, base_delay=0.1, factor=2.0, max_delay=0.5)
        assert list(policy.delays()) == [0.1, 0.2, 0.4, 0.5]

    def test_single_attempt_means_no_retry(self):
        assert list(RetryPolicy(attempts=1).delays()) == []

    def test_run_retries_transport_failures_then_succeeds(self):
        slept: list[float] = []

        async def fake_sleep(delay: float) -> None:
            slept.append(delay)

        policy = RetryPolicy(attempts=3, base_delay=0.25, sleep=fake_sleep)
        calls = {"n": 0}

        async def attempt():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransportClosed("flaky")
            return "done"

        assert asyncio.run(policy.run(attempt)) == "done"
        assert calls["n"] == 3
        assert slept == [0.25, 0.5]

    def test_run_reraises_after_exhaustion(self):
        async def fake_sleep(delay: float) -> None:
            pass

        policy = RetryPolicy(attempts=2, sleep=fake_sleep)

        async def attempt():
            raise ConnectionResetError("gone")

        with pytest.raises(ConnectionResetError):
            asyncio.run(policy.run(attempt))

    def test_remote_call_error_is_never_retried(self):
        policy = RetryPolicy(attempts=5)
        calls = {"n": 0}

        async def attempt():
            calls["n"] += 1
            raise RemoteCallError("ValueError", "bad shard", "trace")

        with pytest.raises(RemoteCallError):
            asyncio.run(policy.run(attempt))
        assert calls["n"] == 1


async def _start_scripted_server(replies_for):
    """A one-connection server whose reply frames come from ``replies_for``."""

    async def handle(reader, writer):
        try:
            while True:
                message, _ = await read_frame(reader)
                for reply in replies_for(message):
                    writer.write(encode_frame(reply))
                await writer.drain()
        except (TransportClosed, FrameError, ConnectionError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


class TestRpcConnection:
    def test_calls_reach_an_in_process_worker(self):
        async def scenario():
            worker = ShardWorker()
            await worker.start()
            connection = await RpcConnection.open("127.0.0.1", worker.port)
            reply = await connection.call("lane-a", "ping", None, 5.0)
            assert reply["pong"] is True
            with pytest.raises(RemoteCallError, match="unknown op"):
                await connection.call("lane-a", "no-such-op", None, 5.0)
            # The operation failed remotely; the connection stays healthy.
            assert connection.healthy
            await connection.close()
            await worker.stop()

        asyncio.run(scenario())

    def test_stale_replies_are_discarded(self):
        def replies_for(message):
            seq, lane, op, payload = message
            # A duplicated/stale frame (seq 0 predates every real call)
            # rides ahead of the genuine reply.
            return [(0, True, "stale"), (seq, True, "fresh")]

        async def scenario():
            server, port = await _start_scripted_server(replies_for)
            connection = await RpcConnection.open("127.0.0.1", port)
            assert await connection.call("lane", "ping", None, 5.0) == "fresh"
            assert await connection.call("lane", "ping", None, 5.0) == "fresh"
            await connection.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_future_sequence_severs_the_connection(self):
        def replies_for(message):
            seq, *_ = message
            return [(seq + 10, True, "from the future")]

        async def scenario():
            server, port = await _start_scripted_server(replies_for)
            connection = await RpcConnection.open("127.0.0.1", port)
            with pytest.raises(FrameError, match="future"):
                await connection.call("lane", "ping", None, 5.0)
            assert not connection.healthy
            await connection.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_timeout_poisons_the_connection(self):
        def replies_for(message):
            return []  # never answer

        async def scenario():
            server, port = await _start_scripted_server(replies_for)
            connection = await RpcConnection.open("127.0.0.1", port)
            with pytest.raises(asyncio.TimeoutError):
                await connection.call("lane", "ping", None, 0.05)
            assert not connection.healthy
            # A poisoned stream fails fast instead of reading a late reply
            # as the answer to a different call.
            with pytest.raises(TransportClosed, match="poisoned"):
                await connection.call("lane", "ping", None, 0.05)
            await connection.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_connect_refused_is_transport_closed(self):
        # Bind-then-close an ephemeral port: nothing listens on it, and no
        # fixed port number can collide with a real service on the runner.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()

        async def scenario():
            with pytest.raises(TransportClosed, match="cannot connect"):
                await RpcConnection.open(
                    "127.0.0.1",
                    dead_port,
                    retry=RetryPolicy(attempts=1),
                    connect_timeout=1.0,
                )

        asyncio.run(scenario())

    def test_byte_counters_track_the_wire(self):
        async def scenario():
            worker = ShardWorker()
            await worker.start()
            connection = await RpcConnection.open("127.0.0.1", worker.port)
            await connection.call("lane", "ping", None, 5.0)
            sent = len(encode_frame((1, "lane", "ping", None)))
            assert connection.bytes_sent == sent
            assert connection.bytes_received > 0
            assert connection.calls == 1
            await connection.close()
            await worker.stop()

        asyncio.run(scenario())


class TestWorkerProtocol:
    def test_worker_replies_carry_the_remote_traceback(self):
        async def scenario():
            worker = ShardWorker()
            await worker.start()
            connection = await RpcConnection.open("127.0.0.1", worker.port)
            # state_stats on a key that was never bootstrapped raises
            # worker-side; the classified error crosses the wire whole.
            with pytest.raises(RemoteCallError) as excinfo:
                await connection.call("lane", "state_stats", "no-such-key", 5.0)
            assert excinfo.value.remote_type == "KeyError"
            assert "state_stats" in excinfo.value.remote_traceback
            await connection.close()
            await worker.stop()

        asyncio.run(scenario())

    def test_malformed_frame_ends_the_conversation_not_the_worker(self):
        async def scenario():
            worker = ShardWorker()
            await worker.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", worker.port)
            garbage = b"\x00garbage"
            writer.write(_LENGTH.pack(len(garbage)) + garbage)
            await writer.drain()
            assert await reader.read() == b""  # worker closed this stream
            writer.close()
            # ...but keeps serving fresh connections.
            connection = await RpcConnection.open("127.0.0.1", worker.port)
            assert (await connection.call("lane", "ping", None, 5.0))["pong"]
            await connection.close()
            await worker.stop()

        asyncio.run(scenario())

    def test_shutdown_op_stops_the_worker(self):
        async def scenario():
            worker = ShardWorker()
            await worker.start()
            connection = await RpcConnection.open("127.0.0.1", worker.port)
            assert await connection.call("lane", "shutdown", None, 5.0) is True
            await connection.close()
            await asyncio.wait_for(worker.serve_until_shutdown(), 5.0)

        asyncio.run(scenario())

    def test_frames_are_picklable_by_construction(self):
        # The wire format carries plain tuples/dicts end to end; a frame
        # re-pickled from its decoded form is byte-identical.
        message = (7, "lane:3", "update", ("key", [(1, {"A": "x"})], []))
        frame = encode_frame(message)
        assert pickle.loads(frame[_LENGTH.size:]) == message


@pytest.fixture
def scratch_op():
    """Declare throwaway @rpc_op names; unregisters them on teardown."""
    names: list[str] = []

    def declare(name: str, *, idempotent: bool):
        names.append(name)

        @rpc_op(name, idempotent=idempotent)  # reprolint: disable=RPL002
        def handler(payload):
            return payload

        return handler

    yield declare
    for name in names:
        transport_module._RPC_OPS.pop(name, None)


class TestRpcOpRegistry:
    def test_fabric_ops_are_declared_with_their_retry_contract(self):
        # The one non-idempotent op is the delta application: a retried
        # reply loss would double-apply it.
        assert set(registered_ops()) - idempotent_ops() == {"update", "reduce_summaries"}
        assert is_idempotent("bootstrap")
        assert not is_idempotent("update")

    def test_unknown_op_is_never_idempotent(self):
        assert not is_idempotent("no-such-op")
        with pytest.raises(FabricError, match="unknown RPC op"):
            op_spec("no-such-op")

    def test_declaration_tags_the_handler(self, scratch_op):
        handler = scratch_op("test-op-tagged", idempotent=True)
        assert handler.__rpc_op__.name == "test-op-tagged"
        assert handler.__rpc_op__.idempotent
        assert is_idempotent("test-op-tagged")

    def test_same_flag_redeclaration_raises(self, scratch_op):
        # Each op has one implementation: even an agreeing second
        # declaration is refused, and the first handler stays registered.
        first = scratch_op("test-op-shared", idempotent=True)
        with pytest.raises(FabricError, match="already declared"):
            scratch_op("test-op-shared", idempotent=True)
        assert op_spec("test-op-shared").handler is first

    def test_conflicting_redeclaration_raises_at_import_time(self, scratch_op):
        scratch_op("test-op-conflict", idempotent=True)
        with pytest.raises(FabricError, match="already declared"):
            scratch_op("test-op-conflict", idempotent=False)

    def test_every_op_dispatches_to_its_one_registered_handler(self):
        import repro.parallel.worker  # noqa: F401 - declares ping / shutdown

        for name in registered_ops():
            handler = op_spec(name).handler
            assert handler.__rpc_op__ is op_spec(name)
        assert op_spec("bootstrap").handler.__module__ == "repro.parallel.sharded"
        assert op_spec("ping").handler.__module__ == "repro.parallel.worker"

    def test_pool_refuses_retryable_submission_of_non_idempotent_op(self):
        from repro.parallel.remote import RemoteWorkerPool

        pool = RemoteWorkerPool(["127.0.0.1:9"])
        with pytest.raises(FabricError, match="not registered idempotent"):
            pool.submit(0, "update", ("key", [], []), retryable=True)  # reprolint: disable=RPL002
        with pytest.raises(FabricError, match="not registered idempotent"):
            pool.submit(0, "no-such-op", None, retryable=True)  # reprolint: disable=RPL002,RPL007
