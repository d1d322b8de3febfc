"""The load generator: percentiles, the report, and a run against a live server.

Like the server tests, each async test drives its own event loop with
``asyncio.run`` around an in-process server on an ephemeral port.
"""

import asyncio
import dataclasses
import socket

import pytest

from repro.core.campaign import RingSpec
from repro.serve.loadgen import LoadReport, format_errors, percentile, run_load
from repro.serve.pool import TrngPool
from repro.serve.server import EntropyServer, ServerConfig

CLEAN = LoadReport(
    clients=2,
    requests_ok=8,
    requests_error=0,
    bytes_received=4096,
    degraded_grants=0,
    elapsed_s=2.0,
    p50_latency_s=0.001,
    p99_latency_s=0.002,
    max_latency_s=0.003,
    errors_by_code={},
    integrity_violations=0,
    client_failures=0,
)


class TestPercentile:
    @pytest.mark.parametrize(
        "q,expected", [(0.0, 1.0), (10.0, 1.0), (50.0, 5.0), (90.0, 9.0), (99.0, 10.0), (100.0, 10.0)]
    )
    def test_nearest_rank(self, q, expected):
        samples = [7.0, 3.0, 10.0, 1.0, 5.0, 9.0, 2.0, 8.0, 4.0, 6.0]
        assert percentile(samples, q) == expected

    def test_no_samples(self):
        assert percentile([], 99.0) == 0.0

    @pytest.mark.parametrize("q", [-1.0, 100.5])
    def test_rejects_out_of_range(self, q):
        with pytest.raises(ValueError):
            percentile([1.0], q)


class TestReport:
    def test_throughput(self):
        assert CLEAN.throughput_bytes_per_s == pytest.approx(2048.0)

    def test_throughput_of_instant_run(self):
        assert dataclasses.replace(CLEAN, elapsed_s=0.0).throughput_bytes_per_s == 0.0

    def test_clean_run_has_no_errors(self):
        assert format_errors(CLEAN) == ()

    def test_breaches_are_listed(self):
        broken = dataclasses.replace(CLEAN, integrity_violations=2, client_failures=1)
        assert format_errors(broken) == (
            "2 integrity violation(s)",
            "1 client connection failure(s)",
        )

    def test_typed_errors_are_not_breaches(self):
        shed = dataclasses.replace(CLEAN, requests_error=3, errors_by_code={"BACKPRESSURE": 3})
        assert format_errors(shed) == ()
        assert "error BACKPRESSURE: 3" in shed.render()


class TestRunLoad:
    def test_rejects_no_clients(self):
        with pytest.raises(ValueError):
            asyncio.run(run_load("127.0.0.1", 1, clients=0))

    def test_against_live_server(self):
        async def go():
            pool = TrngPool([RingSpec("iro", 5), RingSpec("str", 48)], seed=3)
            server = EntropyServer(pool, ServerConfig())
            await server.start()
            try:
                return await run_load(
                    "127.0.0.1", server.port, clients=2, requests_per_client=3, request_bytes=128
                )
            finally:
                server.request_shutdown()
                await asyncio.wait_for(server.wait_closed(), timeout=10)

        report = asyncio.run(go())
        assert report.requests_ok == 6
        assert report.bytes_received == 6 * 128
        assert report.requests_error == 0
        assert format_errors(report) == ()
        assert 0.0 < report.p50_latency_s <= report.p99_latency_s <= report.max_latency_s

    def test_unreachable_server_counts_client_failures(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        report = asyncio.run(run_load("127.0.0.1", port, clients=2, requests_per_client=1))
        assert report.client_failures == 2
        assert report.requests_ok == 0
        assert format_errors(report) == ("2 client connection failure(s)",)
