"""Serving throughput: the entropy daemon's request path end to end.

``bench_serve`` is a tracked benchmark (gated through
``reference_timings.json``): it stands up an in-process
:class:`~repro.serve.server.EntropyServer` over a healthy four-channel
pool, drives it with the load generator (4 clients x 8 requests x 2 KiB
over real loopback sockets), and drains it.  A change that makes the
framing, pool gating, or grant loop accidentally quadratic — or that
serializes the request path — trips the CI regression gate.

The run asserts the load was clean (no errors, no integrity violations)
so a timing number from a broken server can never pass silently.  One
warm-up round and five measured rounds, each with a fresh pool and
server, make the gated mean more than one cold sample.
"""

from __future__ import annotations

import asyncio

from repro.core.campaign import RingSpec
from repro.serve import EntropyServer, ServerConfig, TrngPool
from repro.serve.loadgen import run_load

_POOL_SPECS = (
    RingSpec("iro", 5),
    RingSpec("iro", 7),
    RingSpec("str", 48),
    RingSpec("str", 96),
)


async def _serve_and_load():
    pool = TrngPool(_POOL_SPECS, seed=17)
    server = EntropyServer(pool, ServerConfig())
    await server.start()
    try:
        report = await run_load(
            "127.0.0.1",
            server.port,
            clients=4,
            requests_per_client=8,
            request_bytes=2048,
        )
    finally:
        server.request_shutdown()
        await asyncio.wait_for(server.wait_closed(), timeout=10)
    assert report.requests_error == 0, report.errors_by_code
    assert report.integrity_violations == 0
    assert report.client_failures == 0
    assert report.bytes_received == 4 * 8 * 2048
    return report


def _run() -> None:
    asyncio.run(_serve_and_load())


def bench_serve(benchmark):
    benchmark.pedantic(_run, rounds=5, iterations=1, warmup_rounds=1)
