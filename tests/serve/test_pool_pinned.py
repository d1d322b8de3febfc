"""Served output of the pool, pinned bit for bit.

The digests were recorded before the serve hot path was trimmed
(gauges on transitions only, the in-place phase walk, the lean health
test and the bounded ledger).  Any change to the bytes, the event log or
the ledger counters of these runs is a behaviour change, not a speedup.
"""

import dataclasses
import hashlib
import json

from repro.core.campaign import RingSpec
from repro.serve.chaos import DEFAULT_POOL_SPECS, default_chaos_scenario
from repro.serve.pool import PoolConfig, PoolExhaustedError, TrngPool

RINGS = (RingSpec("iro", 5), RingSpec("iro", 7), RingSpec("str", 48), RingSpec("str", 96))


def _sha(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def test_nominal_pool_bytes():
    pool = TrngPool(RINGS, seed=0)
    assert _sha(pool.get_bytes(1 << 20)) == (
        "dd341e68d73cd36ed2e6eaab8f02d5b61ddda9ed2709d588a32bd31f947f45bb"
    )
    assert pool.ledger_total == 16384
    assert pool.unhealthy_emitted_blocks() == 0


def test_fault_driven_pool_run():
    """The chaos drill's faults, driven synchronously: a warm-up, then a
    persistent brownout plus a windowed shared glitch while 150 requests
    of 1 KiB are served (one of them finds the pool exhausted)."""
    pool = TrngPool(DEFAULT_POOL_SPECS, config=PoolConfig(min_healthy=3), seed=1234)
    served = bytearray(pool.get_bytes(4096))
    pool.inject(default_chaos_scenario())
    exhausted = 0
    for _ in range(150):
        try:
            served += pool.get_bytes(1024)
        except PoolExhaustedError:
            exhausted += 1
    assert exhausted == 1
    assert len(served) == 156672
    assert _sha(bytes(served)) == (
        "2a4d302dafe77bba844b7e083825bfd0753a1fc0caec37e76457520e0f8f9225"
    )
    kinds = pool.events.kinds()
    assert _sha(json.dumps(kinds).encode()) == (
        "169f034bec241a9c5ca12c3b901e01f483743d2b1f4e6f307adf641bf9cbae63"
    )
    assert _sha(json.dumps(pool.events.to_dict(), sort_keys=True).encode()) == (
        "dc33cb5bc6148c96dfbf0c3f940a8020371bffcb52840212c846dc719fc05904"
    )
    assert pool.ledger_total == 3313
    assert pool.unhealthy_emitted_blocks() == 0
    # The whole run fits the default window, so every entry is still there.
    assert len(pool.ledger) == pool.ledger_total
    assert sum(entry.emitted for entry in pool.ledger) == 2448
    assert _sha(
        json.dumps([dataclasses.astuple(entry) for entry in pool.ledger]).encode()
    ) == "41e7c44f6f5961c5da0ec12e78370f23f556e644742970b0936f3564d0c6791a"
