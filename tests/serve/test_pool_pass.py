"""The vectorised production pass against the block-by-block oracle.

``TrngPool.get_bytes`` serves a nominal pool in vectorised passes.  The
oracle here is the same pool driven one :meth:`TrngPool.produce_block`
at a time; both must leave the same bytes, events, ledger, RNG stream
and monitor state behind, including when a pass alarms and is rolled
back.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.campaign import RingSpec
from repro.serve import pool as pool_module
from repro.serve.pool import ChannelState, PoolConfig, PoolExhaustedError, TrngPool
from repro.telemetry import default_registry

RINGS = (RingSpec("iro", 5), RingSpec("iro", 7), RingSpec("str", 48), RingSpec("str", 96))

# Request sizes that leave bytes buffered between calls for every block size.
REQUESTS = (10, 700, 64, 1000, 3, 259)


def _oracle_get_bytes(pool, count):
    """``get_bytes`` one gated block at a time, as before the pass."""
    while len(pool._buffer) < count:
        block = pool.produce_block()
        if block is None:
            raise PoolExhaustedError("exhausted")
        pool._buffer.extend(np.packbits(block.astype(np.uint8)).tobytes())
    out = bytes(pool._buffer[:count])
    del pool._buffer[:count]
    pool.bytes_emitted += count
    return out


def _serve(get_bytes, requests):
    served = []
    for count in requests:
        try:
            served.append(get_bytes(count))
        except PoolExhaustedError:
            served.append(None)
    return served


def _state(pool):
    return {
        "events": pool.events.to_dict(),
        "ledger": [dataclasses.astuple(entry) for entry in pool.ledger],
        "ledger_total": pool.ledger_total,
        "rng": pool._rng.bit_generator.state,
        "status": pool.status(),
        "buffer": bytes(pool._buffer),
        "rr_offset": pool._rr_offset,
        "channels": [
            (
                channel.state,
                channel.flap_count,
                channel.eligible_at_s,
                channel.monitor.snapshot(),
                channel.monitor.alarms,
                channel.ring._held_bit,
            )
            for channel in pool.channels
        ],
    }


def _pair(config, seed, trip=None):
    pools = [TrngPool(RINGS, config=config, seed=seed) for _ in range(2)]
    if trip is not None:
        for pool in pools:
            channel = pool.channels[trip]
            for _ in range(config.max_flaps + 1):
                pool._quarantine(channel, reason="test")
                if channel.state is ChannelState.QUARANTINED:
                    channel.state = ChannelState.HEALTHY
            assert channel.state is ChannelState.TRIPPED
    return pools


def _assert_same_run(config, seed, requests, trip=None):
    batched, oracle = _pair(config, seed, trip)
    per_block = []
    produce_block = batched.produce_block

    def counting_produce_block():
        per_block.append(1)
        return produce_block()

    batched.produce_block = counting_produce_block
    assert _serve(batched.get_bytes, requests) == _serve(
        lambda count: _oracle_get_bytes(oracle, count), requests
    )
    assert _state(batched) == _state(oracle)
    return batched, len(per_block)


@pytest.mark.parametrize("block_bits", [16, 512, 520])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nominal_pass_matches_block_by_block(seed, block_bits):
    pool, per_block = _assert_same_run(PoolConfig(block_bits=block_bits), seed, REQUESTS)
    if not pool.events.kinds():
        assert per_block == 0  # every block came from a pass


@pytest.mark.parametrize("seed", [3, 4])
def test_pass_skips_a_tripped_channel(seed):
    pool, _ = _assert_same_run(PoolConfig(max_flaps=1), seed, REQUESTS, trip=2)
    served = {entry.channel for entry in pool.ledger if entry.emitted}
    assert pool.channels[2].name not in served
    assert len(served) == 3


@pytest.mark.parametrize("seed", [1, 5])
def test_alarmed_pass_rolls_back_to_the_same_quarantines(seed):
    """Slow phase diffusion (low Q) and a full-entropy claim make the
    health tests fire: each alarmed pass is rolled back and its blocks
    are produced again one at a time."""
    config = PoolConfig(q_target=0.02, claimed_min_entropy=1.0, block_bits=64, window=64)
    pool, per_block = _assert_same_run(config, seed, (400,) * 10)
    assert default_registry().counter("repro.serve.pool.batch_rollbacks").value > 0
    assert per_block > 0
    assert pool.events.first_of_kind("quarantine") is not None
    assert pool.unhealthy_emitted_blocks() == 0


def test_passes_are_capped(monkeypatch):
    shapes = []
    generate_rows = pool_module.generate_rows

    def recording_generate_rows(models, bit_count, rng):
        shapes.append((len(models), bit_count))
        return generate_rows(models, bit_count, rng)

    monkeypatch.setattr(pool_module, "generate_rows", recording_generate_rows)
    pool = TrngPool(RINGS, seed=0)
    pool.get_bytes(1 << 16)
    assert sum(rows for rows, _ in shapes) == pool.ledger_total == 1024
    assert len(shapes) > 1
    assert max(rows * bits for rows, bits in shapes) <= pool_module._PASS_BITS
