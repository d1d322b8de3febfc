"""Deterministic seed fan-out for campaign grids.

The historical campaign drivers passed one integer seed to *every* grid
point, which correlates the noise streams of different boards and
voltages (each point rebuilt the same generator).  The fix — and the
property the parallel executor relies on — is to derive one child seed
per grid point from the root seed with ``numpy.random.SeedSequence``:

* **deterministic** — the child list is a pure function of the root
  seed, so serial and parallel runs (any job count, any completion
  order) see exactly the same streams;
* **independent** — spawned ``SeedSequence`` children are designed to
  yield statistically independent generators, so grid points no longer
  share noise;
* **stable** — children depend only on (root, index), never on how many
  other points run in the same process or in which order.

The vectorised kernel
---------------------
A PUF population seeds one generator per device, up to a million of
them, and NumPy's object-per-child path costs about 13 µs to spawn a
child and about 11 µs more to build its ``default_rng`` (2-vCPU x86-64
host).  :func:`child_seeds` and
:func:`standard_normal_rows` re-implement exactly those two steps in
integer array arithmetic:

* ``SeedSequence`` hashing (``hashmix``/``mix`` over a pool of four
  uint32 words, the zero padding of the run entropy to the pool size
  when a spawn key is present, and ``generate_state``).  The root-only
  part of a child's hash is folded into four scalars once per call;
  only the spawn-key column is mixed as a vector.
* ``PCG64`` seeding: ``generate_state(4, uint64)`` of every seed is
  hashed in one vector pass, and the ``srandom`` step runs in Python
  128-bit integers, which re-states one reused generator per row.

NumPy's ``SeedSequence.spawn`` and ``default_rng(seed)`` are the
oracles (``tests/parallel/test_seed_kernel.py``).  The identity rests on
NumPy's stream-compatibility policy, which freezes ``SeedSequence``
and ``PCG64`` seeding across releases.
"""

from __future__ import annotations

import functools
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.simulation.noise import SeedLike

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0_D7E5
_MULT_A = 0x931E_8875
_INIT_B = 0x8B51_F9DD
_MULT_B = 0x58F3_8DED
_MIX_MULT_L = 0xCA01_F9DD
_MIX_MULT_R = 0x4973_F715
_XSHIFT = 16

# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128).
_PCG64_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
_MASK128 = (1 << 128) - 1

#: Below this many children the spawn-key column is hashed one Python
#: int at a time: the ~50 small-array ufunc calls of the vector pass
#: cost more than that.
_VECTOR_MIN_CHILDREN = 16

# The hash helpers take Python ints or uint64 arrays holding uint32
# values: products of two such values fit 64 bits, so masking after each
# multiply gives uint32 arithmetic on both.
Word = Any


def _hash(value: Word, xor: int, mult: int) -> Word:
    """One ``hashmix`` (or ``generate_state``) step with the given constants."""
    value =((value ^ xor) * mult) & _MASK32
    return value ^ (value >> _XSHIFT)


Schedule = Tuple[Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int, int, int], ...]]


@functools.lru_cache(maxsize=16)
def _mix_schedule(word_count: int) -> Schedule:
    """The hash constants of ``SeedSequence.mix_entropy`` over ``word_count`` words.

    ``hashmix`` advances its constant by ``MULT_A`` on every call, so
    the constants depend only on the call's position.  Returns the
    (xor, multiply) pairs of the four words hashed into the pool, then
    the ``(dst, src, xor, multiply)`` mixing steps; cells 0-3 are the
    pool and cell ``4 + j`` is entropy word ``4 + j``.
    """
    constants = []
    const = _INIT_A
    while len(constants) < _POOL_SIZE * max(word_count, _POOL_SIZE):
        following = (const * _MULT_A) & _MASK32
        constants.append((const, following))
        const = following
    sources = [
        (dst, src)
        for src in range(max(word_count, _POOL_SIZE))
        for dst in range(_POOL_SIZE)
        if src != dst
    ]
    steps = tuple(
        source + pair for source, pair in zip(sources, constants[_POOL_SIZE:])
    )
    return tuple(constants[:_POOL_SIZE]), steps


def _entropy_cells(words: Sequence[Word]) -> List[Word]:
    """The pool's four hashed words followed by any words beyond them."""
    initial, _ = _mix_schedule(len(words))
    hashed = [
        _hash(words[index] if index < len(words) else 0, xor, mult)
        for index, (xor, mult) in enumerate(initial)
    ]
    return hashed + list(words[_POOL_SIZE:])


def _mix(cells: List[Word], steps: Sequence[Tuple[int, int, int, int]]) -> None:
    """Apply ``pool[dst] = mix(pool[dst], hashmix(cells[src]))`` steps in place."""
    for dst, src, xor, mult in steps:
        hashed = ((cells[src] ^ xor) * mult) & _MASK32
        hashed ^= hashed >> _XSHIFT
        mixed = (_MIX_MULT_L * cells[dst] - _MIX_MULT_R * hashed) & _MASK32
        cells[dst] = mixed ^ (mixed >> _XSHIFT)


def _generate_state(pool: Sequence[Word], count: int) -> List[Word]:
    """``SeedSequence.generate_state(count, uint32)``."""
    words = []
    const = _INIT_B
    for index in range(count):
        following = (const * _MULT_B) & _MASK32
        words.append(_hash(pool[index % _POOL_SIZE], const, following))
        const = following
    return words


def _uint32_words(value: int) -> List[int]:
    """``value`` as little-endian uint32 words, as SeedSequence coerces an int."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def root_entropy(seed: SeedLike) -> int:
    """The integer root a fan-out derives from.

    ``None`` draws fresh OS entropy (irreproducible by request).  A
    ``numpy.random.Generator`` cannot be fanned out: its stream is
    stateful, so sharing it across a grid is order-dependent by
    construction; it raises ``TypeError``.
    """
    if seed is None:
        return int(np.random.SeedSequence().entropy)  # type: ignore[arg-type]
    if isinstance(seed, np.random.Generator):
        raise TypeError(
            "cannot derive child seeds from a stateful Generator; "
            "pass an integer root seed to fan a grid out"
        )
    root = int(seed)
    if root < 0:
        raise ValueError(f"root seed must be non-negative, got {root}")
    return root


def child_seeds(root: int, indices) -> np.ndarray:
    """Child seeds ``indices`` of a fan-out from ``root``, as uint64.

    Entry ``j`` equals
    ``SeedSequence(root).spawn(n)[indices[j]].generate_state(1, uint64)[0]``
    for any ``n`` above that index.  Indices must lie in ``[0, 2**32)``,
    where a spawn key is one uint32 word.
    """
    if root < 0:
        raise ValueError(f"root seed must be non-negative, got {root}")
    keys = np.asarray(indices, dtype=np.int64).reshape(-1)
    vector = keys.size >= _VECTOR_MIN_CHILDREN
    column = keys.astype(np.uint64) if vector else keys.tolist()
    if keys.size:
        low, high = (keys.min(), keys.max()) if vector else (min(column), max(column))
        if low < 0 or high > _MASK32:
            raise IndexError(f"child indices must lie in [0, 2**32), got {indices!r}")
    # A spawn key is present, so the run entropy is zero-padded to the
    # pool size and the key is the last entropy word.  Everything before
    # the key's four mixing steps is the same for every child.
    run = _uint32_words(root)
    run += [0] * (_POOL_SIZE - len(run))
    _, steps = _mix_schedule(len(run) + 1)
    cells = _entropy_cells(run + [0])
    _mix(cells, steps[:-_POOL_SIZE])

    def derive(key: Word) -> Word:
        child = list(cells)
        child[-1] = key
        _mix(child, steps[-_POOL_SIZE:])
        low, high = _generate_state(child, 2)
        return low | (high << 32)

    if vector:
        return derive(column)
    return np.array([derive(key) for key in column], dtype=np.uint64)


def standard_normal_rows(seeds, width: int) -> np.ndarray:
    """A ``(len(seeds), width)`` matrix of per-seed standard normals.

    Row ``i`` equals ``np.random.default_rng(seeds[i]).standard_normal(width)``
    bit for bit.  Every seed's ``SeedSequence`` pool and
    ``generate_state(4, uint64)`` are hashed in one vector pass (a seed
    below 2**32 is one entropy word, and a missing word hashes like a
    zero word, so every seed takes the two-word path); PCG64's
    ``srandom`` step then re-states one reused generator per row.
    """
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    out = np.empty((seeds.size, width))
    if not (seeds.size and width):
        return out
    pool = _entropy_cells([seeds & np.uint64(_MASK32), seeds >> np.uint64(32)])
    _mix(pool, _mix_schedule(2)[1])
    words = _generate_state(pool, 8)
    state_high, state_low, seq_high, seq_low = (
        (words[2 * half] | (words[2 * half + 1] << 32)).tolist()
        for half in range(4)
    )
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    inner = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0, "uinteger": 0}
    for row, s_high, s_low, q_high, q_low in zip(
        out, state_high, state_low, seq_high, seq_low
    ):
        increment = ((((q_high << 64) | q_low) << 1) | 1) & _MASK128
        inner["inc"] = increment
        inner["state"] = (
            (increment + ((s_high << 64) | s_low)) * _PCG64_MULT + increment
        ) & _MASK128
        bit_generator.state = state
        generator.standard_normal(out=row)
    return out


def spawn_seeds(seed: SeedLike, count: int) -> List[Optional[int]]:
    """Derive ``count`` independent child seeds from a root seed.

    ``None`` roots propagate as ``None`` children (fresh OS entropy per
    point — irreproducible by request).  A ``numpy.random.Generator``
    raises ``TypeError`` (see :func:`root_entropy`), and since every
    grid driver derives its point seeds here, passing one to a driver
    fails loudly too.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if seed is None:
        return [None] * count
    return child_seeds(root_entropy(seed), np.arange(count)).tolist()


def spawn_seed_subset(
    seed: SeedLike, count: int, indices: Sequence[int]
) -> List[Optional[int]]:
    """The selected children of a ``count``-wide fan-out.

    This is the property sharded execution rests on: the seed of grid
    point ``i`` is a function of ``(root, i)`` alone — never of how the
    grid was partitioned — so any ``(shard_index, shard_count)`` split
    reproduces the single-host streams exactly.  Only the selected
    children are derived.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    root = None if seed is None else root_entropy(seed)
    for index in indices:
        if not 0 <= int(index) < count:
            raise IndexError(
                f"seed index {index} out of range for a fan-out of {count}"
            )
    if root is None:
        return [None] * len(indices)
    return child_seeds(root, [int(index) for index in indices]).tolist()
