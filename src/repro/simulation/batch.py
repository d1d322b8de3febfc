"""Vectorized batch ring-simulation kernel.

The per-event engine (:mod:`repro.simulation.engine`) advances one
transition at a time through a Python heap — faithful, but the pace is
set by the interpreter, not the hardware.  This module advances
*thousands of independent rings simultaneously* as 2-D numpy arrays
(axis 0 = ring instance, axis 1 = stage), which is what the million-ring
campaigns, PUF populations, and service-scale entropy workloads need.

Two kernels, one per ring family:

**IRO** (:func:`simulate_iro_batch`).  A free-running inverter ring is a
single event hopping stage to stage, so a whole run is one prefix sum::

    t_k = t_{k-1} + D_{k mod L} + N(0, sigma_{k mod L}^2)

The kernel tiles the per-stage delays across the event axis, injects the
Gaussian jitter of :mod:`repro.simulation.noise` in one vectorized draw
per ring, clamps the causality guard, and ``cumsum``s.  Because numpy's
``Generator`` produces the *same stream* whether sampled scalar-by-scalar
or as one array, and ``cumsum`` accumulates in the same order as the
event loop, the kernel is **bit-exact** against the event engine for the
same seed (the identity the batch==event tests pin down).  A
time-varying modulation makes a hop's delay depend on the time it
starts; the kernel then steps the same recurrence hop by hop over the
same pre-drawn noise, calling the modulation's scalar ``factor`` exactly
as the event engine does, so it stays bit-exact under every modulation.

**STR** (:func:`simulate_str_batch`).  A self-timed ring is a marked
graph: stage ``i`` fires when it holds a token (``C_i != C_{i-1}``) and
its successor holds a bubble (``C_{i+1} == C_i``), and — crucially —
*neither neighbour of an enabled stage can fire again until it does*
(the token blocks the predecessor, the bubble blocks the successor).
Input timestamps of an enabled stage are therefore frozen, and the
event-driven run is equivalent to a synchronous fix-point iteration:
repeatedly fire **every** enabled stage of every ring in one vectorized
"wave", applying the Charlie-effect timing model

    t_fire = (t_f + t_r) / 2 + charlie((t_f - t_r)/2) + noise

to all of them at once.  The wave kernel reproduces the event engine's
firing times *exactly* for the same per-firing noise — bit-identical
when ``sigma = 0`` — and is statistically equivalent otherwise (the
noise stream is consumed in a different, but per-ring deterministic,
order; see docs/performance.md for the documented tolerance bounds).

Rings of different lengths batch together: stage axes are padded to the
longest ring and neighbours resolved through per-ring index maps, so a
mixed FIG11/FIG12-style workload runs as one kernel invocation.  Within
an STR batch each ring is routed on its own: rings whose firing provably
alternates between even and odd stages run on the dense parity kernel,
the rest on the general masked-wave kernel, in one call.

Every result depends only on the owning ring's spec and seed — never on
which other rings share the batch — so batch composition is a pure
performance choice.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.simulation.noise import (
    ConstantModulation,
    DeterministicModulation,
    SeedLike,
    make_rng,
)
from repro.simulation.waveform import EdgeTrace
from repro.telemetry import default_registry, span

#: Causality guard used by the event engine when a noise draw would make
#: a delay non-positive; the kernels clamp with the same constant so the
#: guarded paths stay bit-compatible.
_CAUSALITY_GUARD_PS = 1e-6

#: Rows of a ring's noise block the parity kernel draws at a time.
_NOISE_CHUNK_ROWS = 1024


@dataclasses.dataclass(frozen=True)
class IROBatchSpec:
    """One inverter ring instance of an IRO batch.

    ``edge_count`` is the number of edges to record at the output stage
    (the last stage), matching ``SimulationLimits(max_observed_edges)``.
    """

    stage_delays_ps: np.ndarray
    jitter_sigmas_ps: np.ndarray
    supply_weights: np.ndarray
    edge_count: int
    seed: SeedLike = None

    def __post_init__(self) -> None:
        delays = np.asarray(self.stage_delays_ps, dtype=float)
        if delays.ndim != 1 or delays.size < 1:
            raise ValueError("stage delays must be a non-empty 1-D sequence")
        if np.any(delays <= 0.0):
            raise ValueError("all stage delays must be positive")
        sigmas = np.broadcast_to(
            np.asarray(self.jitter_sigmas_ps, dtype=float), delays.shape
        ).copy()
        if np.any(sigmas < 0.0):
            raise ValueError("jitter sigmas must be non-negative")
        weights = np.broadcast_to(
            np.asarray(self.supply_weights, dtype=float), delays.shape
        ).copy()
        if self.edge_count < 1:
            raise ValueError(f"edge_count must be positive, got {self.edge_count}")
        object.__setattr__(self, "stage_delays_ps", delays)
        object.__setattr__(self, "jitter_sigmas_ps", sigmas)
        object.__setattr__(self, "supply_weights", weights)

    @classmethod
    def from_ring(cls, ring, edge_count: int, seed: SeedLike = None) -> "IROBatchSpec":
        """Spec for a resolved :class:`~repro.rings.iro.InverterRingOscillator`."""
        return cls(
            stage_delays_ps=ring.stage_delays_ps,
            jitter_sigmas_ps=ring.jitter_sigmas_ps,
            supply_weights=ring.supply_weights,
            edge_count=edge_count,
            seed=seed,
        )

    @property
    def stage_count(self) -> int:
        return int(self.stage_delays_ps.size)


@dataclasses.dataclass(frozen=True)
class STRBatchSpec:
    """One self-timed ring instance of an STR batch.

    The Charlie diagram of stage ``i`` is carried in its primitive form
    (``Ds``, ``s0``, ``Dcharlie`` — see :mod:`repro.core.charlie`), plus
    the per-stage drafting parameters, so the kernel stays free of any
    per-stage Python objects.
    """

    static_delays_ps: np.ndarray  # Ds = (Dff + Drr) / 2
    separation_offsets_ps: np.ndarray  # s0 = (Drr - Dff) / 2
    charlie_ps: np.ndarray  # Dcharlie
    jitter_sigmas_ps: np.ndarray
    supply_weights: np.ndarray
    drafting_amplitudes_ps: np.ndarray
    drafting_time_constants_ps: np.ndarray
    initial_state: np.ndarray
    edge_count: int
    output_stage: int = 0
    seed: SeedLike = None
    name: str = "STR"

    def __post_init__(self) -> None:
        static = np.asarray(self.static_delays_ps, dtype=float)
        if static.ndim != 1 or static.size < 3:
            raise ValueError("an STR spec needs at least 3 stages of delays")
        shape = static.shape

        def _stage_array(value, label: str) -> np.ndarray:
            array = np.broadcast_to(np.asarray(value, dtype=float), shape).copy()
            return array

        object.__setattr__(self, "static_delays_ps", static)
        object.__setattr__(
            self, "separation_offsets_ps", _stage_array(self.separation_offsets_ps, "s0")
        )
        object.__setattr__(self, "charlie_ps", _stage_array(self.charlie_ps, "Dc"))
        sigmas = _stage_array(self.jitter_sigmas_ps, "sigma")
        if np.any(sigmas < 0.0):
            raise ValueError("jitter sigmas must be non-negative")
        object.__setattr__(self, "jitter_sigmas_ps", sigmas)
        object.__setattr__(self, "supply_weights", _stage_array(self.supply_weights, "w"))
        object.__setattr__(
            self,
            "drafting_amplitudes_ps",
            _stage_array(self.drafting_amplitudes_ps, "drafting amplitude"),
        )
        object.__setattr__(
            self,
            "drafting_time_constants_ps",
            _stage_array(self.drafting_time_constants_ps, "drafting tau"),
        )
        state = np.asarray(self.initial_state, dtype=np.int8)
        if state.shape != shape:
            raise ValueError("initial state length must equal the stage count")
        object.__setattr__(self, "initial_state", state)
        if self.edge_count < 1:
            raise ValueError(f"edge_count must be positive, got {self.edge_count}")
        if not (0 <= self.output_stage < static.size):
            raise ValueError(
                f"output stage {self.output_stage} outside ring of {static.size}"
            )

    @classmethod
    def from_ring(
        cls,
        ring,
        edge_count: int,
        seed: SeedLike = None,
        output_stage: int = 0,
    ) -> "STRBatchSpec":
        """Spec for a resolved :class:`~repro.rings.str_ring.SelfTimedRing`."""
        diagrams = ring.diagrams
        return cls(
            static_delays_ps=np.array(
                [d.parameters.static_delay_ps for d in diagrams]
            ),
            separation_offsets_ps=np.array(
                [d.parameters.separation_offset_ps for d in diagrams]
            ),
            charlie_ps=np.array([d.parameters.charlie_ps for d in diagrams]),
            jitter_sigmas_ps=ring.jitter_sigmas_ps,
            supply_weights=ring.supply_weights,
            drafting_amplitudes_ps=np.array(
                [d.drafting.amplitude_ps for d in diagrams]
            ),
            drafting_time_constants_ps=np.array(
                [d.drafting.time_constant_ps for d in diagrams]
            ),
            initial_state=ring.initial_state,
            edge_count=edge_count,
            output_stage=output_stage,
            seed=seed,
            name=ring.name,
        )

    @property
    def stage_count(self) -> int:
        return int(self.static_delays_ps.size)


@dataclasses.dataclass(frozen=True)
class BatchSimulationResult:
    """Traces of every ring in a batch, in spec order.

    ``events_processed`` counts stage firings / hops across the whole
    batch; ``waves`` is the number of synchronous iterations the STR
    kernels ran (0 for IRO batches).  ``ring_events[i]`` is the number
    of firings / hops ring ``i`` needs when run alone; the parity kernel
    runs its rings in lockstep to the longest budget, so
    ``events_processed`` can exceed their sum.
    """

    traces: List[EdgeTrace]
    events_processed: int
    waves: int = 0
    ring_events: Tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.traces)


# ----------------------------------------------------------------------
# IRO kernel
# ----------------------------------------------------------------------
def _iro_noise(
    spec: IROBatchSpec, hop_count: int, rng: np.random.Generator
) -> np.ndarray:
    """Per-hop Gaussian jitter, bit-compatible with the event engine.

    The event process draws one scalar ``normal(0, sigma_stage)`` per
    scheduled hop and *skips the draw entirely* for zero-sigma stages.
    Reproducing that stream exactly means drawing standard normals only
    at the sigma>0 hop positions, in hop order, then scaling.
    """
    stage_count = spec.stage_count
    tiles = -(-hop_count // stage_count)  # ceil division
    tiled_sigmas = np.tile(spec.jitter_sigmas_ps, tiles)[:hop_count]
    noise = np.zeros(hop_count)
    mask = tiled_sigmas > 0.0
    active = int(np.count_nonzero(mask))
    if active == hop_count:
        noise = rng.standard_normal(hop_count) * tiled_sigmas
    elif active:
        noise[mask] = rng.standard_normal(active) * tiled_sigmas[mask]
    return noise


def _modulated_hop_times(
    delays: List[float],
    weights: List[float],
    noise: List[float],
    factor: Callable[[float], float],
) -> np.ndarray:
    """Hop times under a time-varying modulation, one hop at a time.

    A hop's delay depends on the time it starts, so the run is the scalar
    recurrence ``t += D * (1 + w * factor(t)) + n``, a non-positive delay
    replaced by the causality guard — the float operations of the event
    process's ``_schedule_hop``, in its order, on the same scalar
    ``factor``.
    """
    times = []
    t = 0.0
    for delay, weight, jitter in zip(delays, weights, noise):
        delay = delay * (1.0 + weight * factor(t)) + jitter
        if delay <= 0.0:
            delay = _CAUSALITY_GUARD_PS
        t += delay
        times.append(t)
    return np.array(times)


def simulate_iro_batch(
    specs: Sequence[IROBatchSpec],
    modulation: Optional[DeterministicModulation] = None,
) -> BatchSimulationResult:
    """Advance a batch of inverter rings, one ring row at a time.

    Bit-exact against ``InverterRingOscillator.simulate`` for the same
    per-ring seed, under every modulation.  Without modulation, or under
    a :class:`ConstantModulation`, a ring's hop delays are known up front
    and its run is one ``cumsum``; under a time-varying modulation each
    hop's delay depends on when it starts, and the row runs
    :func:`_modulated_hop_times`.  Both consume the same pre-drawn noise.
    """
    specs = list(specs)
    if not specs:
        return BatchSimulationResult(traces=[], events_processed=0)
    constant = modulation is None or isinstance(modulation, ConstantModulation)
    factor = 0.0 if modulation is None else modulation.factor(0.0)
    with span("batch_simulate", family="iro", rings=len(specs)) as tele:
        traces: List[EdgeTrace] = []
        ring_events: List[int] = []
        total_events = 0
        for spec in specs:
            stage_count = spec.stage_count
            hop_count = spec.edge_count * stage_count
            tiles = -(-hop_count // stage_count)
            noise = _iro_noise(spec, hop_count, make_rng(spec.seed))
            if constant:
                base = spec.stage_delays_ps
                if modulation is not None:
                    # Same float ops as the event process: D * (1 + w * f).
                    base = base * (1.0 + spec.supply_weights * factor)
                delays = np.tile(base, tiles)[:hop_count] + noise
                np.maximum(delays, _CAUSALITY_GUARD_PS, where=delays <= 0.0, out=delays)
                times = np.cumsum(delays)
            else:
                times = _modulated_hop_times(
                    np.tile(spec.stage_delays_ps, tiles)[:hop_count].tolist(),
                    np.tile(spec.supply_weights, tiles)[:hop_count].tolist(),
                    noise.tolist(),
                    modulation.factor,
                )
            # The observed node is the last stage: one edge per lap.
            edge_times = times[stage_count - 1 :: stage_count]
            traces.append(EdgeTrace(edge_times, first_value=1))
            ring_events.append(hop_count)
            total_events += hop_count
        tele.set("events", total_events)
        registry = default_registry()
        registry.counter("repro.batch.simulations").inc()
        registry.counter("repro.batch.rings").inc(len(specs))
        registry.counter("repro.batch.events").inc(total_events)
        return BatchSimulationResult(
            traces=traces, events_processed=total_events, ring_events=tuple(ring_events)
        )


# ----------------------------------------------------------------------
# STR kernel
# ----------------------------------------------------------------------
def _noise_tensor(
    specs: Sequence[STRBatchSpec], budget: int, max_stages: int
) -> np.ndarray:
    """Pre-drawn jitter: ``[ring, n, stage]`` is the n-th firing's draw.

    Drawing the whole tensor up front keeps the per-wave cost at one
    gather instead of one Generator call per ring, and fixes a per-ring
    consumption order (stage-major within each firing index) so results
    are independent of batch composition.  All-zero-sigma rings skip
    their draws entirely (their slab stays zero).
    """
    noise = np.zeros((len(specs), budget, max_stages))
    for row, spec in enumerate(specs):
        if np.all(spec.jitter_sigmas_ps == 0.0):
            continue
        block = make_rng(spec.seed).standard_normal((budget, spec.stage_count))
        block *= spec.jitter_sigmas_ps[np.newaxis, :]
        noise[row, :, : spec.stage_count] = block
    return noise


def simulate_str_batch(
    specs: Sequence[STRBatchSpec],
    modulation: Optional[DeterministicModulation] = None,
) -> BatchSimulationResult:
    """Advance a batch of self-timed rings wave by wave.

    Each wave fires every enabled stage of every ring at once.  Firing
    times follow the event engine exactly (an enabled stage's inputs are
    frozen until it fires — see the module docstring), so the kernel is
    bit-identical to ``SelfTimedRing.simulate`` for noiseless rings and
    statistically equivalent with jitter.

    Two implementations share the same arithmetic, bit for bit, and each
    ring is routed on its own: rings whose token pattern provably
    alternates between the even and the odd stages every wave (the
    standard evenly-spread configuration) run on a dense
    precomputed-structure kernel (:func:`_simulate_str_parity`), the
    rest on the general masked-wave kernel (:func:`_simulate_str_waves`).
    Traces come back in spec order.

    Raises ``RuntimeError`` when a ring deadlocks (no fireable stage
    left before its edge budget is met), mirroring the event path.
    """
    specs = list(specs)
    if not specs:
        return BatchSimulationResult(traces=[], events_processed=0)
    plans = [_parity_plan(spec) for spec in specs]
    parity_rows = [row for row, plan in enumerate(plans) if plan is not None]
    general_rows = [row for row, plan in enumerate(plans) if plan is None]
    traces: List[Optional[EdgeTrace]] = [None] * len(specs)
    ring_events = [0] * len(specs)
    total_events = 0
    total_waves = 0
    with span(
        "batch_simulate", family="str", rings=len(specs), parity_rings=len(parity_rows)
    ) as tele:
        parts = []
        if parity_rows:
            parity_specs = [specs[row] for row in parity_rows]
            parity_plans = [plans[row] for row in parity_rows]
            parts.append(
                (parity_rows, _simulate_str_parity(parity_specs, modulation, parity_plans))
            )
        if general_rows:
            general_specs = [specs[row] for row in general_rows]
            parts.append((general_rows, _simulate_str_waves(general_specs, modulation)))
        for rows, part in parts:
            for row, trace, events in zip(rows, part.traces, part.ring_events):
                traces[row] = trace
                ring_events[row] = events
            total_events += part.events_processed
            total_waves += part.waves
        tele.set("events", total_events)
        tele.set("waves", total_waves)
        registry = default_registry()
        registry.counter("repro.batch.simulations").inc()
        registry.counter("repro.batch.rings").inc(len(specs))
        registry.counter("repro.batch.events").inc(total_events)
        registry.counter("repro.batch.waves").inc(total_waves)
    return BatchSimulationResult(
        traces=traces,
        events_processed=total_events,
        waves=total_waves,
        ring_events=tuple(ring_events),
    )


def _parity_plan(spec: STRBatchSpec) -> Optional[np.ndarray]:
    """Prove that one ring's firing alternates between even and odd stages.

    The *structural* evolution (which stages hold a token+bubble) never
    depends on timing, only on the state vector, so it can be iterated
    symbolically.  If wave 0 fires exactly one parity class, wave 1 the
    other, and two waves rotate the state by exactly two stages, then by
    ring symmetry the pattern repeats forever (parity classes are
    invariant under even rotations).  Returns the ring's wave-0 firing
    mask, or ``None`` when the ring breaks the pattern.
    """
    stages = spec.stage_count
    if stages % 2:
        return None
    parity = np.arange(stages) % 2
    start = spec.initial_state.astype(np.int8)
    state = start.copy()
    masks = []
    for _ in range(2):
        pred = np.roll(state, 1)
        succ = np.roll(state, -1)
        enabled = (state != pred) & (succ == state)
        if not enabled.any():
            return None
        masks.append(enabled)
        state = np.where(enabled, pred, state)
    even, odd = parity == 0, parity == 1
    first_even = np.array_equal(masks[0], even) and np.array_equal(masks[1], odd)
    first_odd = np.array_equal(masks[0], odd) and np.array_equal(masks[1], even)
    if not (first_even or first_odd):
        return None
    if not np.array_equal(state, np.roll(start, 2)):
        return None
    return masks[0]


def _simulate_str_parity(
    specs: Sequence[STRBatchSpec],
    modulation: Optional[DeterministicModulation],
    plans: Sequence[np.ndarray],
) -> BatchSimulationResult:
    """Dense STR kernel for rings with a proven even/odd firing pattern.

    Every stage belongs to one *phase*: phase 0 fires on even waves,
    phase 1 on odd waves, and a stage's two neighbours always belong to
    the other phase.  So each phase keeps its own packed vectors — the
    stages' last firing times, their parameters, and their pre-drawn
    noise, one row per firing index — and a wave reads the other phase's
    times, gathers nothing else, and its firing times *become* its own
    phase's time vector.  There is no per-wave enabled mask, no done
    bookkeeping and no scatter.  Every float operation mirrors
    :func:`_simulate_str_waves` exactly, in the same order.
    """
    ring_count = len(specs)
    lengths = np.array([spec.stage_count for spec in specs], dtype=np.intp)
    bases = np.zeros(ring_count, dtype=np.intp)
    np.cumsum(lengths[:-1], out=bases[1:])
    total = int(lengths.sum())

    def packed(attr: str) -> np.ndarray:
        return np.concatenate([np.asarray(getattr(s, attr)) for s in specs])

    pred = np.concatenate(
        [base + (np.arange(n) - 1) % n for base, n in zip(bases, lengths)]
    )
    succ = np.concatenate(
        [base + (np.arange(n) + 1) % n for base, n in zip(bases, lengths)]
    )
    drafting_active = any(np.any(spec.drafting_amplitudes_ps > 0.0) for spec in specs)
    edge_counts = np.array([spec.edge_count for spec in specs], dtype=np.intp)
    out_global = bases + np.array([spec.output_stage for spec in specs], dtype=np.intp)
    out_parity = np.array(
        [0 if plan[spec.output_stage] else 1 for spec, plan in zip(specs, plans)],
        dtype=np.intp,
    )

    # Phase layout: global flat position -> (phase, index within phase).
    phase0 = np.concatenate(plans)
    pos = [np.flatnonzero(phase0), np.flatnonzero(~phase0)]
    local = np.empty(total, dtype=np.intp)
    for p in pos:
        local[p] = np.arange(p.size)

    # Pre-drawn jitter straight into the phase layout: noise[phase][n, j]
    # is the n-th firing's draw of phase stage j.  The draws are the
    # general kernel's (each ring's (budget, stages) block, row-major
    # from its seed), made a few rows at a time — consecutive draws
    # continue one stream — so no full-size block is ever held.
    budget = int(edge_counts.max()) + 4
    noise = [np.zeros((budget, p.size)) for p in pos]
    for spec, base, plan in zip(specs, bases, plans):
        if np.all(spec.jitter_sigmas_ps == 0.0):
            continue
        rng = make_rng(spec.seed)
        half = spec.stage_count // 2
        offset0 = 0 if plan[0] else 1  # the ring's first phase-0 stage
        for row in range(0, budget, _NOISE_CHUNK_ROWS):
            rows = min(_NOISE_CHUNK_ROWS, budget - row)
            block = rng.standard_normal((rows, spec.stage_count))
            block *= spec.jitter_sigmas_ps[np.newaxis, :]
            for matrix, offset in ((noise[0], offset0), (noise[1], 1 - offset0)):
                first = local[base + offset]
                matrix[row : row + rows, first : first + half] = block[:, offset::2]

    # Per-phase structure, fixed for the whole run.  A phase records the
    # edges of the rings whose output stage it holds, one column per ring.
    phase_edges = [
        np.zeros((int(edge_counts.max()), int(np.count_nonzero(out_parity == phase))))
        for phase in (0, 1)
    ]
    parameters = [
        packed(attr)
        for attr in (
            "separation_offsets_ps",
            "charlie_ps",
            "static_delays_ps",
            "supply_weights",
            "drafting_amplitudes_ps",
            "drafting_time_constants_ps",
        )
    ]
    phases = []
    for phase, p in enumerate(pos):
        offsets, charlie, static_d, weights, amp, tau = (a.take(p) for a in parameters)
        recorded = out_parity == phase
        phases.append(
            (
                local.take(pred.take(p)),  # indices into the other phase
                local.take(succ.take(p)),
                offsets,
                charlie,
                static_d,
                weights,
                amp,
                tau,
                amp > 0.0,
                noise[phase],
                local.take(out_global[recorded]),
                phase_edges[phase],
                np.empty(p.size, dtype=bool),
                tuple(np.empty(p.size) for _ in range(6)),
            )
        )
    times = [np.zeros(p.size) for p in pos]  # last firing time per phase stage
    fire_bufs = [np.empty(p.size) for p in pos]

    ring_waves = 2 * (edge_counts - 1) + out_parity + 1
    total_waves = int(ring_waves.max())

    # The token state matters only for the output's first value, which
    # the first two waves settle.
    state = packed("initial_state").astype(np.int8)
    first_values = np.empty(ring_count, dtype=np.int8)
    for phase, p in enumerate(pos):
        state.put(p, state.take(pred.take(p)))
        recorded = out_parity == phase
        first_values[recorded] = state.take(out_global[recorded])

    for wave in range(total_waves):
        phase = wave & 1
        k = wave >> 1
        (
            pre,
            suc,
            offsets,
            charlie,
            static_d,
            weights,
            draft_amp,
            draft_tau,
            amp_positive,
            phase_noise,
            rec,
            edges,
            guard,
            (f_t, r_t, mean_t, shifted, delay, tmp),
        ) = phases[phase]
        other = times[phase ^ 1]
        fire_time = fire_bufs[phase]

        other.take(pre, out=f_t)
        other.take(suc, out=r_t)
        np.add(f_t, r_t, out=mean_t)
        mean_t *= 0.5
        np.subtract(f_t, r_t, out=shifted)
        shifted *= 0.5
        shifted -= offsets
        np.hypot(charlie, shifted, out=delay)
        delay += static_d
        if drafting_active:
            np.add(mean_t, delay, out=tmp)
            tmp -= times[phase]  # elapsed since this stage last fired
            draft_mask = tmp > 0.0
            draft_mask &= amp_positive
            np.maximum(tmp, 0.0, out=tmp)
            np.negative(tmp, out=tmp)
            tmp /= draft_tau
            np.exp(tmp, out=tmp)
            tmp *= draft_amp
            tmp *= draft_mask
            delay -= tmp
        floor_t = np.maximum(f_t, r_t, out=f_t)  # f_t no longer needed
        if modulation is not None:
            factor = modulation.factor_array(floor_t)
            factor *= weights
            factor += 1.0
            delay *= factor
        delay += phase_noise[k]

        np.add(mean_t, delay, out=fire_time)
        np.less_equal(fire_time, floor_t, out=guard)
        if guard.any():
            np.add(floor_t, _CAUSALITY_GUARD_PS, out=tmp)
            np.copyto(fire_time, tmp, where=guard)

        # The firing times become the phase's time vector; the old
        # vector is the phase's next fire buffer.
        times[phase], fire_bufs[phase] = fire_time, times[phase]
        if rec.size:
            fire_time.take(rec, out=edges[k])

    total_events = int(
        ((total_waves + 1) // 2) * pos[0].size + (total_waves // 2) * pos[1].size
    )
    columns = np.empty(ring_count, dtype=np.intp)
    for phase in (0, 1):
        recorded = out_parity == phase
        columns[recorded] = np.arange(np.count_nonzero(recorded))
    traces = [
        EdgeTrace(
            phase_edges[out_parity[row]][: edge_counts[row], columns[row]].copy(),
            first_value=int(first_values[row]),
        )
        for row in range(ring_count)
    ]
    return BatchSimulationResult(
        traces=traces,
        events_processed=total_events,
        waves=total_waves,
        ring_events=tuple(int(v) for v in ring_waves * (lengths // 2)),
    )


def _simulate_str_waves(
    specs: Sequence[STRBatchSpec],
    modulation: Optional[DeterministicModulation] = None,
) -> BatchSimulationResult:
    """General masked-wave STR kernel (padded planes, any configuration)."""
    ring_count = len(specs)
    max_stages = max(spec.stage_count for spec in specs)
    max_edges = max(spec.edge_count for spec in specs)

    # --- padded state planes ------------------------------------------------
    state = np.zeros((ring_count, max_stages), dtype=np.int8)
    last_time = np.zeros((ring_count, max_stages))
    pred_idx = np.zeros((ring_count, max_stages), dtype=np.intp)
    succ_idx = np.zeros((ring_count, max_stages), dtype=np.intp)
    static_d = np.zeros((ring_count, max_stages))
    offsets = np.zeros((ring_count, max_stages))
    charlie = np.zeros((ring_count, max_stages))
    weights = np.zeros((ring_count, max_stages))
    draft_amp = np.zeros((ring_count, max_stages))
    draft_tau = np.ones((ring_count, max_stages))
    edge_counts = np.zeros(ring_count, dtype=np.intp)
    out_idx = np.zeros(ring_count, dtype=np.intp)

    for row, spec in enumerate(specs):
        stages = spec.stage_count
        state[row, :stages] = spec.initial_state
        # Padded columns point at themselves: state == state -> no token,
        # so they can never fire; no separate active mask is needed.
        pred_idx[row, :stages] = (np.arange(stages) - 1) % stages
        succ_idx[row, :stages] = (np.arange(stages) + 1) % stages
        pred_idx[row, stages:] = np.arange(stages, max_stages)
        succ_idx[row, stages:] = np.arange(stages, max_stages)
        static_d[row, :stages] = spec.static_delays_ps
        offsets[row, :stages] = spec.separation_offsets_ps
        charlie[row, :stages] = spec.charlie_ps
        weights[row, :stages] = spec.supply_weights
        draft_amp[row, :stages] = spec.drafting_amplitudes_ps
        draft_tau[row, :stages] = spec.drafting_time_constants_ps
        edge_counts[row] = spec.edge_count
        out_idx[row] = spec.output_stage

    drafting_active = bool(np.any(draft_amp > 0.0))
    amp_positive = draft_amp > 0.0
    # Per-stage firing budget: stages fire at most one lap apart, so the
    # output's edge budget plus slack bounds every stage; grown on demand.
    budget = max_edges + 8
    noise = _noise_tensor(specs, budget, max_stages)  # (ring, firing, stage)

    # Flat indices into the raveled (ring, stage) planes — `ndarray.take`
    # on a precomputed flat index plane is the fast path; take_along_axis
    # rebuilds its index grids on every call.
    rows = np.arange(ring_count)
    flat_pred = rows[:, np.newaxis] * max_stages + pred_idx
    flat_succ = rows[:, np.newaxis] * max_stages + succ_idx
    flat_out = rows * max_stages + out_idx
    cols = np.arange(max_stages)
    # noise[r, n, c] lives at flat offset r*budget*L + n*L + c.
    noise_rc = rows[:, np.newaxis] * (budget * max_stages) + cols[np.newaxis, :]

    fire_count = np.zeros((ring_count, max_stages), dtype=np.intp)
    edges = np.zeros((ring_count, max_edges))
    first_values = np.full(ring_count, -1, dtype=np.int8)
    filled = np.zeros(ring_count, dtype=np.intp)
    done = filled >= edge_counts
    active = ~done[:, np.newaxis]

    plane = (ring_count, max_stages)
    f_t = np.empty(plane)
    r_t = np.empty(plane)
    mean_t = np.empty(plane)
    shifted = np.empty(plane)
    delay = np.empty(plane)
    floor_t = np.empty(plane)
    fire_time = np.empty(plane)
    tmp = np.empty(plane)
    z = np.empty(plane)
    nidx = np.empty(plane, dtype=np.intp)
    count_bound = 0  # upper bound on fire_count.max(); tightened lazily

    total_events = 0
    waves = 0
    # The loop body works on whole (ring, stage) planes: the enabled
    # mask routes updates through masked np.copyto instead of
    # fancy-indexed scatter, keeping every op a contiguous vector pass
    # into preallocated buffers.
    while not done.all():
        s_pred = state.take(flat_pred)
        enabled = state != s_pred
        enabled &= state.take(flat_succ) == state
        enabled &= active
        fired = int(np.count_nonzero(enabled))
        if fired == 0:
            stuck = np.nonzero(~done)[0]
            labels = ", ".join(
                f"{specs[row].name}[{row}] after {int(filled[row])} edges "
                f"(wanted {int(edge_counts[row])}; state "
                f"{''.join(str(int(v)) for v in state[row, : specs[row].stage_count])})"
                for row in stuck[:4]
            )
            raise RuntimeError(f"STR batch deadlocked: {labels}")

        last_time.take(flat_pred, out=f_t)
        last_time.take(flat_succ, out=r_t)
        np.add(f_t, r_t, out=mean_t)
        mean_t *= 0.5
        np.subtract(f_t, r_t, out=shifted)
        shifted *= 0.5
        shifted -= offsets
        np.hypot(charlie, shifted, out=delay)
        delay += static_d
        if drafting_active:
            np.add(mean_t, delay, out=tmp)
            tmp -= last_time  # elapsed since this stage last fired
            draft_mask = tmp > 0.0
            draft_mask &= amp_positive
            np.maximum(tmp, 0.0, out=tmp)
            np.negative(tmp, out=tmp)
            tmp /= draft_tau
            np.exp(tmp, out=tmp)
            tmp *= draft_amp
            tmp *= draft_mask  # zero the reduction where inactive
            delay -= tmp
        np.maximum(f_t, r_t, out=floor_t)
        if modulation is not None:
            # The event engine samples the modulation at schedule time,
            # which is always max(t_f, t_r) — available vectorized.
            factor = modulation.factor_array(floor_t)
            factor *= weights
            factor += 1.0
            delay *= factor
        if count_bound >= budget:
            count_bound = int(fire_count.max())
            if count_bound >= budget:
                noise = _grow_noise(noise, specs, max_stages)
                budget = noise.shape[1]
                noise_rc = rows[:, np.newaxis] * (
                    budget * max_stages
                ) + cols[np.newaxis, :]
        np.multiply(fire_count, max_stages, out=nidx)
        nidx += noise_rc
        noise.take(nidx, out=z)
        delay += z

        np.add(mean_t, delay, out=fire_time)
        np.add(floor_t, _CAUSALITY_GUARD_PS, out=tmp)
        np.copyto(fire_time, tmp, where=fire_time <= floor_t)

        np.copyto(state, s_pred, where=enabled)
        np.copyto(last_time, fire_time, where=enabled)
        fire_count += enabled
        count_bound += 1
        total_events += fired
        waves += 1

        recording = enabled.take(flat_out)
        if recording.any():
            rec_rows = np.flatnonzero(recording)
            edges[rec_rows, filled[rec_rows]] = last_time[
                rec_rows, out_idx[rec_rows]
            ]
            fresh = first_values[rec_rows] < 0
            if fresh.any():
                first_values[rec_rows[fresh]] = state[
                    rec_rows[fresh], out_idx[rec_rows[fresh]]
                ]
            filled[rec_rows] += 1
            done = filled >= edge_counts
            active = ~done[:, np.newaxis]

    traces = [
        EdgeTrace(
            edges[row, : edge_counts[row]],
            first_value=int(first_values[row]) if first_values[row] >= 0 else 1,
        )
        for row in range(ring_count)
    ]
    return BatchSimulationResult(
        traces=traces,
        events_processed=total_events,
        waves=waves,
        ring_events=tuple(int(v) for v in fire_count.sum(axis=1)),
    )


def _grow_noise(
    noise: np.ndarray, specs: Sequence[STRBatchSpec], max_stages: int
) -> np.ndarray:
    """Double the firing budget of the pre-drawn noise tensor.

    ``standard_normal`` fills row-major, so the first ``F`` rows of a
    doubled draw are identical to the original ``F``-row draw — the
    values a ring consumes never depend on the budget, only on its seed.
    """
    return _noise_tensor(specs, noise.shape[1] * 2, max_stages)


__all__ = [
    "BatchSimulationResult",
    "IROBatchSpec",
    "STRBatchSpec",
    "simulate_iro_batch",
    "simulate_str_batch",
]
