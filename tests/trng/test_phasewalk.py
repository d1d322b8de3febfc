"""Phase-random-walk TRNG model."""

import hashlib

import numpy as np
import pytest

from repro.rings.iro import InverterRingOscillator
from repro.rings.str_ring import SelfTimedRing
from repro.simulation.noise import SinusoidalModulation, StepModulation
from repro.trng.phasewalk import PhaseWalkTrng, generate_rows, reference_period_for_q
from repro.trng.xored_rings import XoredRingTrng


def make_model(period=1000.0, sigma=2.0, weight=1.0, reference=100_000.0):
    return PhaseWalkTrng(period, sigma, weight, reference)


class TestConstruction:
    def test_operating_point(self):
        model = make_model()
        assert model.periods_per_sample == pytest.approx(100.0)
        assert model.q_factor == pytest.approx(100.0 * 4.0 / 1e6)

    def test_from_ring(self):
        ring = InverterRingOscillator([100.0] * 5, jitter_sigmas_ps=2.0)
        model = PhaseWalkTrng.from_ring(ring, 50_000.0)
        assert model.period_ps == pytest.approx(1000.0)
        assert model.period_jitter_ps == pytest.approx(ring.predicted_period_jitter_ps())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"period_ps": 0.0},
            {"period_jitter_ps": -1.0},
            {"supply_weight": -0.5},
            {"reference_period_ps": 500.0},
        ],
    )
    def test_validation(self, kwargs):
        defaults = dict(
            period_ps=1000.0,
            period_jitter_ps=2.0,
            supply_weight=1.0,
            reference_period_ps=100_000.0,
        )
        defaults.update(kwargs)
        with pytest.raises(ValueError):
            PhaseWalkTrng(**defaults)


class TestDeterministicPhase:
    def test_nominal_advance(self):
        model = make_model()
        phase = model.deterministic_phase(4, None, initial_phase=0.25)
        assert np.allclose(phase, 0.25 + 100.0 * np.arange(1, 5))

    def test_step_modulation_slows_phase(self):
        model = make_model(weight=1.0)
        slowed = model.deterministic_phase(
            10, StepModulation(0.0, 0.01), initial_phase=0.0
        )
        nominal = model.deterministic_phase(10, None, initial_phase=0.0)
        # 1 % slower delay-rate => ~1 % fewer periods elapsed.
        assert np.allclose(slowed, nominal - 0.01 * 100.0 * np.arange(1, 11), rtol=1e-6)

    def test_weight_scales_modulation(self):
        half = make_model(weight=0.5)
        full = make_model(weight=1.0)
        modulation = StepModulation(0.0, 0.01)
        shift_half = half.deterministic_phase(5, modulation, 0.0) - half.deterministic_phase(
            5, None, 0.0
        )
        shift_full = full.deterministic_phase(5, modulation, 0.0) - full.deterministic_phase(
            5, None, 0.0
        )
        assert np.allclose(shift_half, 0.5 * shift_full)

    def test_sinusoid_integrates_to_zero_over_full_cycles(self):
        model = make_model(reference=100_000.0)
        modulation = SinusoidalModulation(amplitude=0.01, period_ps=100_000.0)
        phase = model.deterministic_phase(8, modulation, 0.0)
        nominal = model.deterministic_phase(8, None, 0.0)
        # Each sample spans exactly one ripple cycle: zero net shift.
        assert np.allclose(phase, nominal, atol=1e-3)

    def test_fast_ripple_does_not_alias(self, board):
        """A 10 MHz ripple against a ~9.4 us reference (IRO 5C at Q = 0.02).

        The ripple period is far below the sample spacing, so any sampled
        quadrature of the modulation aliases; the phase must follow the
        closed-form integral of the sinusoid.
        """
        ring = InverterRingOscillator.on_board(board, 5)
        model = PhaseWalkTrng.from_ring(
            ring,
            reference_period_for_q(
                ring.predicted_period_ps(), ring.predicted_period_jitter_ps(), 0.02
            ),
        )
        assert model.reference_period_ps == pytest.approx(9.4e6, rel=0.05)
        amplitude, ripple_period = 0.008, 1.0e5
        count = 256
        phase = model.deterministic_phase(
            count, SinusoidalModulation(amplitude, ripple_period), initial_phase=0.0
        )
        times = model.reference_period_ps * np.arange(1, count + 1)
        integral = amplitude * ripple_period / (2.0 * np.pi) * (
            1.0 - np.cos(2.0 * np.pi * times / ripple_period)
        )
        expected = (
            model.periods_per_sample * np.arange(1, count + 1)
            - model.supply_weight / model.period_ps * integral
        )
        np.testing.assert_allclose(phase, expected, rtol=0.0, atol=1e-9)


class TestGenerate:
    def test_fair_at_high_q(self):
        model = make_model(sigma=10.0, reference=1_000_000.0)
        bits = model.generate(20_000, seed=0)
        assert abs(np.mean(bits) - 0.5) < 0.02

    def test_noise_free_replica_is_deterministic(self):
        model = make_model()
        a = model.generate(64, seed=0, initial_phase=0.3, jitter_scale=0.0)
        b = model.generate(64, seed=99, initial_phase=0.3, jitter_scale=0.0)
        assert np.array_equal(a, b)

    def test_attacker_predicts_noise_free_generator(self):
        model = make_model(sigma=0.0)
        bits = model.generate(128, seed=1, initial_phase=0.2)
        replica = model.generate(128, seed=2, initial_phase=0.2, jitter_scale=0.0)
        assert np.array_equal(bits, replica)

    def test_jitter_defeats_prediction(self):
        model = make_model(sigma=10.0, reference=1_000_000.0)
        bits = model.generate(10_000, seed=3, initial_phase=0.2)
        replica = model.generate(10_000, seed=4, initial_phase=0.2, jitter_scale=0.0)
        agreement = np.mean(bits == replica)
        assert abs(agreement - 0.5) < 0.03

    def test_battery_passes_at_good_q(self):
        from repro.stats.randomness import run_battery

        model = make_model(sigma=2.0, reference=reference_period_for_q(1000.0, 2.0, 0.2))
        bits = model.generate(30_000, seed=5)
        assert run_battery(bits).all_passed


class TestGenerateRows:
    MODELS = (
        make_model(),
        make_model(period=1234.5, sigma=7.0, reference=250_000.0),
        make_model(sigma=0.0),  # no jitter: no normals drawn
    )

    @pytest.mark.parametrize("bit_count", [1, 16, 512, 520])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rows_match_generate_in_sequence(self, bit_count, seed):
        models = [self.MODELS[k % 3] for k in (0, 1, 1, 2, 0, 2, 1)]
        sequential = np.random.default_rng(seed)
        expected = np.stack([m.generate(bit_count, seed=sequential) for m in models])
        batched = np.random.default_rng(seed)
        rows = generate_rows(models, bit_count, batched)
        assert rows.dtype == bool
        assert np.array_equal(rows, expected)
        assert batched.bit_generator.state == sequential.bit_generator.state

    def test_rejects_empty_blocks(self):
        with pytest.raises(ValueError):
            generate_rows(self.MODELS, 0, np.random.default_rng(0))


def _digest(bits):
    return hashlib.sha256(np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes()).hexdigest()


class TestPinnedBitStreams:
    """Unmodulated output is pinned bit for bit.

    The serving plane and the supervised runtime draw their raw bits from
    these generators; the digests were recorded before the phase-walk
    consolidation and must not move.
    """

    @pytest.mark.parametrize(
        "seed,expected",
        [
            (0, "000ed76bcbc178e9c2b338a24c0e01c361d36d841ad6f6831eb05f1f0d071df3"),
            (1, "dccc718338a865e9aac0d546c5bc722e5b2507e62a3fec20244965fe5ece26cb"),
            (2, "d3ae910beff687737e032f19232d9c6f329305cbaa0199f128e80b7368f48db6"),
        ],
    )
    def test_synthetic_walk(self, seed, expected):
        model = make_model(reference=reference_period_for_q(1000.0, 2.0, 0.2))
        assert _digest(model.generate(8192, seed=seed)) == expected

    @pytest.mark.parametrize(
        "build,expected",
        [
            (
                lambda board: InverterRingOscillator.on_board(board, 5),
                "9da112eb361df7aa3957661e345f29f02e74f1b595fd12cd437773389330abee",
            ),
            (
                lambda board: SelfTimedRing.on_board(board, 96),
                "07703df664ec86f06f7711842bc07a16ca19023aab422b557a471e8b8798e523",
            ),
        ],
        ids=["IRO 5C", "STR 96C"],
    )
    def test_ring_walk(self, board, build, expected):
        ring = build(board)
        model = PhaseWalkTrng.from_ring(
            ring,
            reference_period_for_q(
                ring.predicted_period_ps(), ring.predicted_period_jitter_ps(), 0.2
            ),
        )
        assert _digest(model.generate(8192, seed=7)) == expected

    def test_xored_bank(self, board):
        bank = XoredRingTrng.on_board(board, 5, 19, 2.0e5)
        assert _digest(bank.generate(8192, seed=11)) == (
            "3e42d6a9c88bb8befd46c5e5dfb5f138f45b6300cd722e1751251be6badd86b6"
        )


class TestReferenceForQ:
    def test_round_trip(self):
        reference = reference_period_for_q(1000.0, 2.0, 0.15)
        model = PhaseWalkTrng(1000.0, 2.0, 1.0, reference)
        assert model.q_factor == pytest.approx(0.15)

    def test_validation(self):
        with pytest.raises(ValueError):
            reference_period_for_q(1000.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            reference_period_for_q(1000.0, 0.0, 0.1)
