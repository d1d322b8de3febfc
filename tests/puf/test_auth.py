"""Authentication: FAR/FRR sweep correctness and the EER."""

import numpy as np
import pytest

from repro.fpga.voltage import SupplySpec
from repro.puf import PufDesign, authentication_report, measure_population


def _synthetic_pair(device_count=64, bits=32, flip_probability=0.05, seed=0):
    rng = np.random.default_rng(seed)
    reference = rng.integers(0, 2, size=(device_count, bits)).astype(np.uint8)
    flips = rng.random(reference.shape) < flip_probability
    return reference, np.where(flips, 1 - reference, reference).astype(np.uint8)


class TestAuthenticationReport:
    def test_curves_are_monotone_and_bounded(self):
        reference, probe = _synthetic_pair()
        report = authentication_report(reference, probe)
        assert report.far[0] == 0.0  # threshold 0 accepts (almost) nobody foreign
        assert report.frr[-1] == 0.0  # threshold = bits rejects nobody genuine
        assert np.all(np.diff(report.far) >= 0)
        assert np.all(np.diff(report.frr) <= 0)
        assert report.thresholds.shape == (33,)

    def test_separable_populations_reach_zero_eer(self):
        # no flips at all: genuine HD == 0, impostor HD ~ bits/2
        reference, probe = _synthetic_pair(flip_probability=0.0)
        report = authentication_report(reference, probe)
        assert report.eer == pytest.approx(0.0, abs=1e-6)
        assert report.mean_genuine_hd == 0.0

    def test_identical_distributions_give_half_eer(self):
        # probe is a fresh random matrix: genuine trials behave like
        # impostor trials, so the best any threshold does is ~50 %
        rng = np.random.default_rng(5)
        reference = rng.integers(0, 2, size=(128, 32)).astype(np.uint8)
        probe = rng.integers(0, 2, size=(128, 32)).astype(np.uint8)
        report = authentication_report(reference, probe)
        assert report.eer == pytest.approx(0.5, abs=0.1)

    def test_impostor_sampling_cap(self):
        reference, probe = _synthetic_pair(device_count=300)
        report = authentication_report(reference, probe, max_impostor_pairs=1000)
        assert report.impostor_count == 1000

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="disagree"):
            authentication_report(np.zeros((4, 8)), np.zeros((4, 9)))
        with pytest.raises(ValueError, match=">= 2 devices"):
            authentication_report(np.zeros((1, 8)), np.zeros((1, 8)))

    def test_render_marks_eer(self):
        reference, probe = _synthetic_pair()
        rendered = authentication_report(reference, probe).render()
        assert "<- EER" in rendered
        assert "FAR" in rendered and "FRR" in rendered


class TestEndToEnd:
    def test_enrolled_population_authenticates(self):
        design = PufDesign(ring_count=16, stage_count=3, measure_periods=1024)
        measurement = measure_population(
            150, design=design, corners=(SupplySpec(), SupplySpec()), seed=3
        )
        report = authentication_report(
            measurement.responses[0], measurement.responses[1]
        )
        assert report.eer < 0.05
        assert report.mean_impostor_hd > report.mean_genuine_hd
