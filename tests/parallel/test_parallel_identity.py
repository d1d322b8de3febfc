"""Property: parallel campaign runs are bit-identical to serial ones.

The acceptance contract for the executor layer — for every threaded
driver, ``jobs=N`` must reproduce the ``jobs=1`` reference exactly
(same derived seeds, same workers, same float bits), for both ring
families.
"""

import pytest

from repro.core.campaign import RingSpec, run_campaign
from repro.experiments.ext10_fault_recovery import run as run_ext10
from repro.parallel import ResultCache

SPECS = [RingSpec("iro", 3), RingSpec("str", 8)]


def _campaign(jobs, cache=None, seed=5, backend="batch"):
    report = run_campaign(
        SPECS,
        voltages_v=(1.0, 1.2, 1.4),
        jitter_periods=1024,  # two segments per ring
        seed=seed,
        jobs=jobs,
        cache=cache,
        backend=backend,
    )
    return report.to_json()


@pytest.mark.parametrize("backend", ["batch", "event"])
class TestCampaignIdentity:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_matches_serial(self, jobs, backend):
        assert _campaign(jobs, backend=backend) == _campaign(1, backend=backend)

    def test_cached_rerun_is_identical(self, tmp_path, backend):
        cache = ResultCache(root=tmp_path, version="1")
        cold = _campaign(2, cache=cache, backend=backend)
        assert cache.stats().entry_count > 0
        warm = _campaign(1, cache=cache, backend=backend)
        assert warm == cold
        assert cache.hits > 0

    def test_different_seeds_differ(self, backend):
        assert _campaign(1, seed=5, backend=backend) != _campaign(1, seed=6, backend=backend)


class TestExt10Identity:
    def test_parallel_matches_serial(self):
        serial = run_ext10(jobs=1)
        parallel = run_ext10(jobs=2)
        assert parallel.rows == serial.rows
        assert parallel.checks == serial.checks
