"""The three benchmark workloads, driven through ``repro``'s public calls.

Each workload is a closed loop over *units*: a fixed piece of work that
is timed as a whole and checked for correctness.  ``setup()`` holds
everything a user pays once per process (imports happen when this
module is imported; boards, pools, servers and temp caches are built
there, plus one small warm-up call so lazy imports finish before timing).

A unit returns a :class:`Unit`: its wall time, how many operations it
attempted and how many of those failed their check, the latencies of
its operations, and the bytes of checked output it produced.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import math
import os
import random
import shutil
import statistics
import tempfile
import time
from typing import Any, Dict, List, Optional

from repro.core.campaign import RingSpec, run_campaign
from repro.experiments.registry import run_experiment
from repro.parallel import GridStats, ResultCache
from repro.puf import PufDesign, enroll_population, score_population
from repro.puf.metrics import stress_corners
from repro.serve import EntropyServer, ServerConfig, TrngPool
from repro.serve.client import EntropyClient, IntegrityError, ServerError
from repro.serve.protocol import ProtocolError
from repro.verify import run_verification

#: Worker processes / client connections: the box has two cores.
JOBS = 2

#: The two IROs and two STRs the serving pool and the campaign use
#: (the pool of ``benchmarks/bench_serve_throughput.py``).
RINGS = (RingSpec("iro", 5), RingSpec("iro", 7), RingSpec("str", 48), RingSpec("str", 96))


@dataclasses.dataclass
class Unit:
    """Outcome of one timed unit of work."""

    seconds: float
    attempted: int
    failed: int
    latencies_s: List[float]
    output_bytes: int
    extra: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Units of different kinds do different work; a workload's figures
    #: add up the median unit of each kind.
    kind: str = ""


class Workload:
    """Common shape: ``setup``, ``run_unit`` per unit, ``finish``, ``teardown``."""

    name = ""
    #: Units per run, or ``None`` to run units until ``--seconds`` is spent.
    fixed_units: Optional[int] = None
    #: Units in one round through the workload's kinds of unit.
    round_length = 1

    def __init__(self, seed: int, seconds: int, scratch: str) -> None:
        self.seed = seed
        self.seconds = seconds
        self.scratch = scratch

    def wants_more(self, units: List["Unit"], elapsed_s: float) -> bool:
        """Whole rounds, at least two; then another only if it fits in ``--seconds``."""
        if len(units) < 2 * self.round_length or len(units) % self.round_length:
            return True
        if self.fixed_units is not None:
            return len(units) < self.fixed_units
        return elapsed_s + statistics.median(unit.seconds for unit in units) <= self.seconds

    def setup(self) -> None:
        """Build what the workload reuses, then warm up."""

    def run_unit(self, index: int) -> Unit:
        raise NotImplementedError

    def finish(self) -> Unit:
        """Untimed checks that span units; ``seconds`` is ignored."""
        return Unit(0.0, 0, 0, [], 0)

    def teardown(self) -> None:
        """Release what ``setup`` built."""


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


# ----------------------------------------------------------------------
# reproduce: the `repro run` path on long single-ring event traces
# ----------------------------------------------------------------------
class Reproduce(Workload):
    """``run_experiment`` serially, no cache, at each experiment's defaults.

    A unit is one experiment; the units take turns through the list, in
    an order drawn from ``--seed``, so the kernel that gauges the host's
    speed runs between experiments.  The experiments keep their default
    configs, seeds included, because their ``checks`` are single-seed
    thresholds that ``repro run`` asserts at those defaults.
    """

    name = "reproduce"
    #: Event-engine experiments that fit the run budget (FIG9 ~5.5 s,
    #: SEC5A ~1.5 s on a two-core box).
    EXPERIMENTS = ("FIG9", "SEC5A")
    round_length = len(EXPERIMENTS)

    def setup(self) -> None:
        self.order = list(self.EXPERIMENTS)
        random.Random(self.seed).shuffle(self.order)
        os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="cache-", dir=self.scratch)
        run_experiment("SEC5A", balanced_lengths=(4,), token_counts_32=(10,), period_count=16)
        run_experiment("FIG9", period_count=64)

    def run_unit(self, index: int) -> Unit:
        experiment_id = self.order[index % len(self.order)]
        result, seconds = _timed(lambda: run_experiment(experiment_id))
        failed = 0 if result.all_checks_pass else 1
        return Unit(seconds, 1, failed, [seconds], len(result.to_json()), kind=experiment_id)


# ----------------------------------------------------------------------
# serve: the entropy service under two closed-loop clients
# ----------------------------------------------------------------------
class Serve(Workload):
    """An in-process ``EntropyServer`` over the four-channel ``TrngPool``.

    Two clients send fixed-size requests back to back over loopback.
    The request count per run is fixed by ``--seconds`` alone, because
    the pool's ledger keeps one entry per block and memory grows with
    the number of requests served.
    """

    name = "serve"
    REQUEST_BYTES = 2048
    #: Requests per client per unit for each second of ``--seconds``;
    #: ten units fill about 80% of it at ~200 requests/s in total.
    REQUESTS_PER_CLIENT_PER_S = 8
    fixed_units = 10

    def setup(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.requests_per_client = self.REQUESTS_PER_CLIENT_PER_S * self.seconds
        warm_pool = TrngPool(RINGS, seed=self.seed + 1)
        warm_server = EntropyServer(warm_pool, ServerConfig())
        self.loop.run_until_complete(warm_server.start())
        self.loop.run_until_complete(self._load(warm_server.port, 8))
        self._stop(warm_server)
        self.pool = TrngPool(RINGS, seed=self.seed)
        self.server = EntropyServer(self.pool, ServerConfig())
        self.loop.run_until_complete(self.server.start())

    def _stop(self, server: EntropyServer) -> None:
        async def drain() -> None:
            server.request_shutdown()
            await asyncio.wait_for(server.wait_closed(), timeout=10)
            leftover = asyncio.all_tasks() - {asyncio.current_task()}
            for task in leftover:
                task.cancel()
            await asyncio.gather(*leftover, return_exceptions=True)

        self.loop.run_until_complete(drain())

    async def _client(self, port: int, requests: int, tally: Dict[str, Any]) -> None:
        try:
            client = await EntropyClient.connect("127.0.0.1", port)
        except (ConnectionError, OSError, ProtocolError):
            tally["failed"] += requests
            return
        try:
            for done in range(requests):
                started = time.perf_counter()
                try:
                    result = await client.fetch(self.REQUEST_BYTES)
                except ServerError:
                    tally["failed"] += 1
                    continue
                except (
                    IntegrityError,
                    ConnectionError,
                    OSError,
                    ProtocolError,
                    asyncio.IncompleteReadError,
                ):
                    # The connection is unusable: every request left counts.
                    tally["failed"] += requests - done
                    return
                tally["latencies"].append(time.perf_counter() - started)
                tally["bytes"] += len(result.data)
                if len(result.data) != self.REQUEST_BYTES:
                    tally["failed"] += 1
        finally:
            await client.close()

    async def _load(self, port: int, requests: int) -> Dict[str, Any]:
        tally: Dict[str, Any] = {"failed": 0, "latencies": [], "bytes": 0}
        await asyncio.gather(*(self._client(port, requests, tally) for _ in range(JOBS)))
        return tally

    def run_unit(self, index: int) -> Unit:
        tally, seconds = _timed(
            lambda: self.loop.run_until_complete(
                self._load(self.server.port, self.requests_per_client)
            )
        )
        attempted = JOBS * self.requests_per_client
        failed = tally["failed"]
        if tally["bytes"] != (attempted - failed) * self.REQUEST_BYTES:
            failed = attempted
        return Unit(
            seconds,
            attempted,
            failed,
            tally["latencies"],
            tally["bytes"],
            {"ledger_entries": len(self.pool.ledger)},
        )

    def teardown(self) -> None:
        self._stop(self.server)
        self.loop.close()


# ----------------------------------------------------------------------
# population: vectorised PUF and ring-population kernels
# ----------------------------------------------------------------------
class Population(Workload):
    """PUF enrollment and scoring, a batch-backend ring campaign, and
    ``repro verify`` of the PUF claims with a cold cache.

    Unit ``i`` manufactures its populations and campaign from seed
    ``1000 * --seed + i``.
    """

    name = "population"
    DESIGN = PufDesign(ring_count=32, stage_count=3)
    ENROLL_DEVICES = 50_000
    SCORE_DEVICES = 10_000
    CAMPAIGN_PERIODS = 8192
    #: The PUF claims of the registry, verified with a cold cache.
    CLAIMS = ("PUF-UNIQ", "PUF-STABLE")

    def setup(self) -> None:
        self.digests: List[str] = []
        self.corner_rows = 1 + len(stress_corners())
        enroll_population(500, design=self.DESIGN, seed=self.seed, jobs=1)
        score_population(500, design=self.DESIGN, seed=self.seed, jobs=1)
        run_campaign(RINGS[:1], seed=self.seed, backend="batch", jitter_periods=64)
        run_verification(list(self.CLAIMS), tier="quick", seeds=1, root_seed=0, jobs=1, cache=None)

    def _unit_seed(self, index: int) -> int:
        return self.seed * 1000 + index

    @staticmethod
    def _digest(responses) -> str:
        return hashlib.sha256(responses.tobytes()).hexdigest()

    def _enroll(self, index: int, jobs: int):
        return enroll_population(
            self.ENROLL_DEVICES, design=self.DESIGN, seed=self._unit_seed(index), jobs=jobs
        )

    def run_unit(self, index: int) -> Unit:
        unit_seed = self._unit_seed(index)
        start = time.perf_counter()
        enrollment = self._enroll(index, JOBS)
        score = score_population(
            self.SCORE_DEVICES, design=self.DESIGN, seed=unit_seed, jobs=JOBS
        )
        campaign = run_campaign(
            RINGS,
            seed=unit_seed,
            backend="batch",
            jitter_periods=self.CAMPAIGN_PERIODS,
        )
        claims_failed, cache_bytes = self._verify_claims()
        seconds = time.perf_counter() - start
        self.digests.append(self._digest(enrollment.responses))
        checks = (
            enrollment.device_count == self.ENROLL_DEVICES
            and enrollment.responses.shape == (self.ENROLL_DEVICES, self.DESIGN.response_bits),
            0.45 < score.uniqueness.mean_inter_hd < 0.55
            and len(score.reliability) == self.corner_rows
            and all(row.mean_intra_hd < 0.25 for row in score.reliability),
            len(campaign.results) == len(RINGS)
            and all(
                math.isfinite(row.period_jitter_ps) and row.period_jitter_ps > 0
                for row in campaign.results
            ),
        )
        output = self.ENROLL_DEVICES * self.DESIGN.response_bits // 8
        return Unit(
            seconds,
            len(checks) + len(self.CLAIMS),
            checks.count(False) + claims_failed,
            [seconds],
            output,
            {"cache_bytes": cache_bytes},
        )

    def _verify_claims(self):
        """``repro verify`` of the PUF claims with a fresh cache: (failed pairs, cache bytes).

        The CLI's default root seed 0 is kept, because other root seeds
        make some claims fail (see ``perfbench/README.md``).
        """
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.scratch)
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        try:
            cache = ResultCache(cache_dir)
            stats = GridStats()
            report = run_verification(
                list(self.CLAIMS),
                tier="quick",
                seeds=1,
                root_seed=0,
                jobs=JOBS,
                cache=cache,
                stats=stats,
            )
            outcomes = [outcome for sweep in report.sweeps for outcome in sweep.outcomes]
            failed = sum(1 for outcome in outcomes if not outcome.passed)
            # A warm cache turns simulation into file reads: the cold pass
            # must execute every point.
            if stats.cache_hits != 0 or stats.executed != len(self.CLAIMS):
                failed = len(self.CLAIMS)
            return failed, cache.stats().total_bytes
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def finish(self) -> Unit:
        """The first unit's responses must not depend on the job count."""
        serial = self._digest(self._enroll(0, 1).responses)
        return Unit(0.0, 1, int(serial != self.digests[0]), [], 0)


WORKLOADS = {cls.name: cls for cls in (Reproduce, Serve, Population)}


def make(name: str, seed: int, seconds: int, scratch: str) -> Workload:
    return WORKLOADS[name](seed, seconds, scratch)
