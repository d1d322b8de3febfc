"""The claims registry: specs, execution, telemetry, the injection hook."""

import dataclasses

import pytest

from repro.telemetry import MemorySink, default_registry, use_sink
from repro.verify.claims import (
    ClaimOutcome,
    ClaimSpec,
    Evidence,
    all_claim_ids,
    claim_board,
    get_claim,
    register_claim,
)


class TestRegistry:
    def test_lookup_is_case_insensitive(self):
        assert get_claim("c1") is get_claim("C1")
        assert get_claim("ext-failsafe").claim_id == "EXT-FAILSAFE"

    def test_unknown_claim_lists_known_ids(self):
        with pytest.raises(KeyError, match="C1"):
            get_claim("C99")

    def test_every_claim_declares_both_tiers(self):
        for claim_id in all_claim_ids():
            claim = get_claim(claim_id)
            assert claim.params_for("quick") is not None
            assert claim.params_for("full") is not None

    def test_unknown_tier_rejected(self):
        with pytest.raises(KeyError, match="overnight"):
            get_claim("C1").params_for("overnight")

    def test_every_claim_has_a_real_criterion(self):
        # The whole point of ISSUE 5: no bare point comparisons.
        for claim_id in all_claim_ids():
            assert get_claim(claim_id).criterion.strip()
            assert get_claim(claim_id).paper_ref.strip()

    def test_duplicate_registration_rejected(self):
        spec = dataclasses.replace(get_claim("C1"))
        with pytest.raises(ValueError, match="duplicate"):
            register_claim(spec)

    def test_params_for_returns_a_copy(self):
        claim = get_claim("C1")
        claim.params_for("quick")["periods"] = -1
        assert claim.params_for("quick")["periods"] != -1


def _toy_claim(passes=True, raises=False):
    def check(seed, params):
        if raises:
            raise RuntimeError("estimator exploded")
        return Evidence(
            passed=passes, observed={"seed": seed, "n": params["n"]}, detail="toy"
        )

    return ClaimSpec(
        claim_id="TOY",
        title="toy",
        paper_ref="none",
        criterion="toy",
        estimator="toy",
        tiers={"quick": {"n": 1}, "full": {"n": 2}},
        check=check,
    )


class TestClaimRun:
    def test_outcome_round_trips_through_json_dict(self):
        outcome = _toy_claim().run(seed=7, tier="quick")
        assert ClaimOutcome.from_dict(outcome.to_dict()) == outcome

    def test_tier_selects_budget(self):
        assert _toy_claim().run(seed=0, tier="full").params == {"n": 2}

    def test_explicit_params_bypass_tier_and_overrides(self):
        outcome = _toy_claim().run(
            seed=0, params={"n": 9}, overrides={"n": 5}
        )
        assert outcome.params == {"n": 9}

    def test_overrides_merge_into_tier_params(self):
        outcome = _toy_claim().run(seed=0, tier="quick", overrides={"n": 5})
        assert outcome.params == {"n": 5}

    def test_crashing_check_becomes_failed_outcome(self):
        outcome = _toy_claim(raises=True).run(seed=0, tier="quick")
        assert not outcome.passed
        assert "estimator exploded" in outcome.detail
        assert "RuntimeError" in outcome.observed["error"]

    def test_run_emits_span_and_counters(self):
        sink = MemorySink()
        with use_sink(sink):
            _toy_claim().run(seed=3, tier="quick")
            _toy_claim(passes=False).run(seed=3, tier="quick")
        spans = [r for r in sink.records if r["type"] == "span"]
        assert [s["attrs"]["claim"] for s in spans] == ["TOY", "TOY"]
        assert [s["attrs"]["passed"] for s in spans] == [True, False]
        snapshot = default_registry().snapshot()
        assert snapshot.counters["repro.verify.checks"] >= 2
        assert snapshot.counters["repro.verify.pass"] >= 1
        assert snapshot.counters["repro.verify.fail"] >= 1


class TestInjectionHook:
    def test_default_board_is_untouched(self):
        from repro.fpga.board import Board

        assert (
            claim_board({}).calibration.constants.gate_jitter_sigma_ps
            == Board().calibration.constants.gate_jitter_sigma_ps
        )

    def test_sigma_g_scale_rebuilds_the_calibration(self):
        clean = claim_board({}).calibration.constants.gate_jitter_sigma_ps
        scaled = claim_board(
            {"sigma_g_scale": 2.0}
        ).calibration.constants.gate_jitter_sigma_ps
        assert scaled == pytest.approx(2.0 * clean)

    def test_non_positive_scale_rejected(self):
        with pytest.raises(ValueError):
            claim_board({"sigma_g_scale": 0.0})


class TestCheapClaimsEndToEnd:
    """Full runs of the claims whose estimators are (near-)analytic."""

    def test_c6_passes_at_a_fixed_seed(self):
        outcome = get_claim("C6").run(seed=123, tier="quick")
        assert outcome.passed
        assert outcome.observed["mean_str96_frequency_mhz"] > 300.0

    def test_ext_failsafe_invariants(self):
        outcome = get_claim("EXT-FAILSAFE").run(seed=5, tier="quick")
        assert outcome.passed
        assert outcome.observed["final_state"] == "total_failure"

    def test_ext_failover_invariants(self):
        outcome = get_claim("EXT-FAILOVER").run(seed=5, tier="quick")
        assert outcome.passed
        assert outcome.observed["final_state"] == "online"
        assert "failover" in outcome.observed["event_kinds"]


class TestSupervisorClaimsSeedSweep:
    """The supervised-runtime claims hold at every root seed, not just
    the default one: each quick-tier sweep (five derived seeds) passes
    outright at root seeds 0-19."""

    @pytest.mark.parametrize("claim_id", ["EXT-FAILOVER", "EXT-FAILSAFE"])
    def test_quick_tier_passes_at_root_seeds_0_to_19(self, claim_id):
        from repro.verify import run_verification

        failing = []
        for root_seed in range(20):
            (sweep,) = run_verification(
                [claim_id], tier="quick", root_seed=root_seed, jobs=1
            ).sweeps
            if sweep.pass_count != sweep.trials:
                failing.append((root_seed, [o.detail for o in sweep.failures]))
        assert not failing, failing
