"""Characterization campaigns."""

import json
import re

import numpy as np
import pytest

from repro.core.campaign import (
    CampaignReport,
    RingCampaignResult,
    RingSpec,
    _campaign_grid,
    _segment_lengths,
    campaign_args,
    run_campaign,
)
from repro.core.characterization import jitter_versus_length
from repro.parallel import GridStats, ResultCache


class TestRingSpec:
    def test_labels(self):
        assert RingSpec("iro", 5).label == "IRO 5C"
        assert RingSpec("str", 96).label == "STR 96C"

    def test_build(self, board):
        assert RingSpec("iro", 5).build(board).stage_count == 5
        str_ring = RingSpec("str", 32, token_count=10).build(board)
        assert str_ring.token_count == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "lc", "stage_count": 5},
            {"kind": "iro", "stage_count": 2},
            {"kind": "iro", "stage_count": 5, "token_count": 2},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RingSpec(**kwargs)


@pytest.fixture(scope="module")
def report(bank):
    return run_campaign(
        [RingSpec("iro", 5), RingSpec("str", 48)],
        bank=bank,
        jitter_periods=768,
        seed=1,
    )


class TestRunCampaign:
    def test_results_per_spec(self, report):
        assert [result.label for result in report.results] == ["IRO 5C", "STR 48C"]

    def test_paper_figures_recovered(self, report):
        iro = report.result_for("IRO 5C")
        str_ = report.result_for("STR 48C")
        # bank[0] is a manufactured (process-varied) board, not nominal.
        assert iro.nominal_frequency_mhz == pytest.approx(375.9, abs=8.0)
        assert iro.delta_f == pytest.approx(0.49, abs=0.02)
        assert str_.delta_f == pytest.approx(0.39, abs=0.02)
        assert str_.period_jitter_ps < iro.period_jitter_ps

    def test_diffusion_below_sigma_for_str(self, report):
        str_ = report.result_for("STR 48C")
        assert 0.0 < str_.diffusion_sigma_ps < str_.period_jitter_ps

    def test_trng_provisioning_positive(self, report):
        for result in report.results:
            assert result.trng_reference_period_ps > 0
            assert 0.99 < result.trng_entropy_bound <= 1.0

    def test_board_frequencies_recorded(self, report, bank):
        assert len(report.result_for("IRO 5C").board_frequencies_mhz) == len(bank)

    def test_render(self, report):
        text = report.render()
        assert "IRO 5C" in text and "delta F" in text

    def test_json_round_trip(self, report):
        payload = json.loads(report.to_json())
        assert payload["board_count"] == 5
        assert payload["results"][0]["label"] == "IRO 5C"

    def test_unknown_label(self, report):
        with pytest.raises(KeyError):
            report.result_for("LC TANK")

    def test_empty_specs_rejected(self, bank):
        with pytest.raises(ValueError):
            run_campaign([], bank=bank)


class TestSegmentLengths:
    def test_single_period_budget_rejected(self):
        with pytest.raises(ValueError):
            _segment_lengths(1)

    @pytest.mark.parametrize("total", [2, 511, 513, 1024, 1100])
    def test_lengths_cover_budget(self, total):
        lengths = _segment_lengths(total)
        assert sum(lengths) == total
        assert min(lengths) >= 2


@pytest.mark.parametrize(
    "drive",
    [
        lambda seed, board, bank: jitter_versus_length(
            board, [3, 5], "iro", seed=seed, backend="event"
        ),
        lambda seed, board, bank: jitter_versus_length(
            board, [3, 5], "iro", seed=seed, backend="batch"
        ),
        lambda seed, board, bank: run_campaign(
            [RingSpec("iro", 5)], bank=bank, seed=seed, backend="event"
        ),
        lambda seed, board, bank: run_campaign(
            [RingSpec("iro", 5)], bank=bank, seed=seed, backend="batch"
        ),
    ],
    ids=[
        "jitter_versus_length-event",
        "jitter_versus_length-batch",
        "run_campaign-event",
        "run_campaign-batch",
    ],
)
def test_generator_root_seed_raises(drive, board, bank):
    """Grid drivers take integer root seeds only; a Generator fails loudly."""
    with pytest.raises(TypeError):
        drive(np.random.default_rng(0), board, bank)


class TestFamilyGrid:
    """One grid task per ring family, keyed by its backend."""

    SPECS = [RingSpec("iro", 3), RingSpec("str", 8), RingSpec("iro", 5)]

    def test_one_task_per_family(self, bank):
        tasks, _worker = _campaign_grid(campaign_args(self.SPECS, jitter_periods=1100), bank)
        assert [len(task.payload) for task in tasks] == [2, 1]
        assert [task.payload[0].family for task in tasks] == ["iro", "str"]
        assert tasks[0].spec["period_counts"] == [512, 512, 76]
        assert [len(seeds) for seeds in tasks[0].spec["seeds"]] == [3, 3]

    def test_rows_come_back_in_spec_order(self, bank):
        # A spec's seed depends only on its index, so a ring keeps its row
        # whichever other rings share its family's task.
        def rows(*specs):
            return run_campaign(list(specs), bank=bank, jitter_periods=256, seed=2).results

        iro3, str8, iro5 = self.SPECS
        mixed = rows(iro3, str8, iro5)
        assert mixed[0] == rows(iro3, str8, RingSpec("str", 16))[0]
        assert mixed[1] == rows(RingSpec("str", 16), str8)[1]
        assert mixed[2] == rows(RingSpec("str", 4), str8, iro5)[2]

    def test_backends_never_share_cache_entries(self, bank, tmp_path):
        cache = ResultCache(root=tmp_path / "cache", version="1")
        event_stats, batch_stats = GridStats(), GridStats()
        common = dict(bank=bank, jitter_periods=256, seed=2, cache=cache)
        run_campaign([RingSpec("iro", 3)], backend="event", stats=event_stats, **common)
        run_campaign([RingSpec("iro", 3)], backend="batch", stats=batch_stats, **common)
        assert (event_stats.executed, batch_stats.executed) == (1, 1)
        assert batch_stats.cache_hits == 0
        assert cache.stats().entry_count == 2


def _synthetic_result(label: str, frequency_mhz: float) -> RingCampaignResult:
    return RingCampaignResult(
        label=label,
        nominal_frequency_mhz=frequency_mhz,
        delta_f=0.49,
        linearity_r2=0.995,
        sigma_rel=0.0123,
        board_frequencies_mhz=[frequency_mhz - 1.0, frequency_mhz + 1.0],
        period_jitter_ps=9.42,
        diffusion_sigma_ps=5.5,
        trng_reference_period_ps=94.1e6,
        trng_entropy_bound=0.9971,
    )


@pytest.fixture()
def synthetic_report():
    return CampaignReport(
        results=[
            _synthetic_result("IRO 5C", 375.9),
            _synthetic_result("STR 48C", 555.5),
        ],
        voltages_v=[1.0, 1.2, 1.4],
        board_count=2,
        q_target=0.2,
    )


class TestCampaignReportContainer:
    """Container behaviour on a synthetic report (no campaign run)."""

    def test_result_for_hit(self, synthetic_report):
        assert synthetic_report.result_for("STR 48C").nominal_frequency_mhz == 555.5

    def test_result_for_miss_raises_keyerror(self, synthetic_report):
        with pytest.raises(KeyError, match="LC TANK"):
            synthetic_report.result_for("LC TANK")

    def test_to_json_round_trip(self, synthetic_report):
        payload = json.loads(synthetic_report.to_json())
        assert payload["voltages_v"] == [1.0, 1.2, 1.4]
        assert payload["board_count"] == 2
        assert payload["q_target"] == 0.2
        assert [entry["label"] for entry in payload["results"]] == ["IRO 5C", "STR 48C"]
        rebuilt = [RingCampaignResult(**entry) for entry in payload["results"]]
        assert rebuilt == synthetic_report.results

    def test_render_column_integrity(self, synthetic_report):
        lines = synthetic_report.render().splitlines()
        header, separator, *body = lines
        columns = re.split(r"\s{2,}", header)
        assert columns == [
            "ring",
            "F [MHz]",
            "delta F",
            "sigma_rel",
            "sigma_p [ps]",
            "diffusion [ps]",
            "T_ref(Q) [us]",
            "H bound",
        ]
        assert set(separator) == {"-"}
        assert len(body) == 2
        for line, result in zip(body, synthetic_report.results):
            cells = re.split(r"\s{2,}", line)
            assert len(cells) == len(columns)
            assert cells[0] == result.label
            assert cells[1] == f"{result.nominal_frequency_mhz:.1f}"
            assert cells[2] == "49.0%"
            assert cells[7] == "0.9971"
