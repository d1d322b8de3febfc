"""The scipy-free ``brentq`` against ``scipy.optimize.brentq``.

``repro.rootfind.brentq`` ports scipy's C routine so that no ``repro``
process has to import ``scipy.optimize``.  These tests pin it to the
installed scipy bit for bit: on the calibration fits and the STR
steady-state solves the library makes, on a seeded sweep of random
bracketed functions and ``xtol`` values, and in its argument checks.
"""

import math

import numpy as np
import pytest
from scipy import optimize

import repro.core.temporal_model as temporal_model
import repro.fpga.calibration as calibration
from repro.core.charlie import CharlieDiagram, CharlieParameters
from repro.experiments.registry import run_experiment
from repro.fpga.board import Board, BoardBank
from repro.fpga.voltage import SupplySpec
from repro.rings.str_ring import SelfTimedRing
from repro.rootfind import brentq


def _outcome(solver, f, a, b, xtol):
    """The root as a hex string, or the exception type the solver raised."""
    try:
        return float(solver(f, a, b, xtol=xtol)).hex()
    except (ValueError, RuntimeError) as error:
        return type(error).__name__


@pytest.fixture
def checked_solves(monkeypatch):
    """Route the library's root finds through both solvers and record them."""
    solves = []

    def both(f, a, b, xtol):
        ours = brentq(f, a, b, xtol)
        reference = optimize.brentq(f, a, b, xtol=xtol)
        solves.append((ours.hex(), float(reference).hex()))
        return ours

    monkeypatch.setattr(calibration, "brentq", both)
    monkeypatch.setattr(temporal_model, "brentq", both)
    return solves


def test_calibration_fits_equal_scipy(checked_solves):
    calibration.fit_confinement_from_table1()
    calibration.fit_confinement_from_table1(calibration.TimingConstants(inter_lab_route_ps=120.0))
    assert len(checked_solves) == 10
    assert all(ours == reference for ours, reference in checked_solves)


def test_steady_state_solves_equal_scipy(checked_solves):
    """Every balanced and unbalanced STR the experiments place, on a
    nominal board, across the voltage sweep and on varied devices, plus
    the experiments that call the solver directly."""
    boards = [Board().with_supply(SupplySpec(voltage_v=v)) for v in (1.0, 1.2, 1.4)]
    boards += list(BoardBank.manufacture(board_count=3, seed=123))
    for board in boards:
        for stage_count in (3, 4, 5, 8, 16, 32, 48, 64, 96, 128, 192, 384):
            for token_count in range(2, stage_count, 2):
                if token_count in (2, stage_count // 2) or stage_count <= 32:
                    SelfTimedRing.on_board(board, stage_count, token_count).steady_state()
    for diagram in (
        CharlieDiagram(CharlieParameters.symmetric(250.0, 100.0)),
        CharlieDiagram(CharlieParameters(180.0, 320.0, 60.0)),
    ):
        for stage_count, token_count in ((3, 2), (8, 2), (8, 6), (33, 4), (96, 48), (97, 96)):
            temporal_model.solve_steady_state(diagram, stage_count, token_count)
    for experiment_id in ("SEC5A", "ABL1"):
        run_experiment(experiment_id)
    assert len(checked_solves) > 150
    assert all(ours == reference for ours, reference in checked_solves)


def test_random_brackets_equal_scipy():
    rng = np.random.default_rng(20120312)
    for _ in range(2000):
        c0, c1, c2 = rng.normal(size=3)
        root = rng.uniform(-2.0, 2.0)

        def f(x, c0=c0, c1=c1, c2=c2, root=root):
            d = x - root
            return d * (c0 * c0 + 0.1) + c1 * d**3 + 0.1 * c2 * math.sin(3.0 * d) * abs(d)

        a = root - rng.uniform(0.01, 5.0)
        b = root + rng.uniform(0.01, 5.0)
        if rng.random() < 0.5:
            a, b = b, a
        xtol = 10.0 ** rng.uniform(-14.0, -1.0)
        assert _outcome(brentq, f, a, b, xtol) == _outcome(optimize.brentq, f, a, b, xtol)


def _step(x):
    return -1.0 if x < 0 else 1.0


@pytest.mark.parametrize(
    "f,a,b,xtol",
    [
        (lambda x: x * x + 1.0, -1.0, 1.0, 1e-12),  # no sign change
        (lambda x: x - 0.25, 0.0, 1.0, 0.0),
        (_step, -1.0, 1.0, 1e-300),  # halves its bracket: no convergence in 100 steps
        (lambda x: x, 0.0, 1.0, 1e-12),  # f(a) == 0
        (lambda x: x - 1.0, 0.0, 1.0, 1e-12),  # f(b) == 0
    ],
)
def test_checks_and_end_points_equal_scipy(f, a, b, xtol):
    assert _outcome(brentq, f, a, b, xtol) == _outcome(optimize.brentq, f, a, b, xtol)


def test_checks_raise_scipys_errors():
    with pytest.raises(ValueError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0, 1e-12)
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: 1.0, 0.0, 1.0, 1e-12)
    # Signs are compared, not the product f(a) * f(b), which underflows to 0 here.
    with pytest.raises(ValueError, match="different signs"):
        brentq(lambda x: 1e-200, 0.0, 1.0, 1e-12)
    with pytest.raises(ValueError, match="xtol"):
        brentq(lambda x: x, -1.0, 1.0, -1.0)
    with pytest.raises(RuntimeError, match="converge"):
        brentq(_step, -1.0, 1.0, 1e-300)
