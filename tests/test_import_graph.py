"""What a fresh ``repro`` process imports: no scipy on the common paths.

``scipy.stats`` takes over a second to import and ``scipy.optimize``
half a second; the library keeps both off the import path and off the
serving path.  Each check runs in a fresh interpreter, since this test
process has imported scipy long before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys

def scipy_modules():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))

stages = {}
import repro, repro.cli, repro.serve, repro.verify, repro.experiments, repro.puf
stages["import"] = scipy_modules()

from repro.core.campaign import RingSpec
from repro.serve import TrngPool
rings = (RingSpec("iro", 5), RingSpec("iro", 7), RingSpec("str", 48), RingSpec("str", 96))
assert TrngPool(rings, seed=0).produce_block() is not None
stages["serve"] = scipy_modules()

import numpy as np
from repro.stats.randomness import run_battery
run_battery(np.random.default_rng(0).integers(0, 2, size=20_000))
stages["battery"] = scipy_modules()

from repro.verify import run_verification
assert run_verification(["PUF-UNIQ"], seeds=1).passed
stages["puf_claim"] = scipy_modules()
print(json.dumps(stages))
"""


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """The scipy modules loaded after each stage of the probe script."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("cache"))
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_public_packages_import_no_scipy(loaded):
    assert loaded["import"] == []


def test_serving_a_block_loads_no_scipy(loaded):
    assert loaded["serve"] == []


def _stats_or_optimize(modules):
    return [name for name in modules if name.startswith(("scipy.stats", "scipy.optimize"))]


def test_randomness_battery_loads_only_scipy_special(loaded):
    assert "scipy.special" in loaded["battery"]
    assert _stats_or_optimize(loaded["battery"]) == []


def test_puf_claim_loads_no_scipy_stats_or_optimize(loaded):
    assert _stats_or_optimize(loaded["puf_claim"]) == []


def test_no_module_imports_scipy_at_top_level():
    """Every scipy import in ``src/repro`` sits inside a function."""
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            if line.startswith(("import scipy", "from scipy")):
                offenders.append(f"{path.relative_to(SRC)}:{number}")
    assert offenders == []
