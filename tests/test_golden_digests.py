"""Golden output guard for the nine named runtime scenarios.

``tests/golden/runtime_digests.json`` pins, for every scenario at seeds
0 and 7 on a short horizon, the sha256 of the compact result JSON that
``run_runtime(config.to_legacy())`` produces, together with its session
totals.  Parity harnesses only prove that two paths agree with each
other; these digests prove the bytes themselves did not move, so a
refactor that deletes a path must keep them unchanged.

Regenerate (only for an intended output change) with::

    PYTHONPATH=src python -m tests.test_golden_digests
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.runtime.runtime import run_runtime
from repro.service.scenarios import SERVICE_SCENARIOS, build_service_scenario

GOLDEN = Path(__file__).parent / "golden" / "runtime_digests.json"
HORIZON = 1_500.0
SEEDS = (0, 7)


def digest(name: str, seed: int) -> dict:
    """The pinned fingerprint of one scenario run."""
    config = build_service_scenario(name, seed=seed, horizon=HORIZON)
    result = run_runtime(config.to_legacy())
    text = result.to_json(indent=None)
    return {"sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "totals": result.totals}


def _load() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_fixture_covers_every_scenario_and_seed():
    golden = _load()
    assert golden["horizon"] == HORIZON
    assert sorted(golden["digests"]) == sorted(SERVICE_SCENARIOS)
    for name, by_seed in golden["digests"].items():
        assert sorted(by_seed) == sorted(str(seed) for seed in SEEDS), name


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(SERVICE_SCENARIOS))
def test_runtime_output_matches_golden_digest(name, seed):
    assert digest(name, seed) == _load()["digests"][name][str(seed)]


if __name__ == "__main__":
    payload = {"horizon": HORIZON,
               "digests": {name: {str(seed): digest(name, seed)
                                  for seed in SEEDS}
                           for name in SERVICE_SCENARIOS}}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
