"""Golden output guard for the named runtime scenarios and e2e configs.

``tests/golden/runtime_digests.json`` pins, for every scenario at seeds
0 and 7 on a short horizon, the sha256 of the compact result JSON that
``run_runtime(config.to_legacy())`` produces, together with its session
totals.  It also pins, for each of the ten end-to-end benchmark configs
(``benchmarks/e2e/configs/*/*.json``) at seed 1, the sha256 of the
``runtime --config CFG --seed 1 --json`` bytes (``run_service`` written
with ``write_json(indent=2)``), which is the path a config user runs.  Parity harnesses only prove that two paths agree with each
other; these digests prove the bytes themselves did not move, so a
refactor that deletes a path must keep them unchanged.

Regenerate (only for an intended output change) with::

    PYTHONPATH=src python -m tests.test_golden_digests
"""

from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.runtime.runtime import run_runtime
from repro.service.config import RuntimeConfig
from repro.service.scenarios import SERVICE_SCENARIOS, build_service_scenario
from repro.service.traffic import run_service

GOLDEN = Path(__file__).parent / "golden" / "runtime_digests.json"
HORIZON = 1_500.0
SEEDS = (0, 7)
E2E_CONFIG_DIR = (Path(__file__).parent.parent / "benchmarks" / "e2e"
                  / "configs")
E2E_CONFIGS = {f"{path.parent.name}/{path.stem}": path
               for path in sorted(E2E_CONFIG_DIR.glob("*/*.json"))}
E2E_SEED = 1


def digest(name: str, seed: int) -> dict:
    """The pinned fingerprint of one scenario run."""
    config = build_service_scenario(name, seed=seed, horizon=HORIZON)
    result = run_runtime(config.to_legacy())
    text = result.to_json(indent=None)
    return {"sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "totals": result.totals}


def config_digest(path: Path) -> dict:
    """The pinned fingerprint of one e2e config's ``--json`` output."""
    config = RuntimeConfig.from_json(path.read_text(encoding="utf-8"))
    result = run_service(config.replace(seed=E2E_SEED))
    handle = io.StringIO()
    result.write_json(handle, indent=2)
    return {"sha256": hashlib.sha256(
                handle.getvalue().encode("utf-8")).hexdigest(),
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


def test_fixture_covers_every_e2e_config():
    golden = _load()
    assert golden["e2e_seed"] == E2E_SEED
    assert len(E2E_CONFIGS) == 10
    assert sorted(golden["e2e_configs"]) == sorted(E2E_CONFIGS)


@pytest.mark.parametrize("name", sorted(E2E_CONFIGS))
def test_e2e_config_output_matches_golden_digest(name):
    assert (config_digest(E2E_CONFIGS[name])
            == _load()["e2e_configs"][name])


if __name__ == "__main__":
    payload = {"horizon": HORIZON,
               "digests": {name: {str(seed): digest(name, seed)
                                  for seed in SEEDS}
                           for name in SERVICE_SCENARIOS},
               "e2e_seed": E2E_SEED,
               "e2e_configs": {name: config_digest(path)
                               for name, path in E2E_CONFIGS.items()}}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}")
