"""CLI control-plane surface: --emit-config / --config and name validation."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.cli import main
from repro.service.config import RuntimeConfig
from repro.service.scenarios import (
    SERVICE_SCENARIOS,
    require_known_scenario,
)


class TestScenarioValidation:
    """One canonical validator covers every spelling (satellite: the
    hyphen/underscore near-twins must both resolve, and a bad name must
    produce the same error text everywhere)."""

    def test_both_spellings_are_distinct_valid_scenarios(self):
        require_known_scenario("flash-crowd")
        require_known_scenario("flash_crowd")
        assert (SERVICE_SCENARIOS["flash-crowd"]
                is not SERVICE_SCENARIOS["flash_crowd"])

    def test_unknown_name_lists_the_catalog(self):
        with pytest.raises(ConfigurationError) as excinfo:
            require_known_scenario("flash")
        message = str(excinfo.value)
        assert "unknown scenario 'flash'" in message
        for name in SERVICE_SCENARIOS:
            assert name in message

    def test_cli_unknown_scenario_uses_the_canonical_text(self, capsys):
        assert main(["runtime", "flash"]) == 1
        err = capsys.readouterr().err
        assert "unknown scenario 'flash'" in err
        assert "flash-crowd" in err and "flash_crowd" in err

    def test_cli_accepts_both_spellings(self, capsys):
        assert main(["runtime", "flash-crowd", "--horizon", "600"]) == 0
        assert main(["runtime", "flash_crowd", "--horizon", "600"]) == 0


class TestEmitConfig:
    def test_emit_to_stdout_is_valid_config_json(self, capsys):
        assert main(["runtime", "overload", "--emit-config", "-",
                     "--horizon", "900"]) == 0
        out = capsys.readouterr().out
        config = RuntimeConfig.from_json(out)
        assert config.horizon == 900.0
        assert json.loads(out)["schema"] == 1

    def test_emit_then_run_config_round_trip(self, capsys, tmp_path):
        path = tmp_path / "steady.json"
        assert main(["runtime", "steady-disk", "--emit-config", str(path),
                     "--horizon", "800"]) == 0
        capsys.readouterr()
        json_path = tmp_path / "result.json"
        assert main(["runtime", "--config", str(path),
                     "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "sessions:" in out
        payload = json.loads(json_path.read_text())
        assert payload["schema"] >= 1
        assert payload["events"]

    def test_config_run_matches_named_scenario_run(self, capsys, tmp_path):
        config_path = tmp_path / "scenario.json"
        service_json = tmp_path / "service.json"
        named_json = tmp_path / "named.json"
        assert main(["runtime", "device-failure", "--emit-config",
                     str(config_path), "--horizon", "1500"]) == 0
        assert main(["runtime", "--config", str(config_path),
                     "--json", str(service_json)]) == 0
        assert main(["runtime", "device-failure", "--horizon", "1500",
                     "--json", str(named_json)]) == 0
        capsys.readouterr()
        assert (json.loads(service_json.read_text())
                == json.loads(named_json.read_text()))

    def test_config_run_keeps_the_config_seed(self, capsys, tmp_path):
        config_path = tmp_path / "seeded.json"
        json_path = tmp_path / "seeded-result.json"
        assert main(["runtime", "flash_crowd", "--emit-config",
                     str(config_path), "--seed", "7",
                     "--horizon", "900"]) == 0
        assert RuntimeConfig.from_json(config_path.read_text()).seed == 7
        assert main(["runtime", "--config", str(config_path),
                     "--json", str(json_path)]) == 0
        capsys.readouterr()
        payload = json.loads(json_path.read_text())
        assert payload["summary"]["notes"]["seed"] == 7

    def test_config_excludes_scenario_and_emit(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{}")
        assert main(["runtime", "steady-disk",
                     "--config", str(path)]) == 1
        assert "--config" in capsys.readouterr().err

    def test_runtime_without_scenario_or_config_errors(self, capsys):
        assert main(["runtime"]) == 1
        assert "scenario" in capsys.readouterr().err

    def test_runtime_list_names_all_nine(self, capsys):
        assert main(["runtime", "list"]) == 0
        out = capsys.readouterr().out
        for name in SERVICE_SCENARIOS:
            assert name in out
