"""The realexec backend refuses algorithm knobs its workers do not implement.

Real workers receive only ``report_threshold``, ``report_fanout`` and
``recovery_failed_threshold``.  Any other ``AlgorithmConfig`` field set away
from the Scenario default would have no effect, so the run is refused before
a process is spawned.
"""

import sys

import pytest

from repro.bnb.pool import SelectionRule
from repro.scenario import Scenario, get_scenario, run_scenario
from repro.scenario.cli import main

#: One non-default value for every field realexec does not implement.
UNSUPPORTED = {
    "report_staleness": 5.0,
    "table_gossip_interval": 1.0,
    "delta_gossip": False,
    "compress_reports": False,
    "failure_detector": True,
    "fd_heartbeat_interval": 0.1,
    "fd_fail_timeout": 1.0,
    "fd_cleanup_timeout": 8.0,
    "selection_rule": SelectionRule.BEST_FIRST,
}


@pytest.mark.parametrize("name", sorted(UNSUPPORTED))
def test_unsupported_field_rejected(name):
    base = Scenario()
    scenario = base.with_overrides(config=base.config.with_overrides(**{name: UNSUPPORTED[name]}))
    with pytest.raises(ValueError, match=name):
        run_scenario(scenario, backend="realexec")


def test_every_offending_field_is_named():
    base = Scenario()
    scenario = base.with_overrides(
        config=base.config.with_overrides(delta_gossip=False, report_staleness=None)
    )
    with pytest.raises(ValueError) as excinfo:
        run_scenario(scenario, backend="realexec")
    assert "report_staleness" in str(excinfo.value)
    assert "delta_gossip" in str(excinfo.value)


def test_cli_exits_2_on_unsupported_field(monkeypatch, capsys):
    import repro.scenario.cli as cli

    quickstart = get_scenario("quickstart")
    offending = quickstart.with_overrides(
        config=quickstart.config.with_overrides(compress_reports=False)
    )
    monkeypatch.setattr(cli, "get_scenario", lambda name: offending)
    assert main(["run", "quickstart", "--backend", "realexec"]) == 2
    assert "compress_reports" in capsys.readouterr().out


@pytest.mark.skipif(sys.platform.startswith("win"), reason="POSIX multiprocessing only")
def test_default_config_quickstart_runs_on_realexec():
    result = run_scenario(get_scenario("quickstart"), backend="realexec")
    assert result.terminated
    assert result.solved_correctly
