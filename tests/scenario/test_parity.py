"""Cross-backend parity: one seeded scenario, every backend, one answer.

The acceptance bar of the unified Scenario API: the same frozen
:class:`~repro.scenario.spec.Scenario` runs unmodified on all four backends
and returns a :class:`~repro.scenario.result.ScenarioResult` with an
identical schema; the three simulated backends agree on the optimal solution
value and terminate; the realexec backend is smoke-tested on the quickstart
scenario over the ``pipe``, ``uds`` and ``tcp`` transports.
"""

import sys

import pytest

from repro.scenario import (
    AvailabilitySpec,
    ChurnSpec,
    FailureSpec,
    Scenario,
    ScenarioResult,
    WorkloadSpec,
    compare_backends,
    get_scenario,
    run_scenario,
)

SIMULATED_BACKENDS = ("simulated", "central", "dib")

#: The shared parity workload: small enough that every backend is quick,
#: big enough that load balancing and reporting actually happen.
PARITY = Scenario(
    name="parity",
    workload=WorkloadSpec(kind="random", nodes=81, mean_node_time=0.005, seed=23),
    n_workers=3,
    seed=5,
)


class TestSimulatedBackendParity:
    @pytest.fixture(scope="class")
    def results(self):
        return compare_backends(PARITY, SIMULATED_BACKENDS)

    def test_all_terminate(self, results):
        for name, result in results.items():
            assert result.terminated, f"{name} did not terminate"

    def test_all_agree_on_the_optimum(self, results):
        optimum = PARITY.build_tree().optimal_value()
        for name, result in results.items():
            assert result.solved_correctly, f"{name} missed the optimum"
            assert result.best_value == pytest.approx(optimum), name
        values = {round(r.best_value, 9) for r in results.values()}
        assert len(values) == 1

    def test_identical_result_schema(self, results):
        shapes = {name: tuple(sorted(result.summary())) for name, result in results.items()}
        assert len(set(shapes.values())) == 1, shapes
        for result in results.values():
            assert isinstance(result, ScenarioResult)
            assert result.n_workers == PARITY.n_workers
            assert result.bytes_total > 0 and result.messages_total > 0
            assert sum(result.bytes_by_kind.values()) == result.bytes_total

    def test_per_worker_stats_cover_all_workers(self, results):
        for name, result in results.items():
            assert len(result.workers) == PARITY.n_workers, name
            assert sum(w.nodes_expanded for w in result.workers.values()) == (
                result.total_nodes_expanded
            ), name


class TestCrashParity:
    """A worker crash (not the critical node) is survivable on every design."""

    @pytest.fixture(scope="class")
    def results(self):
        scenario = PARITY.with_overrides(
            name="parity-crash",
            n_workers=4,
            failures=(FailureSpec(victims=(2,), at_fraction=0.4),),
        )
        return compare_backends(scenario, SIMULATED_BACKENDS)

    def test_all_survive_and_solve(self, results):
        for name, result in results.items():
            assert result.terminated, f"{name} did not survive the crash"
            assert result.solved_correctly, name
            assert len(result.crashed_workers) == 1, name

    def test_fault_tolerance_counters_engage(self, results):
        # Each design recovers differently (complement / reassignment /
        # redo), but the normalised counter must register the recovery work.
        engaged = {name: result.recoveries for name, result in results.items()}
        assert any(count > 0 for count in engaged.values()), engaged


class TestCriticalNodeAsymmetry:
    """The paper's headline claim, expressed as one scenario override."""

    def test_only_the_paper_mechanism_survives_critical_crash(self):
        from repro.scenario import CRITICAL

        scenario = PARITY.with_overrides(
            name="parity-critical",
            failures=(FailureSpec(victims=(CRITICAL,), at_fraction=0.4),),
        )
        results = compare_backends(scenario, SIMULATED_BACKENDS)
        assert results["simulated"].terminated and results["simulated"].solved_correctly
        assert not results["central"].terminated
        assert not results["dib"].terminated


#: The churn parity workload: long enough that the churn windows land well
#: inside the run on every backend.
CHURN_PARITY = Scenario(
    name="churn-parity",
    workload=WorkloadSpec(kind="random", nodes=201, mean_node_time=0.02, seed=23),
    n_workers=4,
    seed=5,
)

#: Seeded churn processes: a blip (leave and return), a permanent departure,
#: and a distribution-driven process with an explicit horizon.
CHURN_CASES = {
    "blip": ChurnSpec(
        availability=(AvailabilitySpec(worker=2, down=((0.3, 1.0),)),)
    ),
    "depart": ChurnSpec(
        availability=(AvailabilitySpec(worker=1, down=((0.4, float("inf")),)),)
    ),
    "drawn": ChurnSpec(
        mean_uptime=2.0, mean_downtime=0.3, start_after=0.4, horizon=2.5
    ),
}


class TestChurnParity:
    """Seeded churn matrix: every backend still reports the true optimum.

    ``simulated`` honours the full leave/return process (live failure
    detection, rejoin through gossip first contact); ``central`` and ``dib``
    have no rejoin path, so each churned worker's first leave becomes a
    permanent crash there — under either interpretation the reported
    optimum must equal the failure-free optimum and the run must terminate.
    """

    @pytest.mark.parametrize("case", sorted(CHURN_CASES))
    @pytest.mark.parametrize("seed", [5, 17])
    def test_churn_matrix_agrees_on_the_optimum(self, case, seed):
        scenario = CHURN_PARITY.with_overrides(
            name=f"churn-parity-{case}-{seed}", seed=seed, churn=CHURN_CASES[case]
        )
        optimum = scenario.build_tree().optimal_value()
        results = compare_backends(scenario, SIMULATED_BACKENDS)
        for name, result in results.items():
            assert result.terminated, f"{name} did not survive churn ({case})"
            assert result.solved_correctly, f"{name} missed the optimum ({case})"
            assert result.best_value == pytest.approx(optimum), (name, case)

    def test_churn_summary_schema_is_uniform(self):
        scenario = CHURN_PARITY.with_overrides(churn=CHURN_CASES["blip"])
        results = compare_backends(scenario, SIMULATED_BACKENDS)
        shapes = {tuple(sorted(r.summary())) for r in results.values()}
        assert len(shapes) == 1
        # Only the simulated backend has a rejoin path; the blip registers.
        assert results["simulated"].rejoins == 1
        assert results["simulated"].unavailable_time == pytest.approx(0.7)

    def test_simulated_churn_is_deterministic_given_seed(self):
        scenario = CHURN_PARITY.with_overrides(churn=CHURN_CASES["drawn"])
        a = run_scenario(scenario, backend="simulated")
        b = run_scenario(scenario, backend="simulated")
        assert a.solved_correctly and b.solved_correctly
        assert a.makespan == b.makespan
        assert a.total_nodes_expanded == b.total_nodes_expanded
        assert (a.evictions, a.rejoins) == (b.evictions, b.rejoins)
        assert a.raw.engine_counters == b.raw.engine_counters

    def test_simulated_churn_records_a_trace(self):
        scenario = CHURN_PARITY.with_overrides(
            churn=CHURN_CASES["blip"], enable_trace=True
        )
        result = run_scenario(scenario, backend="simulated")
        assert result.solved_correctly
        assert result.rejoins == 1
        assert result.raw.trace is not None
        processes = set(result.raw.trace.processes())
        assert processes and processes <= set(scenario.canonical_worker_names())


@pytest.mark.skipif(sys.platform.startswith("win"), reason="POSIX multiprocessing only")
class TestRealexecSmoke:
    """The quickstart scenario on real processes, every transport."""

    @pytest.mark.parametrize("transport", ["pipe", "uds", "tcp"])
    def test_quickstart_scenario_runs(self, transport):
        scenario = get_scenario("quickstart").with_overrides(
            failures=(), transport=transport, max_seconds=40.0
        )
        result = run_scenario(scenario, backend="realexec")
        assert result.backend == "realexec"
        assert result.terminated
        assert result.solved_correctly
        assert result.raw.transport == transport
        assert result.bytes_total > 0
        assert sum(result.bytes_by_kind.values()) == result.bytes_total

    def test_realexec_summary_schema_matches_simulated(self):
        real = run_scenario(
            get_scenario("quickstart").with_overrides(failures=()), backend="realexec"
        )
        sim = run_scenario(PARITY, backend="simulated")
        assert sorted(real.summary()) == sorted(sim.summary())

    @pytest.mark.parametrize("transport", ["pipe", "tcp"])
    def test_rolling_upgrade_scenario_on_realexec(self, transport):
        scenario = get_scenario("rolling-upgrade").with_overrides(transport=transport)
        result = run_scenario(scenario, backend="realexec")
        assert result.terminated and result.solved_correctly
        assert result.raw.n_workers == 4
        assert result.raw.transport == transport


@pytest.mark.skipif(sys.platform.startswith("win"), reason="POSIX signals only")
class TestRealexecChurnSmoke:
    """Kill+rejoin on real OS processes, over every transport.

    One worker is killed mid-run and respawned fresh (``has_root=False``)
    shortly after; ``node_sleep`` stretches the run so the churn window
    lands while everyone is still working.  The rejoined process must
    re-converge through the gossip first-contact path and terminate with
    the survivors on the true optimum.
    """

    @pytest.mark.parametrize("transport", ["pipe", "uds", "tcp"])
    def test_kill_and_rejoin(self, transport):
        scenario = Scenario(
            name=f"realexec-churn-{transport}",
            workload=WorkloadSpec(kind="random", nodes=121, mean_node_time=0.005, seed=31),
            n_workers=4,
            seed=31,
            transport=transport,
            node_sleep=0.02,
            max_seconds=60.0,
            churn=ChurnSpec(
                availability=(AvailabilitySpec(worker=2, down=((0.25, 0.6),)),),
                mode="restart",
            ),
        )
        result = run_scenario(scenario, backend="realexec")
        assert result.raw.rejoined == ["rworker-02"]
        assert result.raw.churned_out == []
        assert result.crashed_workers == ()
        assert result.rejoins == 1
        assert result.unavailable_time > 0.0
        assert result.terminated, "rejoined worker (or a survivor) never terminated"
        assert result.solved_correctly
        # The rejoined incarnation reported an outcome like any survivor.
        assert "rworker-02" in result.raw.outcomes
