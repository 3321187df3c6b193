"""Figures 5/6 pinned: the tracer-built timeline equals the recorded one.

The rows and both Gantt charts below are the recorded output of
``figure56_scenario()`` (seed 7).  The activity rows and the charts built
from the run tracer's ``worker`` spans must reproduce them to the character.
"""

from repro.analysis import activity_summary, figure56_scenario

NO_FAILURE_ROWS = [
    {"process": "worker-00", "working_s": 2.677, "idle_s": 0.327, "load_balancing_s": 0.0, "recovery_s": 0.0, "crashed_s": 0.0, "terminated_s": 0.0},
    {"process": "worker-01", "working_s": 2.331, "idle_s": 0.667, "load_balancing_s": 0.0, "recovery_s": 0.0, "crashed_s": 0.0, "terminated_s": 0.007},
    {"process": "worker-02", "working_s": 2.604, "idle_s": 0.395, "load_balancing_s": 0.0, "recovery_s": 0.0, "crashed_s": 0.0, "terminated_s": 0.006},
]

WITH_FAILURES_ROWS = [
    {"process": "worker-00", "working_s": 3.375, "idle_s": 0.724, "load_balancing_s": 0.0, "recovery_s": 0.0, "crashed_s": 0.0, "terminated_s": 0.0},
    {"process": "worker-01", "working_s": 2.23, "idle_s": 0.324, "load_balancing_s": 0.0, "recovery_s": 0.0, "crashed_s": 1.544, "terminated_s": 0.0},
    {"process": "worker-02", "working_s": 2.202, "idle_s": 0.352, "load_balancing_s": 0.0, "recovery_s": 0.0, "crashed_s": 1.544, "terminated_s": 0.0},
]

NO_FAILURE_GANTT = (
    "   worker-00 |################################################################........########|\n"
    "   worker-01 |...######################################################....#####..........##TT|\n"
    "   worker-02 |.....##############################################....######################.TT|\n"
    "              t=0 ---------------------------------------------------------------- t=3.00s\n"
    "              #=working  .=idle  R=recovery  c=communication  l=load_balancing  x=contraction  T=terminated"
)

WITH_FAILURES_GANTT = (
    "   worker-00 |###############################################.............####################|\n"
    "   worker-01 |..########################################...###.                               |\n"
    "   worker-02 |...##################################...#########                               |\n"
    "              t=0 ---------------------------------------------------------------- t=4.10s\n"
    "              #=working  .=idle  R=recovery  c=communication  l=load_balancing  x=contraction  T=terminated"
)


def test_figure56_timeline_matches_recorded_output():
    result = figure56_scenario()
    assert activity_summary(result["no_failure"].telemetry.tracer) == NO_FAILURE_ROWS
    assert activity_summary(result["with_failures"].telemetry.tracer) == WITH_FAILURES_ROWS
    assert result["no_failure_gantt"] == NO_FAILURE_GANTT
    assert result["with_failures_gantt"] == WITH_FAILURES_GANTT
