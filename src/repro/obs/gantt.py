"""Worker state timelines — the Jumpshot substitute.

The paper visualises executions with Jumpshot over MPE ``clog`` logs
(Figures 5 and 6): a Gantt-style timeline showing, for every processor, which
state it is in over time, which makes it obvious that after two of three
processors crash the survivor picks up the lost work and terminates.

Simulated workers record each state interval (``working``, ``idle``,
``recovery``, ``crashed``…) as a ``worker``-category span of the run's
:class:`~repro.obs.trace.Tracer`.  This module reads those spans back from
a live tracer (:func:`state_intervals`; a saved Chrome trace goes through
:func:`repro.obs.chrome.intervals_from_chrome`) and renders them as a coarse
ASCII Gantt chart (:func:`ascii_gantt`) for terminal inspection.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple

from .trace import Tracer

__all__ = [
    "StateInterval",
    "GLYPHS",
    "state_intervals",
    "state_durations",
    "ascii_gantt",
]

#: Single-character glyphs for the ASCII Gantt chart.
GLYPHS = {
    "working": "#",
    "idle": ".",
    "recovery": "R",
    "communication": "c",
    "load_balancing": "l",
    "contraction": "x",
    "crashed": " ",
    "terminated": "T",
}


class StateInterval(NamedTuple):
    """One contiguous interval of a process being in one state."""

    process: str
    state: str
    start: float
    duration: float

    @property
    def end(self) -> float:
        """Time the process left the state."""
        return self.start + self.duration


def state_intervals(tracer: Tracer) -> List[StateInterval]:
    """The ``worker`` spans, in recording order (per process: time order)."""
    return [
        StateInterval(process, name, ts, dur)
        for ts, dur, process, cat, name, _args in tracer.records()
        if cat == "worker" and dur is not None
    ]


def state_durations(intervals: Iterable[StateInterval]) -> Dict[str, Dict[str, float]]:
    """Total time each process spent in each state: ``{process: {state: s}}``."""
    durations: Dict[str, Dict[str, float]] = {}
    for interval in intervals:
        per_state = durations.setdefault(interval.process, {})
        per_state[interval.state] = per_state.get(interval.state, 0.0) + interval.duration
    return durations


def ascii_gantt(intervals: Iterable[StateInterval], *, width: int = 80) -> str:
    """Coarse ASCII rendering of the timeline (one row per process)."""
    rows: Dict[str, List[StateInterval]] = {}
    for interval in intervals:
        rows.setdefault(interval.process, []).append(interval)
    end = max((i.end for row in rows.values() for i in row), default=0.0)
    if end <= 0 or width < 10:
        return "(empty trace)"
    lines = []
    for process in sorted(rows):
        cells = [" "] * width
        for interval in sorted(rows[process], key=lambda i: i.start):
            lo = int(interval.start / end * (width - 1))
            hi = max(lo, int(interval.end / end * (width - 1)))
            glyph = GLYPHS.get(interval.state, "?")
            for col in range(lo, hi + 1):
                cells[col] = glyph
        lines.append(f"{process:>12} |{''.join(cells)}|")
    legend = "  ".join(f"{glyph}={state}" for state, glyph in GLYPHS.items() if glyph.strip())
    lines.append(f"{'':>12}  t=0 {'-' * (width - 16)} t={end:.2f}s")
    lines.append(f"{'':>12}  {legend}")
    return "\n".join(lines)
