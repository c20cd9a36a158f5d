"""The simulation service: one in-process run path behind one object.

:mod:`repro.service.core` holds the synchronous
:class:`SimulationService`: spec-addressed :class:`JobRequest`\\ s,
single-flight dedupe onto :class:`JobTicket`\\ s, a structured
:class:`JobState` lifecycle and engine-or-inline execution.  The
experiment runner, the sweeps, the replication harness and the CLI all
run through it.
"""

from repro.service.core import (
    JobRequest,
    JobState,
    JobTicket,
    SimulationService,
    raise_for_outcome,
)

__all__ = [
    "JobRequest",
    "JobState",
    "JobTicket",
    "SimulationService",
    "raise_for_outcome",
]
