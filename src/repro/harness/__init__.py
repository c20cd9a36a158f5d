"""Experiment harness: benchmark x technique sweeps and figure builders.

* :mod:`repro.harness.experiment` -- the memoising runner plus the
  normalised metrics every figure consumes (savings, performance,
  wakeups, compensated residency).
* :mod:`repro.harness.figures` -- one builder per paper figure,
  returning printable rows/series (used by the artifact pipeline and
  the examples).
* :mod:`repro.harness.sweeps` -- parameter sweeps: idle-detect (Fig. 6),
  break-even time and wakeup delay (Fig. 11).
* :mod:`repro.harness.artifact` -- the one-command paper-artifact
  pipeline (``repro figures``): per-figure result directories with
  provenance manifests plus tolerance-gated headline checks.
* :mod:`repro.harness.export` -- CSV / standard-JSON / Markdown row
  serialisation shared by the CLI and the artifact pipeline.
"""

from repro.harness.experiment import (
    ExperimentSettings,
    ExperimentRunner,
    normalized_performance,
)
from repro.harness import figures, sweeps

__all__ = [
    "ExperimentSettings",
    "ExperimentRunner",
    "normalized_performance",
    "figures",
    "sweeps",
]
