"""Shared fixtures for the experiment benches.

Each ``bench_*.py`` file runs one experiment that the paper artifact
(``repro figures``) does not regenerate — the Figure 4 illustration,
the Figure 11 sweeps, the ablations, cluster scaling, granularity,
replication and the device-level table — prints its rows and asserts
the shape the paper (or DESIGN.md) argues for.

Simulation results are memoised in session-scoped runners, so a
(benchmark, technique) cell is simulated once however many benches
read it.

The default scale (0.5) keeps the whole suite to well under a minute
while preserving every qualitative result; pass ``--figure-scale=1.0``
for full-fidelity runs.
"""

import pytest

from repro.harness.experiment import ExperimentRunner, ExperimentSettings


def pytest_addoption(parser):
    parser.addoption("--figure-scale", action="store", type=float,
                     default=0.5,
                     help="workload scale for the experiment benches")


@pytest.fixture(scope="session")
def figure_scale(request) -> float:
    return request.config.getoption("--figure-scale")


@pytest.fixture(scope="session")
def runner(figure_scale) -> ExperimentRunner:
    """Session-wide memoising runner over the full 18-benchmark suite."""
    return ExperimentRunner(ExperimentSettings(scale=figure_scale))


@pytest.fixture(scope="session")
def sweep_runner(figure_scale) -> ExperimentRunner:
    """Smaller-suite runner for the sweeps and ablations.

    The sweeps multiply the grid by several parameter values, so they
    run on a representative 6-benchmark subset covering compute-bound
    (sgemm, cutcp), balanced (hotspot, srad) and memory-bound (bfs, mri)
    behaviour.
    """
    benchmarks = ("hotspot", "sgemm", "cutcp", "srad", "bfs", "mri")
    return ExperimentRunner(ExperimentSettings(
        scale=min(figure_scale, 0.5), benchmarks=benchmarks))


def print_figure(title: str, text: str) -> None:
    """Uniform banner so bench output is easy to scan with -s."""
    print()
    print("#" * 72)
    print(f"# {title}")
    print("#" * 72)
    print(text)
