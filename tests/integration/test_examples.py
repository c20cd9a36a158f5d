"""Smoke tests: every example script runs end to end.

Examples are part of the public deliverable; these tests execute them
as subprocesses (tiny scale where supported) and check their headline
output appears.
"""

import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, *args: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_examples_directory_contents():
    names = {p.name for p in EXAMPLES.glob("*.py")}
    assert names >= {"quickstart.py", "figure4_walkthrough.py",
                     "characterize_workloads.py", "sensitivity_sweep.py",
                     "adaptive_dynamics.py", "multi_sm_device.py",
                     "custom_workload.py", "power_timeline.py",
                     "stall_analysis.py"}


def test_quickstart():
    out = run_example("quickstart.py", "hotspot", "--scale", "0.25")
    assert "Warped Gates quickstart" in out
    assert "warped_gates" in out


def test_figure4_walkthrough():
    out = run_example("figure4_walkthrough.py")
    assert "Two-level scheduler" in out
    assert "GATES" in out
    assert "#" in out and "." in out


def test_characterize_workloads():
    out = run_example("characterize_workloads.py", "--scale", "0.15")
    assert "Figure 5a" in out
    assert "Figure 5b" in out
    assert "lavaMD" in out


def test_sensitivity_sweep():
    out = run_example("sensitivity_sweep.py", "--scale", "0.15",
                      "--benchmarks", "hotspot", "sgemm")
    assert "Figure 11a" in out
    assert "Figure 11b" in out


def test_adaptive_dynamics():
    out = run_example("adaptive_dynamics.py", "cutcp", "--scale", "0.5")
    assert "final idle-detect per domain" in out


def test_multi_sm_device():
    out = run_example("multi_sm_device.py", "srad", "--sms", "3",
                      "--scale", "0.2")
    assert "Device summary" in out
    assert "Per-SM breakdown" in out


def test_custom_workload():
    out = run_example("custom_workload.py")
    assert "Custom FP-light workload" in out
    assert "handwritten kernel" in out


def test_power_timeline():
    out = run_example("power_timeline.py", "mri", "--scale", "0.25",
                      "--epoch", "200")
    assert "gated fraction per epoch" in out
    assert "FP0 epoch detail" in out


def test_stall_analysis():
    out = run_example("stall_analysis.py", "cutcp", "--scale", "0.2")
    assert "Stall events per kilocycle" in out
    assert "unit_gated" in out

