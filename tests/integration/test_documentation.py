"""Documentation quality gates.

Every public module, class and function in the library must carry a
docstring (deliverable (e): doc comments on every public item), and the
repository-level documents must exist and reference each other
consistently.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
REPO = SRC.parents[1]

MODULES = sorted(SRC.rglob("*.py"))

#: Interface methods documented once on their base class / protocol
#: (WarpScheduler, GatingPolicy, CycleHook); implementations inherit the
#: contract and need not repeat it.
OVERRIDE_EXEMPT = {"order", "on_issue", "reset", "want_gate", "may_wake",
                   "on_cycle", "idle_cycles_until_gate", "idle_next_event",
                   "skip_idle_cycles"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_has_docstring(path):
    tree = ast.parse(path.read_text())
    assert ast.get_docstring(tree), f"{path} lacks a module docstring"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_public_items_have_docstrings(path):
    tree = ast.parse(path.read_text())
    missing = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if node.name.startswith("_"):
                continue
            if not ast.get_docstring(node):
                missing.append(node.name)
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)) \
                            and not member.name.startswith("_") \
                            and member.name not in OVERRIDE_EXEMPT \
                            and not ast.get_docstring(member):
                        missing.append(f"{node.name}.{member.name}")
    assert not missing, (f"{path.relative_to(SRC)}: public items without "
                         f"docstrings: {missing}")


class TestRepositoryDocuments:
    def test_required_documents_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            assert (REPO / name).exists(), f"missing {name}"
        for name in ("architecture.md", "power_model.md",
                     "scheduling.md", "workloads.md", "testing.md"):
            assert (REPO / "docs" / name).exists(), f"missing docs/{name}"

    def test_design_indexes_every_figure(self):
        text = (REPO / "DESIGN.md").read_text()
        for figure in ("Fig. 1b", "Fig. 3a", "Fig. 4", "Fig. 5a",
                       "Fig. 5b", "Fig. 6", "Fig. 8a", "Fig. 8b",
                       "Fig. 8c", "Fig. 9a", "Fig. 10", "Fig. 11a",
                       "Fig. 11b", "§7.5", "§7.3"):
            assert figure in text, f"DESIGN.md lost the {figure} index row"

    def test_experiments_covers_every_figure(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for section in ("Figure 1b", "Figure 3", "Figure 4", "Figure 5",
                        "Figure 6", "Figure 8", "Figure 10", "Figure 11",
                        "Section 7.3", "Section 7.5",
                        "Known deviations"):
            assert section in text, f"EXPERIMENTS.md lost {section}"

    def test_readme_points_at_the_benches(self):
        # The paper artifact's checks and the repository benchmark are
        # the two benchmark entry points.
        text = (REPO / "README.md").read_text()
        assert "repro figures --out results/ --check" in text
        assert "perfbench/run.py" in text
        bench_lines = [line for line in text.splitlines()
                       if "pytest benchmarks/" in line]
        assert bench_lines
        assert not any("--benchmark" in line for line in bench_lines)
        assert "python -m repro" in text

    def test_every_bench_file_indexed(self):
        design = (REPO / "DESIGN.md").read_text()
        for bench in sorted((REPO / "benchmarks").glob("bench_*.py")):
            assert bench.name in design, \
                f"{bench.name} missing from DESIGN.md's experiment index"
