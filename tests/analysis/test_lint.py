"""The repo-specific lint: each HYP rule fires on a fixture and not on the
fixed form — and the repository itself lints clean."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.lint import LintFinding, lint_paths, lint_source
from repro.harness.cli import main

REPO_SRC = Path(__file__).parents[2] / "src"


def _codes(source: str, path: str = "repro/example.py") -> list[str]:
    return [finding.code for finding in lint_source(source, path)]


# ---------------------------------------------------------------------------
# HYP001: unseeded randomness
# ---------------------------------------------------------------------------
def test_hyp001_flags_global_rng_calls():
    assert _codes("import random\nx = random.random()\n") == ["HYP001"]
    assert _codes("import numpy\nx = numpy.random.rand(3)\n") == ["HYP001"]


def test_hyp001_flags_unseeded_constructors():
    assert _codes("import random\nrng = random.Random()\n") == ["HYP001"]


def test_hyp001_accepts_seeded_constructors():
    assert _codes("import random\nrng = random.Random(42)\n") == []
    assert (
        _codes("import numpy as np\nrng = np.random.default_rng(seed)\n") == []
    )


def test_hyp001_sees_through_import_aliases():
    assert _codes("from numpy import random as nr\nx = nr.rand()\n") == ["HYP001"]


# ---------------------------------------------------------------------------
# HYP002: wall-clock reads
# ---------------------------------------------------------------------------
def test_hyp002_flags_wall_clock_in_simulation_code():
    source = "import time\nt = time.perf_counter()\n"
    assert _codes(source, "repro/simulation/engine.py") == ["HYP002"]


def test_hyp002_exempts_the_perf_package():
    source = "import time\nt = time.perf_counter()\n"
    assert _codes(source, "repro/perf/profiler.py") == []


def test_hyp002_ignores_virtual_time_lookalikes():
    assert _codes("t = engine.now()\n") == []


# ---------------------------------------------------------------------------
# HYP003: hot-path classes without __slots__
# ---------------------------------------------------------------------------
def test_hyp003_flags_slotless_class_in_hot_module():
    source = "class PageThing:\n    def __init__(self):\n        self.x = 1\n"
    assert _codes(source, "repro/dsm/page.py") == ["HYP003"]


def test_hyp003_accepts_slots_and_slotted_dataclasses():
    slotted = "class PageThing:\n    __slots__ = ('x',)\n"
    assert _codes(slotted, "repro/dsm/page.py") == []
    via_dataclass = (
        "from dataclasses import dataclass\n"
        "@dataclass(slots=True)\n"
        "class PageThing:\n    x: int = 0\n"
    )
    assert _codes(via_dataclass, "repro/dsm/page.py") == []


def test_hyp003_only_applies_to_hot_modules():
    source = "class Anything:\n    pass\n"
    assert _codes(source, "repro/harness/report.py") == []


def test_hyp003_exempts_named_singletons():
    source = "class PageManager:\n    def __init__(self):\n        self.x = 1\n"
    assert _codes(source, "repro/dsm/page_manager.py") == []


# ---------------------------------------------------------------------------
# HYP005: unsorted iteration in serialisation functions
# ---------------------------------------------------------------------------
def test_hyp005_flags_unsorted_items_in_to_dict():
    source = (
        "def to_dict(self):\n"
        "    return {k: v for k, v in self.data.items()}\n"
    )
    assert _codes(source) == ["HYP005"]


def test_hyp005_flags_for_loops_too():
    source = (
        "def as_dict(self):\n"
        "    out = {}\n"
        "    for k in self.data.keys():\n"
        "        out[k] = 1\n"
        "    return out\n"
    )
    assert _codes(source) == ["HYP005"]


def test_hyp005_accepts_sorted_iteration():
    source = (
        "def to_dict(self):\n"
        "    return {k: v for k, v in sorted(self.data.items())}\n"
    )
    assert _codes(source) == []


def test_hyp005_only_applies_to_serialisation_functions():
    source = (
        "def process(self):\n"
        "    return {k: v for k, v in self.data.items()}\n"
    )
    assert _codes(source) == []


# ---------------------------------------------------------------------------
# HYP006: direct print() in library code
# ---------------------------------------------------------------------------
def test_hyp006_flags_print_in_library_code():
    source = 'print("progress: 50%")\n'
    assert _codes(source, "repro/harness/jobs.py") == ["HYP006"]
    assert _codes(source, "repro/simulation/engine.py") == ["HYP006"]


def test_hyp006_exempts_the_designated_stdout_surfaces():
    source = 'print("table")\n'
    assert _codes(source, "repro/harness/cli.py") == []
    assert _codes(source, "repro/harness/report.py") == []


def test_hyp006_only_applies_to_repro_paths():
    assert _codes('print("hi")\n', "scripts/tool.py") == []


def test_hyp006_ignores_method_named_print():
    source = "def run(self):\n    self.printer.print()\n"
    assert _codes(source, "repro/harness/jobs.py") == []


# ---------------------------------------------------------------------------
# HYP007: per-element access loops in scenario code
# ---------------------------------------------------------------------------
def test_hyp007_flags_per_element_access_loops_in_scenarios():
    source = (
        "def stream(ctx, obj, slots):\n"
        "    for slot in slots:\n"
        "        ctx.get(obj, slot)\n"
    )
    assert _codes(source, "repro/scenarios/custom.py") == ["HYP007"]
    put_loop = (
        "def fill(ctx, obj, n):\n"
        "    while n:\n"
        "        ctx.put(obj, n, 0)\n"
        "        n -= 1\n"
    )
    assert _codes(put_loop, "repro/scenarios/custom.py") == ["HYP007"]


def test_hyp007_flags_only_the_innermost_loop():
    source = (
        "def sweep(ctx, objs):\n"
        "    for obj in objs:\n"
        "        for slot in range(8):\n"
        "            ctx.get(obj, slot)\n"
    )
    assert _codes(source, "repro/scenarios/custom.py") == ["HYP007"]


def test_hyp007_only_applies_to_scenario_modules():
    source = (
        "def stream(ctx, obj, slots):\n"
        "    for slot in slots:\n"
        "        ctx.get(obj, slot)\n"
    )
    assert _codes(source, "repro/apps/benchmarks.py") == []
    assert _codes(source, "repro/core/memory.py") == []


def test_hyp007_exempts_the_per_op_spec():
    source = (
        "def _replay_ops(ctx, steps):\n"
        "    for op in steps:\n"
        "        ctx.get(op[0], op[1])\n"
    )
    assert _codes(source, "repro/scenarios/script.py") == []
    assert _codes(source.replace("_replay_ops", "replay_thread"), "repro/scenarios/script.py") == [
        "HYP007"
    ]


def test_hyp007_ignores_segment_replay_and_non_ctx_receivers():
    source = (
        "def stream(ctx, builder, obj, segments):\n"
        "    for steps in segments:\n"
        "        ctx.replay_segment([obj], steps)\n"
        "        builder.get(0, obj, 0)\n"
    )
    assert _codes(source, "repro/scenarios/custom.py") == []


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------
def test_repository_source_lints_clean():
    assert lint_paths([str(REPO_SRC)]) == []


def test_lint_paths_rejects_non_python_targets(tmp_path):
    target = tmp_path / "notes.txt"
    target.write_text("hello")
    with pytest.raises(FileNotFoundError):
        lint_paths([str(target)])


def test_findings_sort_and_format(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nx = random.random()\ny = random.random()\n")
    findings = lint_paths([str(bad)])
    assert [f.line for f in findings] == [2, 3]
    assert all(isinstance(f, LintFinding) for f in findings)
    assert findings[0].format().startswith(str(bad).replace("\\", "/"))
    assert findings[0].to_dict()["code"] == "HYP001"


def test_cli_lint_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main(["lint", str(clean)]) == 0
    assert "clean" in capsys.readouterr().out

    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nt = time.time()\n")
    assert main(["lint", str(dirty)]) == 1
    assert "HYP002" in capsys.readouterr().out


def test_cli_lint_json(tmp_path, capsys):
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import random\nx = random.random()\n")
    assert main(["lint", str(dirty), "--json"]) == 1
    out = capsys.readouterr().out
    assert '"HYP001"' in out
