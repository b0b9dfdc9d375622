"""Tests for workload definitions and presets."""

import pytest

from repro.apps.workloads import (
    AspWorkload,
    BarnesWorkload,
    JacobiWorkload,
    PiWorkload,
    TspWorkload,
    WorkloadPreset,
)


def test_paper_preset_matches_section_41():
    paper = WorkloadPreset.paper()
    assert paper.pi.intervals == 50_000_000
    assert paper.jacobi.size == 1024 and paper.jacobi.steps == 100
    assert paper.barnes.bodies == 16384 and paper.barnes.steps == 6
    assert paper.tsp.cities == 17
    assert paper.asp.vertices == 2000


def test_bench_preset_is_smaller_but_scaled():
    bench = WorkloadPreset.bench()
    assert bench.jacobi.size < 1024
    assert bench.jacobi.work_multiplier > 1
    assert bench.pi.work_multiplier > 1


def test_preset_lookup_and_workload_for():
    preset = WorkloadPreset.by_name("testing")
    assert preset.name == "testing"
    assert isinstance(preset.workload_for("jacobi"), JacobiWorkload)
    assert isinstance(preset.workload_for("ASP"), AspWorkload)
    with pytest.raises(KeyError):
        preset.workload_for("linpack")
    with pytest.raises(KeyError):
        WorkloadPreset.by_name("huge")


def test_preset_lookups_share_one_instance():
    from repro.harness.spec import resolve_workload

    for name in ("paper", "bench", "testing"):
        assert WorkloadPreset.by_name(name) is WorkloadPreset.by_name(name.upper())
        assert WorkloadPreset.by_name(name) == getattr(WorkloadPreset, name)()
    # the None -> bench path hands out the shared preset's workload too
    assert resolve_workload("pi", None) is resolve_workload("pi", "bench")
    assert resolve_workload("pi", None) is WorkloadPreset.by_name("bench").pi


def test_workload_validation():
    with pytest.raises(ValueError):
        PiWorkload(intervals=0)
    with pytest.raises(ValueError):
        JacobiWorkload(size=-1)
    with pytest.raises(ValueError):
        BarnesWorkload(bodies=0)
    with pytest.raises(ValueError):
        TspWorkload(cities=5, queue_depth=5)
    with pytest.raises(ValueError):
        AspWorkload(vertices=10, density=0.0)
    with pytest.raises(ValueError):
        JacobiWorkload(work_multiplier=0)
