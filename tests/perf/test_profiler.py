"""Tests for the host-side performance instrumentation (repro.perf)."""

from __future__ import annotations

import json

import pytest

from repro.apps.workloads import WorkloadPreset
from repro.harness.spec import ExperimentSpec
from repro.perf import CellProfile, Profiler, perf_report, perf_report_dict, profile_specs


def _spec(app: str = "pi", protocol: str = "java_pf") -> ExperimentSpec:
    return ExperimentSpec(
        app=app,
        cluster="myrinet",
        protocol=protocol,
        num_nodes=2,
        workload=WorkloadPreset.testing(),
    )


def test_profiler_captures_wall_and_events():
    profile = Profiler(with_cprofile=False).profile_spec(_spec())
    assert profile.label == "pi/myrinet/java_pf/n2"
    assert profile.wall_seconds > 0
    assert profile.events > 0
    assert profile.events == profile.report.events_processed
    assert profile.events_per_second > 0
    assert profile.execution_seconds == profile.report.execution_seconds
    assert profile.profile_text == ""
    assert profile.hot_functions == []


def test_profiler_cprofile_capture():
    profile = Profiler(with_cprofile=True, limit=5).profile_spec(_spec())
    assert "cumulative" in profile.profile_text
    assert 0 < len(profile.hot_functions) <= 5
    name, seconds = profile.hot_functions[0]
    assert isinstance(name, str) and seconds >= 0


def test_profiler_rejects_bad_options():
    with pytest.raises(ValueError):
        Profiler(sort="nonsense")
    with pytest.raises(ValueError):
        Profiler(limit=0)


def test_profiling_does_not_change_results():
    """Profiling is observation only: the report matches an unprofiled run."""
    plain = _spec().run()
    profiled = Profiler(with_cprofile=True).profile_spec(_spec()).report
    assert json.dumps(plain.to_dict(), sort_keys=True) == json.dumps(
        profiled.to_dict(), sort_keys=True
    )


def test_every_timed_run_starts_with_an_empty_search_memo(monkeypatch):
    """Repeats of a TSP or Barnes-Hut cell time the kernels, not memo hits."""
    import repro.perf.profiler as profiler_module
    from repro.apps.barnes import step_memo, tree_memo
    from repro.apps.tsp import branch_and_bound

    memos = (branch_and_bound, tree_memo, step_memo)
    memo_sizes = []

    def run_spec(spec):
        memo_sizes.append(tuple(memo.cache_info().currsize for memo in memos))
        return spec.run()

    monkeypatch.setattr(profiler_module, "run_spec", run_spec)
    for app, app_memos in (("tsp", memos[:1]), ("barnes", memos[1:])):
        memo_sizes.clear()
        Profiler(with_cprofile=False, repeats=3, warmup=1).profile_spec(_spec(app))
        assert len(memo_sizes) == 4
        assert memo_sizes[1:] == [(0, 0, 0)] * 3
        assert all(memo.cache_info().currsize > 0 for memo in app_memos)


def test_profile_specs_and_report_aggregation():
    specs = [_spec("pi"), _spec("jacobi")]
    profiles = profile_specs(specs)
    assert [p.label for p in profiles] == [s.label() for s in specs]

    aggregate = perf_report_dict(profiles)
    assert len(aggregate["cells"]) == 2
    assert aggregate["total_events"] == sum(p.events for p in profiles)
    assert aggregate["events_per_second"] > 0
    # JSON-serialisable (the benchmark-smoke job uploads exactly this)
    json.dumps(aggregate)

    text = perf_report(profiles)
    for profile in profiles:
        assert profile.label in text
    assert "total" in text


def test_perf_report_empty_and_top():
    assert perf_report([]) == "(no cells profiled)"
    profiles = Profiler(with_cprofile=True, limit=3).profile_many([_spec()])
    text = perf_report(profiles, top=3)
    assert "hottest functions" in text


def test_zero_wall_seconds_guard():
    profile = CellProfile(
        label="x", wall_seconds=0.0, events=10, execution_seconds=0.0, report=None
    )
    assert profile.events_per_second == 0.0
    assert perf_report_dict([profile])["events_per_second"] == 0.0
