"""Workload generators, output checks and the metric contract of the
end-to-end benchmark."""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import pytest

import hostspeed
import run
import tracer
import workloads

from repro.apps.workloads import WorkloadPreset
from repro.harness.session import Session
from repro.harness.spec import ExperimentSpec
from repro.scenarios.registry import scenario_workload

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.mark.parametrize("workload", workloads.BATCH_WORKLOADS)
def test_batch_inputs_are_pure_functions_of_the_seed(workload):
    assert workloads.batch_inputs(workload, 3) == workloads.batch_inputs(workload, 3)
    assert workloads.batch_inputs(workload, 0) != workloads.batch_inputs(workload, 1)


def test_serve_requests_are_pure_functions_of_the_seed():
    assert workloads.serve_requests(3) == workloads.serve_requests(3)
    assert workloads.serve_requests(0) != workloads.serve_requests(1)


def test_seed_zero_reproduces_the_repository_presets():
    assert workloads.figures_preset(0) == WorkloadPreset.bench()
    for spec in workloads.scenario_specs(0):
        assert spec.workload == scenario_workload(spec.app, "bench")
    for spec in workloads.scale_specs(0):
        assert spec.workload == scenario_workload(spec.app, "testing")


def test_cold_serve_requests_partition_the_cell_universe():
    labels = [
        f"{r['apps'][0]}/{r['clusters'][0]}/{p}/n{n}"
        for r in workloads.serve_cold_requests(0)
        for p in r["protocols"]
        for n in r["nodes"]
    ]
    universe = {spec.label() for spec in workloads.serve_universe()}
    assert len(labels) == len(set(labels)) == len(universe)
    assert set(labels) == universe
    assert set(universe) == set(json.loads((Path(run.HERE) / "digests.json").read_text())["serve"])


def test_serve_cycles_cover_every_band_and_do_not_depend_on_the_seed():
    def band(request):
        counts = workloads.SERVE_NODES[request["clusters"][0]]
        pairs = len(counts) // 2
        return counts.index(request["nodes"][0]) // 2 * workloads.NODE_BANDS // pairs

    def key(request):
        return json.dumps(request, sort_keys=True)

    by_app: dict[str, list] = {}
    for request in workloads.serve_cold_requests(1):
        by_app.setdefault(request["apps"][0], []).append(request)
    assert len(by_app) == workloads.APPS_PER_ROUND
    for requests in by_app.values():
        for start in range(0, len(requests), workloads.NODE_BANDS):
            cycle = requests[start : start + workloads.NODE_BANDS]
            assert sorted(band(r) for r in cycle) == list(range(workloads.NODE_BANDS))

    # whole cycles of rounds reach the same requests, in another order
    reach = workloads.NODE_BANDS * workloads.APPS_PER_ROUND
    first = [workloads.serve_cold_requests(seed)[:reach] for seed in (0, 1)]
    assert first[0] != first[1]
    assert sorted(map(key, first[0])) == sorted(map(key, first[1]))


def test_warm_serve_requests_repeat_an_earlier_request():
    sent = []
    for kind, request in workloads.serve_requests(0):
        assert (kind == "warm") == (request in sent)
        if kind == "cold":
            sent.append(request)


def test_each_round_repeats_its_own_cold_requests_once():
    def key(request):
        return json.dumps(request, sort_keys=True)

    size = workloads.REQUESTS_PER_ROUND
    for seed in (0, 1):
        requests = workloads.serve_requests(seed)
        for start in range(0, len(requests), size):
            round_ = requests[start : start + size]
            cold = sorted(key(r) for kind, r in round_ if kind == "cold")
            warm = sorted(key(r) for kind, r in round_ if kind == "warm")
            assert cold == warm and len(cold) == workloads.APPS_PER_ROUND


def test_a_tampered_report_counts_as_a_failure():
    request = {
        "apps": ["pi"], "clusters": ["myrinet"], "nodes": [1, 2],
        "protocols": ["java_ic", "java_pf"], "workload": "bench",
    }
    specs = [
        ExperimentSpec(app="pi", cluster="myrinet", protocol=p, num_nodes=n, workload="bench")
        for p in request["protocols"]
        for n in request["nodes"]
    ]
    grid = json.loads(json.dumps(Session().run(specs).to_dict()))
    pins = run.load_pins()["serve"]
    assert workloads.check_grid(request, grid, pins)
    grid["pi/myrinet/java_pf/n2"]["page_fetches"] += 1
    assert not workloads.check_grid(request, grid, pins)
    del grid["pi/myrinet/java_pf/n2"]
    assert not workloads.check_grid(request, grid, pins)

    good = {"cells": 5, "digest": "a", "warm_digest": "a", "verify_failures": 0}
    assert run._check_batch_pass(dict(good), set(), "a") == 0
    assert run._check_batch_pass(dict(good), set(), "b") == 5
    assert run._check_batch_pass(dict(good, warm_digest="b"), set(), None) == 5
    assert run._check_batch_pass(dict(good), {"z"}, None) == 5
    assert run._check_batch_pass(dict(good, verify_failures=2), set(), "a") == 2


@pytest.mark.parametrize("count", [1, 3, 4])
def test_setup_launches_are_spread_between_the_passes(count):
    events = []
    setups, results = run.interleaved(
        lambda: events.append("setup") or 0.25, lambda: events.append("pass") or {}, count
    )
    assert len(setups) == run.SETUP_LAUNCHES and len(results) == count
    runs = "".join("s" if e == "setup" else "|" for e in events).split("|")[:-1]
    assert max(map(len, runs)) - min(map(len, runs)) <= 1


def test_a_slow_host_ends_the_run_early_but_keeps_every_setup_launch():
    def work():
        time.sleep(0.01)
        return {}

    setups, results = run.interleaved(lambda: 0.25, work, 5, seconds=0.001)
    assert len(results) == run.MIN_UNITS and len(setups) == run.SETUP_LAUNCHES


def test_reference_time_scales_by_the_samples_around_a_stretch():
    ref = hostspeed.REFERENCE_KERNEL_S
    sampler = hostspeed.Sampler()
    # samples at t=0, 1, 2, 3 took 1x, 2x, 2x and 4x the reference time
    sampler.starts = [0.0, 1.0, 2.0, 3.0]
    sampler.seconds = [ref, 2 * ref, 2 * ref, 4 * ref]
    # inside: the samples at 1 and 2; around: the ones at 0 and 3
    factor = (1 + 0.5 + 0.5 + 0.25) / 4
    inside = 4 * ref
    assert sampler.reference_s(0.5, 2.5) == pytest.approx((2.0 - inside) * factor)
    assert sampler.raw_s(0.5, 2.5) == pytest.approx(2.0 - inside)
    # a stretch between two samples scales by those two
    assert sampler.reference_s(1.2, 1.4) == pytest.approx(0.2 * 0.5)
    assert sampler.slowdown() == pytest.approx(9 / 4)


def test_the_sampler_samples_while_active_and_restores_the_signal_handler():
    import signal

    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        time.sleep(3 * hostspeed.PERIOD_S)
    assert len(sampler.seconds) >= 3
    assert sampler.starts == sorted(sampler.starts)
    assert signal.getsignal(signal.SIGALRM) == previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert run.per_item_median([[1.0, 5.0], [3.0, 4.0], [2.0, 9.0]]) == [2.0, 5.0]
    assert run.per_item_median([[1.0, 50.0], [3.0, 4.0]]) == [1.0, 4.0]


def test_harrell_davis_percentile():
    # I_x(a, b) for integer a, b is a binomial tail: I_0.5(2, 3) = 11/16
    assert run.beta_cdf(0.5, 2, 3) == pytest.approx(11 / 16, abs=1e-12)
    assert run.beta_cdf(0.3, 1, 1) == pytest.approx(0.3, abs=1e-12)
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.hd_percentile(values, 0.5) == pytest.approx(3.0)
    assert run.hd_percentile([7.0] * 9, 0.9) == pytest.approx(7.0)
    low, high = run.hd_percentile(values, 0.1), run.hd_percentile(values, 0.9)
    assert 1.0 < low < run.hd_percentile(values, 0.5) < high < 5.0
    # a gap in clustered values moves the estimate smoothly, not by a jump
    cluster = [10.0] * 20 + [20.0] * 20
    shifted = [10.0] * 19 + [20.0] * 21
    assert 0 < run.hd_percentile(shifted, 0.5) - run.hd_percentile(cluster, 0.5) < 2.0


def test_metric_names_follow_the_rules_and_match_benchmark_json():
    spec = json.loads(BENCHMARK.read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert declared == list(run.END_TO_END)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == list(tracer.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [name for name, _, _ in run.END_TO_END + tracer.PER_LAYER]
    assert len(names) == len(set(names))
    for name, unit, _ in run.END_TO_END + tracer.PER_LAYER:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit


@pytest.mark.parametrize(
    "base, head, better, expected",
    [
        ([10.0, 10.1, 9.9, 10.0] * 3, [12.0, 12.1, 11.9, 12.0] * 3, "higher", "improved"),
        ([10.0, 10.1, 9.9, 10.0] * 3, [12.0, 12.1, 11.9, 12.0] * 3, "lower", "regressed"),
        ([10.0, 10.2, 9.8, 10.0] * 3, [10.1, 10.0, 9.9, 10.1] * 3, "lower", "within bound"),
        ([8.0, 12.0, 9.0, 11.0] * 3, [10.0, 10.5, 9.5, 10.0] * 3, "lower", "unresolved"),
    ],
)
def test_compare_verdicts(base, head, better, expected):
    import compare

    assert compare.verdict(base, head, better, bound=0.05)[0] == expected


def test_run_refuses_a_checkout_without_sources(tmp_path, capsys):
    assert run.main(["--workload", "figures", "--src", str(tmp_path)]) == 2
    assert capsys.readouterr().out == ""
