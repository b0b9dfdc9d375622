"""Protocol-family crossover smoke: the grown protocol grid + the A2 sweep.

Records ``benchmarks/results/protocol_grid.json`` with two sections:

* ``family`` — every registered application (the five paper benchmarks and
  all generated ``syn-*`` scenarios) run under the full protocol family
  (``java_ic`` / ``java_pf`` / ``java_hybrid`` / ``java_ic_mig``) at the
  ``testing`` scale, with the per-cell counters that separate the
  mechanisms: inline checks, page faults and (for migratory homes) page
  re-homes — the latter read from the host-side
  :attr:`~repro.hyperion.runtime.ExecutionReport.page_rehomes` attribute,
  which deliberately stays outside the byte-pinned ``to_dict`` schema;
* ``check_cost_sweep`` — the A2 ablation (how expensive must the in-line
  check be for fault-based detection to win?) over
  {``java_ic``, ``java_pf``, ``java_hybrid``}, including the observed
  crossover points.

CI runs this file as the protocol-crossover smoke step of the benchmark job
and uploads the JSON as an artifact.
"""

from __future__ import annotations

import json

import pytest

from repro.apps.base import available_apps
from repro.harness.figures import PROTOCOL_FAMILY
from repro.harness.spec import ExperimentSpec, resolve_workload
from repro.scenarios.registry import available_scenarios  # noqa: F401 - registers syn-*

#: protocols of the A2 crossover sweep (the hybrid should track the cheaper
#: of the two pure mechanisms as the check price moves)
SWEEP_PROTOCOLS = ("java_ic", "java_pf", "java_hybrid")

GRID_NODES = 4


@pytest.mark.benchmark(group="protocol-grid")
def test_protocol_family_grid(benchmark, bench_session, results_dir):
    """Record the full app x protocol-family grid plus the A2 sweep."""
    apps = available_apps()
    specs = {
        (app, protocol): ExperimentSpec(
            app=app,
            cluster="myrinet",
            protocol=protocol,
            num_nodes=GRID_NODES,
            workload="testing",
        )
        for app in apps
        for protocol in PROTOCOL_FAMILY
    }

    def run_grid():
        result = bench_session.run(specs.values())
        family = {}
        for (app, protocol), spec in specs.items():
            report = result[spec]
            stats = report.to_dict()
            family.setdefault(app, {})[protocol] = {
                "execution_seconds": report.execution_seconds,
                "inline_checks": int(stats["inline_checks"]),
                "page_faults": int(stats["page_faults"]),
                "mprotect_calls": int(stats["mprotect_calls"]),
                "page_rehomes": int(report.page_rehomes),
            }
        sweep = bench_session.ablation(
            "check_cost",
            "asp",
            num_nodes=GRID_NODES,
            workload=resolve_workload("asp", "testing"),
            protocols=SWEEP_PROTOCOLS,
        )
        return {
            "cluster": "myrinet",
            "workload": "testing",
            "num_nodes": GRID_NODES,
            "protocols": list(PROTOCOL_FAMILY),
            "family": family,
            "check_cost_sweep": {
                "app": "asp",
                "parameter": sweep.parameter,
                "values": list(sweep.values),
                "times": {
                    protocol: dict(sweep.series(protocol))
                    for protocol in SWEEP_PROTOCOLS
                },
                "ic_pf_crossover": sweep.crossover("java_pf", "java_ic"),
            },
        }

    payload = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    benchmark.extra_info["protocol_grid"] = payload
    (results_dir / "protocol_grid.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str)
    )

    family = payload["family"]
    # every cell of the widened grid actually ran
    assert set(family) == set(available_apps())
    for app, by_protocol in family.items():
        assert set(by_protocol) == set(PROTOCOL_FAMILY), app

    # the mechanisms separate: pure in-line checking never faults, pure
    # fault-based detection never checks, fixed homes never re-home
    for app, by_protocol in family.items():
        assert by_protocol["java_ic"]["page_faults"] == 0
        assert by_protocol["java_ic"]["page_rehomes"] == 0
        assert by_protocol["java_pf"]["inline_checks"] == 0
        assert by_protocol["java_hybrid"]["page_rehomes"] == 0

    # migratory homes fire on the access patterns built to trigger them
    assert family["syn-migratory"]["java_ic_mig"]["page_rehomes"] > 0
    assert family["syn-false-sharing"]["java_ic_mig"]["page_rehomes"] > 0

    # the hybrid sheds checks on the check-dominated benchmark without
    # giving up correctness of the fault accounting
    assert (
        family["asp"]["java_hybrid"]["inline_checks"]
        < family["asp"]["java_ic"]["inline_checks"]
    )
    assert (
        family["asp"]["java_hybrid"]["execution_seconds"]
        < family["asp"]["java_ic"]["execution_seconds"]
    )

    # the sweep recorded one time per (protocol, value)
    sweep_times = payload["check_cost_sweep"]["times"]
    for protocol in SWEEP_PROTOCOLS:
        assert len(sweep_times[protocol]) == len(payload["check_cost_sweep"]["values"])
