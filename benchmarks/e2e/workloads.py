"""The end-to-end benchmark's workloads: inputs generated from one seed.

Everything here is a pure function of ``seed``: the same seed yields the
same specs and the same request sequence, so two runs (or two commits)
measure identical inputs.  Seed 0 reproduces the repository's own presets;
every other seed shifts RNG seeds the presets carry (the ASP graph seed and
the ``syn-*`` pattern seeds), the order of the ``serve`` requests and which
of them repeat, never the sizes.

The four workloads and why each exists are described in README.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import pickle
import random

#: the batch workloads (one fresh child process per pass)
BATCH_WORKLOADS = ("figures", "scenarios", "scale")
#: every workload, in report order
WORKLOADS = BATCH_WORKLOADS + ("serve",)

# The inputs are spelled out here rather than read from the program's
# registries, so a change that registers a new app, pattern or protocol does
# not silently change what the benchmark measures.
#: the paper's five applications (Figures 1-5)
PAPER_APPS = ("pi", "jacobi", "barnes", "tsp", "asp")
#: the seven generated sharing patterns
SCENARIOS = (
    "syn-false-sharing",
    "syn-hot-lock",
    "syn-migratory",
    "syn-producer-consumer",
    "syn-read-mostly",
    "syn-streaming",
    "syn-uniform",
)
#: the paper's two protocols plus the composed hybrid and migratory ones
PROTOCOL_FAMILY = ("java_ic", "java_pf", "java_hybrid", "java_ic_mig")

#: clusters and node counts of the ``scenarios`` grid: one crossbar, one
#: two-island and one eight-island shape, so multi-island pricing is exercised
SCENARIO_SHAPES = (("myrinet", 8), ("myrinet2x8", 16), ("myrinet_grid", 64))
#: the one shape of the ``scale`` workload (128 islands of 8 nodes)
SCALE_SHAPE = ("myrinet_grid", 1024)
SCALE_PROTOCOLS = ("java_ic", "java_pf")

#: node counts a ``serve`` request may name, per cluster preset (the paper's)
SERVE_NODES = {"myrinet": tuple(range(1, 13)), "sci": tuple(range(1, 7))}
#: size bands of each cluster's node pairs (small, middle, large)
NODE_BANDS = 3
#: the protocol pairs a ``serve`` request names: the paper's two protocols,
#: then the two composed ones
SERVE_PROTOCOL_PAIRS = (("java_ic", "java_pf"), ("java_hybrid", "java_ic_mig"))
#: ``serve`` requests come in rounds of one cold request per app plus as
#: many warm ones
APPS_PER_ROUND = len(PAPER_APPS + SCENARIOS)
REQUESTS_PER_ROUND = 2 * APPS_PER_ROUND


def _scenario_workload(name: str, scale: str, seed: int):
    from repro.scenarios.registry import scenario_workload

    base = scenario_workload(name, scale)
    return dataclasses.replace(base, seed=base.seed + seed)


# ---------------------------------------------------------------------------
# batch workloads
# ---------------------------------------------------------------------------
def figures_preset(seed: int):
    """The ``bench`` preset with the ASP graph's RNG seed shifted by *seed*.

    Only ASP's input varies: Floyd's algorithm does the same work on every
    graph of a given size.  The TSP and Barnes-Hut seeds stay fixed because
    their host cost follows the instance (branch-and-bound pruning, tree
    shape): over seeds 0-5 the TSP series took 0.99-1.71 s and the Barnes
    series 1.25-1.77 s, a spread no regression bound could sit above.
    """
    from repro.apps.workloads import WorkloadPreset

    bench = WorkloadPreset.bench()
    return dataclasses.replace(
        bench, asp=dataclasses.replace(bench.asp, seed=bench.asp.seed + seed)
    )


def scenario_specs(seed: int) -> list:
    """The 84 cells of the ``scenarios`` workload."""
    from repro.harness.spec import ExperimentSpec

    specs = []
    for name in SCENARIOS:
        workload = _scenario_workload(name, "bench", seed)
        for cluster, nodes in SCENARIO_SHAPES:
            for protocol in PROTOCOL_FAMILY:
                specs.append(
                    ExperimentSpec(
                        app=name,
                        cluster=cluster,
                        protocol=protocol,
                        num_nodes=nodes,
                        workload=workload,
                    )
                )
    return specs


def scale_specs(seed: int) -> list:
    """The 14 thousand-node cells of the ``scale`` workload."""
    from repro.harness.spec import ExperimentSpec

    cluster, nodes = SCALE_SHAPE
    return [
        ExperimentSpec(
            app=name,
            cluster=cluster,
            protocol=protocol,
            num_nodes=nodes,
            workload=_scenario_workload(name, "testing", seed),
        )
        for name in SCENARIOS
        for protocol in SCALE_PROTOCOLS
    ]


def batch_inputs(workload: str, seed: int):
    """The generated input of one batch workload (a preset or a spec list)."""
    if workload == "figures":
        return figures_preset(seed)
    if workload == "scenarios":
        return scenario_specs(seed)
    if workload == "scale":
        return scale_specs(seed)
    raise ValueError(f"not a batch workload: {workload!r}")


def run_batch(workload: str, inputs, session) -> tuple[dict, list]:
    """One pass of a batch workload through *session*.

    Returns the user-visible output (what the digest covers) and the
    :class:`~repro.harness.session.CellResult` of every cell.
    """
    if workload == "figures":
        from repro.harness.figures import generate_all_figures

        figures = generate_all_figures(workload=inputs, session=session)
        cells = [cell for number in sorted(figures) for cell in figures[number].cells]
        output = {
            "figures": {str(n): figures[n].to_dict() for n in sorted(figures)},
            "cells": {cell.label(): cell.report.to_dict() for cell in cells},
        }
        return output, cells
    result = session.run(inputs)
    return {"cells": result.to_dict()}, result.cells()


# ---------------------------------------------------------------------------
# the serve workload
# ---------------------------------------------------------------------------
def serve_cold_requests(seed: int) -> list[dict]:
    """Every request whose cells no earlier request touched, in load order.

    Each request is 1 app x 1 cluster preset x 2 adjacent node counts x one
    of :data:`SERVE_PROTOCOL_PAIRS` at ``bench`` scale.  The requests
    partition the cell universe (:func:`serve_universe`), so no two share a
    cell.

    Cold latency spans two orders of magnitude across apps and grows with
    the node count, so which requests a run reaches must not depend on the
    seed; the seed only orders them.  Requests come in rounds of one per
    app (:data:`APPS_PER_ROUND`), and an app's requests come in fixed
    cycles of :data:`NODE_BANDS`: each cluster's node pairs fall into as
    many bands, from its smallest to its largest pairs, and a cycle takes
    one pair from each band.  An app visits every node pair with the first
    protocol pair before any with the second.
    """
    rng = random.Random(f"serve-{seed}")
    bands: list[list] = [[] for _ in range(NODE_BANDS)]
    for cluster, counts in SERVE_NODES.items():
        starts = range(0, len(counts), 2)
        for k, i in enumerate(starts):
            bands[k * NODE_BANDS // len(starts)].append((cluster, counts[i : i + 2]))
    # cycle c takes the ((b + c) mod NODE_BANDS)-th pair of band b, so each
    # cycle mixes both clusters and small, middle and large node counts
    cycles = [
        [band[(b + c) % len(band)] for b, band in enumerate(bands)]
        for c in range(len(bands[0]))
    ]
    queues = []
    for app in PAPER_APPS + SCENARIOS:
        queue = []
        for protocols in SERVE_PROTOCOL_PAIRS:
            for cycle in cycles:
                cycle = list(cycle)
                rng.shuffle(cycle)
                queue += [
                    {
                        "apps": [app],
                        "clusters": [cluster],
                        "nodes": list(nodes),
                        "protocols": list(protocols),
                        "workload": "bench",
                    }
                    for cluster, nodes in cycle
                ]
        queues.append(queue)
    ordered = []
    while queues[0]:
        rng.shuffle(queues)
        ordered += [queue.pop(0) for queue in queues]
    return ordered


def serve_requests(seed: int) -> list[tuple[str, dict]]:
    """The full ``serve`` load: ``("cold"|"warm", request)`` pairs.

    The load comes in rounds of :data:`REQUESTS_PER_ROUND`: one cold request
    per app and as many warm ones, shuffled together, so each request is
    warm with probability one half and every whole round holds exactly
    half of each.  A warm request repeats a uniformly chosen cold request
    of its round that was sent before it and not yet repeated, so every one
    of its cells is a result-store read, and each round's warm requests are
    its cold ones again: which requests a run makes does not depend on the
    seed, only their order does.
    """
    rng = random.Random(f"serve-mix-{seed}")
    cold = serve_cold_requests(seed)
    sequence: list[tuple[str, dict]] = []
    for start in range(0, len(cold), APPS_PER_ROUND):
        pending = cold[start : start + APPS_PER_ROUND]
        kinds = ["cold"] * len(pending) + ["warm"] * len(pending)
        # shuffle until no prefix has more repeats than originals
        while True:
            rng.shuffle(kinds)
            prefix = itertools.accumulate(1 if kind == "cold" else -1 for kind in kinds)
            if min(prefix) >= 0:
                break
        unrepeated: list[dict] = []
        for kind in kinds:
            if kind == "cold":
                unrepeated.append(pending.pop(0))
                sequence.append(("cold", unrepeated[-1]))
            else:
                sequence.append(("warm", unrepeated.pop(rng.randrange(len(unrepeated)))))
    return sequence


def serve_universe() -> list:
    """Every cell a ``serve`` request can name (the digest table's keys)."""
    from repro.harness.spec import ExperimentSpec

    return [
        ExperimentSpec(app=app, cluster=cluster, protocol=protocol, num_nodes=n, workload="bench")
        for app in PAPER_APPS + SCENARIOS
        for cluster, counts in SERVE_NODES.items()
        for n in counts
        for protocol in PROTOCOL_FAMILY
    ]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------
def digest(payload) -> str:
    """SHA-256 of the canonical JSON form of *payload*."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_digest(report_dict: dict) -> str:
    """Short digest of one report's ``to_dict()`` (the serve pin table)."""
    return digest(report_dict)[:16]


def verify_cells(cells) -> int:
    """Run each application's own correctness check; returns the failures.

    Cells of one app and workload usually compute the same result, so each
    distinct result is checked once.
    """
    from repro.apps.base import create_app

    checked: dict[tuple, bool] = {}
    failures = 0
    for cell in cells:
        spec = cell.spec
        workload = spec.resolved_workload()
        key = (spec.app, repr(workload), hashlib.sha256(pickle.dumps(cell.report.result)).digest())
        ok = checked.get(key)
        if ok is None:
            ok = checked[key] = bool(create_app(spec.app).verify(cell.report.result, workload))
        failures += not ok
    return failures


def check_grid(request: dict, grid: dict, pins: dict[str, str]) -> bool:
    """True when a served grid holds exactly the request's cells, each one
    byte-identical to its pinned digest."""
    expected = {
        f"{request['apps'][0]}/{request['clusters'][0]}/{protocol}/n{n}"
        for protocol in request["protocols"]
        for n in request["nodes"]
    }
    if set(grid) != expected:
        return False
    return all(pins.get(label) == cell_digest(report) for label, report in grid.items())
