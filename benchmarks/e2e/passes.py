"""One benchmark pass in a fresh process (spawned by ``run.py``).

Every pass is its own interpreter with ``PYTHONPATH`` pointing at the
``src/`` under test, like one ``hyperion-sim`` invocation, so the script
cache and other lazy state never carry over from one pass to the next.

Modes:

``setup``
    Build the session, the result store and the workload input, print
    ``ready`` and exit (``run.py`` times spawn -> ``ready``: ``setup_s``).
``pass``
    A batch pass: run the workload cold into a fresh result store, then
    read it back warm :data:`WARM_READS` times (every cell a store read).
    Prints one JSON line: per-cell host times scaled to the reference host
    (``hostspeed.py``), output digests, peak RSS.
``traced``
    The same pass with the layer tracer installed first; also writes the
    recorded spans to ``--out``/``trace.json``.
``serve``
    Start the sweep service with the layer tracer installed, announce its
    address on stderr the way ``hyperion-sim serve`` does, serve until
    ``POST /shutdown`` and write ``trace.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import hostspeed
import workloads
from repro.harness.session import Session
from repro.harness.spec import run_spec
from repro.harness.store import ResultStore

_clock = time.perf_counter

#: warm read-throughs of the store per pass (each cell is read this often)
WARM_READS = 5


class TimedExecutor:
    """:class:`~repro.harness.executor.SerialExecutor` plus the clock
    readings around each ``run_spec``."""

    def __init__(self):
        self.spans: list[tuple[float, float]] = []

    def execute(self, specs):
        reports = []
        for spec in specs:
            started = _clock()
            reports.append(run_spec(spec))
            self.spans.append((started, _clock()))
        return reports


class TimedStore(ResultStore):
    """A result store that records the clock readings around each ``get``
    and ``put``."""

    def __init__(self, root):
        super().__init__(root)
        self.gets: list[tuple[float, float]] = []
        self.puts: list[tuple[float, float]] = []

    def get(self, spec):
        started = _clock()
        report = super().get(spec)
        self.gets.append((started, _clock()))
        return report

    def put(self, spec, report):
        started = _clock()
        path = super().put(spec, report)
        self.puts.append((started, _clock()))
        return path


def _session(store_dir: Path, timed: bool) -> Session:
    """A serial session over a store at *store_dir*, timed or plain.

    Cells run, and are read and written, in spec order, so the i-th entry
    of each timing list is the i-th cell.
    """
    if timed:
        return Session(executor=TimedExecutor(), store=TimedStore(store_dir))
    return Session(store=ResultStore(store_dir))


def batch_pass(mode: str, workload: str, seed: int, out: Path) -> dict | None:
    """Run one pass of a batch workload (``mode``: setup, pass or traced)."""
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer().install()
    # the figure grid's spec list is built inside generate_all_figures; the
    # import here is what the pass needs before its first cell
    import repro.harness.figures  # noqa: F401

    timed = tracer is None
    inputs = workloads.batch_inputs(workload, seed)
    store_dir = out / "store"
    shutil.rmtree(store_dir, ignore_errors=True)
    cold = _session(store_dir, timed)
    print("ready", flush=True)
    if mode == "setup":
        shutil.rmtree(store_dir, ignore_errors=True)
        return None

    sampler = hostspeed.Sampler() if timed else contextlib.nullcontext()
    warm_digests, warm_gets = set(), []
    with sampler:
        started = _clock()
        output, cells = workloads.run_batch(workload, inputs, cold)
        ended = _clock()
        for _ in range(WARM_READS):
            # a fresh session and store handle per read-through, so every
            # cell is read from disk as a new `hyperion-sim` invocation would
            warm = _session(store_dir, timed)
            warm_output, _ = workloads.run_batch(workload, inputs, warm)
            warm_digests.add(workloads.digest(warm_output))
            if timed:
                warm_gets.append(warm.store.gets)

    result = {
        "cells": len(cells),
        "wall_s": ended - started,
        "digest": workloads.digest(output),
        "warm_digest": warm_digests.pop() if len(warm_digests) == 1 else "mixed",
        "verify_failures": workloads.verify_cells(cells),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if timed:
        # per cell: its simulation plus its store write; per read-through:
        # each cell's store read.  ref_wall_s and every *_s list are in
        # reference-host seconds (hostspeed.py); wall_s and raw hold the
        # measured seconds, without the host-speed samples
        cold_spans = list(zip(cold.executor.spans, cold.store.puts, strict=True))
        result["wall_s"] = sampler.raw_s(started, ended)
        result["ref_wall_s"] = sampler.reference_s(started, ended)
        result["host_slowdown"] = sampler.slowdown()
        result["cold_s"] = [
            sampler.reference_s(*run) + sampler.reference_s(*put) for run, put in cold_spans
        ]
        result["warm_s"] = [[sampler.reference_s(*get) for get in gets] for gets in warm_gets]
        result["raw"] = {
            "cold_s": [sampler.raw_s(*run) + sampler.raw_s(*put) for run, put in cold_spans],
            "warm_s": [[sampler.raw_s(*get) for get in gets] for gets in warm_gets],
        }
    else:
        tracer.uninstall()
        (out / "trace.json").write_text(json.dumps(tracer.payload()))
    shutil.rmtree(store_dir, ignore_errors=True)
    return result


def serve_traced(out: Path) -> None:
    from tracer import Tracer

    tracer = Tracer().install()
    from repro.harness.service import serve

    server = serve(port=0, workers=1, jobs=1, cache_dir=str(out / "serve-store"))
    print(f"hyperion-sim serve: listening on {server.address}", file=sys.stderr, flush=True)
    server.serve_until_shutdown()
    tracer.uninstall()
    (out / "trace.json").write_text(json.dumps(tracer.payload()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "pass", "traced", "serve"))
    parser.add_argument("--workload", choices=workloads.BATCH_WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    if args.mode == "serve":
        serve_traced(args.out)
        return 0
    result = batch_pass(args.mode, args.workload, args.seed, args.out)
    if result is not None:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
