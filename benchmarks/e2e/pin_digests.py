"""Re-pin ``digests.json``, the benchmark's record of correct output.

For each batch workload and seed it stores the digest of the whole pass
output; for ``serve`` it stores the digest of every cell a request can name.
Re-pin only for a change that is meant to alter simulated output: a digest
that moves for any other change is a bug the benchmark exists to catch.

Usage (from the repository root)::

    PYTHONPATH=src python3 benchmarks/e2e/pin_digests.py
"""

from __future__ import annotations

import json
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent

#: batch workloads are pinned for seeds 0 .. PINNED_SEEDS - 1
PINNED_SEEDS = 10


def main() -> int:
    from repro.harness.session import Session

    pins: dict[str, dict] = {}
    for workload in workloads.BATCH_WORKLOADS:
        pins[workload] = {}
        for seed in range(PINNED_SEEDS):
            inputs = workloads.batch_inputs(workload, seed)
            output, _ = workloads.run_batch(workload, inputs, Session())
            pins[workload][str(seed)] = workloads.digest(output)
            print(f"{workload} seed {seed}: {pins[workload][str(seed)]}", flush=True)
    pins["serve"] = {
        spec.label(): workloads.cell_digest(spec.run().to_dict())
        for spec in workloads.serve_universe()
    }
    print(f"serve: {len(pins['serve'])} cells", flush=True)
    (HERE / "digests.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
