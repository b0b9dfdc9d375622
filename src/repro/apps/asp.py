"""ASP: all-pairs shortest paths with Floyd's algorithm (paper Section 4.1).

The distance matrix is decomposed into contiguous row blocks, one per thread,
each block homed on its thread's node.  Iteration ``k`` of Floyd's algorithm
relaxes every row against row ``k``; since row ``k`` belongs to exactly one
thread, every other thread must fetch it ("the current row of the matrix must
be retrieved by all threads"), after which the relaxation of a thread's own
rows is purely local.  A barrier separates iterations.

The innermost statement is ``if (d[i][k] + d[k][j] < d[i][j]) d[i][j] = ...``
— an integer add and compare guarded by three object accesses (read
``d[k][j]``, read ``d[i][j]``, write ``d[i][j]``), which is why the paper
reports the largest ``java_pf`` improvement here: the in-line checks dominate
the tiny per-element computation.

The matrix is one heap matrix allocation (``ctx.new_matrix``): per-row
arrays, homes and pages as before, backed by one 2-D array.  Each thread
relaxes its whole block against the pivot row with one prepared block
updater (``ctx.make_range_updater``) and a vectorised ``relax``; every row
but the pivot is charged its read, its write-back when a path through ``k``
exists, the inner loop's reads of ``d[k][j]`` and its compute, exactly as a
per-row get/put/account/compute sequence would charge them.
"""

from __future__ import annotations

from collections.abc import Generator

import numpy as np

from repro.apps.base import Application, register_app
from repro.apps.workloads import AspWorkload

#: "infinite" distance for missing edges (fits comfortably in int32 even when
#: two of them are added together)
INFINITY = 100_000_000

#: integer operations per inner-loop element (add, compare, index arithmetic)
INT_OPS_PER_ELEMENT = 8.0
#: clock-independent memory time per inner-loop element
MEM_SECONDS_PER_ELEMENT = 12e-9
#: object accesses per inner-loop element beyond the own-row read and write
EXTRA_ACCESSES_PER_ELEMENT = 1  # the read of d[k][j]


def random_graph(workload: AspWorkload) -> np.ndarray:
    """Random directed weighted graph as a dense int32 distance matrix."""
    rng = np.random.default_rng(workload.seed)
    n = workload.vertices
    weights = rng.integers(1, workload.max_weight + 1, size=(n, n), dtype=np.int32)
    mask = rng.random((n, n)) < workload.density
    matrix = np.where(mask, weights, INFINITY).astype(np.int32)
    np.fill_diagonal(matrix, 0)
    return matrix


def reference_solution(workload: AspWorkload) -> np.ndarray:
    """Floyd-Warshall reference computed directly with NumPy."""
    dist = random_graph(workload).astype(np.int64)
    n = workload.vertices
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return dist.astype(np.int32)


@register_app
class AspApplication(Application):
    """Row-blocked Floyd's algorithm over the DSM."""

    name = "asp"

    # ------------------------------------------------------------------
    def worker(
        self,
        ctx,
        index: int,
        count: int,
        workload: AspWorkload,
        rows: list,
        barrier,
    ) -> Generator:
        """One computation thread owning a block of matrix rows."""
        n = workload.vertices
        my_rows = self.block_partition(n, count, index)
        scale = workload.work_multiplier
        # three accesses per inner-loop element at paper scale; the bulk
        # read/write of the own row already accounts 2*n of them
        extra_per_row = int(max(0.0, 3.0 * n * scale - 2.0 * n))
        row_int_ops = INT_OPS_PER_ELEMENT * n * scale
        row_mem_seconds = MEM_SECONDS_PER_ELEMENT * n * scale
        aget_range = ctx.aget_range
        minimum = np.minimum
        add_outer = np.add.outer
        # the k-loop relaxes the same block of rows every iteration: one
        # prepared updater reads, relaxes, writes back and charges the whole
        # block per pivot, each row charged the compute of one relaxation
        update_block = ctx.make_range_updater(
            [rows[i] for i in my_rows],
            0,
            n,
            extra=extra_per_row,
            row_seconds=ctx.compute_seconds(
                int_ops=row_int_ops, mem_seconds=row_mem_seconds
            ),
        )
        # scratch for the relaxation (the updater copies values out)
        relaxed = np.empty((len(my_rows), n), dtype=np.int32)
        first = my_rows.start

        for k in range(n):
            # fetch the pivot row (remote for every thread but its owner).
            # int32 arithmetic is exact here: entries never exceed INFINITY,
            # so the relaxation sum stays far below the int32 maximum — the
            # module constant's "fits comfortably even when two are added"
            # invariant — and skipping the int64 up-conversion avoids two
            # array copies per relaxation.
            row_k = aget_range(rows[k], 0, n)

            def relax(block, _k=k, _row_k=row_k):
                d_ik = block[:, _k]
                out = relaxed[: len(block)]
                add_outer(d_ik, _row_k, out=out)
                minimum(block, out, out=out)
                # a row with no path through k is not written back; the
                # compiled code still walks it, so its accesses still count
                return out, d_ik < INFINITY

            # relax every owned row but the pivot against it, and account
            # the inner-loop reads of d[k][j] — charges identical to a
            # get/put/account/compute sequence per row
            update_block(relax, rows[k], skip=k - first if k in my_rows else None)
            yield from ctx.barrier(barrier)
        return None

    # ------------------------------------------------------------------
    def main(self, ctx, workload: AspWorkload) -> Generator:
        """Distribute the matrix, run the workers, gather the result."""
        runtime = ctx.runtime
        n = workload.vertices
        count = self.worker_count(ctx)
        graph = random_graph(workload)

        def owner_node(row: int) -> int:
            for t in range(count):
                if row in self.block_partition(n, count, t):
                    return t % runtime.num_nodes
            return runtime.num_nodes - 1

        rows = ctx.new_matrix("int", n, n, [owner_node(r) for r in range(n)])
        for r in range(n):
            ctx.aput_range(rows[r], 0, n, graph[r])

        barrier = runtime.create_barrier(count, name="asp-barrier")
        threads = self.spawn_workers(ctx, self.worker, count, workload, rows, barrier)
        yield from self.join_all(ctx, threads)

        result = np.zeros((n, n), dtype=np.int32)
        for r in range(n):
            result[r] = ctx.aget_range(rows[r], 0, n)
        return {"distances": result, "checksum": int(result[result < INFINITY].sum())}

    # ------------------------------------------------------------------
    def verify(self, result, workload: AspWorkload) -> bool:
        """Compare against the dense NumPy Floyd-Warshall reference."""
        if not isinstance(result, dict) or "distances" not in result:
            return False
        reference = reference_solution(workload)
        return bool(np.array_equal(result["distances"], reference))
