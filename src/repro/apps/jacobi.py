"""Jacobi: 2-D heat diffusion on an insulated plate (paper Section 4.1).

The temperature distribution of a plate is computed on a ``size x size``
interior mesh (plus fixed boundary rows/columns) for a number of time steps.
Each thread owns a contiguous block of rows; every time step it updates its
rows from the previous iteration's values and must retrieve one "boundary"
row from each of its north and south neighbour threads, then all threads meet
at a barrier.  The rows a thread owns are homed on its node, so the only
remote traffic is the neighbour boundary exchange — the regular, low-volume
communication pattern the paper contrasts with Barnes.

Access accounting mirrors compiled Java: the update statement
``b[i][j] = 0.25*(a[i-1][j]+a[i+1][j]+a[i][j-1]+a[i][j+1])`` performs, per
cell, five element reads and one element write, i.e. six ``get``/``put``
operations, each of which is a locality check for ``java_ic``.
"""

from __future__ import annotations

from collections.abc import Generator

import numpy as np

from repro.apps.base import Application, register_app
from repro.apps.workloads import JacobiWorkload

#: floating-point operations per cell update (three adds and one multiply)
FLOPS_PER_CELL = 4.0
#: integer operations per cell (array bounds checks, index arithmetic, loop)
INT_OPS_PER_CELL = 30.0
#: clock-independent memory time per cell update (cache misses on the rows)
MEM_SECONDS_PER_CELL = 150e-9


def reference_solution(workload: JacobiWorkload) -> np.ndarray:
    """Pure-NumPy reference of the same iteration (used for verification)."""
    n = workload.size
    grid = np.zeros((n + 2, n + 2), dtype=np.float64)
    grid[0, :] = workload.hot_boundary
    nxt = grid.copy()
    for _ in range(workload.steps):
        nxt[1:-1, 1:-1] = 0.25 * (
            grid[:-2, 1:-1] + grid[2:, 1:-1] + grid[1:-1, :-2] + grid[1:-1, 2:]
        )
        grid, nxt = nxt, grid
    return grid


@register_app
class JacobiApplication(Application):
    """Row-blocked Jacobi iteration over the DSM."""

    name = "jacobi"

    # ------------------------------------------------------------------
    def worker(
        self,
        ctx,
        index: int,
        count: int,
        workload: JacobiWorkload,
        a_rows: list,
        b_rows: list,
        barrier,
    ) -> Generator:
        """One computation thread owning a block of mesh rows."""
        n = workload.size
        my_rows = self.block_partition(n, count, index)
        scale = workload.work_multiplier
        # six accesses per cell at paper scale; the bulk reads/writes below
        # already account roughly 4*n of them per simulated row
        extra_accesses_per_row = max(0.0, 6.0 * n * scale - 4.0 * n)
        extra_per_row = int(extra_accesses_per_row)
        row_flops = FLOPS_PER_CELL * n * scale
        row_int_ops = INT_OPS_PER_CELL * n * scale
        row_mem_seconds = MEM_SECONDS_PER_CELL * n * scale
        aget_range, aput_range, account_accesses = ctx.bulk_ops()
        compute = ctx.compute

        current, following = a_rows, b_rows
        for _step in range(workload.steps):
            for i in my_rows:
                row = i + 1  # interior rows are 1..n in the padded mesh
                center = aget_range(current[row], 0, n + 2)
                north = aget_range(current[row - 1], 1, n + 1)
                south = aget_range(current[row + 1], 1, n + 1)
                updated = 0.25 * (north + south + center[:-2] + center[2:])
                aput_range(following[row], 1, n + 1, updated)
                # west/east neighbour reads plus the work-multiplier scaling
                account_accesses(current[row], extra_per_row)
                compute(
                    flops=row_flops,
                    int_ops=row_int_ops,
                    mem_seconds=row_mem_seconds,
                )
            yield from ctx.barrier(barrier)
            current, following = following, current
        return None

    # ------------------------------------------------------------------
    def main(self, ctx, workload: JacobiWorkload) -> Generator:
        """Allocate the two meshes, spawn the workers, collect the result."""
        runtime = ctx.runtime
        n = workload.size
        count = self.worker_count(ctx)

        # Row r of the interior belongs to the thread that updates it; its
        # home node is that thread's node (the balancer is round-robin, so
        # thread index -> node index is deterministic).
        def owner_node(interior_row: int) -> int:
            for t in range(count):
                if interior_row in self.block_partition(n, count, t):
                    return t % runtime.num_nodes
            return runtime.num_nodes - 1

        homes = [owner_node(0)] + [owner_node(r) for r in range(n)] + [owner_node(n - 1)]
        a_rows = [
            ctx.new_array("double", n + 2, home_node=homes[r], page_aligned=True)
            for r in range(n + 2)
        ]
        b_rows = [
            ctx.new_array("double", n + 2, home_node=homes[r], page_aligned=True)
            for r in range(n + 2)
        ]
        # boundary conditions: hot northern edge, cold elsewhere
        hot = np.full(n + 2, workload.hot_boundary, dtype=np.float64)
        ctx.aput_range(a_rows[0], 0, n + 2, hot)
        ctx.aput_range(b_rows[0], 0, n + 2, hot)

        barrier = runtime.create_barrier(count, name="jacobi-barrier")
        threads = self.spawn_workers(
            ctx, self.worker, count, workload, a_rows, b_rows, barrier
        )
        yield from self.join_all(ctx, threads)

        # After an even number of steps the freshest values are back in a_rows.
        final_rows = a_rows if workload.steps % 2 == 0 else b_rows
        grid = np.zeros((n + 2, n + 2), dtype=np.float64)
        grid[0, :] = workload.hot_boundary
        for r in range(1, n + 1):
            grid[r, :] = ctx.aget_range(final_rows[r], 0, n + 2)
        checksum = float(grid[1:-1, 1:-1].sum())
        return {"checksum": checksum, "grid": grid}

    # ------------------------------------------------------------------
    def verify(self, result, workload: JacobiWorkload) -> bool:
        """Compare against the pure-NumPy reference iteration."""
        if not isinstance(result, dict) or "grid" not in result:
            return False
        reference = reference_solution(workload)
        return bool(np.allclose(result["grid"], reference, rtol=1e-10, atol=1e-10))
