"""TSP: branch-and-bound travelling salesperson (paper Section 4.1).

The search uses a **central work queue** of partial tours and a **central
best-solution** record, both stored on node 0 and protected by Java monitors;
threads on other nodes must fetch them, exactly as the paper describes.  The
main thread expands the tour tree down to ``queue_depth`` cities and places
the resulting prefixes in the queue; workers repeatedly pop a prefix, run a
depth-first branch-and-bound over the remaining cities (pruning against the
shared best bound, which they re-read from the shared object), and publish
improvements under the best-record's monitor.

The search is deterministic in its *result* (the optimal tour length) no
matter how the work is interleaved, which the tests rely on.

The DFS below a prefix is :func:`branch_and_bound`, a pure function of
``(distance matrix, prefix, prefix length, bound)`` memoised in a bounded
per-process LRU.  The simulated cost of a search (its DSM accesses and
computation) is charged by ``TspApplication._search`` on every call, so
reports are identical whether the memo hit or not.
:func:`repro.apps.clear_kernel_memos` empties it, for host timing that must
measure the search itself.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Generator

import numpy as np

from repro.apps.base import Application, register_app
from repro.apps.workloads import TspWorkload

#: integer operations per candidate-city evaluation in the DFS
INT_OPS_PER_CANDIDATE = 20.0
#: clock-independent memory time per candidate-city evaluation
MEM_SECONDS_PER_CANDIDATE = 40e-9
#: object accesses per candidate-city evaluation (distance-row reference,
#: distance element, partial-bound read)
ACCESSES_PER_CANDIDATE = 3


def city_coordinates(workload: TspWorkload) -> np.ndarray:
    """Random city coordinates in the unit square (seeded)."""
    rng = np.random.default_rng(workload.seed)
    return rng.random((workload.cities, 2))


def distance_matrix(workload: TspWorkload) -> np.ndarray:
    """Symmetric integer distance matrix (scaled Euclidean distances)."""
    coords = city_coordinates(workload)
    deltas = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((deltas**2).sum(axis=2))
    return np.rint(dist * 1000).astype(np.int64)


def reference_solution(workload: TspWorkload) -> int:
    """Exact optimum by exhaustive enumeration (feasible for small instances)."""
    dist = distance_matrix(workload)
    n = workload.cities
    best = None
    for perm in itertools.permutations(range(1, n)):
        length = dist[0, perm[0]]
        for a, b in zip(perm, perm[1:], strict=False):
            length += dist[a, b]
        length += dist[perm[-1], 0]
        if best is None or length < best:
            best = int(length)
    return int(best)


#: memoised :func:`branch_and_bound` results kept per process.  A bench-scale
#: ``figures`` pass asks for 131 distinct searches in 1,872 calls; the cap
#: keeps a long-lived ``serve`` process bounded whatever instances it is sent.
SEARCH_MEMO_SIZE = 4096


@functools.lru_cache(maxsize=SEARCH_MEMO_SIZE)
def branch_and_bound(
    dist: tuple[tuple[int, ...], ...],
    prefix: tuple[int, ...],
    prefix_length: int,
    bound: int,
) -> tuple[int, tuple[int, ...] | None, int]:
    """Iterative DFS branch-and-bound below *prefix* (pure, memoised).

    *dist* is the full distance matrix as a tuple of tuples of native ints,
    *prefix* a tour prefix starting at city 0, *prefix_length* its length and
    *bound* the best length known so far.  Every TSP cell searches the same
    instance and the shared bound quickly settles on the optimum, so most
    calls repeat an earlier one and the memo answers them.  The matrix
    *contents* are part of the key, so two instances never share an entry.

    Native int arithmetic and a bitmask visited set keep the inner loop
    allocation-light; the expansion order and all compared values are those
    of the original frozenset/ndarray formulation.

    Returns ``(best_length, best_tour, candidates_evaluated)``: the best
    length and tour only improve on *bound* (the tour is None when nothing
    beat it), and the candidate count is the work the search performed.
    """
    n = len(dist)
    candidates = 0
    local_best = bound
    visited_init = 0
    for city in prefix:
        visited_init |= 1 << city
    # pre-paired (city, bit) expansion list: one tuple unpack per
    # candidate instead of an extra list index in the innermost loop
    city_bits = [(city, 1 << city) for city in range(1, n)]
    # Stack nodes are (city, visited-mask, length, depth, parent-node)
    # parent chains instead of per-push path copies: a push is O(1) and
    # the full path is only reconstructed for the (rare) improvements.
    root = (prefix[-1], visited_init, prefix_length, len(prefix), None)
    best_node = None
    stack = [root]
    while stack:
        node = stack.pop()
        current, visited, length, depth, _parent = node
        if length >= local_best:
            continue
        row = dist[current]
        if depth == n:
            total = length + row[0]
            candidates += 1
            if total < local_best:
                local_best = total
                best_node = node
            continue
        child_depth = depth + 1
        for city, bit in city_bits:
            if visited & bit:
                continue
            candidates += 1
            new_length = length + row[city]
            if new_length < local_best:
                stack.append((city, visited | bit, new_length, child_depth, node))
    best_tour: tuple[int, ...] | None = None
    if best_node is not None:
        suffix = []
        node = best_node
        while node[4] is not None:
            suffix.append(node[0])
            node = node[4]
        best_tour = tuple(prefix) + tuple(reversed(suffix))
    return local_best, best_tour, candidates


@register_app
class TspApplication(Application):
    """Branch-and-bound TSP with a central queue and shared bound."""

    name = "tsp"

    # ------------------------------------------------------------------
    # search helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _generate_prefixes(n: int, depth: int) -> list[tuple[int, ...]]:
        """All tour prefixes starting at city 0 with *depth* further cities."""
        prefixes: list[tuple[int, ...]] = []

        def extend(prefix: tuple[int, ...]) -> None:
            if len(prefix) == depth + 1:
                prefixes.append(prefix)
                return
            for city in range(1, n):
                if city not in prefix:
                    extend(prefix + (city,))

        extend((0,))
        return prefixes

    @staticmethod
    def _encode(prefix: tuple[int, ...]) -> int:
        """Pack a tour prefix into a 64-bit integer (5 bits per city)."""
        value = len(prefix)
        for city in prefix:
            value = (value << 5) | city
        return value

    @staticmethod
    def _decode(value: int) -> tuple[int, ...]:
        """Inverse of :meth:`_encode`."""
        cities = []
        length_marker = value
        while length_marker > 31:
            cities.append(length_marker & 31)
            length_marker >>= 5
        return tuple(reversed(cities))

    # ------------------------------------------------------------------
    def _search(
        self,
        ctx,
        dist: tuple[tuple[int, ...], ...],
        dist_rows: list,
        best_obj,
        prefix: tuple[int, ...],
        prefix_length: int,
        local_best: int,
        scale: float = 1.0,
    ) -> tuple[int, tuple[int, ...] | None, int]:
        """Branch-and-bound below *prefix*, with its simulated cost.

        The search itself is :func:`branch_and_bound` (pure and memoised); the
        DSM accesses and computation it stands for are charged here on every
        call, hit or miss, so the simulated execution never depends on the
        memo.

        Returns ``(best_length, best_tour, candidates_evaluated)`` where the
        best length/tour only improve on *local_best*.
        """
        best, tour, candidates = branch_and_bound(dist, prefix, prefix_length, local_best)
        # account the DSM accesses and computation the DFS performed (scaled
        # by the workload's work multiplier)
        if candidates:
            weighted = int(candidates * ACCESSES_PER_CANDIDATE * scale)
            per_row = max(1, weighted // max(1, len(dist_rows)))
            remaining = weighted
            for row in dist_rows:
                share = min(remaining, per_row)
                if share <= 0:
                    break
                ctx.account_accesses(row, share)
                remaining -= share
            if remaining > 0:
                ctx.account_accesses(dist_rows[0], remaining)
            ctx.account_accesses(best_obj, max(1, int(candidates * scale) // 8))
            ctx.compute(
                int_ops=INT_OPS_PER_CANDIDATE * candidates * scale,
                mem_seconds=MEM_SECONDS_PER_CANDIDATE * candidates * scale,
            )
        return best, tour, candidates

    # ------------------------------------------------------------------
    def worker(
        self,
        ctx,
        index: int,
        count: int,
        workload: TspWorkload,
        queue_obj,
        queue_items,
        best_obj,
        dist_rows: list,
    ) -> Generator:
        """One computation thread: pop prefixes and search below them."""
        n = workload.cities
        # Bring the distance matrix into the local snapshot once (functional
        # data); DSM accounting for the reads happens here and in _search.
        # Native-int rows are fast in the DFS inner loop and hashable, so the
        # whole matrix is part of the search memo's key.
        dist = tuple(tuple(ctx.aget_range(row, 0, n).tolist()) for row in dist_rows)

        expanded = 0
        while True:
            # -- pop one prefix from the central, monitor-protected queue
            yield from ctx.monitor_enter(queue_obj)
            head = ctx.get(queue_obj, "head")
            size = ctx.get(queue_obj, "size")
            if head >= size:
                yield from ctx.monitor_exit(queue_obj)
                break
            encoded = ctx.aget(queue_items, head)
            ctx.put(queue_obj, "head", head + 1)
            yield from ctx.monitor_exit(queue_obj)

            prefix = self._decode(int(encoded))
            prefix_length = sum(dist[a][b] for a, b in zip(prefix, prefix[1:], strict=False))
            # read the shared bound (cached copy; re-fetched after monitors)
            bound = ctx.get(best_obj, "length")
            best, tour, _cands = self._search(
                ctx,
                dist,
                dist_rows,
                best_obj,
                prefix,
                prefix_length,
                int(bound),
                scale=workload.work_multiplier,
            )
            expanded += 1

            # -- publish an improvement under the best-record monitor
            if tour is not None:
                yield from ctx.monitor_enter(best_obj)
                current = ctx.get(best_obj, "length")
                if best < current:
                    ctx.put(best_obj, "length", int(best))
                    for position, city in enumerate(tour):
                        ctx.put(best_obj, f"city{position}", int(city))
                yield from ctx.monitor_exit(best_obj)
        return expanded

    # ------------------------------------------------------------------
    def main(self, ctx, workload: TspWorkload) -> Generator:
        """Build the shared structures, seed the queue, run the workers."""
        runtime = ctx.runtime
        n = workload.cities
        count = self.worker_count(ctx)
        dist = distance_matrix(workload)

        # distance matrix rows, homed on node 0 (read-only shared data)
        dist_rows = [ctx.new_array("long", n, home_node=0) for _ in range(n)]
        for i in range(n):
            ctx.aput_range(dist_rows[i], 0, n, dist[i])

        # central work queue (node 0)
        prefixes = self._generate_prefixes(n, workload.queue_depth)
        queue_class = runtime.java_class("TspQueue", ["head", "size"])
        queue_obj = ctx.new_object(queue_class, home_node=0)
        queue_items = ctx.new_array("long", len(prefixes), home_node=0)
        for slot, prefix in enumerate(prefixes):
            ctx.aput(queue_items, slot, self._encode(prefix))
        ctx.put(queue_obj, "head", 0)
        ctx.put(queue_obj, "size", len(prefixes))

        # central best record (node 0): bound plus the best tour found
        best_fields = ["length"] + [f"city{i}" for i in range(n)]
        best_class = runtime.java_class("TspBest", best_fields)
        best_obj = ctx.new_object(best_class, home_node=0)
        ctx.put(best_obj, "length", int(np.iinfo(np.int64).max // 4))

        threads = self.spawn_workers(
            ctx, self.worker, count, workload, queue_obj, queue_items, best_obj, dist_rows
        )
        yield from self.join_all(ctx, threads)

        best_length = ctx.get(best_obj, "length")
        tour = tuple(int(ctx.get(best_obj, f"city{i}")) for i in range(n))
        return {"length": int(best_length), "tour": tour, "prefixes": len(prefixes)}

    # ------------------------------------------------------------------
    def verify(self, result, workload: TspWorkload) -> bool:
        """Check optimality against brute force (small instances only)."""
        if not isinstance(result, dict) or "length" not in result:
            return False
        if workload.cities > 9:
            # brute force would be too slow; validate the tour itself instead
            dist = distance_matrix(workload)
            tour = result["tour"]
            if sorted(tour) != list(range(workload.cities)):
                return False
            length = sum(dist[a, b] for a, b in zip(tour, tour[1:], strict=False)) + dist[tour[-1], tour[0]]
            return int(length) == int(result["length"])
        return int(result["length"]) == reference_solution(workload)
