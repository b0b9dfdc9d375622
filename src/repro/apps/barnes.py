"""Barnes-Hut gravitational N-body simulation (paper Section 4.1).

Adapted from the structure of the SPLASH-2 Barnes code: every time step an
octree is built over the current body positions, each body's acceleration is
computed by traversing the tree with the opening-angle criterion, and the
bodies are advanced with a simple integrator.  The communication pattern is
irregular — bodies move, body-body interactions change — and the program
re-assigns bodies to threads every step based on the work they caused in the
previous step (a simplified costzones policy), so threads frequently read and
write objects homed on other nodes.  This is the benchmark whose growing
communication erodes ``java_pf``'s advantage at higher node counts in the
paper (the improvement falls from about 46% on one node to 28% on twelve).

All shared data (body attribute arrays and the flattened tree) is allocated
by the main thread and therefore homed on node 0, as a straightforward
Hyperion port of the SPLASH-2 code would do; remote nodes replicate the pages
they touch and flush their modifications at each barrier.

Structure of one time step (barriers between phases):

1. the master thread gathers positions, builds the octree, publishes it in
   shared arrays and publishes the new body-to-thread assignment;
2. every thread computes accelerations for its assigned bodies by traversing
   the shared tree, and records per-body work counts;
3. every thread integrates the block of bodies it owns using the
   accelerations written in phase 2.

Node count and protocol change only what the run is charged, never the body
data, so every Barnes cell of a sweep asks the same physics questions.  The
worker therefore reaches the two pure kernels through bounded per-process
memos: :func:`tree_memo` (phase 1) is keyed by the exact bytes of the
positions and masses the master read through the DSM, and :func:`step_memo`
(phase 2) by theta and the exact bytes of every array the force walk reads,
holding one :class:`StepForces` per step state whose per-body results fill
in as threads ask for them.  Every DSM access and
charge still runs on every call, in the same order, so reports are
byte-identical whether a memo hit.  :func:`reference_simulation`, the
``verify`` oracle, calls the plain kernels and never touches the memos.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from collections.abc import Generator

import numpy as np

from repro.apps.base import Application, register_app
from repro.apps.workloads import BarnesWorkload

#: gravitational constant of the toy system
G = 1.0
#: Plummer-style softening to avoid singular forces
SOFTENING = 0.05

#: floating-point operations per body/cell interaction
FLOPS_PER_INTERACTION = 12.0
#: integer operations per body/cell interaction (tree walking, tests)
INT_OPS_PER_INTERACTION = 10.0
#: clock-independent memory time per interaction
MEM_SECONDS_PER_INTERACTION = 20e-9
#: object accesses per interaction (cell mass, centre of mass, child link...)
ACCESSES_PER_INTERACTION = 6

#: maximum octree depth; deep enough that random positions never collide
MAX_DEPTH = 48


def initial_bodies(workload: BarnesWorkload) -> dict[str, np.ndarray]:
    """Deterministic initial conditions: uniform cube, small velocities."""
    rng = np.random.default_rng(workload.seed)
    n = workload.bodies
    return {
        "mass": np.full(n, 1.0 / n),
        "pos": rng.random((n, 3)),
        "vel": (rng.random((n, 3)) - 0.5) * 0.1,
    }


# ---------------------------------------------------------------------------
# octree construction and traversal (plain Python/NumPy)
# ---------------------------------------------------------------------------
@dataclass
class _OctreeNode:
    """One cell of the octree during construction."""

    center: np.ndarray
    half: float
    depth: int
    bodies: list[int] = field(default_factory=list)
    children: list["_OctreeNode" | None] | None = None
    mass: float = 0.0
    com: np.ndarray = field(default_factory=lambda: np.zeros(3))


class FlatTree:
    """The octree flattened into arrays (the representation shared via DSM)."""

    __slots__ = ("count", "mass", "com", "half", "children", "leaf_body")

    def __init__(self, count: int):
        self.count = count
        self.mass = np.zeros(count)
        self.com = np.zeros((count, 3))
        self.half = np.zeros(count)
        #: child cell index per octant, -1 when absent
        self.children = np.full((count, 8), -1, dtype=np.int64)
        #: index of the single body held by a leaf cell, -1 for internal/empty
        self.leaf_body = np.full(count, -1, dtype=np.int64)

    @classmethod
    def from_arrays(
        cls,
        mass: np.ndarray,
        com: np.ndarray,
        half: np.ndarray,
        leaf_body: np.ndarray,
        children: np.ndarray,
    ) -> "FlatTree":
        """A tree over existing arrays (no copies)."""
        flat = cls.__new__(cls)
        flat.count = len(mass)
        flat.mass, flat.com, flat.half = mass, com, half
        flat.leaf_body, flat.children = leaf_body, children
        return flat


def build_octree(positions: np.ndarray, masses: np.ndarray) -> FlatTree:
    """Build the Barnes-Hut octree and flatten it (deterministic)."""
    n = len(positions)
    lo = positions.min(axis=0)
    hi = positions.max(axis=0)
    center = (lo + hi) / 2.0
    half = float(max((hi - lo).max() / 2.0, 1e-9)) * 1.0001
    root = _OctreeNode(center=center, half=half, depth=0, bodies=list(range(n)))

    def subdivide(node: _OctreeNode) -> None:
        if len(node.bodies) <= 1 or node.depth >= MAX_DEPTH:
            return
        node.children = [None] * 8
        for body in node.bodies:
            offset = positions[body] >= node.center
            octant = int(offset[0]) * 4 + int(offset[1]) * 2 + int(offset[2])
            child = node.children[octant]
            if child is None:
                sign = np.where(offset, 0.5, -0.5)
                child = _OctreeNode(
                    center=node.center + sign * node.half,
                    half=node.half / 2.0,
                    depth=node.depth + 1,
                )
                node.children[octant] = child
            child.bodies.append(body)
        node.bodies = []
        for child in node.children:
            if child is not None:
                subdivide(child)

    subdivide(root)

    order: list[_OctreeNode] = []

    def visit(node: _OctreeNode) -> None:
        order.append(node)
        if node.children:
            for child in node.children:
                if child is not None:
                    visit(child)

    visit(root)

    def summarize(node: _OctreeNode) -> tuple[float, np.ndarray]:
        if node.children:
            total, weighted = 0.0, np.zeros(3)
            for child in node.children:
                if child is None:
                    continue
                m, c = summarize(child)
                total += m
                weighted += m * c
            node.mass = total
            node.com = weighted / total if total > 0 else node.center.copy()
        else:
            node.mass = float(masses[node.bodies].sum()) if node.bodies else 0.0
            node.com = (
                (masses[node.bodies, None] * positions[node.bodies]).sum(axis=0)
                / node.mass
                if node.mass > 0
                else node.center.copy()
            )
        return node.mass, node.com

    summarize(root)

    flat = FlatTree(len(order))
    index_of = {id(node): i for i, node in enumerate(order)}
    for i, node in enumerate(order):
        flat.mass[i] = node.mass
        flat.com[i] = node.com
        flat.half[i] = node.half
        if node.children:
            for octant, child in enumerate(node.children):
                if child is not None:
                    flat.children[i, octant] = index_of[id(child)]
        elif node.bodies:
            flat.leaf_body[i] = node.bodies[0]
    return flat


def make_walk_cache(flat: FlatTree) -> tuple:
    """Python-native views of a flat tree for the per-body traversal.

    One traversal visits hundreds of cells and runs once per body per step;
    reading cell scalars out of plain lists instead of 0-d NumPy indexing is
    several times faster and yields bit-identical doubles (``tolist`` is an
    exact conversion).  Build this once per published tree and pass it to
    :func:`compute_acceleration` for every body; it is never mutated, so one
    cache can serve any number of threads.
    """
    children_rows = flat.children.tolist()
    com = flat.com
    return (
        flat.mass.tolist(),
        flat.half.tolist(),
        flat.leaf_body.tolist(),
        children_rows,
        [max(row) >= 0 for row in children_rows],
        com[:, 0].tolist(),
        com[:, 1].tolist(),
        com[:, 2].tolist(),
    )


def make_body_cache(positions: np.ndarray, masses: np.ndarray) -> tuple:
    """Python-native views of the body state for the per-body traversal.

    The companion of :func:`make_walk_cache` for the per-step quantities:
    build once per step, pass to :func:`compute_acceleration` for every body.
    """
    return (
        positions[:, 0].tolist(),
        positions[:, 1].tolist(),
        positions[:, 2].tolist(),
        masses.tolist(),
    )


def compute_acceleration(
    flat: FlatTree,
    positions: np.ndarray,
    masses: np.ndarray,
    body: int,
    theta: float,
    walk: tuple | None = None,
    bodies: tuple | None = None,
) -> tuple[np.ndarray, int]:
    """Acceleration on *body* from a tree traversal; returns (acc, interactions).

    ``walk`` and ``bodies`` are optional :func:`make_walk_cache` /
    :func:`make_body_cache` results; passing them avoids rebuilding the
    native views for every body of a step.  The traversal runs on plain
    Python floats except for the squared-distance dot product, which stays a
    NumPy 3-vector contraction: its BLAS kernel rounds differently from the
    unfused ``dx*dx + dy*dy + dz*dz``, and keeping it is what makes the
    accelerations bit-identical to the original ndarray formulation (every
    other expression is evaluated scalar-by-scalar in the same order NumPy's
    elementwise operators would).
    """
    if walk is None:
        walk = make_walk_cache(flat)
    if bodies is None:
        bodies = make_body_cache(positions, masses)
    mass_l, half_l, leaf_l, children_l, has_kids, comx, comy, comz = walk
    pxl, pyl, pzl, ml = bodies
    px = pxl[body]
    py = pyl[body]
    pz = pzl[body]
    ax = ay = az = 0.0
    interactions = 0
    theta_sq = theta * theta
    soft_sq = SOFTENING**2
    sqrt = math.sqrt
    buf = np.empty(3)
    dot = buf.dot  # same BLAS ddot kernel as ``buf @ buf``, cheaper dispatch
    stack = [0]
    while stack:
        cell = stack.pop()
        mass = mass_l[cell]
        if mass <= 0.0:
            continue
        if not has_kids[cell]:
            other = leaf_l[cell]
            if other < 0 or other == body:
                continue
            dx = pxl[other] - px
            dy = pyl[other] - py
            dz = pzl[other] - pz
            buf[0] = dx
            buf[1] = dy
            buf[2] = dz
            dist_sq = float(dot(buf)) + soft_sq
            denom = dist_sq * sqrt(dist_sq)
            s = G * ml[other]
            ax += s * dx / denom
            ay += s * dy / denom
            az += s * dz / denom
            interactions += 1
            continue
        dx = comx[cell] - px
        dy = comy[cell] - py
        dz = comz[cell] - pz
        buf[0] = dx
        buf[1] = dy
        buf[2] = dz
        dist_sq = float(dot(buf)) + soft_sq
        size = 2.0 * half_l[cell]
        if size * size < theta_sq * dist_sq:
            denom = dist_sq * sqrt(dist_sq)
            s = G * mass
            ax += s * dx / denom
            ay += s * dy / denom
            az += s * dz / denom
            interactions += 1
        else:
            for child in children_l[cell]:
                if child >= 0:
                    stack.append(child)
    return np.array([ax, ay, az]), interactions


def reference_simulation(workload: BarnesWorkload) -> dict[str, np.ndarray]:
    """Run the same simulation without the DSM (for verification)."""
    init = initial_bodies(workload)
    positions = init["pos"].copy()
    velocities = init["vel"].copy()
    masses = init["mass"]
    n = workload.bodies
    for _ in range(workload.steps):
        flat = build_octree(positions, masses)
        walk = make_walk_cache(flat)
        body_cache = make_body_cache(positions, masses)
        acc = np.zeros((n, 3))
        for body in range(n):
            acc[body], _ = compute_acceleration(
                flat, positions, masses, body, workload.theta,
                walk=walk, bodies=body_cache,
            )
        velocities = velocities + workload.dt * acc
        positions = positions + workload.dt * velocities
    return {"positions": positions, "velocities": velocities}


# ---------------------------------------------------------------------------
# kernel memos (the worker's only path to the kernels)
# ---------------------------------------------------------------------------
#: octrees kept per process.  At least the largest preset's step count
#: (paper: 6), so every tree of one cell is still there for the next cell;
#: the cap keeps a long-lived ``serve`` bounded whatever it is sent.
TREE_MEMO_SIZE = 8
#: step force walks (:class:`StepForces`) kept per process, sized likewise.
STEP_MEMO_SIZE = 8

#: an array's exact contents: dtype string, shape and raw bytes
ArrayKey = tuple[str, tuple[int, ...], bytes]


def _array_key(array: np.ndarray) -> ArrayKey:
    return array.dtype.str, array.shape, array.tobytes()


def _keyed_array(key: ArrayKey) -> np.ndarray:
    """The read-only array *key* describes (a view of its bytes)."""
    dtype, shape, data = key
    return np.frombuffer(data, dtype=dtype).reshape(shape)


@functools.lru_cache(maxsize=TREE_MEMO_SIZE)
def tree_memo(positions: ArrayKey, masses: ArrayKey) -> FlatTree:
    """:func:`build_octree` over the keyed arrays, cached; the tree is read-only."""
    flat = build_octree(_keyed_array(positions), _keyed_array(masses))
    for array in (flat.mass, flat.com, flat.half, flat.leaf_body, flat.children):
        array.flags.writeable = False
    return flat


def memoised_tree(positions: np.ndarray, masses: np.ndarray) -> FlatTree:
    """:func:`build_octree` through :func:`tree_memo`."""
    return tree_memo(_array_key(positions), _array_key(masses))


class StepForces:
    """The force walk of one step state, shared by every cell that reaches it.

    Holds the native walk and body views and a per-body
    ``(acc, interactions)`` table filled on first request: on a miss each
    thread computes only the bodies it asks for, and later cells of a sweep
    find them done.  A result is a pure function of the memo key, so two
    threads filling the same body concurrently store equal values.
    """

    __slots__ = ("flat", "positions", "masses", "theta", "walk", "bodies", "results")

    def __init__(self, flat: FlatTree, positions: np.ndarray, masses: np.ndarray, theta: float):
        self.flat = flat
        self.positions = positions
        self.masses = masses
        self.theta = theta
        self.walk = make_walk_cache(flat)
        self.bodies = make_body_cache(positions, masses)
        self.results: list[tuple[np.ndarray, int] | None] = [None] * len(positions)

    def acceleration(self, body: int) -> tuple[np.ndarray, int]:
        """:func:`compute_acceleration` for *body*, computed once per entry."""
        result = self.results[body]
        if result is None:
            acc, interactions = compute_acceleration(
                self.flat, self.positions, self.masses, body, self.theta,
                walk=self.walk, bodies=self.bodies,
            )
            acc.flags.writeable = False
            result = self.results[body] = (acc, interactions)
        return result


@functools.lru_cache(maxsize=STEP_MEMO_SIZE)
def step_memo(
    theta: float,
    mass: ArrayKey,
    com: ArrayKey,
    half: ArrayKey,
    leaf_body: ArrayKey,
    children: ArrayKey,
    positions: ArrayKey,
    masses: ArrayKey,
) -> StepForces:
    """The :class:`StepForces` of the keyed tree, bodies and theta, cached."""
    flat = FlatTree.from_arrays(*map(_keyed_array, (mass, com, half, leaf_body, children)))
    return StepForces(flat, _keyed_array(positions), _keyed_array(masses), theta)


def memoised_step(
    flat: FlatTree, positions: np.ndarray, masses: np.ndarray, theta: float
) -> StepForces:
    """:class:`StepForces` through :func:`step_memo`, keyed by every input the walk reads."""
    arrays = (flat.mass, flat.com, flat.half, flat.leaf_body, flat.children, positions, masses)
    return step_memo(theta, *map(_array_key, arrays))


# ---------------------------------------------------------------------------
# the Hyperion application
# ---------------------------------------------------------------------------
@register_app
class BarnesApplication(Application):
    """Barnes-Hut over the DSM with dynamic body assignment."""

    name = "barnes"

    # ------------------------------------------------------------------
    def _publish_tree(self, ctx, shared, flat: FlatTree) -> None:
        """Master: write the flattened tree into the shared arrays."""
        count = flat.count
        ctx.put(shared["meta"], "tree_cells", count)
        ctx.aput_range(shared["tree_mass"], 0, count, flat.mass)
        ctx.aput_range(shared["tree_comx"], 0, count, flat.com[:, 0])
        ctx.aput_range(shared["tree_comy"], 0, count, flat.com[:, 1])
        ctx.aput_range(shared["tree_comz"], 0, count, flat.com[:, 2])
        ctx.aput_range(shared["tree_half"], 0, count, flat.half)
        ctx.aput_range(shared["tree_leaf"], 0, count, flat.leaf_body)
        children_flat = flat.children.reshape(-1)
        ctx.aput_range(shared["tree_children"], 0, len(children_flat), children_flat)

    def _read_tree(self, ctx, shared) -> FlatTree:
        """Worker: read the flattened tree back through the DSM."""
        cells = int(ctx.get(shared["meta"], "tree_cells"))
        mass = ctx.aget_range(shared["tree_mass"], 0, cells)
        com = np.stack(
            [
                ctx.aget_range(shared["tree_comx"], 0, cells),
                ctx.aget_range(shared["tree_comy"], 0, cells),
                ctx.aget_range(shared["tree_comz"], 0, cells),
            ],
            axis=1,
        )
        half = ctx.aget_range(shared["tree_half"], 0, cells)
        leaf_body = ctx.aget_range(shared["tree_leaf"], 0, cells)
        children = ctx.aget_range(shared["tree_children"], 0, cells * 8).reshape(cells, 8)
        return FlatTree.from_arrays(mass, com, half, leaf_body, children)

    def _read_positions(self, ctx, shared, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Gather body positions and masses through the DSM."""
        px = ctx.aget_range(shared["px"], 0, n)
        py = ctx.aget_range(shared["py"], 0, n)
        pz = ctx.aget_range(shared["pz"], 0, n)
        masses = ctx.aget_range(shared["mass"], 0, n)
        return np.stack([px, py, pz], axis=1), masses

    # ------------------------------------------------------------------
    def worker(
        self,
        ctx,
        index: int,
        count: int,
        workload: BarnesWorkload,
        shared,
        barrier,
    ) -> Generator:
        """One computation thread.

        The kernels are reached only through their memos (:func:`memoised_tree`
        in phase 1, :func:`memoised_step` in phase 2), keyed by what this
        thread read through the DSM.  Every DSM access and charge below runs
        whether a memo hit or not, so the simulated execution never depends on
        the memos.
        """
        n = workload.bodies
        owned = self.block_partition(n, count, index)
        is_master = index == 0
        scale = workload.work_multiplier

        for _step in range(workload.steps):
            # -- phase 1: the master builds and publishes the tree ------------
            if is_master:
                positions, masses = self._read_positions(ctx, shared, n)
                flat = memoised_tree(positions, masses)
                self._publish_tree(ctx, shared, flat)
                # dynamic assignment: balance the per-body work of the
                # previous step across threads (equal blocks on step 0)
                work = ctx.aget_range(shared["work"], 0, n).astype(np.float64)
                if work.sum() <= 0:
                    work = np.ones(n)
                cumulative = np.cumsum(work)
                boundaries = np.searchsorted(
                    cumulative, np.linspace(0, cumulative[-1], count + 1)[1:-1]
                )
                assignment = np.zeros(n, dtype=np.int32)
                start = 0
                for t, end in enumerate(list(boundaries) + [n]):
                    assignment[start:end] = t
                    start = end
                ctx.aput_range(shared["assign"], 0, n, assignment)
                ctx.compute(
                    flops=30.0 * n * scale,
                    int_ops=40.0 * n * scale,
                    mem_seconds=40e-9 * n * scale,
                )
            yield from ctx.barrier(barrier)

            # -- phase 2: force computation over assigned bodies --------------
            flat = self._read_tree(ctx, shared)
            positions, masses = self._read_positions(ctx, shared, n)
            assignment = ctx.aget_range(shared["assign"], 0, n)
            my_bodies = np.flatnonzero(assignment == index)
            forces = memoised_step(flat, positions, masses, workload.theta)
            total_interactions = 0
            for body in my_bodies:
                acc, interactions = forces.acceleration(int(body))
                total_interactions += interactions
                ctx.aput(shared["ax"], int(body), acc[0])
                ctx.aput(shared["ay"], int(body), acc[1])
                ctx.aput(shared["az"], int(body), acc[2])
                ctx.aput(shared["work"], int(body), float(interactions))
            if total_interactions:
                ctx.account_accesses(
                    shared["tree_mass"],
                    int(ACCESSES_PER_INTERACTION * total_interactions * scale),
                )
                ctx.compute(
                    flops=FLOPS_PER_INTERACTION * total_interactions * scale,
                    int_ops=INT_OPS_PER_INTERACTION * total_interactions * scale,
                    mem_seconds=MEM_SECONDS_PER_INTERACTION * total_interactions * scale,
                )
            yield from ctx.barrier(barrier)

            # -- phase 3: integrate the bodies this thread owns ----------------
            if len(owned):
                lo, hi = owned.start, owned.stop
                ax = ctx.aget_range(shared["ax"], lo, hi)
                ay = ctx.aget_range(shared["ay"], lo, hi)
                az = ctx.aget_range(shared["az"], lo, hi)
                vx = ctx.aget_range(shared["vx"], lo, hi) + workload.dt * ax
                vy = ctx.aget_range(shared["vy"], lo, hi) + workload.dt * ay
                vz = ctx.aget_range(shared["vz"], lo, hi) + workload.dt * az
                ctx.aput_range(shared["vx"], lo, hi, vx)
                ctx.aput_range(shared["vy"], lo, hi, vy)
                ctx.aput_range(shared["vz"], lo, hi, vz)
                px = ctx.aget_range(shared["px"], lo, hi) + workload.dt * vx
                py = ctx.aget_range(shared["py"], lo, hi) + workload.dt * vy
                pz = ctx.aget_range(shared["pz"], lo, hi) + workload.dt * vz
                ctx.aput_range(shared["px"], lo, hi, px)
                ctx.aput_range(shared["py"], lo, hi, py)
                ctx.aput_range(shared["pz"], lo, hi, pz)
                ctx.compute(
                    flops=18.0 * len(owned) * scale,
                    mem_seconds=30e-9 * len(owned) * scale,
                )
            yield from ctx.barrier(barrier)
        return None

    # ------------------------------------------------------------------
    def main(self, ctx, workload: BarnesWorkload) -> Generator:
        """Allocate the body and tree arrays, run the simulation."""
        runtime = ctx.runtime
        n = workload.bodies
        count = self.worker_count(ctx)
        init = initial_bodies(workload)

        def shared_array(element_type: str = "double", length: int = n):
            return ctx.new_array(element_type, length, home_node=0, page_aligned=True)

        max_cells = 3 * n + 16
        shared = {
            "mass": shared_array(),
            "px": shared_array(),
            "py": shared_array(),
            "pz": shared_array(),
            "vx": shared_array(),
            "vy": shared_array(),
            "vz": shared_array(),
            "ax": shared_array(),
            "ay": shared_array(),
            "az": shared_array(),
            "work": shared_array(),
            "assign": shared_array("int"),
            "tree_mass": shared_array("double", max_cells),
            "tree_comx": shared_array("double", max_cells),
            "tree_comy": shared_array("double", max_cells),
            "tree_comz": shared_array("double", max_cells),
            "tree_half": shared_array("double", max_cells),
            "tree_leaf": shared_array("long", max_cells),
            "tree_children": shared_array("long", max_cells * 8),
        }
        meta_class = runtime.java_class("BarnesMeta", ["tree_cells"])
        shared["meta"] = ctx.new_object(meta_class, home_node=0)
        ctx.put(shared["meta"], "tree_cells", 0)

        ctx.aput_range(shared["mass"], 0, n, init["mass"])
        ctx.aput_range(shared["px"], 0, n, init["pos"][:, 0])
        ctx.aput_range(shared["py"], 0, n, init["pos"][:, 1])
        ctx.aput_range(shared["pz"], 0, n, init["pos"][:, 2])
        ctx.aput_range(shared["vx"], 0, n, init["vel"][:, 0])
        ctx.aput_range(shared["vy"], 0, n, init["vel"][:, 1])
        ctx.aput_range(shared["vz"], 0, n, init["vel"][:, 2])

        barrier = runtime.create_barrier(count, name="barnes-barrier")
        threads = self.spawn_workers(ctx, self.worker, count, workload, shared, barrier)
        yield from self.join_all(ctx, threads)

        positions = np.stack(
            [
                ctx.aget_range(shared["px"], 0, n),
                ctx.aget_range(shared["py"], 0, n),
                ctx.aget_range(shared["pz"], 0, n),
            ],
            axis=1,
        )
        velocities = np.stack(
            [
                ctx.aget_range(shared["vx"], 0, n),
                ctx.aget_range(shared["vy"], 0, n),
                ctx.aget_range(shared["vz"], 0, n),
            ],
            axis=1,
        )
        masses = ctx.aget_range(shared["mass"], 0, n)
        com = (masses[:, None] * positions).sum(axis=0) / masses.sum()
        return {
            "positions": positions,
            "velocities": velocities,
            "center_of_mass": com,
            "checksum": float(np.abs(positions).sum()),
        }

    # ------------------------------------------------------------------
    def verify(self, result, workload: BarnesWorkload) -> bool:
        """Compare against the same algorithm run without the DSM."""
        if not isinstance(result, dict) or "positions" not in result:
            return False
        if not np.all(np.isfinite(result["positions"])):
            return False
        reference = reference_simulation(workload)
        return bool(
            np.allclose(result["positions"], reference["positions"], atol=1e-9)
            and np.allclose(result["velocities"], reference["velocities"], atol=1e-9)
        )
