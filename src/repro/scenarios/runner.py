"""The synthetic application: replaying generated access scripts.

:class:`SyntheticApplication` is the bridge between the scenario subsystem
and the rest of the harness: it is a normal
:class:`~repro.apps.base.Application`, so everything built for the paper
benchmarks — ``ExperimentSpec``, ``ExperimentMatrix``, ``Session``, the
result cache, the parallel executor, figures and the CLI — drives generated
scenarios without special cases.  Its ``main`` generates the pattern's
script (seeded by the workload), materialises the declared layout on the
distributed heap and replays one op sequence per worker thread, exactly like
``Application.main`` does for hand-written benchmark bodies.
"""

from __future__ import annotations

import functools
from collections.abc import Generator
from typing import TYPE_CHECKING

from repro.apps.base import Application
from repro.scenarios.script import AccessScript, materialise_layout, replay_thread

if TYPE_CHECKING:  # pragma: no cover
    from repro.scenarios.registry import ScenarioPattern

#: generated scripts kept per process.  Above the distinct scripts of any
#: benchmark pass (21 in the ``scenarios`` workload, 7 in ``scale``), so
#: repeated runs always hit; the cap keeps a long-lived ``serve`` bounded.
SCRIPT_CACHE_SIZE = 64


@functools.lru_cache(maxsize=SCRIPT_CACHE_SIZE)
def _cached_script(
    pattern: ScenarioPattern, workload, num_threads: int, num_nodes: int
) -> AccessScript:
    """Generate and validate one script, memoised in a bounded LRU.

    Scripts are pure functions of the key (generators are seeded by the
    workload) and :class:`AccessScript` is a frozen dataclass, so sharing one
    validated instance across repeated runs of the same spec is safe — and it
    removes the generate+validate cost from every run after the first.  A
    built-in generator's script arrives validated by ``ScriptBuilder.build``,
    so the ``validate()`` here is a no-op for it and a real check only for a
    custom pattern that returns an unvalidated script.
    """
    return pattern.generate(workload, num_threads, num_nodes).validate()


class SyntheticApplication(Application):
    """A generated scenario behaving like one of the paper benchmarks.

    Subclasses are created by :mod:`repro.scenarios.registry`, one per
    registered pattern, each carrying its ``pattern`` descriptor and a
    ``syn-*`` registry name.
    """

    name = "abstract-synthetic"
    #: the pattern descriptor (set by the registry on each subclass)
    pattern: "ScenarioPattern" = None  # type: ignore[assignment]

    # ------------------------------------------------------------------
    @classmethod
    def workload_from_preset(cls, preset) -> object:
        """Scale the pattern's workload like a paper app's preset entry.

        ``WorkloadPreset`` only carries the five paper workloads; scenarios
        map the preset's *scale name* (``bench`` / ``paper`` / ``testing``)
        onto their own preset classmethods instead, so
        ``ExperimentSpec(app="syn-...", workload="testing")`` resolves just
        like ``ExperimentSpec(app="pi", workload="testing")`` does.
        """
        return cls.pattern.workload_cls.for_scale(preset.name)

    # ------------------------------------------------------------------
    def build_script(self, workload, num_threads: int, num_nodes: int) -> AccessScript:
        """Generate and validate the scenario's script (pure, seeded).

        The result is memoised (:func:`_cached_script`): the generators are
        deterministic in ``(workload, num_threads, num_nodes)`` and the script
        is immutable, so repeated runs of the same spec (sweeps, benchmark
        repetitions) reuse one already-validated instance.
        """
        try:
            hash(workload)
        except TypeError:  # unhashable workload override — just regenerate
            return self.pattern.generate(workload, num_threads, num_nodes).validate()
        return _cached_script(self.pattern, workload, num_threads, num_nodes)

    # ------------------------------------------------------------------
    def _worker(
        self, ctx, index: int, count: int, workload, script, entities, barrier
    ) -> Generator:
        """One worker thread: replay its op sequence."""
        executed = yield from replay_thread(
            ctx,
            script,
            index,
            entities,
            barrier,
            work_multiplier=workload.work_multiplier,
        )
        return executed

    def main(self, ctx, workload) -> Generator:
        """Generate the script, build the layout, spawn and join the workers."""
        runtime = ctx.runtime
        count = self.worker_count(ctx)
        script = self.build_script(workload, count, runtime.num_nodes)
        entities = materialise_layout(ctx, script)
        barrier = (
            runtime.create_barrier(count, name=f"{self.name}-barrier")
            if script.uses_barrier
            else None
        )
        threads = self.spawn_workers(
            ctx, self._worker, count, workload, script, entities, barrier
        )
        executed = yield from self.join_all(ctx, threads)
        return {
            "pattern": self.pattern.key,
            "ops_executed": int(sum(executed)),
            "ops_expected": script.op_count(),
            "threads": count,
        }

    # ------------------------------------------------------------------
    def verify(self, result, workload) -> bool:
        """Every scripted op must have executed, no more and no fewer."""
        if not isinstance(result, dict):
            return False
        return (
            result.get("ops_expected", -1) == result.get("ops_executed", -2)
            and result.get("ops_executed", 0) > 0
        )
