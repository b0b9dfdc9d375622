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

import threading
from collections import OrderedDict
from collections.abc import Generator
from typing import TYPE_CHECKING

from repro.apps.base import Application
from repro.scenarios.script import AccessScript, materialise_layout, replay_thread

if TYPE_CHECKING:  # pragma: no cover
    from repro.scenarios.registry import ScenarioPattern

#: scripted ops the process-wide script memo may hold.  A generated script
#: costs about 88 bytes an op as Python objects and its compiled segments,
#: kept on it once replayed, about 27 more, so this is about 9 MB of scripts,
#: 11.5 MB with their segments.  Ops, not entries, because script sizes
#: span three orders of magnitude (a 1024-node ``scale`` script is up to 92k
#: ops): a count cap bounds no bytes.  Every script a ``scenarios`` or
#: ``scale`` pass reuses is replayed by back-to-back cells, so the budget
#: only has to hold the newest few.
SCRIPT_MEMO_OPS = 100_000


class ScriptMemo:
    """Generated, validated scripts by ``(pattern, workload, num_threads, num_nodes)``.

    Scripts are pure functions of the key (generators are seeded by the
    workload) and :class:`AccessScript` is a frozen dataclass, so sharing one
    validated instance across repeated runs of the same spec is safe — and it
    removes the generate+validate cost from every run after the first.  A
    built-in generator's script arrives validated by ``ScriptBuilder.build``,
    so the ``validate()`` here is a no-op for it and a real check only for a
    custom pattern that returns an unvalidated script.

    The least recently used scripts are evicted while the held ops exceed
    *budget_ops*; the newest script is always kept, even when it alone is
    larger.  ``serve``'s worker threads share the memo: a lock guards the
    entries, and a script is generated outside it, so two threads missing
    one key at once may both generate it (equal scripts; the first stored
    is kept).
    """

    def __init__(self, budget_ops: int) -> None:
        self.budget_ops = budget_ops
        #: key -> script, least recently used first
        self._entries: OrderedDict[tuple, AccessScript] = OrderedDict()
        self._ops = 0
        self._lock = threading.Lock()

    def get(
        self, pattern: ScenarioPattern, workload, num_threads: int, num_nodes: int
    ) -> AccessScript:
        """The script of the key, generated and validated on a miss."""
        key = (pattern, workload, num_threads, num_nodes)
        with self._lock:
            held = self._held(key)
        if held is not None:
            return held
        script = pattern.generate(workload, num_threads, num_nodes).validate()
        with self._lock:
            held = self._held(key)
            if held is not None:  # another thread stored it meanwhile
                return held
            self._entries[key] = script
            self._ops += script.op_count()
            while self._ops > self.budget_ops and len(self._entries) > 1:
                self._ops -= self._entries.popitem(last=False)[1].op_count()
        return script

    def _held(self, key: tuple) -> AccessScript | None:
        """The script held for *key*, now the most recently used (lock held)."""
        script = self._entries.get(key)
        if script is not None:
            self._entries.move_to_end(key)
        return script

    def held_ops(self) -> int:
        """Scripted ops the memo holds now."""
        return self._ops

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every script."""
        with self._lock:
            self._entries.clear()
            self._ops = 0


#: the process-wide script memo behind :meth:`SyntheticApplication.build_script`
script_memo = ScriptMemo(SCRIPT_MEMO_OPS)


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

        The result is memoised (:data:`script_memo`): the generators are
        deterministic in ``(workload, num_threads, num_nodes)`` and the script
        is immutable, so repeated runs of the same spec (sweeps, benchmark
        repetitions) reuse one already-validated instance.
        """
        try:
            hash(workload)
        except TypeError:  # unhashable workload override — just regenerate
            return self.pattern.generate(workload, num_threads, num_nodes).validate()
        return script_memo.get(self.pattern, workload, num_threads, num_nodes)

    # ------------------------------------------------------------------
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
        # each worker runs the replay generator itself: no forwarding frame
        threads = [
            ctx.spawn(
                replay_thread, script, index, entities, barrier, workload.work_multiplier,
                name=f"worker-{index}", index=index,
            )
            for index in range(count)
        ]
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
