"""Parameter sweeps backing the ablation experiments (A1-A4 in DESIGN.md).

Each ablation is a small experiment grid — {swept values} x {protocols} —
described declaratively by an :class:`Ablation` entry in :data:`ABLATIONS`
and executed through :meth:`repro.harness.session.Session.ablation`, so
sweeps share the matrix's node check, the executor parallelism, the result
cache and the :class:`CellResult` shape with the rest of the harness.
Adding a new ablation is one ``Ablation`` entry naming the swept field and
whether it is a runtime-config field or a cluster software cost.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.harness.session import CellResult
from repro.harness.spec import ExperimentSpec
from repro.hyperion.runtime import RuntimeConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.sanitizer import SanitizerReport


@dataclass
class SweepResult:
    """Execution times of one sweep, per protocol and parameter value."""

    parameter: str
    values: list[object]
    times: dict[tuple[str, object], float] = field(default_factory=dict)
    #: per-cell sanitizer reports, populated only when the sweep ran with
    #: ``sanitize=True`` (same ``(protocol, value)`` keys as ``times``)
    sanitizers: dict[tuple[str, object], "SanitizerReport"] = field(
        default_factory=dict
    )
    #: every cell of the sweep as the harness-wide common record, in
    #: (value-major, protocol-minor) grid order
    cells: list[CellResult] = field(default_factory=list)

    def series(self, protocol: str) -> list[tuple[object, float]]:
        """(value, seconds) series for one protocol."""
        return [(v, self.times[(protocol, v)]) for v in self.values]

    def crossover(self, first: str = "java_ic", second: str = "java_pf") -> object | None:
        """First swept value at which *first* becomes faster than *second*."""
        for value in self.values:
            if self.times[(first, value)] < self.times[(second, value)]:
                return value
        return None

    def to_dict(self) -> dict:
        """JSON-friendly form: the swept axis plus one entry per cell."""
        return {
            "parameter": self.parameter,
            "values": [repr(v) if isinstance(v, tuple) else v for v in self.values],
            "series": {
                protocol: [[value, seconds] for value, seconds in self.series(protocol)]
                for protocol in sorted({p for p, _ in self.times})
            },
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def render(self) -> str:
        """Text table of the sweep."""
        protocols = sorted({p for p, _ in self.times})
        lines = [f"sweep over {self.parameter}", ""]
        header = [self.parameter] + protocols
        lines.append("".join(str(h).rjust(14) for h in header))
        for value in self.values:
            row = [str(value)] + [f"{self.times[(p, value)]:.4f}" for p in protocols]
            lines.append("".join(cell.rjust(14) for cell in row))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the ablation registry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Ablation:
    """Declarative description of one named parameter sweep."""

    kind: str
    #: the swept field, also its display name (``SweepResult.parameter``):
    #: a :class:`RuntimeConfig` field, or a software cost of the cluster
    parameter: str
    #: the grid swept when the caller passes no explicit values
    default_values: tuple
    #: scalar type of a swept value (the CLI parses ``--values`` with it)
    value_type: type
    description: str
    #: True when :attr:`parameter` is a cluster software cost
    #: (``ClusterSpec.with_software``) rather than a runtime-config field
    software: bool = False

    def make_spec(self, spec: ExperimentSpec, value) -> ExperimentSpec:
        """The cell of *spec* with the swept field set to *value*."""
        if self.software:
            cluster = spec.resolved_cluster().with_software(**{self.parameter: value})
            return dataclasses.replace(spec, cluster=cluster)
        config = RuntimeConfig(protocol=spec.protocol, **{self.parameter: value})
        return dataclasses.replace(spec, config=config)


#: kind -> declarative sweep description, as exposed by ``Session.ablation``
#: and the ``hyperion-sim sweep`` subcommand
ABLATIONS: dict[str, Ablation] = {
    "page_size": Ablation(
        kind="page_size",
        parameter="page_size",
        default_values=(1024, 2048, 4096, 8192, 16384),
        value_type=int,
        description="A1: effect of the DSM page size (granularity / pre-fetching trade-off)",
    ),
    "check_cost": Ablation(
        kind="check_cost",
        parameter="inline_check_cycles",
        default_values=(2.0, 4.0, 8.0, 16.0, 32.0),
        value_type=float,
        description="A2: how expensive must the in-line check be for java_pf to win?",
        software=True,
    ),
    "threads": Ablation(
        kind="threads",
        parameter="threads_per_node",
        default_values=(1, 2, 4),
        value_type=int,
        description="A3: more than one application thread per node (paper future work)",
    ),
    "balancer": Ablation(
        kind="balancer",
        parameter="balancer",
        default_values=("round_robin", "block", "random"),
        value_type=str,
        description="A4: thread-placement policy of the load balancer",
    ),
}


def ablation_by_name(kind: str) -> Ablation:
    """Look up one :data:`ABLATIONS` entry, with a helpful error."""
    try:
        return ABLATIONS[kind]
    except KeyError:
        raise KeyError(
            f"unknown ablation {kind!r}; available: {', '.join(sorted(ABLATIONS))}"
        ) from None
