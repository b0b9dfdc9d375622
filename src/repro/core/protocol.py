"""Consistency-protocol composition and registry.

The paper's closing argument (Section 6) is that DSM-PM2's customisability
makes new consistency protocols cheap to build.  This module takes that
seriously: a protocol is no longer one monolithic class but the
*composition* of two orthogonal layers —

* a :class:`~repro.core.detection.DetectionStrategy`: how accesses to
  non-resident objects are noticed and charged (in-line checks, page
  faults, hoisted checks, the adaptive hybrid);
* a :class:`~repro.core.home_policy.HomePolicy`: where a page's reference
  copy lives (fixed at allocation, or migrating toward an exclusive
  writer).

:class:`ConsistencyProtocol` keeps the shared home-based Java-consistency
mechanics and the precomputed fast-path handles; :class:`ComposedProtocol`
is the thin composer gluing one strategy and one policy into a protocol
instance.  The registry makes protocols selectable by name from the runtime
and the experiment harness: :func:`register_composed` declares a new
protocol as a (detection, home-policy) pair — the built-in family
(``java_ic``, ``java_pf``, ``java_ic_hoisted``, ``java_hybrid``,
``java_ic_mig``) is registered exactly that way by
:mod:`repro.core.java_ic`, :mod:`repro.core.java_pf` and
:mod:`repro.core.extra` — while :func:`register_protocol` still accepts
plain factories for fully custom protocol classes.
"""

from __future__ import annotations

from abc import abstractmethod
from contextlib import contextmanager
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import TYPE_CHECKING

from repro.cluster.costs import CostModel
from repro.core.context import AccessContext
from repro.dsm.page_manager import PageManager
from repro.dsm.protocol_api import DsmProtocolHooks

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.detection import DetectionStrategy
    from repro.core.home_policy import HomePolicy


class ConsistencyProtocol(DsmProtocolHooks):
    """Base class for Java-consistency protocols over DSM-PM2.

    ``detect_access`` is the single hottest call of a simulation (one call
    per ``get``/``put``/bulk access), so the constructor precomputes the flat
    handles the fast path needs — the page→home map, the per-node presence
    sets and the cost constants — instead of chasing them through
    ``self.page_manager.…`` / ``self.cost_model.…`` attribute chains on
    every access.  Detection implementations keep their original, readable
    twin as ``detect_access_reference``; the two are semantically identical
    (same counters, same charges in the same order) and the test suite pins
    them against each other via :func:`reference_detection`.
    """

    name = "abstract"
    uses_page_faults = False
    #: one-line mechanism fragment for :meth:`describe`; composed protocols
    #: take it from their detection strategy, plain subclasses may set it —
    #: when left None the legacy ``uses_page_faults``-derived wording is used
    mechanism: str | None = None

    def __init__(self, page_manager: PageManager, cost_model: CostModel):
        self.page_manager = page_manager
        self.cost_model = cost_model
        self.stats = page_manager.stats
        # -- precomputed fast-path handles (see class docstring) --
        self._home_by_page = page_manager._home_by_page
        self._tables = page_manager.tables
        #: CPU frequency; fast paths compute seconds as ``cycles / _freq``,
        #: the exact arithmetic of ``MachineSpec.seconds_for_cycles``
        self._freq = cost_model.machine.frequency_hz
        self._check_cycles = cost_model.software.inline_check_cycles
        #: constant per-miss software overhead (same float the cost model
        #: produces: it is the identical expression, evaluated once)
        self._miss_overhead_s = cost_model.cache_miss_overhead_seconds()
        self._page_fault_s = cost_model.software.page_fault_seconds
        self._mprotect_s = cost_model.software.mprotect_seconds

    # ------------------------------------------------------------------
    # common helpers
    # ------------------------------------------------------------------
    def _account_accesses(self, node_id: int, pages: Sequence[int], count: int) -> None:
        """Record access counters shared by all protocols."""
        stats = self.stats
        stats.accesses += count
        home = self._home_by_page
        try:
            for page in pages:
                if home[page] != node_id:
                    stats.remote_accesses += count
                    break
        except KeyError:
            raise KeyError(f"page {page} has not been registered") from None

    def _fetch(self, ctx: AccessContext, node_id: int, missing: Sequence[int]) -> float:
        """Fetch *missing* pages to *node_id*, charging the request latency."""
        latency = self.page_manager.fetch_pages(node_id, missing)
        ctx.charge_wait(latency)
        for page in missing:
            self.on_page_received(ctx, node_id, page)
        return latency

    # ------------------------------------------------------------------
    # interface completion
    # ------------------------------------------------------------------
    @abstractmethod
    def detect_access(
        self,
        ctx: AccessContext,
        node_id: int,
        pages: Iterable[int],
        count: int,
        write: bool,
    ) -> int:
        raise NotImplementedError

    @abstractmethod
    def on_monitor_enter(self, ctx: AccessContext, node_id: int) -> None:
        raise NotImplementedError

    def detect_access_reference(
        self,
        ctx: AccessContext,
        node_id: int,
        pages: Iterable[int],
        count: int,
        write: bool,
    ) -> int:
        """Unoptimized twin of :meth:`detect_access` (same counters/charges).

        Detection strategies (and plain protocol subclasses) override this
        with their original, readable implementation; the base class falls
        back to ``detect_access`` so protocols without a dedicated reference
        path still work under :func:`reference_detection`.
        """
        return self.detect_access(ctx, node_id, pages, count, write)

    def access_fast_plan(self) -> str | None:
        """Fast-plan key for fused memory-side access charging, or None.

        Non-None only when the protocol can prove that the memory
        subsystem's inline charging of resident accesses (its scalar
        ``get``/``put`` fast paths, ``_fused_range_charges`` and the
        prepared range updater) is byte-identical to routing every access
        through :meth:`detect_access` (see
        ``DetectionStrategy.access_fast_plan``).  Plain protocols refuse.
        """
        return None

    def detection_strategy(self):
        """The detection layer instance for composed protocols (else None)."""
        return None

    def describe(self) -> str:
        """One-line description used in reports.

        The mechanism wording comes from the detection layer
        (:attr:`mechanism`); only protocols that predate the layered design
        and set neither fall back to deriving it from the
        ``uses_page_faults`` flag — which would be wrong for hybrid or
        composed mechanisms.
        """
        mechanism = self.mechanism
        if mechanism is None:
            mechanism = "page faults" if self.uses_page_faults else "in-line checks"
        return f"{self.name}: Java consistency with access detection via {mechanism}"


class ComposedProtocol(ConsistencyProtocol):
    """A protocol assembled from a detection strategy and a home policy.

    The composer is deliberately thin: it instantiates the two layers, lifts
    their hot-path entry points onto the instance and contributes nothing to
    the per-access cost itself.  With a fixed home policy the instance's
    ``detect_access`` *is* the strategy's bound method — exactly the code
    (and the number of attribute hops) the former monolithic protocols ran.
    A policy that observes writes gets a minimal closure wrapping the
    strategy call; that closure is the only hot-path price of migratory
    homes, and only protocols composed with such a policy pay it.
    """

    def __init__(
        self,
        page_manager: PageManager,
        cost_model: CostModel,
        detection: type["DetectionStrategy"],
        home_policy: type["HomePolicy"],
        name: str,
    ):
        super().__init__(page_manager, cost_model)
        self.name = name
        self.detection = detection(self)
        self.home_policy = home_policy(self)
        self.uses_page_faults = self.detection.uses_page_faults
        mechanism = self.detection.mechanism
        policy_fragment = self.home_policy.mechanism
        if policy_fragment:
            mechanism = f"{mechanism}, {policy_fragment}"
        self.mechanism = mechanism
        # -- lift the layer entry points onto the instance (hot path) --
        detect = self.detection.detect_access
        if self.home_policy.observes_writes:
            note_write = self.home_policy.note_write

            def detect_with_policy(ctx, node_id, pages, count, write,
                                   _detect=detect, _note=note_write):
                fetched = _detect(ctx, node_id, pages, count, write)
                if write:
                    _note(ctx, node_id, pages)
                return fetched

            self.detect_access = detect_with_policy
        else:
            self.detect_access = detect
        self.on_monitor_enter = self.detection.on_monitor_enter

    # The class-level implementations only run when a caller goes through
    # the class (the instance attributes above shadow them); they delegate
    # to the same layer methods.
    def detect_access(  # type: ignore[override]
        self,
        ctx: AccessContext,
        node_id: int,
        pages: Iterable[int],
        count: int,
        write: bool,
    ) -> int:
        return self.detection.detect_access(ctx, node_id, pages, count, write)

    def detect_access_reference(
        self,
        ctx: AccessContext,
        node_id: int,
        pages: Iterable[int],
        count: int,
        write: bool,
    ) -> int:
        fetched = self.detection.detect_access_reference(
            ctx, node_id, pages, count, write
        )
        if write and self.home_policy.observes_writes:
            self.home_policy.note_write(ctx, node_id, pages)
        return fetched

    def on_monitor_enter(self, ctx: AccessContext, node_id: int) -> None:  # type: ignore[override]
        self.detection.on_monitor_enter(ctx, node_id)

    def access_fast_plan(self) -> str | None:
        """Delegate to the detection layer; write-observing policies refuse.

        A policy that observes writes (migratory homes) hooks every write
        through ``note_write`` — fusing accesses around that hook would skip
        its bookkeeping, so such compositions always take the exact path.
        """
        if self.home_policy.observes_writes:
            return None
        return self.detection.access_fast_plan()

    def detection_strategy(self):
        return self.detection

    def attach_migration(self, migration) -> None:
        """Forward the runtime's migration manager to the home policy."""
        self.home_policy.attach_migration(migration)


@contextmanager
def reference_detection() -> Iterator[None]:
    """Swap every registered protocol onto its reference detection path.

    Within the context, newly created protocol instances (and runtimes built
    around them) use ``detect_access_reference`` — the original per-access
    implementation — instead of the precomputed fast path.  The determinism
    test suite runs one cell per application under both paths and asserts
    byte-identical :meth:`~repro.hyperion.runtime.ExecutionReport.to_dict`
    output, which is the regression oracle for every fast-path change.

    Composed protocols are patched at their *detection-strategy* classes
    (:class:`ComposedProtocol` binds the strategy's current class attribute
    at construction time); plain :class:`ConsistencyProtocol` subclasses
    registered directly keep being patched as before.  Restoration runs in a
    ``finally`` block, so the fast path comes back even when the context
    body — or the patching pass itself — raises.
    """
    _ensure_builtins()
    patched: list[tuple] = []
    try:
        seen = set()
        for factory in _REGISTRY.values():
            for klass in _detection_bearing_classes(factory):
                if klass in seen:
                    continue
                seen.add(klass)
                if "detect_access_reference" in klass.__dict__:
                    patched.append((klass, klass.__dict__.get("detect_access")))
                    klass.detect_access = klass.__dict__["detect_access_reference"]
        yield
    finally:
        for klass, original in patched:
            if original is None:
                try:
                    del klass.detect_access
                except AttributeError:  # pragma: no cover - defensive
                    pass
            else:
                klass.detect_access = original


def _detection_bearing_classes(factory) -> list[type]:
    """Classes of *factory* that may carry a swappable ``detect_access``."""
    from repro.core.detection import DetectionStrategy

    if isinstance(factory, ComposedProtocolFactory):
        root: type | None = factory.detection_class
        stop = DetectionStrategy
    elif isinstance(factory, type) and issubclass(factory, ConsistencyProtocol):
        root, stop = factory, ConsistencyProtocol
    else:
        return []
    return [klass for klass in root.__mro__ if klass is not stop and klass is not object]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
ProtocolFactory = Callable[[PageManager, CostModel], ConsistencyProtocol]

_REGISTRY: dict[str, ProtocolFactory] = {}


class ComposedProtocolFactory:
    """Registry entry of a composed protocol: its name and its two layers.

    Calling the factory builds the :class:`ComposedProtocol`; keeping the
    layer classes inspectable is what lets :func:`reference_detection` patch
    the right detection class and lets the CLI's ``protocols`` listing show
    how each name decomposes.
    """

    __slots__ = ("protocol_name", "detection_class", "home_policy_class")

    def __init__(self, name: str, detection_class: type, home_policy_class: type):
        self.protocol_name = name
        self.detection_class = detection_class
        self.home_policy_class = home_policy_class

    def __call__(self, page_manager: PageManager, cost_model: CostModel) -> ComposedProtocol:
        return ComposedProtocol(
            page_manager,
            cost_model,
            detection=self.detection_class,
            home_policy=self.home_policy_class,
            name=self.protocol_name,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ComposedProtocolFactory({self.protocol_name!r}, "
            f"{self.detection_class.__name__} x {self.home_policy_class.__name__})"
        )


def register_protocol(
    name: str, factory: ProtocolFactory, allow_override: bool = False
) -> None:
    """Register a protocol factory under *name* (lower-cased).

    Re-registering an existing name raises ``ValueError`` unless
    ``allow_override=True``, which lets tests and extension modules that may
    be imported more than once replace their own registration instead of
    tripping on it.
    """
    key = name.lower()
    if key in _REGISTRY and not allow_override:
        raise ValueError(f"protocol {name!r} is already registered")
    _REGISTRY[key] = factory


def register_composed(
    name: str,
    detection: str | type,
    home_policy: str | type = "fixed",
    allow_override: bool = False,
) -> ComposedProtocolFactory:
    """Register *name* as the composition of a detection and a home policy.

    ``detection`` and ``home_policy`` accept either the layer classes
    themselves or their registered layer names (``"inline_check"``,
    ``"page_fault"``, ``"hoisted"``, ``"hybrid"`` / ``"fixed"``,
    ``"migratory"``).  This is the ten-line path to a new protocol the paper
    promises: pick two layers, give them a name::

        register_composed("java_pf_mig", "page_fault", "migratory")

    Returns the registered factory (whose ``detection_class`` /
    ``home_policy_class`` stay inspectable).
    """
    from repro.core.detection import DetectionStrategy, detection_by_name
    from repro.core.home_policy import HomePolicy, home_policy_by_name

    if isinstance(detection, str):
        detection = detection_by_name(detection)
    if not (isinstance(detection, type) and issubclass(detection, DetectionStrategy)):
        raise TypeError(
            f"detection must be a DetectionStrategy subclass or layer name, "
            f"got {detection!r}"
        )
    if isinstance(home_policy, str):
        home_policy = home_policy_by_name(home_policy)
    if not (isinstance(home_policy, type) and issubclass(home_policy, HomePolicy)):
        raise TypeError(
            f"home_policy must be a HomePolicy subclass or layer name, "
            f"got {home_policy!r}"
        )
    factory = ComposedProtocolFactory(name.lower(), detection, home_policy)
    register_protocol(name, factory, allow_override=allow_override)
    return factory


def unregister_protocol(name: str) -> bool:
    """Remove *name* from the registry; returns False if it was not there.

    Counterpart of :func:`register_protocol` for tests and extensions that
    register experimental protocols and want to clean up after themselves.
    Composed registrations are removed the same way — only the registry
    entry goes; the layer classes stay importable.
    """
    return _REGISTRY.pop(name.lower(), None) is not None


def create_protocol(
    name: str, page_manager: PageManager, cost_model: CostModel
) -> ConsistencyProtocol:
    """Instantiate the protocol registered under *name*."""
    # Importing the built-in protocols lazily avoids import cycles and makes
    # sure they are always available even if the caller imports this module
    # directly.
    _ensure_builtins()
    key = name.lower()
    try:
        factory = _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown protocol {name!r}; available: {known}") from None
    return factory(page_manager, cost_model)


def available_protocols() -> list[str]:
    """Names of all registered protocols."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def protocol_composition(name: str) -> dict[str, str] | None:
    """The layer names of a composed protocol, or None for plain factories.

    Returns ``{"detection": ..., "home_policy": ...}`` for names registered
    through :func:`register_composed`; protocols registered as plain
    factories (fully custom classes) have no inspectable layers.
    """
    _ensure_builtins()
    factory = _REGISTRY.get(name.lower())
    if isinstance(factory, ComposedProtocolFactory):
        return {
            "detection": factory.detection_class.name,
            "home_policy": factory.home_policy_class.name,
        }
    return None


def _ensure_builtins() -> None:
    # imported for their registration side effect
    from repro.core import extra, java_ic, java_pf  # noqa: F401
