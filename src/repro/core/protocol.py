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
``java_ic_mig``, ``java_ic_loc``) is registered exactly that way by the
table at the end of this module — while :func:`register_protocol` still
accepts plain factories for fully custom protocol classes.
"""

from __future__ import annotations

from abc import abstractmethod
from contextlib import contextmanager
from collections.abc import Callable, Iterable, Iterator, Sequence

from repro.cluster.costs import CostModel
from repro.core.context import AccessContext
from repro.core.detection import (
    DetectionStrategy,
    HoistedCheckDetection,
    HybridDetection,
    InlineCheckDetection,
    PageFaultDetection,
    detection_by_name,
)
from repro.core.home_policy import (
    FixedHomePolicy,
    HomePolicy,
    LocalityAwareHomePolicy,
    MigratoryHomePolicy,
    home_policy_by_name,
)
from repro.dsm.page_manager import PageManager
from repro.dsm.protocol_api import DsmProtocolHooks


class ConsistencyProtocol(DsmProtocolHooks):
    """Base class for Java-consistency protocols over DSM-PM2.

    ``detect_access`` is the exact per-access path: the memory subsystem
    calls it for every access its fused plan (:meth:`access_fast_plan`) does
    not charge itself.  The constructor precomputes the flat handles both
    need — the page→home map, the per-node presence sets and the cost
    constants — instead of chasing them through ``self.page_manager.…`` /
    ``self.cost_model.…`` attribute chains on every access.  The test suite
    pins the plan against ``detect_access`` via :func:`reference_detection`.
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
        #: whether ``_fetch`` must announce each arrived page: only a
        #: subclass that overrides the no-op hook listens
        self._receives_pages = (
            type(self).on_page_received is not DsmProtocolHooks.on_page_received
        )

    # ------------------------------------------------------------------
    # common helpers
    # ------------------------------------------------------------------
    def _fetch(self, ctx: AccessContext, node_id: int, missing: Sequence[int]) -> float:
        """Fetch *missing* pages to *node_id*, charging the request latency."""
        latency = self.page_manager.fetch_pages(node_id, missing)
        ctx.charge_wait(latency)
        if self._receives_pages:
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

    def access_fast_plan(self) -> str | None:
        """Fast-plan key for fused memory-side access charging, or None.

        Non-None only when the protocol can prove that the memory
        subsystem's inline charging of resident accesses (its charge
        block ``_charge_accesses``, the prepared range updater and script
        segments), followed by :meth:`write_observer` on
        writes, is byte-identical to routing every access through
        :meth:`detect_access` (see ``DetectionStrategy.access_fast_plan``).
        Plain protocols, and every protocol built inside
        :func:`reference_detection`, refuse.
        """
        return None

    def write_observer(self):
        """The ``note_write(ctx, node_id, pages)`` hook writes must reach.

        None when no layer observes writes (fixed homes).  The fused access
        path calls the hook itself after charging a resident write, where
        :meth:`detect_access` would have called it.
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
    their entry points onto the instance and contributes nothing to the
    per-access cost itself.  With a fixed home policy the instance's
    ``detect_access`` *is* the strategy's bound method.  A policy that
    observes writes gets a minimal closure wrapping the strategy call, and
    the memory layer's fused path calls the policy's hook itself
    (:meth:`write_observer`); those calls are the only hot-path price of
    migratory homes, and only protocols composed with such a policy pay it.
    The fast plan is the strategy's, unless the protocol was built inside
    :func:`reference_detection`.
    """

    def __init__(
        self,
        page_manager: PageManager,
        cost_model: CostModel,
        detection: type[DetectionStrategy],
        home_policy: type[HomePolicy],
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
        self._exact_only = _exact_depth > 0
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

    def on_monitor_enter(self, ctx: AccessContext, node_id: int) -> None:  # type: ignore[override]
        self.detection.on_monitor_enter(ctx, node_id)

    def access_fast_plan(self) -> str | None:
        """Delegate to the detection layer (None if built as an oracle).

        A policy that observes writes (migratory homes) does not refuse:
        the fused path calls its ``note_write`` through
        :meth:`write_observer` after every resident write, and takes the
        exact path for multi-page spans, whose pages may have been re-homed
        apart.
        """
        if self._exact_only:
            return None
        return self.detection.access_fast_plan()

    def write_observer(self):
        policy = self.home_policy
        return policy.note_write if policy.observes_writes else None

    def detection_strategy(self):
        return self.detection

    def attach_migration(self, migration) -> None:
        """Forward the runtime's migration manager to the home policy."""
        self.home_policy.attach_migration(migration)


#: depth of nested :func:`reference_detection` contexts
_exact_depth = 0


@contextmanager
def reference_detection() -> Iterator[None]:
    """Build every protocol inside the context on the exact detection path.

    Protocols created within the context report no fast plan
    (:meth:`ConsistencyProtocol.access_fast_plan` is None), so runtimes
    built around them route every access through the strategy's
    ``detect_access`` instead of the memory subsystem's fused charging.
    The determinism test suite runs cells under both and asserts
    byte-identical :meth:`~repro.hyperion.runtime.ExecutionReport.to_dict`
    output, which is the regression oracle for every fast-path change.
    Contexts nest; the switch is restored in a ``finally`` block, so
    protocols built after the outermost context exits get their plan back
    even when the body raises.
    """
    global _exact_depth
    _exact_depth += 1
    try:
        yield
    finally:
        _exact_depth -= 1


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
ProtocolFactory = Callable[[PageManager, CostModel], ConsistencyProtocol]

_REGISTRY: dict[str, ProtocolFactory] = {}


class ComposedProtocolFactory:
    """Registry entry of a composed protocol: its name and its two layers.

    Calling the factory builds the :class:`ComposedProtocol`; keeping the
    layer classes inspectable lets the CLI's ``protocols`` listing show how
    each name decomposes.
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
    key = name.lower()
    try:
        factory = _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown protocol {name!r}; available: {known}") from None
    return factory(page_manager, cost_model)


def available_protocols() -> list[str]:
    """Names of all registered protocols."""
    return sorted(_REGISTRY)


def protocol_composition(name: str) -> dict[str, str] | None:
    """The layer names of a composed protocol, or None for plain factories.

    Returns ``{"detection": ..., "home_policy": ...}`` for names registered
    through :func:`register_composed`; protocols registered as plain
    factories (fully custom classes) have no inspectable layers.
    """
    factory = _REGISTRY.get(name.lower())
    if isinstance(factory, ComposedProtocolFactory):
        return {
            "detection": factory.detection_class.name,
            "home_policy": factory.home_policy_class.name,
        }
    return None


# ---------------------------------------------------------------------------
# the built-in protocol family: one (detection, home policy) pair per name
# ---------------------------------------------------------------------------
# java_ic — paper Section 3.2.  Every get/put executes an explicit check
# of whether the object has a copy on the local node; if it does not,
# the page containing it is brought into the local cache.  No page is
# ever protected, so remote-object loading never involves a page fault
# or an mprotect call; the price is one check per access, local or remote.
register_composed("java_ic", InlineCheckDetection, FixedHomePolicy)

# java_pf — paper Section 3.3.  Pages are READ/WRITE only on their home
# node and protected elsewhere, with protection re-established on each
# monitor entry.  The first access to a non-resident page faults; the
# handler requests the page from its home and re-opens access with
# mprotect.  Local accesses cost nothing extra.
register_composed("java_pf", PageFaultDetection, FixedHomePolicy)

# java_ic_hoisted — in-line checks with compiler-style check hoisting:
# when a loop provably accesses one object (e.g. one Java array) the
# check moves out of the loop and is paid once per bulk access instead
# of once per element.  Against java_ic and java_pf it measures how much
# of java_pf's win a smarter compiler could have recovered.
register_composed("java_ic_hoisted", HoistedCheckDetection, FixedHomePolicy)

# java_hybrid — adaptive per-page detection: every (node, page) starts
# under in-line checks and is promoted to fault-based handling once the
# node has observed enough accesses to it.  Dense pages stop paying the
# per-access check, sparse pages never pay fault setup (paper Section 6).
register_composed("java_hybrid", HybridDetection, FixedHomePolicy)

# java_ic_mig — in-line checks over migratory homes: a page written
# exclusively and repeatedly by one remote node is re-homed to it, after
# which that node's accesses are local and its replica survives
# invalidations.  Exercises the PM2 migration machinery the paper lists
# as future work.
register_composed("java_ic_mig", InlineCheckDetection, MigratoryHomePolicy)

# java_ic_loc — in-line checks over locality-aware homes: on
# hierarchical topologies a page repeatedly written from outside its
# home's island is pulled into the writer's island, so the backbone link
# stops carrying its transfers.  On the paper's single-switch platforms
# it behaves exactly like java_ic modulo the never-firing write observer.
register_composed("java_ic_loc", InlineCheckDetection, LocalityAwareHomePolicy)
