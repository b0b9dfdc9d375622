"""Repo-specific AST lint: determinism and hot-path conventions as rules.

Every performance PR in this repository has leaned on conventions that
generic linters cannot express: simulations must be bit-reproducible (so no
unseeded randomness and no wall-clock reads anywhere near the engine), the
per-access hot path keeps its objects ``__slots__``-packed, and serialised
output never depends on insertion order.  ``hyperion-sim lint`` mechanises
them:

=======  ==================================================================
HYP001   unseeded randomness: ``random.*`` / ``numpy.random.*`` calls that
         are not explicitly seeded constructions (``random.Random(seed)``,
         ``numpy.random.default_rng(seed)``, ...)
HYP002   wall-clock reads (``time.time``, ``datetime.now``, ...) outside
         the host-side profiling package (``repro/perf/``)
HYP003   a class in a designated hot-path module without ``__slots__``
         (dataclasses may use ``slots=True``); per-runtime singletons are
         exempt by name
HYP005   unsorted ``.items()``/``.keys()``/``.values()`` iteration inside a
         serialisation function (``to_dict``/``as_dict``/``*_jsonl``/...)
HYP006   direct ``print()`` in library code (``repro/`` outside the CLI and
         the report renderers) — user-facing output goes through
         :mod:`repro.util.logging` or the designated stdout surfaces
HYP007   a per-element ``ctx.get``/``ctx.put`` loop in scenario code
         (``repro/scenarios/``) — accesses are emitted as script ops
         (pre-grouped ``*_run`` ops for runs), which the interpreter
         replays a segment per memory call; the per-op spec of that
         replay is exempt by name
=======  ==================================================================

The linter is self-contained stdlib ``ast`` — no third-party dependency —
and is run in CI next to ruff; its rules are calibrated so the repository
lints clean (exemptions are explicit and named below, not implicit).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Iterable

#: modules (matched by path suffix) whose classes must be __slots__-packed:
#: their instances exist per page / per cached object / per event — the
#: most numerous objects of a run
HOT_PATH_MODULE_SUFFIXES = (
    "repro/dsm/page.py",
    "repro/dsm/page_manager.py",
    "repro/core/jmm.py",
    "repro/core/cache.py",
    "repro/hyperion/objects.py",
    "repro/hyperion/monitors.py",
    "repro/simulation/events.py",
)

#: per-runtime singletons living in hot-path modules: one instance per run,
#: so the per-instance footprint argument does not apply
HYP003_EXEMPT_CLASSES = frozenset(
    {
        "PageManager",  # one per runtime (directory + tables manager)
        "ObjectCache",  # one per node
        "MonitorManager",  # one per runtime
    }
)

#: seeded-construction call paths HYP001 allows (when given >= 1 argument)
SEEDED_CONSTRUCTORS = frozenset(
    {
        "random.Random",
        "random.SystemRandom",  # never used for simulation; host-side only
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.Generator",
        "numpy.random.PCG64",
        "numpy.random.SeedSequence",
    }
)

#: wall-clock call paths HYP002 flags
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: path fragments exempt from HYP002 (host-side measurement, not simulation)
HYP002_EXEMPT_FRAGMENTS = ("repro/perf/",)

#: path suffixes exempt from HYP006: the CLI and the report renderers are
#: the repository's designated stdout surfaces — everything else logs
HYP006_EXEMPT_SUFFIXES = (
    "repro/harness/cli.py",
    "repro/harness/report.py",
)

#: path fragments HYP007 polices: the scenario layer, whose interpreter owns
#: segment replay (the rest of the tree accesses memory through its own
#: layered entry points)
HYP007_PATH_FRAGMENTS = ("repro/scenarios/",)

#: per-access context calls HYP007 looks for inside loops
HYP007_ACCESS_METHODS = frozenset({"get", "put", "aget", "aput"})

#: functions exempt from HYP007 — the calibrated list of loops that are
#: per-element on purpose
HYP007_EXEMPT_FUNCTIONS = frozenset(
    {
        "_replay_ops",  # the per-op spec segment replay is pinned against
    }
)

#: function names HYP005 treats as serialisation producers
SERIALISATION_FUNCTIONS = frozenset(
    {
        "to_dict",
        "as_dict",
        "to_json",
        "to_jsonl",
        "write_jsonl",
        "canonical_dict",
    }
)


@dataclass(slots=True, frozen=True)
class LintFinding:
    """One lint diagnostic, pointing at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def _normalized(path: str) -> str:
    return path.replace("\\", "/")


def _dotted_path(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """Resolve a Name/Attribute chain to a dotted path, applying import aliases."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


def _collect_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted module path they stand for."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                aliases[name.asname or name.name.split(".")[0]] = (
                    name.name if name.asname else name.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for name in node.names:
                if name.name == "*":
                    continue
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases


def _has_slots(klass: ast.ClassDef) -> bool:
    """True when *klass* declares ``__slots__`` or is a slots dataclass."""
    for stmt in klass.body:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    for decorator in klass.decorator_list:
        if isinstance(decorator, ast.Call):
            for keyword in decorator.keywords:
                if (
                    keyword.arg == "slots"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    return True
    return False


def _is_plain_data_class(klass: ast.ClassDef) -> bool:
    """True for enums and exceptions, which cannot or need not carry slots."""
    for base in klass.bases:
        name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
        if "Enum" in name or "Exception" in name or name.endswith("Error"):
            return True
    return False


# ---------------------------------------------------------------------------
# the linter
# ---------------------------------------------------------------------------
class _Linter(ast.NodeVisitor):
    def __init__(self, path: str, tree: ast.Module):
        self.path = _normalized(path)
        self.aliases = _collect_aliases(tree)
        self.findings: list[LintFinding] = []
        self._hot_module = any(
            self.path.endswith(suffix) for suffix in HOT_PATH_MODULE_SUFFIXES
        )
        self._wall_clock_exempt = any(
            fragment in self.path for fragment in HYP002_EXEMPT_FRAGMENTS
        )
        # HYP006 only polices library code: the rule targets repro/ modules
        # and skips the designated stdout surfaces
        self._print_exempt = "repro/" not in self.path or any(
            self.path.endswith(suffix) for suffix in HYP006_EXEMPT_SUFFIXES
        )
        self._scenario_module = any(
            fragment in self.path for fragment in HYP007_PATH_FRAGMENTS
        )
        self._class_depth = 0
        self._func_stack: list[str] = []

    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            LintFinding(
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                code=code,
                message=message,
            )
        )

    # -- HYP001 / HYP002: call-site rules ---------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_path(node.func, self.aliases)
        if dotted is not None:
            self._check_randomness(node, dotted)
            self._check_wall_clock(node, dotted)
        self._check_print(node)
        self.generic_visit(node)

    def _check_randomness(self, node: ast.Call, dotted: str) -> None:
        in_random = dotted.startswith("random.") or dotted.startswith("numpy.random.")
        if not in_random:
            return
        if dotted in SEEDED_CONSTRUCTORS:
            if node.args or node.keywords:
                return
            self._flag(
                node,
                "HYP001",
                f"{dotted}() without an explicit seed — simulations must be "
                "reproducible; pass the workload/config seed",
            )
            return
        self._flag(
            node,
            "HYP001",
            f"call to {dotted}() uses hidden global RNG state — construct a "
            "seeded generator (random.Random(seed) / "
            "numpy.random.default_rng(seed)) instead",
        )

    def _check_wall_clock(self, node: ast.Call, dotted: str) -> None:
        if self._wall_clock_exempt or dotted not in WALL_CLOCK_CALLS:
            return
        self._flag(
            node,
            "HYP002",
            f"wall-clock read {dotted}() in simulation code — virtual time "
            "comes from the engine; host timing belongs in repro/perf/",
        )

    def _check_print(self, node: ast.Call) -> None:
        if self._print_exempt:
            return
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            self._flag(
                node,
                "HYP006",
                "direct print() in library code — route user-facing output "
                "through repro.util.logging (get_logger) or a designated "
                "stdout surface (harness/cli.py, harness/report.py)",
            )

    # -- HYP003: class rules ----------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._class_depth == 0:
            self._check_slots(node)
        self._class_depth += 1
        self.generic_visit(node)
        self._class_depth -= 1

    def _check_slots(self, node: ast.ClassDef) -> None:
        if not self._hot_module or node.name in HYP003_EXEMPT_CLASSES:
            return
        if _is_plain_data_class(node) or _has_slots(node):
            return
        self._flag(
            node,
            "HYP003",
            f"hot-path class {node.name} has no __slots__ — instances in "
            "this module are per-page/per-object and dominate memory; add "
            "__slots__ (or dataclass(slots=True)), or exempt a true "
            "singleton in repro.analysis.lint",
        )

    # -- HYP005: serialisation functions ----------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node.name in SERIALISATION_FUNCTIONS:
            self._check_sorted_iteration(node)
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # -- HYP007: per-element access loops in scenario code -----------------
    def visit_For(self, node: ast.For) -> None:
        self._check_access_loop(node, node.body)
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        self._check_access_loop(node, node.body)
        self.generic_visit(node)

    def _check_access_loop(self, loop: ast.AST, body: list[ast.stmt]) -> None:
        if not self._scenario_module:
            return
        if any(name in HYP007_EXEMPT_FUNCTIONS for name in self._func_stack):
            return
        # walk the loop body without descending into nested loops: an inner
        # loop is checked by its own visit, and only the loop actually
        # issuing the per-element accesses should be flagged
        stack: list[ast.AST] = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.For, ast.While)):
                continue
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in HYP007_ACCESS_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "ctx"
            ):
                self._flag(
                    node,
                    "HYP007",
                    f"per-element ctx.{node.func.attr}() inside a loop in "
                    "scenario code — emit the accesses as script ops "
                    "(pre-grouped *_run ops for runs) so the interpreter "
                    "replays each segment in one memory call; exempt "
                    "deliberate per-element loops in repro.analysis.lint",
                )
                return
            stack.extend(ast.iter_child_nodes(node))

    def _check_sorted_iteration(self, func: ast.FunctionDef) -> None:
        for node in ast.walk(func):
            iterators: list[ast.expr] = []
            if isinstance(node, ast.For):
                iterators = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iterators = [gen.iter for gen in node.generators]
            for it in iterators:
                if (
                    isinstance(it, ast.Call)
                    and isinstance(it.func, ast.Attribute)
                    and it.func.attr in ("items", "keys", "values")
                ):
                    self._flag(
                        it,
                        "HYP005",
                        f"unsorted .{it.func.attr}() iteration inside "
                        f"{func.name}() — serialised output must not depend "
                        "on insertion order; wrap in sorted(...)",
                    )


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------
def lint_source(source: str, path: str = "<string>") -> list[LintFinding]:
    """Lint one module's source text; returns findings sorted by location."""
    tree = ast.parse(source, filename=path)
    linter = _Linter(path, tree)
    linter.visit(tree)
    return sorted(linter.findings, key=lambda f: (f.line, f.col, f.code))


def lint_paths(paths: Iterable[str]) -> list[LintFinding]:
    """Lint every ``.py`` file under *paths* (files or directories)."""
    findings: list[LintFinding] = []
    for raw in paths:
        root = Path(raw)
        if root.is_dir():
            files = sorted(root.rglob("*.py"))
        elif root.suffix == ".py":
            files = [root]
        else:
            raise FileNotFoundError(f"not a python file or directory: {raw}")
        for file in files:
            findings.extend(lint_source(file.read_text(encoding="utf-8"), str(file)))
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.code))
