"""Project-wide symbol table and call graph for whole-program rules.

The per-file rules (DET001..) see one ``ast.Module`` at a time, which is
exactly the blind spot an unseeded RNG laundered through a helper, a
fork-unsafe global mutated three calls below a worker entry point, or an
unregistered bulk method exploits.  :class:`ProjectContext` closes it:
every file under the linted tree is parsed once, its functions and
classes land in a fully-qualified symbol table, and every call site is
resolved -- through import aliases, same-module names, ``self.``/
``cls.`` method dispatch, and project base classes -- into a call graph
the interprocedural rules (:mod:`repro.lint.rules_interproc`) traverse.

Resolution is deliberately *syntactic*: no type inference, no tracking
of values through containers or call results.  A call the resolver
cannot name becomes an external edge (kept, so taint sources like
``time.time`` stay visible) or is dropped (attribute chains rooted in
locals).  That makes the graph an under-approximation of real dispatch
-- fine for lint rules, which want high-signal findings, not soundness
proofs.

The taint layer computes, by monotone fixpoint over the graph (cycles
terminate because the tainted set only grows), which project functions
*return* values derived from wall-clock/entropy sources -- the
``returns_tainted`` set DET005 checks deterministic-stage call sites
against.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.context import ENTROPY_SOURCES, FileContext, dotted_name

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ProjectContext",
    "build_project",
]

#: Constructors that are entropy sources only when called *without*
#: arguments: a seedless ``np.random.default_rng()`` seeds from OS
#: entropy.  DET005 treats them, like ``ENTROPY_SOURCES``, as taint roots.
UNSEEDED_CONSTRUCTORS = frozenset({
    "numpy.random.default_rng",
    "numpy.random.SeedSequence",
})


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge: ``target`` is a fully-qualified project
    symbol (``repro.loadgen.service._run_shard``) or an external dotted
    name (``time.time``); ``node`` is the ``ast.Call`` for findings."""

    target: str
    node: ast.Call = field(compare=False, hash=False)


@dataclass
class FunctionInfo:
    """One function or method in the project symbol table."""

    qualname: str
    module: str
    name: str
    cls: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    ctx: FileContext
    calls: list[CallSite] = field(default_factory=list)

    @property
    def path(self) -> Path:
        return self.ctx.path


@dataclass
class ClassInfo:
    """One class: its methods by name and its resolvable base classes."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    ctx: FileContext
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: Fully-qualified project base classes (external bases dropped);
    #: ``is_interface`` marks Protocol/ABC declarations.
    bases: list[str] = field(default_factory=list)
    is_interface: bool = False


def _is_interface_class(node: ast.ClassDef, ctx: FileContext) -> bool:
    """Protocol / ABC declarations describe a pair, they don't implement
    one -- PAR001 and the taint layer skip them."""
    for base in node.bases:
        resolved = ctx.resolve(base) or ".".join(dotted_name(base))
        tail = resolved.rsplit(".", 1)[-1] if resolved else ""
        if tail in ("Protocol", "ABC", "ABCMeta"):
            return True
    return False


class _SymbolCollector:
    """First pass: module-level functions, classes, and their methods."""

    def __init__(self, project: ProjectContext) -> None:
        self.project = project

    def collect(self, ctx: FileContext) -> None:
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(ctx, node, cls=None)
            elif isinstance(node, ast.ClassDef):
                self._add_class(ctx, node)

    def _add_function(
        self,
        ctx: FileContext,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        cls: ClassInfo | None,
    ) -> FunctionInfo:
        scope = f"{cls.name}." if cls is not None else ""
        info = FunctionInfo(
            qualname=f"{ctx.module}.{scope}{node.name}",
            module=ctx.module,
            name=node.name,
            cls=cls.name if cls is not None else None,
            node=node,
            ctx=ctx,
        )
        self.project.functions[info.qualname] = info
        if cls is not None:
            cls.methods[node.name] = info
        return info

    def _add_class(self, ctx: FileContext, node: ast.ClassDef) -> None:
        info = ClassInfo(
            qualname=f"{ctx.module}.{node.name}",
            module=ctx.module,
            name=node.name,
            node=node,
            ctx=ctx,
            is_interface=_is_interface_class(node, ctx),
        )
        for base in node.bases:
            resolved = ctx.resolve(base)
            if resolved is None:
                parts = dotted_name(base)
                if len(parts) == 1:
                    resolved = f"{ctx.module}.{parts[0]}"
            if resolved is not None:
                info.bases.append(resolved)
        self.project.classes[info.qualname] = info
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(ctx, child, cls=info)


@dataclass
class ProjectContext:
    """Whole-program view over every linted file.

    Built once per lint run by :func:`build_project`; per-file rule
    contexts carry a reference (``FileContext.project``), so a rule can
    stay a per-file generator while consulting cross-module facts.
    """

    #: module name -> its parsed per-file context
    modules: dict[str, FileContext] = field(default_factory=dict)
    #: fully-qualified function name -> info (methods use Class.method)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: fully-qualified class name -> info
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: project root (the directory holding ``src``), when detectable
    root: Path | None = None
    _returns_tainted: dict[str, str] | None = None
    _worker_reachable: frozenset[str] | None = None
    _harness_names: frozenset[str] | None = None

    # ------------------------------------------------------------------
    # symbol lookup
    # ------------------------------------------------------------------
    def function(self, qualname: str) -> FunctionInfo | None:
        return self.functions.get(qualname)

    def resolve_method(self, cls_qualname: str, name: str) -> str | None:
        """Resolve ``name`` on a class, walking project base classes
        (linear, cycle-guarded -- an approximation of the MRO)."""
        seen: set[str] = set()
        stack = [cls_qualname]
        while stack:
            qn = stack.pop(0)
            if qn in seen:
                continue
            seen.add(qn)
            cls = self.classes.get(qn)
            if cls is None:
                continue
            if name in cls.methods:
                return cls.methods[name].qualname
            stack.extend(cls.bases)
        return None

    # ------------------------------------------------------------------
    # call resolution (second pass)
    # ------------------------------------------------------------------
    def _resolve_call(
        self, fn: FunctionInfo, node: ast.Call
    ) -> str | None:
        ctx = fn.ctx
        func = node.func
        parts = dotted_name(func)
        if not parts:
            return None
        # self.m(...) / cls.m(...) inside a method
        if fn.cls is not None and len(parts) == 2 and parts[0] in (
            "self", "cls",
        ):
            return self.resolve_method(f"{fn.module}.{fn.cls}", parts[1])
        resolved = ctx.resolve(func)
        if resolved is not None:
            target = self._project_target(resolved)
            return target if target is not None else resolved
        # bare name: same-module function or class
        if len(parts) == 1:
            candidate = f"{fn.module}.{parts[0]}"
            if candidate in self.functions:
                return candidate
            if candidate in self.classes:
                return candidate
        # ClassName.method(...) within the same module
        if len(parts) == 2:
            cls_candidate = f"{fn.module}.{parts[0]}"
            if cls_candidate in self.classes:
                return self.resolve_method(cls_candidate, parts[1])
        return None

    def _project_target(self, dotted: str) -> str | None:
        """Map an import-resolved dotted name onto a project symbol.

        ``repro.platform.schedulers.RandomScheduler.pick`` ->
        the ``RandomScheduler.pick`` method; plain functions and classes
        match directly; re-exports through ``__init__`` fall through to
        the defining module when the name is unambiguous.
        """
        if dotted in self.functions or dotted in self.classes:
            return dotted
        head, _, tail = dotted.rpartition(".")
        if head in self.classes:
            return self.resolve_method(head, tail)
        # ``from repro.platform import FaaSCluster``: the alias resolves
        # to repro.platform.FaaSCluster but the class lives one module
        # deeper.  Match by (package prefix, symbol name) when unique.
        if head in self.modules or any(
            m.startswith(head + ".") for m in self.modules
        ):
            hits = [
                qn for qn, c in self.classes.items()
                if c.name == tail and c.module.startswith(head)
            ] + [
                qn for qn, f in self.functions.items()
                if f.name == tail and f.cls is None
                and f.module.startswith(head)
            ]
            if len(hits) == 1:
                return hits[0]
        return None

    def _link_calls(self) -> None:
        for fn in self.functions.values():
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                target = self._resolve_call(fn, node)
                if target is None:
                    continue
                # calling a class = calling its constructor
                if target in self.classes:
                    init = self.resolve_method(target, "__init__")
                    target = init if init is not None else target
                fn.calls.append(CallSite(target=target, node=node))

    # ------------------------------------------------------------------
    # RNG / wall-clock taint fixpoint
    # ------------------------------------------------------------------
    @staticmethod
    def is_entropy_call(ctx: FileContext, node: ast.Call) -> bool:
        resolved = ctx.resolve(node.func)
        if resolved in ENTROPY_SOURCES:
            return True
        return (
            resolved in UNSEEDED_CONSTRUCTORS
            and not node.args
            and not node.keywords
        )

    @property
    def returns_tainted(self) -> dict[str, str]:
        """Project functions whose return value derives from wall-clock
        or unseeded entropy, mapped to a human-readable reason chain
        (``"time.time via _now"``).  Fixpoint over the call graph, so a
        value laundered through any number of pure-looking hops is still
        tracked back to its source.
        """
        if self._returns_tainted is None:
            self._returns_tainted = self._compute_taint()
        return self._returns_tainted

    def _compute_taint(self) -> dict[str, str]:
        tainted: dict[str, str] = {}
        changed = True
        while changed:
            changed = False
            for fn in self.functions.values():
                if fn.qualname in tainted:
                    continue
                reason = self._function_taints_return(fn, tainted)
                if reason is not None:
                    tainted[fn.qualname] = reason
                    changed = True
        return tainted

    def _function_taints_return(
        self, fn: FunctionInfo, tainted: dict[str, str]
    ) -> str | None:
        """Does ``fn`` return a tainted value, given the current tainted
        set?  One level of local dataflow: names assigned from tainted
        expressions are tainted when returned."""
        call_taint: dict[ast.Call, str] = {}
        for site in fn.calls:
            if site.target in tainted:
                call_taint[site.node] = f"{site.target} (tainted)"
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call) and self.is_entropy_call(
                fn.ctx, node
            ):
                resolved = fn.ctx.resolve(node.func)
                call_taint[node] = resolved or "entropy source"

        def expr_taint(expr: ast.AST | None) -> str | None:
            if expr is None:
                return None
            for sub in ast.walk(expr):
                if isinstance(sub, ast.Call) and sub in call_taint:
                    return call_taint[sub]
                if isinstance(sub, ast.Name) and sub.id in local_taint:
                    return local_taint[sub.id]
            return None

        # two passes over assignments so a taint flowing through one
        # intermediate local (`t = now(); elapsed = t - t0`) is caught
        # without a full per-function fixpoint
        local_taint: dict[str, str] = {}
        for _ in range(2):
            for node in ast.walk(fn.node):
                if isinstance(node, (ast.Assign, ast.AnnAssign,
                                     ast.AugAssign, ast.NamedExpr)):
                    value = node.value
                    reason = expr_taint(value)
                    if reason is None:
                        continue
                    targets = (node.targets
                               if isinstance(node, ast.Assign)
                               else [node.target])
                    for target in targets:
                        for name in ast.walk(target):
                            if isinstance(name, ast.Name):
                                local_taint.setdefault(name.id, reason)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Return):
                reason = expr_taint(node.value)
                if reason is not None:
                    return reason
        return None

    # ------------------------------------------------------------------
    # worker-entry reachability (fork-safety scope)
    # ------------------------------------------------------------------
    @property
    def worker_entry_points(self) -> list[FunctionInfo]:
        """Functions handed to ``Process(target=...)`` anywhere in the
        project -- the code that runs inside forked/spawned workers."""
        entries: list[FunctionInfo] = []
        seen: set[str] = set()
        for fn in self.functions.values():
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                parts = dotted_name(node.func)
                if not parts or parts[-1] != "Process":
                    continue
                for kw in node.keywords:
                    if kw.arg != "target":
                        continue
                    target_parts = dotted_name(kw.value)
                    if len(target_parts) != 1:
                        continue
                    qn = f"{fn.module}.{target_parts[0]}"
                    resolved = (
                        qn if qn in self.functions
                        else fn.ctx.resolve(kw.value)
                    )
                    if resolved in self.functions and resolved not in seen:
                        seen.add(resolved)
                        entries.append(self.functions[resolved])
        return entries

    @property
    def worker_reachable(self) -> frozenset[str]:
        """Call-graph closure from every worker entry point: the set of
        project functions that (may) execute inside a worker process."""
        if self._worker_reachable is None:
            reached: set[str] = set()
            stack = [fn.qualname for fn in self.worker_entry_points]
            while stack:
                qn = stack.pop()
                if qn in reached:
                    continue
                reached.add(qn)
                fn = self.functions.get(qn)
                if fn is None:
                    continue
                stack.extend(
                    site.target for site in fn.calls
                    if site.target in self.functions
                )
                # a nested def inside a reachable function runs in the
                # worker too; nested functions are not in the symbol
                # table, so their calls are already part of fn.node
            self._worker_reachable = frozenset(reached)
        return self._worker_reachable

    # ------------------------------------------------------------------
    # parity-harness cross-reference (PAR001)
    # ------------------------------------------------------------------
    #: Files whose identifier sets define "registered in the parity
    #: suite", relative to the project root / source tree.
    HARNESS_RELPATHS = (
        Path("tests") / "test_simulator_equivalence.py",
    )
    HARNESS_MODULES = ("repro.platform.diffsim",)

    @property
    def harness_names(self) -> frozenset[str]:
        """Every identifier appearing in the scalar/bulk parity harness
        (the differential-equivalence test module and ``diffsim``)."""
        if self._harness_names is None:
            names: set[str] = set()
            sources: list[str] = []
            for mod in self.HARNESS_MODULES:
                ctx = self.modules.get(mod)
                if ctx is not None:
                    sources.append(ctx.source)
            if self.root is not None:
                for rel in self.HARNESS_RELPATHS:
                    candidate = self.root / rel
                    try:
                        sources.append(candidate.read_text())
                    except OSError:
                        continue
            for source in sources:
                try:
                    tree = ast.parse(source)
                except SyntaxError:
                    continue
                for node in ast.walk(tree):
                    if isinstance(node, ast.Name):
                        names.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        names.add(node.attr)
                    elif isinstance(node, ast.alias):
                        names.add(node.name.rsplit(".", 1)[-1])
            self._harness_names = frozenset(names)
        return self._harness_names


def project_root_of(path: Path) -> Path | None:
    """The directory holding ``src`` (or containing ``repro``) above a
    source file -- where ``tests/`` lives."""
    resolved = path.resolve()
    for parent in resolved.parents:
        if parent.name == "src":
            return parent.parent
    for parent in resolved.parents:
        if (parent / "tests").is_dir() and (
            (parent / "src").is_dir() or (parent / "repro").is_dir()
        ):
            return parent
    return None


def build_project(contexts: list[FileContext]) -> ProjectContext:
    """Assemble the whole-program view from parsed per-file contexts."""
    project = ProjectContext()
    for ctx in contexts:
        project.modules[ctx.module] = ctx
        if project.root is None:
            project.root = project_root_of(ctx.path)
    collector = _SymbolCollector(project)
    for ctx in contexts:
        collector.collect(ctx)
    project._link_calls()
    for ctx in contexts:
        ctx.project = project
    return project
