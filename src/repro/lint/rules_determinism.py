"""DET00x: wall-clock, global RNG, unordered-iteration, pacing, and
builtin-hash rules."""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.context import ENTROPY_SOURCES, FileContext, dotted_name
from repro.lint.engine import Rule
from repro.lint.findings import Finding

__all__ = [
    "NoBuiltinHash",
    "NoClosedLoopPacing",
    "NoGlobalRng",
    "NoUnorderedIteration",
    "NoWallClock",
]


class NoWallClock(Rule):
    """DET001: no wall-clock reads or OS entropy sources.

    Seeded pipeline stages must be pure functions of (inputs, seed); a
    single ``time.time()`` or ``os.urandom()`` makes reruns diverge and
    silently invalidates cached artifacts.  The replay pacer, live
    backend, calibration harness, and telemetry stage timers *are*
    wall-clock consumers by design -- those sites carry
    ``# repro: allow-wall-clock`` pragmas.
    """

    rule_id = "DET001"
    slug = "wall-clock"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve(node.func)
            if target in ENTROPY_SOURCES:
                yield ctx.finding(
                    self.rule_id, self.slug, node,
                    f"call to wall-clock/entropy source `{target}`; "
                    "deterministic stages must be pure functions of "
                    "(inputs, seed) -- pass timestamps in, or pragma an "
                    "intentional boundary site",
                )


#: ``np.random`` attributes that are part of the *explicit* Generator
#: API and therefore fine to call.
_NUMPY_RANDOM_OK = frozenset({
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
})


class NoGlobalRng(Rule):
    """DET002: no legacy / global RNG state.

    ``np.random.<dist>()`` and the stdlib ``random`` module draw from
    hidden process-global streams: any library call or import-order
    change silently reorders every downstream sample, which corrupts the
    KS/Smirnov comparisons this repo exists to make.  Randomness must
    flow through an explicit ``np.random.Generator`` parameter (see
    ``repro.parallel.spawn_rngs`` for the sharded derivation).
    """

    rule_id = "DET002"
    slug = "global-rng"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                target = ctx.resolve(node.func)
                if target is None:
                    continue
                if target.startswith("numpy.random."):
                    tail = target.removeprefix("numpy.random.")
                    if tail.split(".")[0] not in _NUMPY_RANDOM_OK:
                        yield ctx.finding(
                            self.rule_id, self.slug, node,
                            f"legacy global-state RNG call `{target}`; "
                            "draw from an explicit np.random.Generator "
                            "parameter instead",
                        )
                elif target.startswith("random."):
                    yield ctx.finding(
                        self.rule_id, self.slug, node,
                        f"stdlib global RNG call `{target}`; use a "
                        "seeded np.random.Generator parameter instead",
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        yield ctx.finding(
                            self.rule_id, self.slug, node,
                            "import of stdlib `random` (process-global "
                            "RNG state); use numpy Generators",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    yield ctx.finding(
                        self.rule_id, self.slug, node,
                        "import from stdlib `random` (process-global "
                        "RNG state); use numpy Generators",
                    )


def _unordered_tag(node: ast.expr) -> str | None:
    """A human-readable tag when ``node`` evaluates to something whose
    iteration order is not reproducible, else ``None``."""
    if isinstance(node, ast.Set):
        return "set literal"
    if isinstance(node, ast.SetComp):
        return "set comprehension"
    if isinstance(node, ast.Call):
        parts = dotted_name(node.func)
        if parts in (["set"], ["frozenset"]):
            return f"{parts[0]}()"
        if isinstance(node.func, ast.Attribute):
            if (node.func.attr == "keys"
                    and not node.args and not node.keywords):
                return "dict .keys() view"
            if node.func.attr in ("intersection", "union", "difference",
                                  "symmetric_difference"):
                return f"set .{node.func.attr}()"
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        # ``d.keys() | {1}`` and friends produce sets when either
        # operand is set-like.
        for side in (node.left, node.right):
            tag = _unordered_tag(side)
            if tag is not None:
                return f"set expression ({tag} operand)"
    return None


class NoUnorderedIteration(Rule):
    """DET003: no set / ``dict.keys()`` iteration feeding ordered output.

    In seeded packages (``repro.core``, ``repro.traces``, ``repro.stats``,
    the generator/arrivals stages) loop order determines output array
    layout and RNG consumption order, so iterating a ``set`` -- whose
    order depends on hash seeding and insertion history -- silently
    reorders results between runs.  Iterate ``sorted(...)`` instead.
    Order-insensitive reductions (``len``/``sum``/``min``/``sorted``/
    membership tests) are not flagged.
    """

    rule_id = "DET003"
    slug = "unordered-iter"

    #: Call targets that consume their first argument into an ordered
    #: sequence -- feeding them an unordered iterable is the hazard.
    _ORDERING_CONSUMERS = frozenset({
        "list", "tuple", "enumerate", "array", "asarray", "fromiter",
    })

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_seeded_package:
            return
        for node in ast.walk(ctx.tree):
            for it, via in self._iteration_sites(node):
                tag = _unordered_tag(it)
                if tag is not None:
                    yield ctx.finding(
                        self.rule_id, self.slug, node,
                        f"{via} over unordered {tag} in a seeded "
                        "package; iterate sorted(...) so output order "
                        "is reproducible",
                    )

    def _iteration_sites(
        self, node: ast.AST
    ) -> Iterator[tuple[ast.expr, str]]:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter, "loop"
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                yield gen.iter, "comprehension"
        elif isinstance(node, ast.Call):
            parts = dotted_name(node.func)
            if parts and parts[-1] in self._ORDERING_CONSUMERS and node.args:
                yield node.args[0], f"{parts[-1]}(...)"


#: Identifier fragments that betray a sleep computed from *response*
#: timing rather than the trace schedule.
_COMPLETION_TOKENS = (
    "latency",
    "elapsed",
    "response",
    "reply",
    "rtt",
    "completion",
    "roundtrip",
    "service_time",
    "took",
)


def _name_tokens(node: ast.expr) -> set[str]:
    """Lower-cased identifier fragments appearing in an expression."""
    out: set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id.lower())
        elif isinstance(n, ast.Attribute):
            out.add(n.attr.lower())
    return out


def _completion_tokens(tokens: set[str]) -> set[str]:
    return {t for t in tokens
            if any(frag in t for frag in _COMPLETION_TOKENS)}


class NoClosedLoopPacing(Rule):
    """DET004: no response-completion-driven scheduling in loadgen.

    An open-loop load generator schedules every send from the *trace
    clock*; sleeping for a duration derived from the previous response's
    completion time (its latency, elapsed time, RTT, ...) turns the
    dispatcher closed-loop, which silently stretches the schedule under
    backend slowness and hides queueing delay from the measured
    latencies -- the coordinated-omission failure the wrk2
    constant-throughput model exists to avoid.  Scoped to
    ``repro.loadgen``: pacing sleeps keyed on schedule targets
    (``epoch + ts/speed``) or on retry backoff are fine; sleeps keyed on
    completion-timing identifiers are flagged.  Intentional sites carry
    ``# repro: allow-closed-loop-pacing`` pragmas.
    """

    rule_id = "DET004"
    slug = "closed-loop-pacing"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.module.startswith("repro.loadgen"):
            return
        for scope in self._scopes(ctx.tree):
            assigns: dict[str, set[str]] = {}
            sleeps: list[ast.Call] = []
            for node in self._scope_walk(scope):
                if (isinstance(node, ast.Assign)
                        and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)):
                    assigns.setdefault(
                        node.targets[0].id, set()
                    ).update(_name_tokens(node.value))
                elif (isinstance(node, ast.AugAssign)
                      and isinstance(node.target, ast.Name)):
                    assigns.setdefault(
                        node.target.id, set()
                    ).update(_name_tokens(node.value))
                elif (isinstance(node, ast.Call) and node.args
                      and ctx.resolve(node.func) == "time.sleep"):
                    sleeps.append(node)
            for call in sleeps:
                arg = call.args[0]
                hits = _completion_tokens(_name_tokens(arg))
                if not hits and isinstance(arg, ast.Name):
                    # one level of local dataflow: `pause = latency * k;
                    # time.sleep(pause)` is still closed-loop pacing
                    hits = _completion_tokens(
                        assigns.get(arg.id, set())
                    )
                if hits:
                    named = ", ".join(sorted(hits))
                    yield ctx.finding(
                        self.rule_id, self.slug, call,
                        "sleep derived from response-completion timing "
                        f"(`{named}`) -- closed-loop pacing hides "
                        "queueing delay (coordinated omission); "
                        "schedule sends from the trace clock instead",
                    )

    def _scopes(self, tree: ast.Module) -> Iterator[ast.AST]:
        yield tree
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    def _scope_walk(self, scope: ast.AST) -> Iterator[ast.AST]:
        """Walk a scope without descending into nested function bodies
        (each nested function is analysed as its own scope)."""
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))


class NoBuiltinHash(Rule):
    """DET006: no builtin ``hash()`` in deterministic modules.

    CPython salts ``str``/``bytes`` hashes per process
    (``PYTHONHASHSEED``), so a placement or bucketing decision keyed on
    ``hash(workload_id)`` differs between two runs of one seed -- and
    between the two processes of a cache writer and reader.  Use a
    stable digest such as ``zlib.crc32`` or ``hashlib.blake2b``.
    """

    rule_id = "DET006"
    slug = "builtin-hash"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_deterministic_scope:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve(node.func)
            if target == "builtins.hash" or (
                target is None
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
            ):
                yield ctx.finding(
                    self.rule_id, self.slug, node,
                    "builtin `hash()` is salted per process; use a "
                    "stable digest (zlib.crc32, hashlib.blake2b) so "
                    "reruns in other processes agree",
                )
